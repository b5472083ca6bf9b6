"""Reference implementations the tests check ``lcc`` against.

Each one takes a different route from the code under test:
``state_space_gain`` evaluates the head-to-tail response through the
assembled closed-loop matrices and a dense linear solve instead of
Gamma's product form, ``ovm_acceleration`` is the paper's scalar OVM
law, which ``linearize`` differentiates in closed form, and
``total_fuel_per_vehicle`` and ``aave_per_vehicle`` integrate one
vehicle's column at a time, where ``metrics`` integrates the whole set in
one call.
"""

from typing import Iterable, Optional, Tuple

import numpy as np

from lcc import (
    DriverParams,
    SimulationTrace,
    StateSpaceModel,
    SystemVariant,
    TransferSpec,
    build_system,
    closed_loop_matrix,
    fuel_rate,
)
from lcc.vehicles import ovm_ramp


def oracle_model(spec: TransferSpec) -> Tuple[StateSpaceModel, np.ndarray, np.ndarray]:
    """Closed-loop state-space realization with head input and tail output."""
    if spec.m >= 1 and spec.n >= 1:
        variant = SystemVariant.GENERAL_LCC
    elif spec.m == 0:
        variant = SystemVariant.CF_LCC
    else:
        variant = SystemVariant.CCC
    model = build_system(variant, spec.m, spec.n, spec.coeffs)
    A_cl = closed_loop_matrix(model, spec.gains)
    tail = spec.n if spec.n >= 1 else 0
    C = np.zeros(model.dim)
    C[model.index_map[tail][1]] = 1.0
    return model, A_cl, C


def state_space_gain(spec: TransferSpec, omega: float) -> complex:
    """Frequency response C (j w I - A_cl)^(-1) H of the closed-loop chain.

    Independent of the closed-form path: goes through the assembled
    matrices and a dense linear solve.
    """
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    model, A_cl, C = oracle_model(spec)
    lhs = 1j * omega * np.eye(model.dim) - A_cl
    x = np.linalg.solve(lhs, model.H[:, 0].astype(complex))
    return complex(C @ x)


def ovm_acceleration(s: float, s_dot: float, v: float, p: DriverParams) -> float:
    """OVM acceleration alpha*(V(s) - v) + beta*s_dot (m/s^2)."""
    return p.alpha * (ovm_ramp(s, p.v_max, p.s_st, p.s_go) - v) + p.beta * s_dot


def _vehicle_set(trace: SimulationTrace, vehicles: Optional[Iterable]) -> list:
    return [vid for vid in trace.ids if vid != "h"] if vehicles is None else list(vehicles)


def total_fuel_per_vehicle(trace: SimulationTrace, window, vehicles=None) -> float:
    """``metrics.total_fuel`` with one rate and one trapezoid per vehicle."""
    mask = trace.window_mask(*window)
    if mask.sum() < 2:
        return 0.0
    t = trace.times[mask]
    total = 0.0
    for vid in _vehicle_set(trace, vehicles):
        j = trace.ids.index(vid)
        rate = fuel_rate(trace.velocity[mask, j], trace.acceleration[mask, j])
        total += float(np.trapezoid(rate, t))
    return total


def aave_per_vehicle(trace: SimulationTrace, window, vehicles=None) -> float:
    """``metrics.aave`` with one trapezoid per vehicle."""
    vids = _vehicle_set(trace, vehicles)
    mask = trace.window_mask(*window)
    if mask.sum() < 2:
        return 0.0
    t = trace.times[mask]
    span = t[-1] - t[0]
    acc = 0.0
    for vid in vids:
        dev = np.abs(trace.velocity[mask, trace.ids.index(vid)] - trace.v_star)
        acc += float(np.trapezoid(dev, t)) / span
    return acc / len(vids)
