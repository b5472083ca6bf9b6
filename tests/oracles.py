"""Reference implementations the tests check ``lcc`` against.

Each one takes a different route from the code under test:
``state_space_gain`` evaluates the head-to-tail response through the
assembled closed-loop matrices and a dense linear solve instead of
Gamma's product form, ``ovm_acceleration`` is the paper's scalar OVM
law, which ``linearize`` differentiates in closed form,
``total_fuel_per_vehicle`` and ``aave_per_vehicle`` integrate one
vehicle's column at a time, where ``metrics`` integrates the whole set in
one call, and ``au_exact`` builds Den(s + EIG_TOL) in ``mpmath`` from the
shifted phi and gamma, where ``stability`` shifts a double Den by Horner's rule.
"""

from itertools import zip_longest
from typing import Iterable, Optional, Tuple

import mpmath
import numpy as np

from lcc import (
    DriverParams,
    LinearCoeffs,
    SimulationTrace,
    StateSpaceModel,
    SystemVariant,
    TransferSpec,
    build_system,
    closed_loop_matrix,
    fuel_rate,
)
from lcc.stability import EIG_TOL
from lcc.vehicles import ovm_ramp

# The drivers of the longest-chain checks, by name, None for the paper's: lightly damped
# HDVs (zeta = 0.25 and 0.05) round off worst.
REACH_COEFFS = {
    "default": None,
    "light": LinearCoeffs(alpha1=0.157, alpha2=0.2, alpha3=0.1),
    "slow": LinearCoeffs(alpha1=0.01, alpha2=0.01, alpha3=0.005),
}


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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b, scale=1):
    return [x + scale * y for x, y in zip_longest(a, b, fillvalue=0)]


def _shifted_den(spec: TransferSpec):
    """Ascending coefficients of Den(s + EIG_TOL), each of the double inputs taken exactly:
    gamma^(n+1) - sum_i (mu_i (gamma - phi) + k_i s phi) phi^(i-1) gamma^(n-i), with s,
    phi and gamma all shifted."""
    c, one, tol = spec.coeffs, mpmath.mpf(1), mpmath.mpf(EIG_TOL)
    a1, a2, a3 = (mpmath.mpf(a) for a in (c.alpha1, c.alpha2, c.alpha3))
    phi = [a1 + a3 * tol, a3]
    s_phi = _poly_mul([tol, one], phi)
    gam = [a1 + a2 * tol + tol * tol, a2 + 2 * tol, one]
    phis, gams = [[one]], [[one]]
    for _ in range(spec.n + 1):
        phis.append(_poly_mul(phis[-1], phi))
        gams.append(_poly_mul(gams[-1], gam))
    den = gams[spec.n + 1]
    for i in range(1, spec.n + 1):
        mu, k = (mpmath.mpf(g.get(i, 0.0)) for g in (spec.gains.mu, spec.gains.k))
        term = _poly_add(_poly_mul([mu], _poly_add(gam, phi, -1)), _poly_mul([k], s_phi))
        den = _poly_add(den, _poly_mul(term, _poly_mul(phis[i - 1], gams[spec.n - i])), -1)
    return den


def _not_hurwitz(ascending) -> bool:
    """Whether the first column of the polynomial's Routh array has an entry that is not
    positive; the leading coefficient is 1."""
    desc = ascending[::-1]
    a, b = desc[0::2], desc[1::2]
    while b:
        if not b[0] > 0:
            return True
        a, b = b, [x - a[0] / b[0] * y for x, y in zip_longest(a[1:], b[1:], fillvalue=0)]
    return False


def au_exact(spec: TransferSpec, digits=(60, 200)) -> Optional[bool]:
    """Whether the closed loop of ``spec`` is AU, Den(s + EIG_TOL) not Hurwitz, by the Routh
    array in ``mpmath`` at each precision in ``digits``; None where they disagree."""
    answers = set()
    for dps in digits:
        with mpmath.workdps(dps):
            answers.add(_not_hurwitz(_shifted_den(spec)))
    return answers.pop() if len(answers) == 1 else None
