"""Fuel-consumption and velocity-error metrics over simulation traces."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from .sim import SimulationTrace

__all__ = ["fuel_rate", "total_fuel", "aave"]


def fuel_rate(v, a):
    """Instantaneous fuel consumption in mL/s at velocity v, acceleration a.

    An engine-load proxy R = 0.333 + 0.00108 v^2 + 1.2 a drives the rate;
    below zero load the engine idles at 0.444 mL/s, otherwise the rate
    grows with load times speed plus an acceleration surcharge that only
    applies while accelerating.  Accepts scalars or arrays.
    """
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(v < 0):
        raise ValueError("velocity must be >= 0")
    R = 0.333 + 0.00108 * v**2 + 1.2 * a
    rate = 0.444 + 0.09 * R * v + np.where(a > 0, 0.054 * a**2 * v, 0.0)
    out = np.where(R <= 0, 0.444, rate)
    return float(out) if out.ndim == 0 else out


def _metric_vehicles(trace: SimulationTrace, vehicles) -> list:
    if vehicles is None:
        return [vid for vid in trace.ids if vid != "h"]
    vids = list(vehicles)
    if not vids:
        raise ValueError("vehicle set is empty")
    return vids


def _window(trace: SimulationTrace, window, vehicles):
    """The vehicle set, its columns and the window's row mask of ``trace``."""
    vids = _metric_vehicles(trace, vehicles)
    mask = trace.window_mask(*window)
    return vids, [trace.col(vid) for vid in vids], mask


def _rows(samples: np.ndarray, mask: np.ndarray, cols: list) -> np.ndarray:
    """The masked rows of ``samples`` as one C-contiguous row per column of
    ``cols``, in set order (``take`` always returns a C-ordered array).

    Such a row reduces along ``axis=-1`` as a 1-D array does, so one
    ``np.trapezoid`` over every row rounds as one call per vehicle."""
    return samples.compress(mask, axis=0).T.take(cols, axis=0)


def total_fuel(
    trace: SimulationTrace,
    window: Tuple[float, float],
    vehicles: Optional[Iterable] = None,
) -> float:
    """Fuel burned (mL) by a set of vehicles over a time window.

    Trapezoidal time integral of each vehicle's instantaneous rate,
    summed over the set (all non-head vehicles by default), which must
    not be empty.  A window holding fewer than two samples integrates to
    zero; a reversed or non-finite window, or a vehicle not in the trace,
    raises ValueError.
    """
    _, cols, mask = _window(trace, window, vehicles)
    if mask.sum() < 2:
        return 0.0
    rates = fuel_rate(_rows(trace.velocity, mask, cols), _rows(trace.acceleration, mask, cols))
    total = 0.0
    for fuel in np.trapezoid(rates, trace.times[mask], axis=-1).tolist():
        total += fuel
    return total


def aave(
    trace: SimulationTrace,
    window: Tuple[float, float],
    vehicles: Optional[Iterable] = None,
) -> float:
    """Average absolute velocity error (m/s) over a window and vehicle set.

    Time-averages |v_i - v*| per vehicle (trapezoidal), with v* the
    trace's equilibrium velocity, then averages across the set, which
    must not be empty.  Windows and vehicles are checked as in
    ``total_fuel``.
    """
    vids, cols, mask = _window(trace, window, vehicles)
    if mask.sum() < 2:
        return 0.0
    t = trace.times[mask]
    span = t[-1] - t[0]
    dev = np.abs(_rows(trace.velocity, mask, cols) - trace.v_star)
    acc = 0.0
    for err in np.trapezoid(dev, t, axis=-1).tolist():
        acc += err / span
    return acc / len(vids)
