"""Host-speed reference for scaling the benchmark's timings.

On a shared host the CPU time a fixed piece of work takes can drift by 2x
over minutes, far beyond any regression bound worth having.  The
benchmark therefore times this fixed reference work before and after
every op and every setup probe, and scales each timing by ``NOMINAL_S``
over the mean of its two references: the result is in "reference-speed
seconds", which equal wall seconds on a host where the reference work
takes ``NOMINAL_S``.  Per-op brackets matter: the host flips between a
fast and a ~2x slower state every few seconds.  Raw wall times are kept
in the report.

The work mixes what ``lcc`` spends its time on: a Python loop over numpy
array elements (the chain stepper), complex arithmetic (the
transfer-function kernel), float formatting (CSV output) and small
matrix products (Gramians).  It calls nothing in ``lcc``, so a change
to ``lcc`` cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Reference-work time that defines reference speed (about its time on a
# quiet 2-vCPU Xeon host with CPython 3.11).
NOMINAL_S = 0.0025
REPEATS = 3


def reference_work():
    pos = np.zeros((2, 12))
    vel = np.full((2, 12), 15.0)
    for _ in range(100):
        for j in range(1, 12):
            gap = pos[0, j - 1] - pos[0, j] + 20.0
            acc = 0.6 * (math.cos(0.01 * gap) - 0.01 * vel[0, j])
            vel[1, j] = vel[0, j] + 0.01 * acc
            pos[1, j] = pos[0, j] + 0.01 * vel[0, j]
        pos[0, 1:] = pos[1, 1:]
        vel[0, 1:] = vel[1, 1:]
    z = 0.1j
    for _ in range(1500):
        z = (z * 0.9 + 1.0) / (z + 2.0)
    text = ",".join(f"{k * 0.37:.12g}" for k in range(500))
    m = np.eye(8) * 0.5
    for _ in range(60):
        m = m @ m + 0.1 * m
    return float(vel[0, 11]), z, len(text), float(m[0, 0])


def reference_time() -> float:
    """Median time of the reference work over a few back-to-back repeats."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Raw-to-reference-speed factor of a timing bracketed by two references."""
    return 2.0 * NOMINAL_S / (before + after)
