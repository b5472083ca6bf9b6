"""Controllability, observability, Gramians, and control-energy metrics.

Controllability comes from one orthogonal staircase (Van Dooren, "The
generalized eigenstructure problem in linear system theory", IEEE TAC
1981): an orthonormal basis of the controllable subspace, grown block by
block from B without ever forming the Kalman matrix [B, AB, ...], which
is numerically rank-deficient for chains of more than a few vehicles.
Its size is the controllable dimension, and the eigenvalues of A on the
orthogonal complement, listed with multiplicity, are the uncontrollable
modes.  That complement is the last d - r left singular vectors of the
d x r basis itself, so the staircase alone decides the rank.  A mode
repeated m times in a Jordan block, as the upstream HDV modes of a
general chain are, is computed to about eps^(1/m) relative accuracy
only; the dimension does not depend on it.  Observability runs
the same staircase on the dual pair (A', C'), and its basis alone names
the unobservable vehicles: a state lies in the unobservable subspace
when its row of the basis vanishes.  Open-loop chains carry a
zero eigenvalue, so Gramians are only meaningful on a finite horizon;
they are integrated as the matrix ODE

    dW/dt = A W + W A' + B B',   W(0) = 0,

with a classic fourth-order Runge-Kutta scheme at the paper's fixed step
``GRAMIAN_DT`` = 0.01 s; no caller picks another.  Each RK4 stage writes
into d x d buffers allocated once per call, with the operands and the
order of evaluation of the plain expressions, so W is what they would
give bit for bit.  Successive horizons of one pair (A, B) lie on one RK4
path when they share the step h = t / round(t/GRAMIAN_DT), so
``gramian`` keeps the last path's end state and a longer horizon
continues from it.  A free-driving chain's A is block lower triangular
(a vehicle reads only the vehicles ahead of it), so the chain of n
followers is the leading block of any longer one, and so is its
Gramian: Fig. 5 integrates the 30 s path of its longest chain once, not
30 s for each n.  The resume rule goes away with RK4 itself once the
Gramian is computed in factor form (ROADMAP item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, TopologyError
from .systems import StateSpaceModel, SystemVariant, build_system, validate_count
from .vehicles import LinearCoeffs

__all__ = [
    "ControllabilityReport",
    "ObservabilityReport",
    "GramianResult",
    "condition_check",
    "pbh_controllability",
    "pbh_observability",
    "build_output_matrix",
    "gramian",
    "energy_scaling_study",
]

# Relative cutoff under which a Gramian eigenvalue counts as zero.
GRAMIAN_SINGULAR_RTOL = 1e-12

# Step of every Gramian integration (s), the paper's Fig. 5 step.
GRAMIAN_DT = 0.01

# Most RK4 steps one ``gramian`` call takes: about 28 h of horizon at
# ``GRAMIAN_DT``, where Fig. 5 takes 3,000 per chain.
GRAMIAN_MAX_STEPS = 10**7

# A staircase singular value counts as zero at or below this many
# d * eps * max(|A|, |B|).  The chains' staircase steps are O(1), so the
# dimensions do not move for any factor from 1 to 1e9.
STAIRCASE_TOL_FACTOR = 100.0

# The last RK4 path of ``gramian``: (key, steps done, W before
# symmetrisation), key = (h, A.shape, B.shape, A bytes, B bytes).  The
# stored W is never returned, so no caller can write into it.
_rk4_path: Optional[Tuple[tuple, int, np.ndarray]] = None


@dataclass
class ControllabilityReport:
    controllable: bool
    controllable_dim: int
    uncontrollable_mode_eigenvalues: List[complex]
    condition_value: Optional[float] = None


@dataclass
class ObservabilityReport:
    observable: bool
    observable_dim: int
    unobservable_vehicle_ids: List[int]


@dataclass
class GramianResult:
    W: np.ndarray
    t_horizon: float
    lambda_min: float
    trace_inv: Optional[float]  # None marks a numerically singular Gramian


def condition_check(c: LinearCoeffs) -> float:
    """Controllability condition value alpha1 - alpha2*alpha3 + alpha3^2.

    The chain is fully controllable from the CAV whenever this is nonzero.
    """
    return c.alpha1 - c.alpha2 * c.alpha3 + c.alpha3**2


def _controllable_basis(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the controllable subspace of (A, B), d x r.

    Orthogonal staircase: starting from B, each new block of directions
    is A times the previous one, projected against the basis found so far (twice, to
    keep the columns orthogonal to working precision); the singular
    vectors whose singular values exceed one fixed tolerance join the
    basis.  The search stops when a block adds nothing or the basis spans
    the whole space.
    """
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise NumericalError("system matrices contain non-finite entries")
    d = A.shape[0]
    scale = max(np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    tol = STAIRCASE_TOL_FACTOR * d * np.finfo(float).eps * scale
    Q = np.zeros((d, 0))
    block = B
    while Q.shape[1] < d:
        for _ in range(2):
            block = block - Q @ (Q.T @ block)
        U, sv, _ = np.linalg.svd(block, full_matrices=False)
        new = U[:, sv > tol]
        if new.shape[1] == 0:
            break
        Q = np.hstack([Q, new])
        block = A @ new
    return Q


def pbh_controllability(
    A: np.ndarray,
    B: np.ndarray,
    coeffs: Optional[LinearCoeffs] = None,
) -> ControllabilityReport:
    """Controllable subspace of (A, B) and its uncontrollable modes.

    The dimension is the size of the staircase basis Q.  In the basis
    [Q, Q2], with Q2 the orthonormal complement of Q, A is block upper
    triangular, and the eigenvalues of Q2' A Q2 (listed with
    multiplicity) are exactly the lambda at which the PBH pencil
    [lambda*I - A, B] loses rank.  A mode repeated m times in a Jordan
    block is only accurate to about eps^(1/m) relative; the dimension is
    unaffected.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    Q = _controllable_basis(A, B)
    Q2 = np.linalg.svd(Q)[0][:, Q.shape[1]:]
    modes = np.linalg.eigvals(Q2.T @ A @ Q2)
    return ControllabilityReport(
        controllable=Q.shape[1] == A.shape[0],
        controllable_dim=Q.shape[1],
        uncontrollable_mode_eigenvalues=[
            complex(z) for z in sorted(modes, key=lambda z: (z.real, z.imag))
        ],
        condition_value=condition_check(coeffs) if coeffs is not None else None,
    )


def pbh_observability(
    A: np.ndarray,
    C: np.ndarray,
    model: Optional[StateSpaceModel] = None,
) -> ObservabilityReport:
    """Observability of (A, C), computed as controllability of (A', C').

    The staircase basis Q of (A', C') spans the row space of the
    observability matrix, so its orthonormal complement Q2 spans the
    unobservable subspace.  When the originating model is supplied, a
    vehicle is listed as unobservable when at least one of its states
    lies in that subspace: its row of Q2 has unit norm.  [Q, Q2] is
    orthogonal, so |Q2[r]|^2 = 1 - |Q[r]|^2 is read off Q itself.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float).reshape(-1, A.shape[0])
    Q = _controllable_basis(A.T, C.T)
    unobservable_ids: List[int] = []
    if model is not None:
        q2_norms = np.sqrt(np.maximum(1.0 - np.sum(Q**2, axis=1), 0.0))
        for vid, rows in sorted(model.index_map.items()):
            if any(q2_norms[r] > 1.0 - 1e-6 for r in rows):
                unobservable_ids.append(vid)
    return ObservabilityReport(
        observable=Q.shape[1] == A.shape[0],
        observable_dim=Q.shape[1],
        unobservable_vehicle_ids=unobservable_ids,
    )


def build_output_matrix(model: StateSpaceModel, k: int) -> np.ndarray:
    """Measurement matrix for a CAV that hears vehicle k's velocity error.

    CF/FD chains measure the single signal v~_k.  General chains add the
    CAV's own spacing and velocity errors as rows (it always knows its own
    state).  For CCC chains pass k = 0: the CAV measures only itself.
    """
    d = model.dim
    if model.variant is SystemVariant.CCC:
        if k != 0:
            raise TopologyError("ccc chains have no followers; only k=0 is measurable")
        rows = [model.index_map[0][0], model.index_map[0][1]]
    elif model.variant is SystemVariant.GENERAL_LCC:
        if not 1 <= k <= model.n:
            raise TopologyError(f"k must lie in 1..{model.n}, got {k}")
        rows = [model.index_map[0][0], model.index_map[0][1], model.index_map[k][1]]
    else:
        if not 1 <= k <= model.n:
            raise TopologyError(f"k must lie in 1..{model.n}, got {k}")
        rows = [model.index_map[k][1]]
    C = np.zeros((len(rows), d))
    for i, r in enumerate(rows):
        C[i, r] = 1.0
    return C


def _summarize(W: np.ndarray) -> Tuple[float, Optional[float]]:
    """(lambda_min, trace_inv) of a symmetric Gramian W.

    trace_inv is None once the smallest eigenvalue falls below
    ``GRAMIAN_SINGULAR_RTOL`` of the largest, which is the regime where
    the inverse stops being numerically meaningful.
    """
    lam = np.linalg.eigvalsh(W)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    if lam_max <= 0 or lam_min < GRAMIAN_SINGULAR_RTOL * lam_max:
        return lam_min, None
    return lam_min, float(np.sum(1.0 / lam))


def gramian(A: np.ndarray, B: np.ndarray, t: float) -> GramianResult:
    """Finite-horizon controllability Gramian of (A, B).

    Integrates dW/dt = A W + W A' + B B' from zero with RK4 at
    ``GRAMIAN_DT``, symmetrizes the result, and summarizes it by its
    smallest eigenvalue and the trace of its inverse (``_summarize``;
    None where W is numerically singular).  Raises ValueError, naming t,
    past ``GRAMIAN_MAX_STEPS`` steps.

    Resume rule: when the previous call had the same A, B and step
    h = t / round(t/GRAMIAN_DT) and took no more steps than this one
    needs, the integration continues from that call's end state instead
    of from zero.  It runs the very same step expressions with the same
    h, so W is bit-for-bit what a fresh integration gives.  Any other call
    starts from zero and becomes the path later calls continue, so
    ascending horizons with one step integrate one path, as
    ``energy_scaling_study``'s do for its longest chain.  The rule goes
    away with RK4 (ROADMAP item 2).
    """
    global _rk4_path
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"horizon t must be finite and > 0, got t={t}")
    if not t / GRAMIAN_DT <= GRAMIAN_MAX_STEPS:
        raise ValueError(
            f"horizon t must take at most {GRAMIAN_MAX_STEPS:.0e} steps of "
            f"{GRAMIAN_DT} s, got t={t}"
        )
    A = np.ascontiguousarray(A, dtype=float)  # so the buffers below are C-ordered too
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    AT, BBt = A.T, B @ B.T
    n_steps = max(1, round(t / GRAMIAN_DT))
    h = t / n_steps
    # each stage's k and the next stage's argument W + c k, in buffers of their own
    k1, k2, k3, k4, X, S, T = (np.empty_like(A) for _ in range(7))
    stages = ((k1, 0.5 * h), (k2, 0.5 * h), (k3, h), (k4, None))
    matmul, add, multiply = np.matmul, np.add, np.multiply  # each writes its third argument

    key = (h, A.shape, B.shape, A.tobytes(), B.tobytes())
    path = _rk4_path  # read once: another thread may replace it
    if path is not None and path[0] == key and path[1] <= n_steps:
        done, W = path[1], path[2].copy()  # W is stepped in place, the stored one never
    else:
        done, W = 0, np.zeros_like(A)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        for _ in range(n_steps - done):
            x = W
            for k, c in stages:
                # k = (A x + x A') + B B'
                matmul(A, x, k)
                matmul(x, AT, T)
                add(k, T, k)
                add(k, BBt, k)
                if c is not None:
                    multiply(c, k, X)
                    x = add(W, X, X)
            # W + (h/6) (((k1 + 2 k2) + 2 k3) + k4)
            multiply(2.0, k2, T)
            add(k1, T, S)
            multiply(2.0, k3, T)
            add(S, T, S)
            add(S, k4, S)
            multiply(h / 6.0, S, S)
            add(W, S, W)
    if not np.all(np.isfinite(W)):
        raise NumericalError(
            f"Gramian integration produced non-finite entries at horizon t={t} "
            f"with RK4 step GRAMIAN_DT={GRAMIAN_DT} s"
        )
    _rk4_path = (key, n_steps, W)
    W = 0.5 * (W + W.T)
    lam_min, trace_inv = _summarize(W)
    return GramianResult(W=W, t_horizon=t, lambda_min=lam_min, trace_inv=trace_inv)


def energy_scaling_study(
    coeffs: LinearCoeffs,
    n_range: Iterable[int],
    t_list: Sequence[float],
) -> List[Tuple[int, float, float, Optional[float]]]:
    """Gramian energy metrics across chain sizes and horizons.

    Emits (n, t, lambda_min, trace_inv) rows for the free-driving chain
    of each n: n ascending, and within each n the horizons in
    ``t_list``'s order, so [10.0, 5.0] gives (1, 10.0), (1, 5.0),
    (2, 10.0), ...  trace_inv is None where the Gramian is singular.

    Only the longest chain is integrated.  Its A is block lower
    triangular, so the chain of n followers is its leading d x d block
    (d read off the model's ``index_map``) and that chain's Gramian is
    the leading block of the longest chain's.  Its distinct horizons go
    to ``gramian`` in ascending order, so those that share an RK4 step
    integrate one path.
    """
    # each n checked as it comes, so a range past the limit fails at its first bad n
    ns = sorted({validate_count("n", int(n)) for n in n_range})
    if not ns:
        raise ValueError("n_range must be nonempty")
    ts = [float(t) for t in t_list]
    if not ts:
        raise ValueError("t_list must be nonempty")
    model = build_system(SystemVariant.FD_LCC, 0, ns[-1], coeffs)
    W = {t: gramian(model.A, model.B, t).W for t in sorted(set(ts))}
    rows = []
    for n in ns:
        d = model.index_map[n][1] + 1
        for t in ts:
            rows.append((n, t, *_summarize(W[t][:d, :d])))
    return rows
