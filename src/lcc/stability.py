"""Head-to-tail transfer functions, string-stability verdicts, gain scans.

The chain maps the head vehicle's velocity perturbation to the tail
vehicle's through

    Gamma(s) = G(s) * (phi/gamma)^(n+m),

where phi(s) = alpha3*s + alpha1 and gamma(s) = s^2 + alpha2*s + alpha1
form the local HDV transfer function, and G collects the CAV's feedback
terms on the vehicles it listens to.  The chain is string stable when
|Gamma(j w)| stays below one for every positive frequency.

Verdicts are computed on a log-spaced frequency grid with golden-section
refinement of the discrete peak; asymptotic stability is judged
separately from the closed-loop eigenvalues, since a bounded transfer
magnitude says nothing about internally unstable dynamics.

Both run on batches of gain sets (``is_string_stable`` is a batch of
one): a scan makes one ``eigvals`` call per chunk of cells, evaluates the
grid per block of cells and runs the golden sections of a chunk in lockstep.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .errors import EvaluationError, TopologyError
from .systems import (
    FeedbackGains,
    StateSpaceModel,
    SystemVariant,
    build_system,
    closed_loop_matrix,
)
from .vehicles import LinearCoeffs

__all__ = [
    "TransferSpec",
    "FrequencyGrid",
    "GainAxis",
    "RegionMap",
    "StringStabilityResult",
    "phi_gamma",
    "transfer_value",
    "head_to_tail",
    "magnitude_curve",
    "state_space_gain",
    "is_string_stable",
    "scan_region",
]

log = logging.getLogger(__name__)

# Verdict margin on |Gamma| < 1 and eigenvalue real-part tolerance.
PEAK_MARGIN = 1e-9
EIG_TOL = 1e-6

# Golden-section steps, cells x grid points per grid kernel call (16 cells
# at 1000 points: 256 KiB temporaries) and matrix entries per scan chunk.
_GOLDEN_ITERS = 60
_GRID_ENTRIES = 16_000
_CHUNK_ENTRIES = 2**16

CLASS_STABLE = "SS"
CLASS_UNSTABLE = "SU"
CLASS_ASYMP_UNSTABLE = "AU"


@dataclass(frozen=True)
class TransferSpec:
    """Chain layout and CAV gains that define one transfer function."""

    m: int
    n: int
    coeffs: LinearCoeffs
    gains: FeedbackGains = field(default_factory=FeedbackGains)

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise TopologyError(f"m and n must be >= 0, got m={self.m}, n={self.n}")
        allowed = set(range(-self.m, 0)) | set(range(1, self.n + 1))
        bad = self.gains.ids() - allowed
        if bad:
            raise TopologyError(
                f"gain ids {sorted(bad)} outside -{self.m}..-1, 1..{self.n}"
            )


@dataclass(frozen=True)
class FrequencyGrid:
    """Log-spaced evaluation grid over strictly positive frequencies."""

    omega_min: float = 1e-2
    omega_max: float = 1e2
    points: int = 1000

    def __post_init__(self):
        if not self.omega_min > 0:
            raise ValueError(f"omega_min must be > 0, got {self.omega_min}")
        if not self.omega_max > self.omega_min:
            raise ValueError("omega_max must exceed omega_min")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")

    def omegas(self) -> np.ndarray:
        return np.logspace(
            math.log10(self.omega_min), math.log10(self.omega_max), self.points
        )


@dataclass(frozen=True)
class GainAxis:
    """One scanned gain coordinate: (vehicle, mu-or-k) over a range."""

    vehicle: int
    component: str  # "mu" or "k"
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if self.component not in ("mu", "k"):
            raise ValueError(f"component must be 'mu' or 'k', got {self.component!r}")
        if self.points < 1:
            raise ValueError("axis needs at least 1 point")
        if self.points > 1 and not self.hi > self.lo:
            raise ValueError("axis range must have hi > lo")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.points)


@dataclass
class RegionMap:
    """Row-major classification of a 2-D gain grid."""

    axis1: GainAxis
    axis2: GainAxis
    classes: np.ndarray  # (axis1.points, axis2.points) of SS/SU/AU codes

    def stable_mask(self) -> np.ndarray:
        return self.classes == CLASS_STABLE


@dataclass
class StringStabilityResult:
    stable: bool
    peak_omega: float
    peak_mag: float
    asymptotically_stable: bool


def phi_gamma(c: LinearCoeffs, s: complex) -> Tuple[complex, complex]:
    """Numerator/denominator polynomials of the local HDV transfer function."""
    return c.alpha1 + c.alpha3 * s, c.alpha1 + c.alpha2 * s + s * s


def _gain_arrays(spec: TransferSpec):
    mu_p = np.zeros(spec.m)
    k_p = np.zeros(spec.m)
    mu_f = np.zeros(spec.n)
    k_f = np.zeros(spec.n)
    for vid, g in spec.gains.mu.items():
        (mu_p if vid < 0 else mu_f)[abs(vid) - 1] = g
    for vid, g in spec.gains.k.items():
        (k_p if vid < 0 else k_f)[abs(vid) - 1] = g
    return mu_p, k_p, mu_f, k_f


def transfer_value(spec: TransferSpec, s: complex) -> complex:
    """Closed-form Gamma(s) at an arbitrary complex point."""
    c = spec.coeffs
    phi, gam = phi_gamma(c, s)
    if phi == 0 or gam == 0:
        raise EvaluationError(f"local transfer function singular at s={s}")
    r = phi / gam
    inv_r = gam / phi
    mu_p, k_p, mu_f, k_f = _gain_arrays(spec)
    num = phi
    rp = 1.0 + 0.0j
    for d in range(spec.m):
        num += (mu_p[d] * (inv_r - 1.0) + k_p[d] * s) * rp
        rp *= inv_r
    den = gam
    rf = r
    for j in range(spec.n):
        den -= (mu_f[j] * (inv_r - 1.0) + k_f[j] * s) * rf
        rf *= r
    if den == 0:
        raise EvaluationError(f"transfer-function pole at s={s}")
    value = (num / den) * r ** (spec.m + spec.n)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvaluationError(f"non-finite transfer value at s={s}")
    return value


def head_to_tail(spec: TransferSpec, omega: float) -> complex:
    """Gamma(j omega) for a positive excitation frequency."""
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return transfer_value(spec, 1j * omega)


def magnitude_curve(spec: TransferSpec, omegas: np.ndarray) -> np.ndarray:
    """|Gamma(j w)| on an array of frequencies (kernel-accelerated)."""
    c = spec.coeffs
    mags_sq = kernels.gamma_mag_sq_grid(
        np.asarray(omegas, dtype=float), c.alpha1, c.alpha2, c.alpha3, *_gain_arrays(spec)
    )
    return np.sqrt(mags_sq)


def _oracle_model(spec: TransferSpec) -> Tuple[StateSpaceModel, np.ndarray, np.ndarray]:
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
    model, A_cl, C = _oracle_model(spec)
    lhs = 1j * omega * np.eye(model.dim) - A_cl
    x = np.linalg.solve(lhs, model.H[:, 0].astype(complex))
    return complex(C @ x)


@np.errstate(over="ignore", invalid="ignore")
def _peak_magnitude(
    coeffs: LinearCoeffs, mu_p, k_p, mu_f, k_f, grid: FrequencyGrid
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max of |Gamma(j w)| over the grid, refined around the discrete peak.

    Gains are ``(m|n, cells)`` arrays.  Returns per cell the peak omega and
    magnitude, and the first omega of a non-finite grid value (else NaN).
    Floating-point overflow is silenced here: the callers report each
    non-finite cell themselves.
    """
    a1, a2, a3, gains = coeffs.alpha1, coeffs.alpha2, coeffs.alpha3, (mu_p, k_p, mu_f, k_f)
    omegas, cells = grid.omegas(), mu_p.shape[1]
    i, grid_sq, bad_omega = np.zeros(cells, np.intp), np.zeros(cells), np.full(cells, np.nan)
    block = max(1, _GRID_ENTRIES // omegas.size)
    for start in range(0, cells, block):
        blk = slice(start, start + block)
        mags_sq = np.broadcast_to(
            kernels.gamma_mag_sq_grid(omegas, a1, a2, a3, *(g[:, blk, None] for g in gains)),
            i[blk].shape + omegas.shape,
        )
        bad = ~np.isfinite(mags_sq)
        bad_omega[blk] = np.where(bad.any(axis=1), omegas[np.argmax(bad, axis=1)], np.nan)
        i[blk] = np.argmax(mags_sq, axis=1)
        grid_sq[blk] = np.max(mags_sq, axis=1)

    def f(logw):
        return kernels.gamma_mag_sq_scalar(np.exp(logw), a1, a2, a3, *gains)

    # Golden section in log-omega between the grid peak's neighbours, in lockstep.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.log(omegas[np.maximum(i - 1, 0)])
    b = np.log(omegas[np.minimum(i + 1, omegas.size - 1)])
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    live = np.ones(cells, dtype=bool)
    for _ in range(_GOLDEN_ITERS):
        left = fc > fd
        lt, rt = left & live, ~left & live
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - invphi * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + invphi * (b[rt] - a[rt])
        fx = f(np.where(left, c, d))
        fc[lt], fd[rt] = fx[lt], fx[rt]
        live &= ~(b - a < 1e-12)
    x = 0.5 * (a + b)
    fx = f(x)
    keep = grid_sq >= fx
    return np.where(keep, omegas[i], np.exp(x)), np.sqrt(np.where(keep, grid_sq, fx)), bad_omega


def is_string_stable(
    spec: TransferSpec, grid: Optional[FrequencyGrid] = None
) -> StringStabilityResult:
    """Grid-plus-refinement string-stability verdict for one gain set."""
    grid = grid or FrequencyGrid()
    gains = (g[:, None] for g in _gain_arrays(spec))  # a batch of one cell
    peak_omega, peak_mag, bad_omega = _peak_magnitude(spec.coeffs, *gains, grid)
    if not np.isnan(bad_omega[0]):
        raise EvaluationError(f"non-finite gain at omega={bad_omega[0]:.4g}")
    A_cl = _oracle_model(spec)[1]
    return StringStabilityResult(
        stable=bool(peak_mag[0] < 1.0 - PEAK_MARGIN),
        peak_omega=float(peak_omega[0]),
        peak_mag=float(peak_mag[0]),
        asymptotically_stable=bool(np.max(np.linalg.eigvals(A_cl).real) <= EIG_TOL),
    )


def _axis_slot(spec: TransferSpec, axis: GainAxis):
    """(array-name, index) the axis writes into the kernel gain arrays."""
    vid = axis.vehicle
    if vid == 0 or not -spec.m <= vid <= spec.n:
        raise TopologyError(f"axis vehicle {vid} outside -{spec.m}..-1, 1..{spec.n}")
    side = "p" if vid < 0 else "f"
    return f"{axis.component}_{side}", abs(vid) - 1


def _unstable_cells(stack: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Flag the matrices of a (cells, d, d) stack with an eigenvalue right of EIG_TOL.

    A batch that fails is redone matrix by matrix; a failing matrix is flagged and logged.
    """
    try:
        return np.max(np.linalg.eigvals(stack).real, axis=-1) > EIG_TOL
    except np.linalg.LinAlgError as exc:
        if len(stack) == 1:
            log.warning("cell (%g, %g) failed to evaluate: %s", g1[0], g2[0], exc)
            return np.ones(1, dtype=bool)
    return np.concatenate(
        [_unstable_cells(stack[q : q + 1], g1[q:], g2[q:]) for q in range(len(stack))]
    )


def scan_region(
    base: TransferSpec,
    axis1: GainAxis,
    axis2: GainAxis,
    grid: Optional[FrequencyGrid] = None,
) -> RegionMap:
    """Classify every cell of a 2-D gain grid.

    Cells whose closed loop has an eigenvalue with real part above the
    tolerance are marked AU outright; the remaining cells get the string
    verdict.  Cells that fail to evaluate are marked AU with a logged
    diagnostic.  Cell order is row-major in (axis1, axis2).
    """
    if (axis1.vehicle, axis1.component) == (axis2.vehicle, axis2.component):
        raise TopologyError("scan axes must address distinct gain coordinates")
    grid = grid or FrequencyGrid()
    arrays = dict(zip(("mu_p", "k_p", "mu_f", "k_f"), _gain_arrays(base)))
    slots = [_axis_slot(base, axis) for axis in (axis1, axis2)]
    model, A_base, _ = _oracle_model(base)
    u_row = model.index_map[0][1]
    cols = [model.index_map[a.vehicle][0 if a.component == "mu" else 1] for a in (axis1, axis2)]
    values = np.repeat(axis1.values(), axis2.points), np.tile(axis2.values(), axis1.points)

    classes = np.full(values[0].size, CLASS_ASYMP_UNSTABLE)
    chunk = max(1, _CHUNK_ENTRIES // model.dim**2)
    for start in range(0, classes.size, chunk):
        g1, g2 = (v[start : start + chunk] for v in values)
        stack = np.repeat(A_base[None], g1.size, axis=0)
        gains = {k: np.repeat(v[:, None], g1.size, axis=1) for k, v in arrays.items()}
        for (name, idx), col, g in zip(slots, cols, (g1, g2)):
            stack[:, u_row, col] = A_base[u_row, col] + (g - arrays[name][idx])
            gains[name][idx] = g
        live = np.flatnonzero(~_unstable_cells(stack, g1, g2))
        gains = {k: v[:, live] for k, v in gains.items()}
        _, peak, bad_omega = _peak_magnitude(base.coeffs, **gains, grid=grid)
        ok = np.isnan(bad_omega)
        for q in np.flatnonzero(~ok):
            log.warning(
                "cell (%g, %g) failed to evaluate: non-finite gain at omega=%.4g",
                g1[live[q]], g2[live[q]], bad_omega[q],
            )
        verdict = np.where(peak[ok] < 1.0 - PEAK_MARGIN, CLASS_STABLE, CLASS_UNSTABLE)
        classes[start + live[ok]] = verdict
    return RegionMap(axis1, axis2, classes.reshape(axis1.points, axis2.points))
