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

    def cell_class(self, i: int, j: int) -> str:
        return str(self.classes[i, j])

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
    mu_p, k_p, mu_f, k_f = _gain_arrays(spec)
    mags_sq = kernels.gamma_mag_sq_grid(
        np.asarray(omegas, dtype=float),
        spec.coeffs.alpha1,
        spec.coeffs.alpha2,
        spec.coeffs.alpha3,
        mu_p,
        k_p,
        mu_f,
        k_f,
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
    A_cl = closed_loop_matrix(model, spec.gains, baseline=True)
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


def _golden_refine(f, lo: float, hi: float, iters: int = 60) -> Tuple[float, float]:
    """Golden-section maximization of f over [lo, hi] in log-omega space."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-12:
            break
    x = 0.5 * (a + b)
    return x, f(x)


def _peak_magnitude(
    coeffs: LinearCoeffs, mu_p, k_p, mu_f, k_f, grid: FrequencyGrid
) -> Tuple[float, float]:
    """Max of |Gamma(j w)| over the grid, refined around the discrete peak."""
    omegas = grid.omegas()
    mags_sq = kernels.gamma_mag_sq_grid(
        omegas, coeffs.alpha1, coeffs.alpha2, coeffs.alpha3, mu_p, k_p, mu_f, k_f
    )
    if not np.all(np.isfinite(mags_sq)):
        raise EvaluationError(
            f"non-finite gain at omega={omegas[int(np.argmax(~np.isfinite(mags_sq)))]:.4g}"
        )
    i = int(np.argmax(mags_sq))
    lo = math.log(omegas[max(i - 1, 0)])
    hi = math.log(omegas[min(i + 1, len(omegas) - 1)])

    def f(logw):
        return kernels.gamma_mag_sq_scalar(
            math.exp(logw),
            coeffs.alpha1,
            coeffs.alpha2,
            coeffs.alpha3,
            mu_p,
            k_p,
            mu_f,
            k_f,
        )

    logw, mag_sq = _golden_refine(f, lo, hi)
    if mags_sq[i] >= mag_sq:
        return float(omegas[i]), math.sqrt(float(mags_sq[i]))
    return math.exp(logw), math.sqrt(mag_sq)


def _max_real_eig(spec: TransferSpec) -> float:
    _, A_cl, _ = _oracle_model(spec)
    return float(np.max(np.linalg.eigvals(A_cl).real))


def is_string_stable(
    spec: TransferSpec, grid: Optional[FrequencyGrid] = None
) -> StringStabilityResult:
    """Grid-plus-refinement string-stability verdict for one gain set."""
    grid = grid or FrequencyGrid()
    mu_p, k_p, mu_f, k_f = _gain_arrays(spec)
    peak_omega, peak_mag = _peak_magnitude(spec.coeffs, mu_p, k_p, mu_f, k_f, grid)
    return StringStabilityResult(
        stable=peak_mag < 1.0 - PEAK_MARGIN,
        peak_omega=peak_omega,
        peak_mag=peak_mag,
        asymptotically_stable=_max_real_eig(spec) <= EIG_TOL,
    )


def _axis_slot(spec: TransferSpec, axis: GainAxis):
    """(array-name, index) the axis writes into the kernel gain arrays."""
    vid = axis.vehicle
    if vid == 0 or not -spec.m <= vid <= spec.n:
        raise TopologyError(f"axis vehicle {vid} outside -{spec.m}..-1, 1..{spec.n}")
    side = "p" if vid < 0 else "f"
    return f"{axis.component}_{side}", abs(vid) - 1


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
    slot1, slot2 = _axis_slot(base, axis1), _axis_slot(base, axis2)

    model, A_base, _ = _oracle_model(base)
    u_row = model.index_map[0][1]
    col1 = model.index_map[axis1.vehicle][0 if axis1.component == "mu" else 1]
    col2 = model.index_map[axis2.vehicle][0 if axis2.component == "mu" else 1]
    base1 = arrays[slot1[0]][slot1[1]]
    base2 = arrays[slot2[0]][slot2[1]]

    vals1, vals2 = axis1.values(), axis2.values()
    classes = np.empty((axis1.points, axis2.points), dtype="<U2")
    A_cell = A_base.copy()
    for i, g1 in enumerate(vals1):
        arrays[slot1[0]][slot1[1]] = g1
        A_cell[u_row, col1] = A_base[u_row, col1] + (g1 - base1)
        for j, g2 in enumerate(vals2):
            arrays[slot2[0]][slot2[1]] = g2
            A_cell[u_row, col2] = A_base[u_row, col2] + (g2 - base2)
            try:
                if np.max(np.linalg.eigvals(A_cell).real) > EIG_TOL:
                    classes[i, j] = CLASS_ASYMP_UNSTABLE
                    continue
                _, peak = _peak_magnitude(
                    base.coeffs,
                    arrays["mu_p"],
                    arrays["k_p"],
                    arrays["mu_f"],
                    arrays["k_f"],
                    grid,
                )
                classes[i, j] = (
                    CLASS_STABLE if peak < 1.0 - PEAK_MARGIN else CLASS_UNSTABLE
                )
            except (EvaluationError, np.linalg.LinAlgError) as exc:
                log.warning("cell (%g, %g) failed to evaluate: %s", g1, g2, exc)
                classes[i, j] = CLASS_ASYMP_UNSTABLE
    return RegionMap(axis1=axis1, axis2=axis2, classes=classes)
