"""Head-to-tail transfer functions, string-stability verdicts, gain scans.

The head vehicle's velocity perturbation reaches the tail through
Gamma(s) = G(s) (phi/gamma)^(n+m): phi = alpha3 s + alpha1 over
gamma = s^2 + alpha2 s + alpha1 is an HDV's own transfer function, and G
holds the CAV's feedback.  Clearing denominators, Gamma = Num phi^n / (Den gamma^m):

    Num = phi^(m+1) + sum_i (mu_-i (gamma - phi) + k_-i s phi) gamma^(i-1) phi^(m-i)
    Den = gamma^(n+1) - sum_i (mu_i (gamma - phi) + k_i s phi) phi^(i-1) gamma^(n-i)

Both are affine in the gains, Den is monic of degree 2n+2, and Den gamma^m
is det(sI - A_cl), the closed loop's characteristic polynomial.  Num holds
only the gains ahead of the CAV and Den only those of the CAV's followers,
so across a scan panel one of them repeats, often in every cell; each
distinct polynomial has its roots found once.  Every verdict comes from
Den's coefficients and these roots, with no frequency search, in this order:

1. asymptotically unstable (AU): a root of Den has real part above
   ``EIG_TOL`` (gamma's roots are stable for every ``LinearCoeffs``), or
   the chain fails to evaluate.  The Routh array of Den(s + EIG_TOL)
   decides it from the coefficients alone: AU unless every entry of its
   first column is positive.  A root with real part exactly EIG_TOL, or a
   breakdown, gives a zero or non-finite entry, and such a chain takes
   Den's companion roots instead, with AU where one lies right of EIG_TOL.
   |Gamma(jw)| is a steady-state gain only of a stable closed loop, so an
   AU chain is never string stable;
2. string unstable (SU), from the range's ends: Gamma(0) = 1, so |Gamma|
   at omega_min or omega_max often already reaches 1 - ``PEAK_MARGIN``,
   and a scan cell whose end value does so needs no search between them;
3. string stable (SS) or SU, from the stationary points: the peak of
   |Gamma(jw)| over [omega_min, omega_max] is below 1 - ``PEAK_MARGIN``
   or not.  In x = w^2, log|Gamma|^2 is a sum of log(x + z^2) over the
   roots z of Num, Den, phi and gamma, so its stationary points are the
   eigenvalues of a diagonal-plus-rank-one matrix, deflated at phi's real
   pole so that x = 0 is not one of them.  Without HDVs ahead of the CAV,
   Num = phi, and without HDVs behind it, Den = gamma: those roots are
   phi's or gamma's, in closed form.  The grid kernel evaluates |Gamma| at
   these few candidates, and the ends' values count as candidates too.

``_evaluate`` is the one place this class rule lives: ``scan_region``
stores the class of each cell, and ``is_string_stable`` reports the class
of its one chain, with the true peak even for AU, so it always takes step 3.

Companion-matrix roots lose accuracy as the degree grows, so a verdict
takes at most ``_MAX_REACH`` HDVs on each side of the CAV, counted up to
the farthest gain.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import kernels
from .errors import EvaluationError, TopologyError, bounded, check_limits, violation
from .systems import FeedbackGains, validate_count, validate_gain_ids
from .vehicles import LinearCoeffs

__all__ = [
    "TransferSpec",
    "FrequencyGrid",
    "GainAxis",
    "RegionMap",
    "StringStabilityResult",
    "phi_gamma",
    "transfer_value",
    "magnitude_curve",
    "is_string_stable",
    "scan_region",
]

log = logging.getLogger(__name__)

# Verdict margin on |Gamma| < 1 and root real-part tolerance.
PEAK_MARGIN = 1e-9
EIG_TOL = 1e-6

# omega's limits: the least omega whose square is a normal float, and the greatest whose
# square is finite.
_OMEGA_MIN_LIMIT = f">= {math.sqrt(sys.float_info.min)!r}"
_OMEGA_MAX_LIMIT = f"> {math.sqrt(sys.float_info.min)!r} and <= {math.sqrt(sys.float_info.max)!r}"

# A scanned gain's limit, well inside the scale at which round-off decides a cell's class:
# on 60 random panels (m, n <= 3, 6 x 6 cells) scanned over +-1e18 every class matched the
# cell's closed-loop poles; over +-1e50, 62 of 2160 did not.
_GAIN_LIMIT = ">= -1e6 and <= 1e6"

# Entries of the widest matrix stack a scan chunk builds (4 MiB of float64): the
# stationary points' K x K per searched cell, K = [m>0] max(m+1, 2m) + [n>0] (2n+2) + 2,
# with slots for Num's roots unless Num = phi (m = 0), Den's unless Den = gamma (n = 0)
# and gamma's, less the deflated one of phi (see ``scan_region``).  Each panel of the
# paper's region figure (K <= 12) takes one chunk.
_CHUNK_ENTRIES = 2**19

# HDVs a verdict's chain may have on either side of the CAV, up to its farthest gain.
# Companion-matrix roots of Num and Den lose accuracy as their degree grows: with a gain
# on every HDV and slow, lightly damped HDVs (alpha1 = 0.01, zeta = 0.05), 12 on a side
# put a peak 1e-2 low.  Up to 10, peaks and AU flags matched a dense grid and A_cl's poles.
_MAX_REACH = 10

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
        validate_count("m", self.m)
        validate_count("n", self.n)
        validate_gain_ids(self.gains.ids(), self.m, self.n)


@dataclass(frozen=True)
class FrequencyGrid:
    """Frequency range of the verdicts, and the log-spaced grid of plots."""

    omega_min: float = bounded(
        1e-2, _OMEGA_MIN_LIMIT, "lowest frequency of verdicts and magnitude CSV (rad/s)"
    )
    omega_max: float = bounded(
        1e2, _OMEGA_MAX_LIMIT, "highest frequency of verdicts and magnitude CSV (rad/s)"
    )
    points: int = bounded(1000, ">= 2", "log-spaced points of the stability magnitude CSV only")

    def __post_init__(self):
        for name in ("omega_min", "omega_max"):  # a bound must be a number to be squared
            if violation(getattr(self, name), "") == "a number":
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        # the verdicts work in x = omega^2: each bound's square must be finite, and omega_min's
        # normal, as a subnormal square loses the range's low end (0 below ~1.6e-162)
        square = self.omega_min * self.omega_min
        if not (0 < self.omega_min and sys.float_info.min <= square < math.inf):
            raise ValueError(
                f"omega_min must be finite and {_OMEGA_MIN_LIMIT}, "
                f"so that its square is a normal float, got {self.omega_min}"
            )
        if not (self.omega_min < self.omega_max and math.isfinite(self.omega_max * self.omega_max)):
            raise ValueError(
                "omega_max must be finite, with a finite square, and exceed omega_min, "
                f"got {self.omega_max}"
            )
        check_limits(self)

    def omegas(self) -> np.ndarray:
        return np.logspace(
            math.log10(self.omega_min), math.log10(self.omega_max), self.points
        )


@dataclass(frozen=True)
class GainAxis:
    """One scanned gain coordinate: (vehicle, mu-or-k) over a range."""

    vehicle: int = bounded(help="id of the vehicle whose gain is scanned")
    component: str = bounded(limit=("mu", "k"), help="scanned gain")
    lo: float = bounded(-10.0, _GAIN_LIMIT, "first gain value (1/s^2 for mu, 1/s for k)")
    hi: float = bounded(10.0, _GAIN_LIMIT, "last gain value")
    points: int = bounded(101, ">= 1", "gain values, evenly spaced")

    def __post_init__(self):
        check_limits(self)
        if self.points > 1 and not self.hi > self.lo:
            raise ValueError(f"axis range must have hi > lo, got lo={self.lo} and hi={self.hi}")

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


@dataclass(frozen=True)
class StringStabilityResult:
    """One chain's class (SS, SU or AU, as a scan cell gets it) and the peak of
    |Gamma(jw)| over the frequency range, reported for AU chains too."""

    verdict: str
    peak_omega: float
    peak_mag: float

    @property
    def stable(self) -> bool:
        return self.verdict == CLASS_STABLE

    @property
    def asymptotically_stable(self) -> bool:
        return self.verdict != CLASS_ASYMP_UNSTABLE


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


def _polynomials(spec: TransferSpec, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Num and Den of gain rows (1, mu_p, k_p, mu_f, k_f): affine, so one product with a basis."""
    c, m, n = spec.coeffs, spec.m, spec.n
    phi, gam = np.array([c.alpha1, c.alpha3]), np.array([c.alpha1, c.alpha2, 1.0])
    phis, gams = [np.ones(1)], [np.ones(1)]  # powers 0..max(m, n)+1
    for _ in range(max(m, n) + 1):
        phis.append(np.convolve(phis[-1], phi))
        gams.append(np.convolve(gams[-1], gam))
    terms = (gam - np.append(phi, 0.0), np.append(0.0, phi))  # gamma - phi, s phi
    pairs = [(phis[m + 1], gams[n + 1])]
    for t in terms:  # mu_p, then k_p
        pairs += [(np.convolve(t, np.convolve(gams[i], phis[m - 1 - i])), []) for i in range(m)]
    for t in terms:  # mu_f, then k_f
        pairs += [([], -np.convolve(t, np.convolve(phis[i], gams[n - 1 - i]))) for i in range(n)]
    split = max(m + 1, 2 * m) + 1
    basis = np.zeros((len(pairs), split + 2 * n + 3))
    for row, (num, den) in zip(basis, pairs):
        row[: len(num)], row[split : split + len(den)] = num, den
    return np.split(rows @ basis, [split], axis=1)


def _eigvals(stack: np.ndarray) -> Tuple[np.ndarray, Dict[int, str]]:
    """Eigenvalues of a stack of matrices, redone one by one if the batch fails, and the
    message of each failed or non-finite matrix, whose values are NaN."""
    values = np.full(stack.shape[:-1], np.nan, dtype=complex)
    ok = np.isfinite(stack).all(axis=(1, 2))
    problems = {int(q): "non-finite coefficients" for q in np.flatnonzero(~ok)}
    finite = np.flatnonzero(ok)
    try:
        values[finite] = np.linalg.eigvals(stack[finite])
    except np.linalg.LinAlgError:
        for q in finite:
            try:
                values[q] = np.linalg.eigvals(stack[q])
            except np.linalg.LinAlgError as exc:
                problems[int(q)] = str(exc)
    return values, problems


def _roots(coefs: np.ndarray) -> Tuple[np.ndarray, Dict[int, str]]:
    """Roots of each row of ascending coefficients, from one companion-matrix stack per
    degree that holds each distinct row once, and the message of each failed row.  Slots
    past a row's degree are NaN."""
    degree = np.max(np.where(coefs != 0, np.arange(coefs.shape[1]), 0), axis=1)
    roots = np.full((coefs.shape[0], coefs.shape[1] - 1), np.nan, dtype=complex)
    problems: Dict[int, str] = {}
    for k in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == k)
        # one bytes key per row: sorting these beats np.unique's axis=0 field-by-field sort
        keys = np.ascontiguousarray(coefs[rows, : k + 1]).view(f"V{coefs.itemsize * (k + 1)}")
        distinct, inverse = np.unique(keys[:, 0], return_inverse=True)
        distinct = distinct.view(coefs.dtype).reshape(-1, k + 1)
        companion = np.zeros((len(distinct), k, k))
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        companion[:, :, -1] = -distinct[:, :k] / distinct[:, k, None]
        found, failed = _eigvals(companion)
        roots[rows, :k] = found[inverse]
        for q, msg in failed.items():
            problems.update(dict.fromkeys(rows[inverse == q].tolist(), msg))
    return roots, problems


def _shorten(spec: TransferSpec, *vehicles: int) -> Tuple[TransferSpec, int, np.ndarray]:
    """The chain up to the farthest vehicle with a gain (or in ``vehicles``), the number of
    HDVs cut, each of which only multiplies Gamma by phi/gamma, and the short gain row.

    Raises ``EvaluationError`` if it has more than ``_MAX_REACH`` HDVs on a side.
    """
    ids = spec.gains.ids() | set(vehicles)
    m, n = max([-i for i in ids if i < 0], default=0), max([i for i in ids if i > 0], default=0)
    if max(m, n) > _MAX_REACH:
        raise EvaluationError(
            f"the farthest gains are on vehicles {-m} and {n}; string-stability verdicts "
            f"take at most {_MAX_REACH} HDVs on each side of the CAV"
        )
    short = TransferSpec(m, n, spec.coeffs, spec.gains)
    return short, spec.m + spec.n - m - n, np.concatenate([[1.0], *_gain_arrays(short)])


def _routh(den: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Whether each row of Den's ascending coefficients has a root right of ``EIG_TOL``,
    from the first column of the Routh array of Den(s + EIG_TOL): it does unless every
    entry is positive.  Also whether that test is undecided: an entry is zero or not
    finite, as with a root on the boundary or coefficients that overflow."""
    p = den.T.copy()  # p[k] multiplies s^k
    d = len(p) - 1
    for i in range(d):  # Taylor shift by Horner's rule
        for j in range(d - 1, i - 1, -1):
            p[j] += EIG_TOL * p[j + 1]
    # the array's rows, zero-padded to one width: a_d, a_(d-2), ... then a_(d-1), ...
    top, zero = p[::-2], np.zeros((1, p.shape[1]))
    below = np.zeros_like(top)
    below[: len(p) // 2] = p[-2::-2]
    column = [top[0], below[0]]
    for _ in range(d - 1):
        top, below = below, np.vstack([top[1:] - top[0] / below[0] * below[1:], zero])
        column.append(below[0])
    column = np.array(column)
    return ~np.all(column > 0, axis=0), ~np.all(np.isfinite(column) & (column != 0), axis=0)


def _secular_stack(z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Real matrices whose eigenvalues are the zeros of sum_k w_k / (x - p_k), p = -z^2,
    one per row of roots z and weights w (0 on NaN slots), with phi's real root in the
    last slot and each conjugate pair in adjacent slots, positive imaginary part first
    (see ``_evaluate``): diag(p) - c 1^T over every slot but phi's, with c = w (p - q)
    / sum(w) for phi's pole q."""
    poles = np.nan_to_num(-(z**2))
    c = weights[:, :-1] * (poles[:, :-1] - poles[:, -1:].real) / weights.sum(axis=1, keepdims=True)
    poles, first = poles[:, :-1], z[:, :-1].imag > 0  # the next slot of a first is its conjugate
    second = np.pad(first[:, :-1], [(0, 0), (1, 0)])
    cell, slot = np.nonzero(first)
    stack = poles.real[:, :, None] * np.eye(poles.shape[1])
    stack[cell, slot, slot + 1] = -poles.imag[cell, slot]
    stack[cell, slot + 1, slot] = poles.imag[cell, slot]
    c_real = np.where(first, 2.0 * c.real, np.where(second, -2.0 * c.imag, c.real))
    stack -= c_real[:, :, None] * np.where(second, 0.0, 1.0)[:, None, :]
    return stack


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate(
    spec: TransferSpec, rows: np.ndarray, grid: FrequencyGrid, cut: int, exact_peaks=False
):
    """Classes, peaks (omega, |Gamma|^2) and failure messages of gain rows of ``spec``
    followed by ``cut`` HDVs.  A row is AU when Den has a root right of ``EIG_TOL``,
    which the Routh array of Den(s + EIG_TOL) decides (``_routh``) and Den's companion
    roots where it cannot, or when the row fails; else SS or SU from its peak against
    1 - ``PEAK_MARGIN``.  Failed rows get NaN peaks, and so do AU rows unless
    ``exact_peaks``.

    Gamma(0) = 1, so |Gamma| at the range's ends often settles a row: unless
    ``exact_peaks``, a row whose end values are finite and the larger reaches
    1 - PEAK_MARGIN takes that end as its peak, a lower bound that already makes it
    string unstable, and skips the roots of Num and Den and the stationary points (so a
    failure there goes unseen).  The other rows search them, the ends' values included.

    A polynomial with roots z_k has |P(jw)|^2 = c^2 prod_k (x + z_k^2) in x = w^2, so
    d/dx log|Gamma(jw)|^2 = sum_k w_k / (x - p_k) over p_k = -z_k^2 of the roots of Num
    (w_k = 1), Den (-1), phi (n + cut) and gamma (-(m + cut)); with no HDV ahead of the
    CAV, Num = phi, and with none behind, Den = gamma, so their weights join those
    slots and their roots need no solve.  Its zeros are the eigenvalues of
    diag(p) - u 1^T with u = w p / sum(w), together with x = 0, which only repeats the
    range's low end; deflating at phi's real pole q leaves diag(p) - c 1^T over the
    other slots, c = w (p - q) / sum(w), whose eigenvalues are the zeros alone
    (``_secular_stack``).  The candidates are the range's ends and the real part of
    each zero: each can only raise the maximum toward the true one.  A failed row names
    the lowest omega of a non-finite |Gamma|, else its root-finding error.

    The matrix is solved in real form.  Every root comes from the eigenvalues of a real
    matrix, which LAPACK returns with each conjugate pair in adjacent slots, positive
    imaginary part first; so p and c hold each pair as (p_i, conj(p_i)) and (c_i,
    conj(c_i)).  The similarity P = [[1, 1], [-i, i]] on each pair's two slots turns the
    diagonal block into [[Re p_i, -Im p_i], [Im p_i, Re p_i]], the pair's entries of c
    into (2 Re c_i, 2 Im c_i) and those of 1^T into (1, 0): the same eigenvalues from a
    real matrix.
    """
    c, cells, m, n = spec.coeffs, len(rows), spec.m, spec.n
    num, den = _polynomials(spec, rows)
    problems: Dict[int, str] = {}

    def den_roots(at):
        """Den's roots on rows ``at``; their failures go to ``problems``."""
        found, failed = _roots(den[at])
        problems.update({int(at[q]): msg for q, msg in failed.items()})
        return found

    au, undecided = _routh(den)
    fallback = np.flatnonzero(undecided)
    au[fallback] = np.any(den_roots(fallback).real > EIG_TOL, axis=1)
    live = np.arange(cells) if exact_peaks else np.flatnonzero(~au)
    gains = np.split(rows[:, 1:].T, [m, 2 * m, 2 * m + n])
    x_range = grid.omega_min**2, grid.omega_max**2

    def reaches_one(mag_sq):
        """The SS/SU threshold, false for NaN."""
        return np.sqrt(mag_sq) >= 1.0 - PEAK_MARGIN

    def mags_sq(x, at):
        """Candidate omegas sqrt(x) and their |Gamma|^2, one column per row in ``at``."""
        omegas = np.sqrt(x)
        phi, gam = phi_gamma(c, 1j * omegas)
        sets = (g[:, at] for g in gains)
        values = kernels.gamma_mag_sq_scalar(omegas, c.alpha1, c.alpha2, c.alpha3, *sets)
        return omegas, values * np.abs(phi / gam) ** (2 * cut)

    ends = mags_sq(np.repeat(np.array(x_range)[:, None], live.size, axis=1), live)
    end_peak = ends[1].max(axis=0)
    searched = exact_peaks | ~(np.isfinite(end_peak) & reaches_one(end_peak))
    search = live[searched]
    none = np.empty((search.size, 0))
    num_roots, peak_problems = _roots(num[search]) if m else (none, {})
    local = np.append(np.roots([1.0, c.alpha2, c.alpha1]), -c.alpha1 / c.alpha3)  # gamma's, phi's
    local = np.broadcast_to(local, (search.size, 3))
    z = np.hstack([num_roots, den_roots(search) if n else none, local])
    weights = np.full(z.shape, -1.0)
    weights[:, : num_roots.shape[1]] = 1.0
    # Num = phi without HDVs ahead, Den = gamma without HDVs behind
    gam_weight, phi_weight = -(m + cut + (n == 0)), n + cut + (m == 0)
    weights[:, -3:] = [gam_weight, gam_weight, phi_weight]
    weights[np.isnan(z)] = 0.0
    zeros, failed = _eigvals(_secular_stack(z, weights))
    inner = mags_sq(np.fmin(np.fmax(zeros.real.T, x_range[0]), x_range[1]), search)
    # (candidates, rows): the range's low end, the stationary points, its high end
    omegas, values = (np.vstack([e[:1, searched], i, e[1:, searched]]) for e, i in zip(ends, inner))
    first_bad = np.where(np.isfinite(values), np.inf, omegas).min(axis=0)
    for i in np.flatnonzero(first_bad < np.inf):
        peak_problems[int(i)] = f"non-finite gain at omega={first_bad[i]:.4g}"
    for i, msg in failed.items():
        peak_problems.setdefault(i, msg)
    problems.update({int(search[i]): msg for i, msg in peak_problems.items()})
    peak = np.full((2, cells), np.nan)
    best = np.argmax(ends[1], axis=0), np.arange(live.size)
    peak[:, live] = ends[0][best], ends[1][best]
    best = np.argmax(values, axis=0), np.arange(search.size)
    peak[:, search] = omegas[best], values[best]
    peak[:, list(problems)] = np.nan
    au[list(problems)] = True
    classes = np.where(reaches_one(peak[1]), CLASS_UNSTABLE, CLASS_STABLE)
    classes[au] = CLASS_ASYMP_UNSTABLE
    return classes, peak, problems


def transfer_value(spec: TransferSpec, s: complex) -> complex:
    """Closed-form Gamma(s) at an arbitrary complex point (``kernels.gamma``)."""
    c = spec.coeffs
    phi, gam = phi_gamma(c, s)
    if phi == 0 or gam == 0:
        raise EvaluationError(f"local transfer function singular at s={s}")
    gains = (g.tolist() for g in _gain_arrays(spec))
    try:
        value = kernels.gamma(complex(s), c.alpha1, c.alpha2, c.alpha3, *gains)
    except ZeroDivisionError:
        raise EvaluationError(f"transfer-function pole at s={s}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvaluationError(f"non-finite transfer value at s={s}")
    return value


def magnitude_curve(spec: TransferSpec, omegas: np.ndarray) -> np.ndarray:
    """|Gamma(j w)| on an array of frequencies (kernel-accelerated)."""
    c = spec.coeffs
    mags_sq = kernels.gamma_mag_sq_grid(
        np.asarray(omegas, dtype=float), c.alpha1, c.alpha2, c.alpha3, *_gain_arrays(spec)
    )
    return np.sqrt(mags_sq)


def is_string_stable(
    spec: TransferSpec, grid: Optional[FrequencyGrid] = None
) -> StringStabilityResult:
    """String-stability verdict for one gain set, from Gamma's polynomials.

    Raises ``EvaluationError`` if root finding fails or |Gamma| is not finite.
    """
    short, cut, row = _shorten(spec)
    classes, peak, problems = _evaluate(
        short, row[None], grid or FrequencyGrid(), cut, exact_peaks=True
    )
    if problems:
        raise EvaluationError(problems[0])
    return StringStabilityResult(str(classes[0]), float(peak[0, 0]), math.sqrt(peak[1, 0]))


def _axis_slot(spec: TransferSpec, axis: GainAxis):
    """(array-name, index) the axis writes into the kernel gain arrays."""
    vid = axis.vehicle
    validate_gain_ids([vid], spec.m, spec.n)
    side = "p" if vid < 0 else "f"
    return f"{axis.component}_{side}", abs(vid) - 1


def scan_region(
    base: TransferSpec,
    axis1: GainAxis,
    axis2: GainAxis,
    grid: Optional[FrequencyGrid] = None,
) -> RegionMap:
    """Classify every cell of a 2-D gain grid, row-major in (axis1, axis2).

    Each cell gets the class ``_evaluate`` gives it: AU when the Routh array
    of Den's coefficients finds a root right of the tolerance, else SS or SU,
    SU without a peak search when |Gamma| at an end of the frequency range
    already reaches 1 - ``PEAK_MARGIN``.  Only the cells that search find
    the roots of Num and Den.  Cells that fail to evaluate are AU, with a log
    line.

    ``_evaluate`` classifies the cells in chunks, as many as keep its widest
    stack, the K x K stationary-point matrix of each cell that searches, within
    ``_CHUNK_ENTRIES`` entries even when every cell searches: K = [m>0]
    max(m+1, 2m) + [n>0] (2n+2) + 2 for the chain cut to its farthest gain.
    The companion stacks of Num and Den are smaller.  So each 51 x 51 panel of
    the 2+1+2 chain takes one pass, and larger scans take several, in bounded
    memory.
    """
    if (axis1.vehicle, axis1.component) == (axis2.vehicle, axis2.component):
        raise TopologyError("scan axes must address distinct gain coordinates")
    slots = [_axis_slot(base, a) for a in (axis1, axis2)]
    short, cut, row = _shorten(base, axis1.vehicle, axis2.vehicle)
    m, n = short.m, short.n
    offsets = {"mu_p": 1, "k_p": 1 + m, "mu_f": 1 + 2 * m, "k_f": 1 + 2 * m + n}
    cols = [offsets[name] + idx for name, idx in slots]
    values = np.repeat(axis1.values(), axis2.points), np.tile(axis2.values(), axis1.points)
    classes = np.empty(values[0].size, dtype="<U2")
    width = (m > 0) * max(m + 1, 2 * m) + (n > 0) * (2 * n + 2) + 2
    chunk = max(1, _CHUNK_ENTRIES // width**2)
    for start in range(0, classes.size, chunk):
        g1, g2 = (v[start : start + chunk] for v in values)
        rows = np.repeat(row[None], g1.size, axis=0)
        rows[:, cols[0]], rows[:, cols[1]] = g1, g2
        block, _, problems = _evaluate(short, rows, grid or FrequencyGrid(), cut)
        for q in sorted(problems):
            log.warning("cell (%g, %g) failed to evaluate: %s", g1[q], g2[q], problems[q])
        classes[start : start + g1.size] = block
    return RegionMap(axis1, axis2, classes.reshape(axis1.points, axis2.points))
