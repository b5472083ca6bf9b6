"""Transfer functions, string-stability verdicts, and region scans."""


import contextlib
import itertools
import logging
import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from lcc import (
    DriverParams,
    EvaluationError,
    FeedbackGains,
    FrequencyGrid,
    GainAxis,
    LinearCoeffs,
    TopologyError,
    TransferSpec,
    equilibrium_spacing,
    is_string_stable,
    linearize,
    magnitude_curve,
    phi_gamma,
    scan_region,
    transfer_value,
)
from lcc import kernels, stability
from lcc.presets import GAIN_CASES
from oracles import REACH_COEFFS, oracle_model, state_space_gain
from lcc.stability import (
    CLASS_ASYMP_UNSTABLE,
    CLASS_STABLE,
    CLASS_UNSTABLE,
    StringStabilityResult,
)


def spec_with(default_coeffs, m=2, n=2, pairs=None):
    return TransferSpec(
        m=m, n=n, coeffs=default_coeffs, gains=FeedbackGains.from_pairs(pairs or {})
    )


def test_phi_gamma_values(default_coeffs):
    a1, a2, a3 = default_coeffs.alpha1, default_coeffs.alpha2, default_coeffs.alpha3
    assert phi_gamma(default_coeffs, 0.0) == (a1, a1)
    phi, gam = phi_gamma(default_coeffs, 1j)
    assert phi == pytest.approx(np.polyval([a3, a1], 1j), abs=1e-15)
    assert gam == pytest.approx(np.polyval([1.0, a2, a1], 1j), abs=1e-15)
    assert phi == pytest.approx(0.9425 + 0.9j, abs=1e-4)
    assert gam == pytest.approx(-0.0575 + 1.5j, abs=1e-4)
    assert phi_gamma(default_coeffs, 0.0)[0] / phi_gamma(default_coeffs, 0.0)[1] == 1.0


def test_zero_gain_reduction(default_coeffs):
    """No feedback terms: the chain is n+m+1 identical HDV stages."""
    rng = np.random.default_rng(3)
    for m, n in [(1, 1), (2, 2), (3, 1), (0, 2), (2, 0)]:
        spec = spec_with(default_coeffs, m, n)
        for w in 10 ** rng.uniform(-2, 2, size=20):
            phi, gam = phi_gamma(default_coeffs, 1j * w)
            expected = (phi / gam) ** (n + m + 1)
            got = transfer_value(spec, 1j * w)
            assert abs(got - expected) <= 1e-12 * abs(expected)


def test_lookahead_only_reduction(default_coeffs):
    """Gains on preceding vehicles only: feedback enters the numerator."""
    pairs = {-1: (0.7, -0.4), -2: (1.0, -1.0)}
    spec = spec_with(default_coeffs, 2, 2, pairs)
    for w in (0.05, 0.3, 2.0):
        s = 1j * w
        phi, gam = phi_gamma(default_coeffs, s)
        r = phi / gam
        acc = 0.0
        for i, (mu, k) in pairs.items():
            acc += (mu * (gam / phi - 1.0) + k * s) * r ** (i + 1)
        expected = ((phi + acc) / gam) * r ** (spec.m + spec.n)
        assert transfer_value(spec, 1j * w) == pytest.approx(expected, rel=1e-12)


def test_lookbehind_only_reduction(default_coeffs):
    """Gains on following vehicles only: feedback enters the denominator."""
    pairs = {1: (-1.0, -1.0), 2: (-0.5, 0.3)}
    spec = spec_with(default_coeffs, 2, 2, pairs)
    for w in (0.05, 0.3, 2.0):
        s = 1j * w
        phi, gam = phi_gamma(default_coeffs, s)
        r = phi / gam
        acc = 0.0
        for i, (mu, k) in pairs.items():
            acc += (mu * (gam / phi - 1.0) + k * s) * r**i
        expected = (phi / (gam - acc)) * r ** (spec.m + spec.n)
        assert transfer_value(spec, 1j * w) == pytest.approx(expected, rel=1e-12)


def test_closed_form_matches_state_space(default_coeffs):
    """Chains with no HDV on one side of the CAV (m = 0 or n = 0);
    acceptance criterion 05 makes the same check for m, n >= 1."""
    rng = np.random.default_rng(11)
    for _ in range(24):
        size = int(rng.integers(1, 4))
        m, n = (size, 0) if rng.integers(2) else (0, size)
        ids = list(range(-m, 0)) + list(range(1, n + 1))
        pairs = {i: (rng.uniform(-2, 2), rng.uniform(-2, 2)) for i in ids}
        spec = spec_with(default_coeffs, m, n, pairs)
        for w in 10 ** rng.uniform(-2, 2, size=10):
            closed = transfer_value(spec, 1j * float(w))
            oracle = state_space_gain(spec, float(w))
            assert abs(closed - oracle) <= 1e-6 * (1.0 + abs(closed))


def test_conjugate_symmetry(default_coeffs):
    spec = spec_with(default_coeffs, 2, 2, {-1: (1.0, -1.0), 1: (-1.0, -1.0)})
    for w in (0.02, 0.4, 7.0, 90.0):
        assert transfer_value(spec, -1j * w) == pytest.approx(
            transfer_value(spec, 1j * w).conjugate(), rel=1e-12
        )


def test_hdv_chain_criterion_random():
    """Zero-gain verdict flips with the sign of alpha2^2 - alpha3^2 - 2*alpha1."""
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        a3 = rng.uniform(0.1, 2.0)
        a2 = a3 + rng.uniform(0.05, 2.0)
        a1 = rng.uniform(0.05, 3.0)
        crit = a2**2 - a3**2 - 2 * a1
        if abs(crit) < 0.02:
            continue
        coeffs = LinearCoeffs(alpha1=a1, alpha2=a2, alpha3=a3)
        res = is_string_stable(TransferSpec(m=1, n=1, coeffs=coeffs))
        assert res.stable == (crit > 0), (a1, a2, a3, crit)
        checked += 1


def test_default_chain_unstable(default_coeffs):
    a1, a2, a3 = default_coeffs.alpha1, default_coeffs.alpha2, default_coeffs.alpha3
    assert a2**2 - a3**2 - 2 * a1 == pytest.approx(-0.445, abs=1e-3)
    res = is_string_stable(spec_with(default_coeffs))
    assert not res.stable
    assert res.peak_mag > 1.0
    assert res.asymptotically_stable


def test_smoother_drivers_are_string_stable():
    from lcc import DriverParams, equilibrium_spacing, linearize

    p = DriverParams(beta=2.0)
    c = linearize(equilibrium_spacing(15.0, p), p)
    assert c.alpha2**2 - c.alpha3**2 - 2 * c.alpha1 > 0
    res = is_string_stable(TransferSpec(m=2, n=2, coeffs=c))
    assert res.stable
    # magnitude approaches one toward DC without tripping the verdict
    mags = magnitude_curve(TransferSpec(m=2, n=2, coeffs=c), np.array([1e-2, 1e-3]))
    assert np.all(mags < 1.0)
    assert mags[1] > mags[0]


def test_degenerate_scan_matches_verdict(default_coeffs):
    for pairs in ({}, {1: (-1.0, -1.0)}):
        spec = spec_with(default_coeffs, 2, 2, pairs)
        res = is_string_stable(spec)
        axis1 = GainAxis(vehicle=-1, component="mu", lo=0.0, hi=0.0, points=1)
        axis2 = GainAxis(vehicle=-1, component="k", lo=0.0, hi=0.0, points=1)
        region = scan_region(spec, axis1, axis2)
        assert region.classes[0, 0] == res.verdict


def _one_cell_scan(spec):
    """The class a 1x1 scan gives ``spec`` at its own gains on vehicle 1."""
    mu, k = spec.gains.mu.get(1, 0.0), spec.gains.k.get(1, 0.0)
    axes = (GainAxis(1, "mu", mu, mu, 1), GainAxis(1, "k", k, k, 1))
    return scan_region(spec, *axes).classes[0, 0]


def test_asymptotically_unstable_chain_is_not_string_stable(default_coeffs):
    """|Gamma| stays below one over the range, but a closed-loop pole has real part
    +1.69: the verdict is AU, as its scan cell is, and the peak is still reported."""
    spec = spec_with(default_coeffs, 1, 1, {1: (5.0, 5.0)})
    assert np.linalg.eigvals(oracle_model(spec)[1]).real.max() == pytest.approx(
        1.69, abs=0.01
    )
    res = is_string_stable(spec)
    assert res.verdict == CLASS_ASYMP_UNSTABLE
    assert not res.stable and not res.asymptotically_stable
    assert (res.peak_mag, res.peak_omega) == (pytest.approx(0.998006, rel=1e-6), 0.01)
    assert _one_cell_scan(spec) == CLASS_ASYMP_UNSTABLE


def test_verdict_is_the_class_of_its_one_cell_scan(default_coeffs):
    """Random short chains, gains on about 70% of the HDVs: ``is_string_stable`` and a
    1x1 scan at the chain's own gains give every chain one class."""
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(200):
        m, n = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        ids = [i for i in [*range(-m, 0), *range(1, n + 1)] if rng.random() < 0.7]
        pairs = {i: tuple(rng.uniform(-3.0, 3.0, 2)) for i in ids}
        spec = spec_with(default_coeffs, m, n, pairs)
        try:
            verdict = is_string_stable(spec).verdict
        except EvaluationError:
            continue
        assert verdict == _one_cell_scan(spec), pairs
        seen.add(verdict)
    assert seen == {CLASS_STABLE, CLASS_UNSTABLE, CLASS_ASYMP_UNSTABLE}


def test_scan_contains_known_stable_cell(default_coeffs):
    spec = spec_with(default_coeffs, 2, 2)
    axis1 = GainAxis(vehicle=1, component="mu", lo=-10, hi=10, points=21)
    axis2 = GainAxis(vehicle=1, component="k", lo=-10, hi=10, points=21)
    region = scan_region(spec, axis1, axis2)
    i = np.argmin(np.abs(axis1.values() + 1.0))
    j = np.argmin(np.abs(axis2.values() + 1.0))
    assert axis1.values()[i] == -1.0 and axis2.values()[j] == -1.0
    assert region.classes[i, j] == CLASS_STABLE
    present = set(region.classes.ravel().tolist())
    assert present == {"SS", "SU", "AU"}


def test_lookbehind_expands_lookahead_region(default_coeffs):
    axis1 = GainAxis(vehicle=-1, component="mu", lo=-10, hi=10, points=21)
    axis2 = GainAxis(vehicle=-1, component="k", lo=-10, hi=10, points=21)
    base = scan_region(spec_with(default_coeffs, 2, 2), axis1, axis2)
    expanded = scan_region(
        spec_with(default_coeffs, 2, 2, {1: (-1.0, -1.0)}), axis1, axis2
    )
    base_mask, new_mask = base.classes == "SS", expanded.classes == "SS"
    assert np.all(~base_mask | new_mask)
    assert new_mask.sum() > base_mask.sum()


def test_peak_survives_cancelled_leading_coefficient(default_coeffs):
    """mu = -alpha3 k on the farthest predecessor cancels Num's leading
    coefficient up to round-off; the peak is still the true maximum."""
    omegas = FrequencyGrid(points=20001).omegas()
    for k in np.linspace(-9.0, 9.0, 13):
        pairs = {-2: (-default_coeffs.alpha3 * k, k), -1: (0.5, -0.3)}
        spec = spec_with(default_coeffs, 2, 2, pairs)
        res = is_string_stable(spec)
        assert res.peak_mag >= magnitude_curve(spec, omegas).max() * (1 - 1e-12), k
        assert res.peak_mag == pytest.approx(abs(state_space_gain(spec, res.peak_omega)), rel=1e-9)


@pytest.mark.parametrize(
    "m, n, pairs",
    [
        # no gain behind the CAV, so Den = gamma
        *(pytest.param(2, n, GAIN_CASES["caseB"], id=str(n)) for n in (10, 30, 50)),
        pytest.param(3, 0, {-3: (1.0, -1.0), -1: (0.5, -0.3)}, id="none-behind-n=0"),
        # no gain ahead of the CAV, so Num = phi
        pytest.param(0, 2, {1: (-1.0, -1.0), 2: (-1.0, -1.0)}, id="none-ahead-m=0"),
        pytest.param(5, 30, {1: (-1.0, -1.0), 3: (0.5, 0.2)}, id="none-ahead-30"),
        # neither: Num = phi and Den = gamma
        pytest.param(4, 6, {}, id="no-gains"),
    ],
)
def test_long_chain_verdict_matches_dense_grid_and_poles(default_coeffs, m, n, pairs):
    """HDVs past the last gain only multiply Gamma by phi/gamma, so long chains
    stay as accurate as short ones; without gains on a side, that side's
    polynomial is phi's or gamma's and its roots come in closed form."""
    spec = spec_with(default_coeffs, m, n, pairs)
    res = is_string_stable(spec)
    dense = magnitude_curve(spec, FrequencyGrid(points=20001).omegas()).max()
    assert res.peak_mag >= dense * (1 - 1e-12)
    assert res.peak_mag == pytest.approx(dense, rel=1e-6)
    assert res.peak_mag == pytest.approx(abs(state_space_gain(spec, res.peak_omega)), rel=1e-9)
    poles = np.linalg.eigvals(oracle_model(spec)[1])
    assert res.asymptotically_stable == bool(poles.real.max() <= stability.EIG_TOL)


REACH = stability._MAX_REACH


@pytest.mark.parametrize("coeffs", sorted(REACH_COEFFS))
@pytest.mark.parametrize("m, n", [(REACH, REACH), (REACH, 0), (0, REACH), (3, REACH), (REACH, 3)])
def test_verdict_at_max_reach_matches_dense_grid_and_poles(default_coeffs, coeffs, m, n):
    """Gains on every vehicle of the longest chains a verdict accepts."""
    c = REACH_COEFFS[coeffs] or default_coeffs
    rng = np.random.default_rng(m + 100 * n)
    omegas = FrequencyGrid(points=200_001).omegas()
    for scale in (0.2, 1.0, 3.0):
        ids = [*range(-m, 0), *range(1, n + 1)]
        spec = spec_with(c, m, n, {i: tuple(rng.uniform(-scale, scale, 2)) for i in ids})
        res = is_string_stable(spec)
        assert res.peak_mag >= magnitude_curve(spec, omegas).max() * (1 - 1e-10), scale
        poles = np.linalg.eigvals(oracle_model(spec)[1])
        assert res.asymptotically_stable == bool(poles.real.max() <= stability.EIG_TOL), scale


def test_au_flag_matches_closed_loop_poles_on_random_chains(default_coeffs):
    """``_evaluate``'s AU flag, from the Routh array of Den's coefficients, against the
    poles of A_cl: random gains up to the reach on either side of the CAV, with the
    lightly damped drivers too.  A chain with a pole within 1e-9 of EIG_TOL is skipped."""
    rng = np.random.default_rng(36)
    drivers = [c or default_coeffs for c in REACH_COEFFS.values()]
    flags = []
    for _ in range(200):
        m, n = (int(v) for v in rng.integers(0, REACH + 1, size=2))
        ids = [i for i in [*range(-m, 0), *range(1, n + 1)] if rng.random() < 0.5]
        scale = rng.choice([0.05, 0.3, 1.0, 3.0])
        pairs = {i: tuple(rng.uniform(-scale, scale, 2)) for i in ids}
        spec = spec_with(drivers[rng.integers(len(drivers))], m, n, pairs)
        poles = np.linalg.eigvals(oracle_model(spec)[1])
        if np.abs(poles.real - stability.EIG_TOL).min() < 1e-9:
            continue
        short, cut, row = stability._shorten(spec)
        classes, _, problems = stability._evaluate(short, row[None], FrequencyGrid(), cut)
        assert problems == {}, spec
        flags.append(classes[0] == CLASS_ASYMP_UNSTABLE)
        assert flags[-1] == bool(poles.real.max() > stability.EIG_TOL), spec
    assert len(flags) >= 190
    assert 50 < sum(flags) < len(flags) - 50


@pytest.mark.parametrize("offset", [-0.5, 0.5, 1.5])
def test_au_threshold_is_eig_tol(default_coeffs, offset):
    """A chain whose rightmost closed-loop pole has real part ``offset`` EIG_TOL, placed
    by bisection on A_cl's poles, is AU exactly when that exceeds EIG_TOL: the Routh
    array is taken of Den(s + EIG_TOL), not of Den(s) or Den(s - EIG_TOL)."""
    target = offset * stability.EIG_TOL

    def spec_at(scale):
        return spec_with(default_coeffs, 2, 2, {1: (scale, scale)})

    def abscissa(scale):
        return np.linalg.eigvals(oracle_model(spec_at(scale))[1]).real.max()

    lo, hi = 0.5, 1.0  # the closed loop crosses the imaginary axis between them
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if abscissa(mid) > target else (mid, hi)
    assert abs(abscissa(hi) - target) < 1e-3 * stability.EIG_TOL
    assert is_string_stable(spec_at(hi)).asymptotically_stable == (offset < 1)


def test_scan_overflowing_den_fails_each_cell(default_coeffs, caplog):
    """A follower gain near the float limit overflows Den's coefficients: each cell
    fails as one with non-finite coefficients, with a log line each, and is AU.
    A scanned gain stops at its limit, so the gain is the scan's base."""
    spec = spec_with(default_coeffs, 0, 2, {2: (1.7e308, 0.0)})
    axes = (GainAxis(1, "mu", -1e6, 1e6, 2), GainAxis(1, "k", -1e6, 1e6, 2))
    short, _, row = stability._shorten(spec, 1, 2)
    rows = np.repeat(row[None], 4, axis=0)
    rows[:, [1, 3]] = [(g1, g2) for g1 in axes[0].values() for g2 in axes[1].values()]
    with np.errstate(over="ignore", invalid="ignore"):
        den = stability._polynomials(short, rows)[1]
    assert not np.isfinite(den).all(axis=1).any()
    with caplog.at_level(logging.WARNING, logger="lcc.stability"):
        classes = scan_region(spec, *axes).classes
    assert np.all(classes == CLASS_ASYMP_UNSTABLE)
    assert len(caplog.messages) == 4
    assert all("failed to evaluate" in msg for msg in caplog.messages)


def test_chain_past_max_reach_is_refused(default_coeffs):
    """m = 2, n = 30 with gains on ~30% of the followers: monomial coefficients put the
    peak 40-50% low, so past the reach the verdict is refused rather than returned."""
    rng = np.random.default_rng(0)
    pairs = {i: tuple(rng.uniform(-1.0, 1.0, 2)) for i in range(1, 31) if rng.random() < 0.3}
    spec = spec_with(default_coeffs, 2, 30, {**pairs, 30: (0.1, 0.1), -1: (0.5, 0.5)})
    with pytest.raises(EvaluationError, match="vehicles -1 and 30"):
        is_string_stable(spec)
    with pytest.raises(EvaluationError, match="vehicles -1 and 30"):
        scan_region(spec, *_panel_axes(-1, points=3))
    # a far scan axis counts too, even where the base chain has no gains
    far = REACH + 1
    with pytest.raises(EvaluationError, match=f"vehicles 0 and {far}"):
        scan_region(spec_with(default_coeffs, 0, far), *_panel_axes(far, points=3))
    with pytest.raises(EvaluationError, match=f"at most {REACH} HDVs on each side"):
        is_string_stable(spec_with(default_coeffs, far, 0, {-far: (0.1, 0.1)}))


def test_verdict_fails_on_overflowing_companion(default_coeffs):
    """A subnormal leading coefficient of Num overflows its companion matrix: the
    verdict fails rather than go on without Num's roots."""
    spec = spec_with(default_coeffs, 2, 2, {-2: (1e-310, 0.0), -1: (1.0, 2.0)})
    with pytest.raises(EvaluationError, match="non-finite coefficients"):
        is_string_stable(spec)


def test_evaluation_guards(default_coeffs):
    # coefficients whose local transfer function has an exact root at s = -1
    exact = LinearCoeffs(alpha1=1.0, alpha2=2.0, alpha3=1.0)
    with pytest.raises(EvaluationError):
        transfer_value(TransferSpec(m=1, n=1, coeffs=exact), -1.0 + 0.0j)


def test_grid_and_axis_validation(default_coeffs):
    with pytest.raises(ValueError):
        FrequencyGrid(omega_min=0.0)
    with pytest.raises(ValueError):
        FrequencyGrid(omega_min=1.0, omega_max=0.5)
    with pytest.raises(ValueError):
        GainAxis(vehicle=1, component="x", lo=0, hi=1, points=2)
    spec = spec_with(default_coeffs)
    ax = GainAxis(vehicle=5, component="mu", lo=-1, hi=1, points=3)
    ax2 = GainAxis(vehicle=1, component="k", lo=-1, hi=1, points=3)
    with pytest.raises(TopologyError):
        scan_region(spec, ax, ax2)
    with pytest.raises(TopologyError):
        scan_region(spec, ax2, ax2)
    with pytest.raises(TopologyError):
        TransferSpec(m=1, n=1, coeffs=default_coeffs, gains=FeedbackGains(mu={3: 1.0}, k={}))


_FLOOR, _CEILING = "1.4916681462400413e-154", "1.3407807929942596e+154"


@pytest.mark.parametrize("field", ["omega_min", "omega_max"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2e154, 1e300])
def test_grid_rejects_non_finite_bounds(field, value):
    """Infinite and NaN bounds break the field's declared limit, and so does an
    omega_max whose square overflows; an omega_min that large is not below the
    default omega_max, the one rule that spans the two."""
    if field == "omega_min" and value in (2e154, 1e300):
        message = (
            "frequency range must have omega_max > omega_min, "
            f"got omega_min={value} and omega_max=100.0"
        )
    elif field == "omega_min":
        message = f"omega_min must be >= {_FLOOR}{' and finite' if value > 0 else ''}, got {value}"
    else:
        upper = f" and <= {_CEILING}" if value > 0 else ""
        message = f"omega_max must be > {_FLOOR}{upper}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FrequencyGrid(**{field: value})


@pytest.mark.parametrize("value", [1e-170, 1e-155, math.nextafter(2.0**-511, 0.0)])
def test_grid_rejects_omega_min_with_subnormal_square(value):
    """The verdicts take omega_min**2 as the range's low end: a square that is
    subnormal, or underflows to 0, is refused; the least normal one is not."""
    message = f"omega_min must be >= {_FLOOR}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FrequencyGrid(omega_min=value, omega_max=1.0)
    assert FrequencyGrid(omega_min=2.0**-511, omega_max=1.0).omega_min**2 == sys.float_info.min


def test_grid_limits_keep_both_squares_in_range():
    """The declared limits alone keep the verdicts' x = omega^2 in range: the least
    omega_min squares to the least normal float, and the greatest omega_max to a
    finite one, so the grid needs no check of its own on either square."""
    grid = FrequencyGrid(omega_min=float(_FLOOR), omega_max=float(_CEILING))
    assert grid.omega_min**2 == sys.float_info.min
    assert math.isfinite(grid.omega_max**2)
    above = math.nextafter(grid.omega_max, math.inf)
    assert above * above == math.inf


def test_routh_flags_a_root_on_the_boundary():
    """Den(s) = s^2 - 2 EIG_TOL s + EIG_TOL^2 + 1 has both roots on Re s = EIG_TOL:
    Den(s + EIG_TOL) = s^2 + 1 is not Hurwitz, and its Routh array's zero entry
    makes the row AU, with no roots found.  A root just left of the line is not."""
    tol = stability.EIG_TOL
    tie = [tol**2 + 1.0, -2.0 * tol, 1.0]
    left = [(tol - 1e-3) ** 2 + 1.0, -2.0 * (tol - 1e-3), 1.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert stability._routh(np.array([tie, left])).tolist() == [True, False]


@pytest.mark.parametrize(
    "field, bounds",
    [
        ("lo", (-math.inf, 1.0)),
        ("lo", (math.nan, 1.0)),
        ("hi", (0.0, math.inf)),
        ("lo", (-math.inf, math.inf)),
    ],
)
def test_axis_rejects_non_finite_bounds(field, bounds):
    with pytest.raises(ValueError, match=f"{field} must be >= -1e6"):
        GainAxis(vehicle=1, component="mu", lo=bounds[0], hi=bounds[1], points=3)


# ---------------------------------------------------------------------------
# batched scan against the per-cell loop it replaced
# ---------------------------------------------------------------------------

def _reference_golden_refine(f, lo, hi, iters=60):
    """Golden-section maximization of f over [lo[q], hi[q]] for every cell q at once.

    f maps one point per cell to its value in one array call.  Each cell narrows
    its own bracket, step for step as a scalar golden section would, and stops
    once the bracket is below 1e-12 wide.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    live = np.ones(a.shape, dtype=bool)
    for _ in range(iters):
        if not live.any():
            break
        # left: the peak lies in [a, d], whose upper probe is c; right: in [c, b], lower probe d
        left, right = live & (fc > fd), live & ~(fc > fd)
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d = (
            np.where(left, b - invphi * (b - a), np.where(right, d, c)),
            np.where(left, c, np.where(right, a + invphi * (b - a), d)),
        )
        probe = f(np.where(left, c, d))
        fc, fd = (
            np.where(left, probe, np.where(right, fd, fc)),
            np.where(left, fc, np.where(right, probe, fd)),
        )
        live &= ~(b - a < 1e-12)
    x = 0.5 * (a + b)
    return x, f(x)


def _reference_peak_magnitude(coeffs, mu_p, k_p, mu_f, k_f, grid):
    """Grid peak of each gain set, a column of the gain arrays, refined by a golden
    section: the peaks' omegas and |Gamma|, and for each set the lowest omega of a
    non-finite grid value (inf if none), whose set is left unrefined (NaN peak)."""
    omegas = grid.omegas()
    cells = mu_p.shape[1]
    args = (coeffs.alpha1, coeffs.alpha2, coeffs.alpha3)
    gains = (mu_p, k_p, mu_f, k_f)
    # the grid 64 gain sets at a time, (64, omegas) per call, and no call for no set
    mags_sq = np.vstack(
        [
            kernels.gamma_mag_sq_grid(omegas, *args, *(g[:, q : q + 64, None] for g in gains))
            for q in range(0, cells, 64)
        ]
        + [np.empty((0, omegas.size))]
    )
    finite = np.isfinite(mags_sq).all(axis=1)
    first_bad = np.where(finite, np.inf, omegas[np.argmax(~np.isfinite(mags_sq), axis=1)])
    ok = np.flatnonzero(finite)
    gains = [g[:, ok] for g in gains]
    i = np.argmax(mags_sq[ok], axis=1)
    lo = np.log(omegas[np.maximum(i - 1, 0)])
    hi = np.log(omegas[np.minimum(i + 1, omegas.size - 1)])
    logw, mag_sq = _reference_golden_refine(
        lambda x: kernels.gamma_mag_sq_grid(np.exp(x), *args, *gains), lo, hi
    )
    grid_peak = mags_sq[ok, i]
    peak = np.full((2, cells), np.nan)
    peak[0, ok] = np.where(grid_peak >= mag_sq, omegas[i], np.exp(logw))
    peak[1, ok] = np.sqrt(np.where(grid_peak >= mag_sq, grid_peak, mag_sq))
    return peak, first_bad


def _reference_is_string_stable(spec, grid=None):
    grid = grid or FrequencyGrid()
    (peak_omega, peak_mag), first_bad = _reference_peak_magnitude(
        spec.coeffs, *(g[:, None] for g in stability._gain_arrays(spec)), grid
    )
    if first_bad[0] < math.inf:
        raise EvaluationError(f"non-finite gain at omega={first_bad[0]:.4g}")
    _, A_cl, _ = oracle_model(spec)
    if float(np.max(np.linalg.eigvals(A_cl).real)) > stability.EIG_TOL:
        verdict = CLASS_ASYMP_UNSTABLE
    elif peak_mag[0] < 1.0 - stability.PEAK_MARGIN:
        verdict = CLASS_STABLE
    else:
        verdict = CLASS_UNSTABLE
    return StringStabilityResult(verdict, float(peak_omega[0]), float(peak_mag[0]))


def _reference_scan_region(base, axis1, axis2, grid=None):
    """The per-cell scan: each cell's closed-loop eigenvalues, from its own A_cl,
    then a grid peak and a golden section for each asymptotically stable cell,
    all cells' sections run at once."""
    grid = grid or FrequencyGrid()
    slot1, slot2 = stability._axis_slot(base, axis1), stability._axis_slot(base, axis2)
    g1, g2 = (v.ravel() for v in np.meshgrid(axis1.values(), axis2.values(), indexing="ij"))
    arrays = {
        name: np.repeat(g[:, None], g1.size, axis=1)
        for name, g in zip(("mu_p", "k_p", "mu_f", "k_f"), stability._gain_arrays(base))
    }

    model, A_base, _ = oracle_model(base)
    u_row = model.index_map[0][1]
    col1 = model.index_map[axis1.vehicle][0 if axis1.component == "mu" else 1]
    col2 = model.index_map[axis2.vehicle][0 if axis2.component == "mu" else 1]
    base1 = arrays[slot1[0]][slot1[1], 0]
    base2 = arrays[slot2[0]][slot2[1], 0]
    arrays[slot1[0]][slot1[1]] = g1
    arrays[slot2[0]][slot2[1]] = g2

    A_cells = np.repeat(A_base[None], g1.size, axis=0)
    A_cells[:, u_row, col1] = A_base[u_row, col1] + (g1 - base1)
    A_cells[:, u_row, col2] = A_base[u_row, col2] + (g2 - base2)
    try:
        stable = ~(np.max(np.linalg.eigvals(A_cells).real, axis=1) > stability.EIG_TOL)
    except np.linalg.LinAlgError:  # then cell by cell, a failed cell being AU
        stable = np.zeros(g1.size, dtype=bool)
        for q, A_cell in enumerate(A_cells):
            with contextlib.suppress(np.linalg.LinAlgError):
                stable[q] = not np.max(np.linalg.eigvals(A_cell).real) > stability.EIG_TOL
    classes = np.full(g1.size, CLASS_ASYMP_UNSTABLE, dtype="<U2")
    live = np.flatnonzero(stable)
    (_, peak), first_bad = _reference_peak_magnitude(
        base.coeffs, *(g[:, live] for g in arrays.values()), grid
    )
    classes[live] = np.where(peak < 1.0 - stability.PEAK_MARGIN, CLASS_STABLE, CLASS_UNSTABLE)
    classes[live[first_bad < math.inf]] = CLASS_ASYMP_UNSTABLE
    return classes.reshape(axis1.points, axis2.points)


def _panel_axes(vid, points=51):
    return tuple(
        GainAxis(vehicle=vid, component=c, lo=-10.0, hi=10.0, points=points)
        for c in ("mu", "k")
    )


# The benchmark's three scan panels and the six of acceptance criterion 6
# (both include "a" and "c"): base feedback pairs and the scanned vehicle.
FULL_PANELS = {
    "a": ({}, -1),
    "b": ({}, -2),
    "c": ({1: (-1.0, -1.0)}, -1),
    "d": ({1: (-1.0, -1.0)}, -2),
    "e": ({2: (-1.0, -1.0)}, -1),
    "f": ({2: (-1.0, -1.0)}, -2),
    "follower": ({}, 1),
}


@pytest.mark.parametrize("panel", sorted(FULL_PANELS))
def test_scan_matches_per_cell_loop_on_full_panels(default_coeffs, panel):
    pairs, vid = FULL_PANELS[panel]
    spec = spec_with(default_coeffs, 2, 2, pairs)
    axes = _panel_axes(vid)
    np.testing.assert_array_equal(
        scan_region(spec, *axes).classes, _reference_scan_region(spec, *axes)
    )


@pytest.mark.parametrize("points", [2, 5, 20])
def test_scan_classes_do_not_depend_on_grid_points(default_coeffs, points):
    """Verdicts come from Gamma's polynomials; the grid's points only sample plots."""
    for pairs, vid in FULL_PANELS.values():
        spec = spec_with(default_coeffs, 2, 2, pairs)
        axes = _panel_axes(vid, points=21)
        np.testing.assert_array_equal(
            scan_region(spec, *axes, FrequencyGrid(points=points)).classes,
            scan_region(spec, *axes).classes,
        )


def _random_panel(rng):
    m = int(rng.integers(0, 4))
    n = int(rng.integers(0 if m else 1, 4))
    ids = list(range(-m, 0)) + list(range(1, n + 1))
    pairs = {i: tuple(rng.uniform(-2.0, 2.0, size=2)) for i in ids if rng.random() < 0.5}
    coords = [(vid, comp) for vid in ids for comp in ("mu", "k")]
    picks = rng.choice(len(coords), size=2, replace=False)
    axes = []
    for pick in picks:
        vid, comp = coords[pick]
        lo = rng.uniform(-8.0, 2.0)
        axes.append(
            GainAxis(
                vehicle=vid,
                component=comp,
                lo=lo,
                hi=lo + rng.uniform(1.0, 8.0),
                points=int(rng.integers(1, 10)),
            )
        )
    return m, n, pairs, axes


@pytest.mark.parametrize("small_blocks", [False, True], ids=["default", "small-blocks"])
def test_scan_matches_per_cell_loop_on_random_panels(
    default_coeffs, monkeypatch, small_blocks
):
    """m, n in 0..3, either side of the CAV, mixed mu/k axes, odd sizes.

    With small blocks a panel spans several scan chunks.
    """
    if small_blocks:
        monkeypatch.setattr(stability, "_CHUNK_ENTRIES", 700)
    rng = np.random.default_rng(2024)
    sides = set()
    for _ in range(24):
        m, n, pairs, axes = _random_panel(rng)
        sides.update(ax.vehicle > 0 for ax in axes)
        spec = spec_with(default_coeffs, m, n, pairs)
        np.testing.assert_array_equal(
            scan_region(spec, *axes).classes,
            _reference_scan_region(spec, *axes),
            err_msg=f"m={m} n={n} pairs={pairs} axes={axes}",
        )
    assert sides == {False, True}


def test_scan_at_the_gain_limit_matches_per_cell_loop(default_coeffs):
    """Axes across a scanned gain's whole range, -1e6..1e6: each cell still takes the
    class of its own closed-loop poles and peak."""
    rng = np.random.default_rng(5)
    for _ in range(8):
        m, n, pairs, axes = _random_panel(rng)
        axes = [GainAxis(ax.vehicle, ax.component, -1e6, 1e6, 6) for ax in axes]
        spec = spec_with(default_coeffs, m, n, pairs)
        np.testing.assert_array_equal(
            scan_region(spec, *axes).classes,
            _reference_scan_region(spec, *axes),
            err_msg=f"m={m} n={n} pairs={pairs} axes={axes}",
        )


def _record_evaluate(monkeypatch):
    """The peaks of every ``_evaluate`` call, one array per call."""
    peaks = []
    real_evaluate = stability._evaluate

    def evaluate(*args, **kwargs):
        out = real_evaluate(*args, **kwargs)
        peaks.append(out[1])
        return out

    monkeypatch.setattr(stability, "_evaluate", evaluate)
    return peaks


@pytest.mark.parametrize("panel", sorted(FULL_PANELS))
def test_paper_panel_classifies_in_one_pass(default_coeffs, monkeypatch, panel):
    """One ``_evaluate`` call at the default budget; at a budget that cuts the panel
    into at least 4 chunks, the same classes and peaks bit for bit."""
    pairs, vid = FULL_PANELS[panel]
    spec, axes = spec_with(default_coeffs, 2, 2, pairs), _panel_axes(vid)
    peaks = _record_evaluate(monkeypatch)
    whole = scan_region(spec, *axes).classes
    assert len(peaks) == 1
    whole_peaks = peaks.pop()
    monkeypatch.setattr(stability, "_CHUNK_ENTRIES", 2**13)
    np.testing.assert_array_equal(scan_region(spec, *axes).classes, whole)
    assert len(peaks) >= 4
    assert np.hstack(peaks).tobytes() == whole_peaks.tobytes()


_SS_BAND_C = (GainAxis(-1, "mu", 0.2, 1.8, 201), GainAxis(-1, "k", -1.5, 0.0, 201))


@pytest.mark.parametrize(
    "m, n, pairs, axes, filled",
    [
        # the SS band of panel c at 201 x 201: every cell searches, so each
        # chunk's stationary-point stack is as wide as the budget allows
        (2, 2, {1: (-1.0, -1.0)}, _SS_BAND_C, True),
        # gains 10 HDVs ahead of and behind the CAV: 44 x 44 stationary-point stacks
        (10, 10, {10: (0.1, 0.1)}, _panel_axes(-10, points=31), False),
    ],
    ids=["201x201", "m=n=10"],
)
def test_scan_stacks_stay_within_the_chunk_budget(
    default_coeffs, monkeypatch, m, n, pairs, axes, filled
):
    spec = spec_with(default_coeffs, m, n, pairs)
    budget = stability._CHUNK_ENTRIES * np.dtype(float).itemsize
    stacks = []
    real_eigvals = stability._eigvals

    def eigvals(stack):
        stacks.append(stack.nbytes)
        return real_eigvals(stack)

    monkeypatch.setattr(stability, "_eigvals", eigvals)
    peaks = _record_evaluate(monkeypatch)
    classes = scan_region(spec, *axes).classes
    assert len(peaks) > 1
    assert max(stacks) <= budget
    if filled:
        assert np.all(classes == CLASS_STABLE)
        assert max(stacks) > 0.99 * budget


@pytest.mark.parametrize(
    "m, n, pairs, vid, width",
    [(1, 0, {}, -1, 4), (0, 2, {}, 2, 8), (2, 2, {2: (0.1, 0.1)}, -2, 12)],
    ids=["m=1,n=0", "m=0,n=2", "m=n=2"],
)
def test_scan_chunks_hold_as_many_cells_as_the_budget_allows(
    default_coeffs, monkeypatch, m, n, pairs, vid, width
):
    """A chunk holds _CHUNK_ENTRIES // K^2 cells, K = 2m + [n>0] (2n+2) + 2 for the
    chain cut to its farthest gain: a budget of three K x K stacks splits 8 cells 3, 3, 2."""
    monkeypatch.setattr(stability, "_CHUNK_ENTRIES", 3 * width**2)
    peaks = _record_evaluate(monkeypatch)
    axes = GainAxis(vid, "mu", -1.0, 1.0, 4), GainAxis(vid, "k", -1.0, 1.0, 2)
    scan_region(spec_with(default_coeffs, m, n, pairs), *axes)
    assert [p.shape[1] for p in peaks] == [3, 3, 2]


# A predecessor gain whose products overflow, beside a panel at the scanned gains' limit.
_HUGE_GAIN = {-2: (1e300, 1e300)}
_LIMIT_AXES = tuple(
    GainAxis(vehicle=-1, component=c, lo=-1e6, hi=1e6, points=p) for c, p in (("mu", 5), ("k", 3))
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_scan_extreme_gains_fail_as_asymptotically_unstable(default_coeffs, caplog):
    spec = spec_with(default_coeffs, 2, 2, _HUGE_GAIN)
    axes = _LIMIT_AXES
    with caplog.at_level(logging.WARNING, logger="lcc.stability"):
        classes = scan_region(spec, *axes).classes
    np.testing.assert_array_equal(classes, _reference_scan_region(spec, *axes))
    assert np.all(classes == CLASS_ASYMP_UNSTABLE)
    assert "cell (-1e+06, 1e+06) failed to evaluate: non-finite gain at omega=0.01" in (
        caplog.messages
    )
    assert len(caplog.messages) == 15


def test_scan_overflow_is_reported_per_cell_without_runtime_warnings(default_coeffs, caplog):
    spec = spec_with(default_coeffs, 2, 2, _HUGE_GAIN)
    axes = _LIMIT_AXES
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with caplog.at_level(logging.WARNING, logger="lcc.stability"):
            scan_region(spec, *axes)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert any("failed to evaluate" in msg for msg in caplog.messages)


def _cell_spec(spec, axes, values):
    """``spec`` with each scan axis's gain set to its value."""
    gains = {"mu": dict(spec.gains.mu), "k": dict(spec.gains.k)}
    for axis, value in zip(axes, values):
        gains[axis.component][axis.vehicle] = value
    return TransferSpec(spec.m, spec.n, spec.coeffs, FeedbackGains(**gains))


def _searched_cells(spec, axes):
    """The cells a scan searches, in (axis1, axis2) shape: those the per-cell scan does
    not find AU whose |Gamma| at both ends of the range, from the closed form there,
    stays below 1 - PEAK_MARGIN."""
    grid = FrequencyGrid()
    searched = _reference_scan_region(spec, *axes) != CLASS_ASYMP_UNSTABLE
    for (i, g1), (j, g2) in itertools.product(*(enumerate(a.values()) for a in axes)):
        ends = magnitude_curve(_cell_spec(spec, axes, (g1, g2)), [grid.omega_min, grid.omega_max])
        searched[i, j] &= ends.max() < 1.0 - stability.PEAK_MARGIN
    return searched


def test_scan_eigvals_failure_marks_only_that_cell(default_coeffs, monkeypatch, caplog):
    """Root finding fails for the cells of row 2, found by their own closed-loop poles.
    AU comes from Den's coefficients, so only the cells that search find those roots
    and fail."""
    spec = spec_with(default_coeffs, 2, 2)
    axes = _panel_axes(1, points=7)
    searched = _searched_cells(spec, axes)[2]
    assert 0 < searched.sum() < searched.size
    g1 = axes[0].values()[2]
    hdv_poles = np.roots([1.0, default_coeffs.alpha2, default_coeffs.alpha1])
    bad_poles = []
    for g2 in axes[1].values():
        poles = np.linalg.eigvals(
            oracle_model(spec_with(default_coeffs, 2, 2, {1: (g1, g2)}))[1]
        )
        bad_poles.append(poles[np.abs(poles[:, None] - hdv_poles).min(axis=1) > 1e-3])
    real_eigvals = np.linalg.eigvals

    def eigvals(a):
        roots = real_eigvals(a)
        for r in roots.reshape(-1, roots.shape[-1]):
            if any(np.all(np.abs(p[:, None] - r).min(axis=1) < 1e-6) for p in bad_poles):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return roots

    expected = _reference_scan_region(spec, *axes)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    with caplog.at_level(logging.WARNING, logger="lcc.stability"):
        classes = scan_region(spec, *axes).classes
    np.testing.assert_array_equal(classes[2], np.where(searched, CLASS_ASYMP_UNSTABLE, expected[2]))
    np.testing.assert_array_equal(np.delete(classes, 2, 0), np.delete(expected, 2, 0))
    assert caplog.messages == [
        f"cell ({g1:g}, {g2:g}) failed to evaluate: Eigenvalues did not converge"
        for g2 in axes[1].values()[searched]
    ]


@pytest.mark.parametrize("case", ["hdv", "caseA", "caseB", "caseC", "caseD"])
def test_string_verdict_matches_per_call_refinement(default_coeffs, case):
    spec = spec_with(default_coeffs, 2, 2, GAIN_CASES[case])
    got, ref = is_string_stable(spec), _reference_is_string_stable(spec)
    assert got.peak_mag == pytest.approx(ref.peak_mag, rel=1e-12, abs=0)
    assert f"{got.peak_mag:.12g}" == f"{ref.peak_mag:.12g}"
    assert got.verdict == ref.verdict


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_string_verdict_raises_on_non_finite_grid(default_coeffs):
    spec = spec_with(default_coeffs, 2, 2, {-1: (1e300, 1e300)})
    with pytest.raises(EvaluationError, match="non-finite gain at omega=0.01"):
        _reference_is_string_stable(spec)
    with pytest.raises(EvaluationError, match="non-finite gain at omega=0.01"):
        is_string_stable(spec)


def _complex_secular_stack(z, weights):
    """diag(p) - u 1^T with p = -z^2 and u = w p / sum(w), in the complex coordinates of
    the poles: the oracle of ``_secular_stack``'s real form."""
    poles = np.nan_to_num(-(z**2))
    u = weights * poles / weights.sum(axis=1, keepdims=True)
    return poles[:, :, None] * np.eye(z.shape[1]) - u[:, :, None]


# gamma's roots complex (the first three) and real (the last)
SECULAR_COEFFS = [*REACH_COEFFS.values(), LinearCoeffs(alpha1=0.1, alpha2=1.0, alpha3=0.5)]


def _random_roots_and_weights(rng, coeffs, rows):
    """Roots of two random real polynomials per row, of degree up to Den's largest, then
    gamma's and phi's, and their weights as ``_evaluate`` lays them out."""
    top = 2 * REACH + 2
    polys = []
    for _ in range(2):
        coefs = rng.standard_normal((rows, top + 1))
        coefs[np.arange(top + 1) > rng.integers(1, top + 1, size=(rows, 1))] = 0.0
        polys.append(stability._roots(coefs)[0])
    local = np.append(np.roots([1.0, coeffs.alpha2, coeffs.alpha1]), -coeffs.alpha1 / coeffs.alpha3)
    z = np.hstack([*polys, np.broadcast_to(local, (rows, 3))])
    weights = np.repeat([[1.0] * top + [-1.0] * top + [0.0] * 3], rows, axis=0)
    behind, ahead = rng.integers(0, 4, size=2)
    weights[:, -3:] = [-ahead, -ahead, behind]
    weights[np.isnan(z)] = 0.0
    proper = weights.sum(axis=1) != 0  # as Gamma is, so the stack is finite
    return z[proper], weights[proper]


@pytest.mark.parametrize("coeffs", SECULAR_COEFFS, ids=["default", "light", "slow", "real"])
def test_secular_stack_real_form_matches_complex_form(default_coeffs, coeffs):
    """The real form relies on each conjugate pair of roots sitting in adjacent slots,
    positive imaginary part first, and has the complex form's eigenvalues less its
    x = 0 one, which deflating at phi's pole (the last slot) drops."""
    z, weights = _random_roots_and_weights(np.random.default_rng(16), coeffs or default_coeffs, 200)
    first = z.imag > 0
    assert not first[:, -1].any()
    assert np.array_equal(z[:, 1:][first[:, :-1]], z[:, :-1][first[:, :-1]].conj())
    assert np.array_equal(z.imag < 0, np.pad(first[:, :-1], [(0, 0), (1, 0)]))
    real = stability._secular_stack(z, weights)
    assert real.dtype == np.float64
    assert real.shape == (len(z), z.shape[1] - 1, z.shape[1] - 1)
    got, want = np.linalg.eigvals(real), np.linalg.eigvals(_complex_secular_stack(z, weights))
    for g, w in zip(got, want):
        rows, cols = linear_sum_assignment(np.abs(g[:, None] - w[None, :]))
        assert np.abs(g[rows] - w[cols]).max() <= 1e-10 * np.abs(w).max()
        assert abs(np.delete(w, cols)[0]) <= 1e-10 * np.abs(w).max()


def _random_chain(rng):
    params = DriverParams(alpha=rng.uniform(0.2, 1.2), beta=rng.uniform(0.2, 1.5))
    coeffs = linearize(equilibrium_spacing(15.0, params), params)
    m, n = int(rng.integers(0, 6)), int(rng.integers(0, 11))
    ids = [i for i in [*range(-m, 0), *range(1, n + 1)] if rng.random() < 0.6]
    scale = rng.choice([0.1, 0.5, 2.0])
    return spec_with(coeffs, m, n, {i: tuple(rng.uniform(-scale, scale, 2)) for i in ids})


def test_verdicts_match_complex_secular_form(monkeypatch):
    rng = np.random.default_rng(293)
    specs = [_random_chain(rng) for _ in range(80)]
    got = [is_string_stable(spec) for spec in specs]
    monkeypatch.setattr(stability, "_secular_stack", _complex_secular_stack)
    for spec, g in zip(specs, got):
        want = is_string_stable(spec)
        assert g.verdict == want.verdict
        assert g.peak_mag == pytest.approx(want.peak_mag, rel=1e-12, abs=0), spec


def _mixed_panel(default_coeffs):
    """Predecessor mu by follower k: Num varies only along axis 1, Den only along axis 2."""
    spec = spec_with(default_coeffs, 2, 2)
    return spec, (GainAxis(-1, "mu", -2.0, 2.0, 7), GainAxis(1, "k", -2.0, 2.0, 9))


def test_scan_finds_roots_once_per_distinct_polynomial(default_coeffs, monkeypatch):
    """The short chain is m = n = 1: Num has degree 2, Den degree 4, and the
    stationary-point stack is 8 wide.  Only the cells that search need Num's and
    Den's roots, each distinct polynomial's found once."""
    spec, axes = _mixed_panel(default_coeffs)
    stacks = []
    real_eigvals = stability._eigvals

    def eigvals(stack):
        stacks.append(stack.shape)
        return real_eigvals(stack)

    monkeypatch.setattr(stability, "_eigvals", eigvals)
    classes = scan_region(spec, *axes).classes
    np.testing.assert_array_equal(classes, _reference_scan_region(spec, *axes))
    searched = _searched_cells(spec, axes)
    assert 0 < searched.sum() < searched.size
    assert {size for _, size, _ in stacks} == {2, 4, 8}
    assert sum(rows for rows, size, _ in stacks if size == 2) == searched.any(axis=1).sum()
    assert sum(rows for rows, size, _ in stacks if size == 4) == searched.any(axis=0).sum()


def test_scan_den_failure_marks_its_column(default_coeffs, monkeypatch, caplog):
    """Root finding fails on the one Den that column 3 shares, found by its closed-loop
    poles.  AU comes from Den's coefficients, so only the cells that search find those
    roots and fail."""
    spec, axes = _mixed_panel(default_coeffs)
    searched = _searched_cells(spec, axes)[:, 3]
    assert 0 < searched.sum() < searched.size
    g2 = axes[1].values()[3]
    poles = np.linalg.eigvals(
        oracle_model(spec_with(default_coeffs, 2, 2, {1: (0.0, g2)}))[1]
    )
    hdv_poles = np.roots([1.0, default_coeffs.alpha2, default_coeffs.alpha1])
    bad = poles[np.abs(poles[:, None] - hdv_poles).min(axis=1) > 1e-3]
    assert bad.size == 4
    real_eigvals = np.linalg.eigvals

    def eigvals(a):
        roots = real_eigvals(a)
        for r in roots.reshape(-1, roots.shape[-1]):
            if r.size == bad.size and np.all(np.abs(bad[:, None] - r).min(axis=1) < 1e-6):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return roots

    expected = _reference_scan_region(spec, *axes)
    assert len(set(expected[:, 3])) > 1
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    with caplog.at_level(logging.WARNING, logger="lcc.stability"):
        classes = scan_region(spec, *axes).classes
    np.testing.assert_array_equal(
        classes[:, 3], np.where(searched, CLASS_ASYMP_UNSTABLE, expected[:, 3])
    )
    np.testing.assert_array_equal(np.delete(classes, 3, 1), np.delete(expected, 3, 1))
    assert caplog.messages == [
        f"cell ({g1:g}, {g2:g}) failed to evaluate: Eigenvalues did not converge"
        for g1 in axes[0].values()[searched]
    ]


def _end_decided_panel(default_coeffs):
    """A 9x9 panel "a": cells whose |Gamma| at either end of the range reaches
    1 - PEAK_MARGIN, from the closed form at those two frequencies alone."""
    spec = spec_with(default_coeffs, 2, 2)
    axes = _panel_axes(-1, points=9)
    grid = FrequencyGrid()
    ends = [grid.omega_min, grid.omega_max]
    cells = [(g1, g2) for g1 in axes[0].values() for g2 in axes[1].values()]
    decided = np.array(
        [
            magnitude_curve(spec_with(default_coeffs, 2, 2, {-1: cell}), ends).max()
            >= 1.0 - stability.PEAK_MARGIN
            for cell in cells
        ]
    )
    return spec, axes, cells, decided.reshape(9, 9)


def test_scan_searches_stationary_points_only_below_one_at_the_ends(
    default_coeffs, monkeypatch
):
    """The cells ``_secular_stack`` receives are the undecided ones, in row-major order,
    each identified by the roots of Num = phi^2 + mu (gamma - phi) + k s phi (m = 1)."""
    spec, axes, cells, decided = _end_decided_panel(default_coeffs)
    assert 0 < decided.sum() < decided.size
    received = []
    real_stack = stability._secular_stack

    def secular_stack(z, weights):
        received.append(z)
        return real_stack(z, weights)

    monkeypatch.setattr(stability, "_secular_stack", secular_stack)
    classes = scan_region(spec, *axes).classes
    expected = _reference_scan_region(spec, *axes)
    np.testing.assert_array_equal(classes, expected)
    assert np.all(expected[decided] == CLASS_UNSTABLE)
    a1, a2, a3 = default_coeffs.alpha1, default_coeffs.alpha2, default_coeffs.alpha3
    num_roots = [
        np.roots([a3 * a3 + mu + k * a3, 2 * a1 * a3 + mu * (a2 - a3) + k * a1, a1 * a1])
        for (mu, k), done in zip(cells, decided.ravel())
        if not done
    ]
    z = np.vstack(received)
    assert len(z) == len(num_roots)
    for got, want in zip(z[:, :2], num_roots):
        np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(want), rtol=1e-9)


def test_scan_end_decided_cells_skip_a_failing_search(default_coeffs, monkeypatch, caplog):
    """With every stationary-point solve failing, an end-decided cell stays SU with no
    log line; every other cell is AU with its warning (the stack is 4 wide)."""
    spec, axes, cells, decided = _end_decided_panel(default_coeffs)
    expected = _reference_scan_region(spec, *axes)
    real_eigvals = np.linalg.eigvals

    def eigvals(a):
        if a.shape[-1] == 4:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    with caplog.at_level(logging.WARNING, logger="lcc.stability"):
        classes = scan_region(spec, *axes).classes
    np.testing.assert_array_equal(classes, np.where(decided, expected, CLASS_ASYMP_UNSTABLE))
    assert caplog.messages == [
        f"cell ({g1:g}, {g2:g}) failed to evaluate: Eigenvalues did not converge"
        for (g1, g2), done in zip(cells, decided.ravel())
        if not done
    ]


def _runs(mask):
    """Runs of True in each row of a 2-D boolean array."""
    edges = np.diff(np.pad(mask.astype(int), [(0, 0), (1, 0)]), axis=1)
    return (edges == 1).sum(axis=1)


def test_predecessor_panels_are_convex():
    """Den holds only the follower gains, and |Gamma(jw)| = |Num| |phi^n / (Den gamma^m)|
    with Num affine in the predecessor gains: on a panel of two predecessor gains AU
    is all or nothing, and the peak is a convex function of the two gains, so the SS
    cells of each row and column are contiguous, and the peak at a midpoint is at
    most the mean of the peaks at its ends."""
    rng, draws = np.random.default_rng(17), np.random.default_rng(18)  # panels, midpoints
    kinds = []
    for _ in range(20):
        params = DriverParams(alpha=rng.uniform(0.2, 1.2), beta=rng.uniform(0.2, 1.5))
        coeffs = linearize(equilibrium_spacing(15.0, params), params)
        m, n = int(rng.integers(1, 5)), int(rng.integers(0, 5))
        pairs = {i: tuple(rng.uniform(-1.5, 0.5, 2)) for i in range(1, n + 1) if rng.random() < 0.7}
        spec = spec_with(coeffs, m, n, pairs)
        coords = [(vid, comp) for vid in range(-m, 0) for comp in ("mu", "k")]
        picks = rng.choice(len(coords), size=2, replace=False)
        axes = [GainAxis(*coords[p], lo := rng.uniform(-3.0, 1.0), lo + rng.uniform(1.0, 5.0), 21)
                for p in picks]
        classes = scan_region(spec, *axes).classes
        au, ss = classes == CLASS_ASYMP_UNSTABLE, classes == CLASS_STABLE
        assert au.all() or not au.any(), (spec, axes)
        assert _runs(ss).max(initial=0) <= 1 and _runs(ss.T).max(initial=0) <= 1, (spec, axes)
        kinds.append("AU" if au.all() else "mixed" if 0 < ss.sum() < ss.size else "one class")
        for _ in range(6):
            ends = draws.uniform([a.lo for a in axes], [a.hi for a in axes], size=(2, 2))
            peaks = [
                is_string_stable(_cell_spec(spec, axes, g)).peak_mag
                for g in (*ends, ends.mean(axis=0))
            ]
            assert peaks[2] <= 0.5 * (peaks[0] + peaks[1]) * (1 + 1e-9), (spec, axes, ends)
    assert kinds.count("AU") >= 2 and kinds.count("mixed") >= 10
