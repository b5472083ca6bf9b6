"""Transfer functions, string-stability verdicts, and region scans."""


import logging
import math

import numpy as np
import pytest

from lcc import (
    EvaluationError,
    FeedbackGains,
    FrequencyGrid,
    GainAxis,
    LinearCoeffs,
    TopologyError,
    TransferSpec,
    head_to_tail,
    is_string_stable,
    magnitude_curve,
    phi_gamma,
    scan_region,
    state_space_gain,
    transfer_value,
)
from lcc import kernels, stability
from lcc.presets import GAIN_CASES
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
            got = head_to_tail(spec, w)
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
        assert head_to_tail(spec, w) == pytest.approx(expected, rel=1e-12)


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
        assert head_to_tail(spec, w) == pytest.approx(expected, rel=1e-12)


def test_closed_form_matches_state_space(default_coeffs):
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(0, 4))
        n = int(rng.integers(0 if m else 1, 4))
        ids = list(range(-m, 0)) + list(range(1, n + 1))
        pairs = {i: (rng.uniform(-2, 2), rng.uniform(-2, 2)) for i in ids}
        spec = spec_with(default_coeffs, m, n, pairs)
        for w in 10 ** rng.uniform(-2, 2, size=10):
            closed = head_to_tail(spec, float(w))
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
        expected = CLASS_STABLE if res.stable else CLASS_UNSTABLE
        assert region.classes[0, 0] == expected


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
    base_mask, new_mask = base.stable_mask(), expanded.stable_mask()
    assert np.all(~base_mask | new_mask)
    assert new_mask.sum() > base_mask.sum()


def test_evaluation_guards(default_coeffs):
    spec = spec_with(default_coeffs)
    with pytest.raises(ValueError):
        head_to_tail(spec, 0.0)
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


# ---------------------------------------------------------------------------
# batched scan against the per-cell loop it replaced
# ---------------------------------------------------------------------------

def _reference_golden_refine(f, lo, hi, iters=60):
    """Golden-section maximization of f over [lo, hi], one cell at a time."""
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


def _reference_peak_magnitude(coeffs, mu_p, k_p, mu_f, k_f, grid):
    """Grid peak of one gain set, refined by a scalar golden section."""
    omegas = grid.omegas()
    args = (coeffs.alpha1, coeffs.alpha2, coeffs.alpha3, mu_p, k_p, mu_f, k_f)
    mags_sq = kernels.gamma_mag_sq_grid(omegas, *args)
    if not np.all(np.isfinite(mags_sq)):
        raise EvaluationError(
            f"non-finite gain at omega={omegas[int(np.argmax(~np.isfinite(mags_sq)))]:.4g}"
        )
    i = int(np.argmax(mags_sq))
    lo = math.log(omegas[max(i - 1, 0)])
    hi = math.log(omegas[min(i + 1, len(omegas) - 1)])
    logw, mag_sq = _reference_golden_refine(
        lambda x: kernels.gamma_mag_sq_scalar(math.exp(x), *args), lo, hi
    )
    if mags_sq[i] >= mag_sq:
        return float(omegas[i]), math.sqrt(float(mags_sq[i]))
    return math.exp(logw), math.sqrt(mag_sq)


def _reference_is_string_stable(spec, grid=None):
    grid = grid or FrequencyGrid()
    peak_omega, peak_mag = _reference_peak_magnitude(
        spec.coeffs, *stability._gain_arrays(spec), grid
    )
    _, A_cl, _ = stability._oracle_model(spec)
    return StringStabilityResult(
        stable=peak_mag < 1.0 - stability.PEAK_MARGIN,
        peak_omega=peak_omega,
        peak_mag=peak_mag,
        asymptotically_stable=float(np.max(np.linalg.eigvals(A_cl).real))
        <= stability.EIG_TOL,
    )


def _reference_scan_region(base, axis1, axis2, grid=None):
    """The per-cell scan loop: one ``eigvals`` and one peak search per cell."""
    grid = grid or FrequencyGrid()
    arrays = dict(zip(("mu_p", "k_p", "mu_f", "k_f"), stability._gain_arrays(base)))
    slot1, slot2 = stability._axis_slot(base, axis1), stability._axis_slot(base, axis2)

    model, A_base, _ = stability._oracle_model(base)
    u_row = model.index_map[0][1]
    col1 = model.index_map[axis1.vehicle][0 if axis1.component == "mu" else 1]
    col2 = model.index_map[axis2.vehicle][0 if axis2.component == "mu" else 1]
    base1 = arrays[slot1[0]][slot1[1]]
    base2 = arrays[slot2[0]][slot2[1]]

    classes = np.empty((axis1.points, axis2.points), dtype="<U2")
    A_cell = A_base.copy()
    for i, g1 in enumerate(axis1.values()):
        arrays[slot1[0]][slot1[1]] = g1
        A_cell[u_row, col1] = A_base[u_row, col1] + (g1 - base1)
        for j, g2 in enumerate(axis2.values()):
            arrays[slot2[0]][slot2[1]] = g2
            A_cell[u_row, col2] = A_base[u_row, col2] + (g2 - base2)
            try:
                if np.max(np.linalg.eigvals(A_cell).real) > stability.EIG_TOL:
                    classes[i, j] = CLASS_ASYMP_UNSTABLE
                    continue
                _, peak = _reference_peak_magnitude(
                    base.coeffs,
                    arrays["mu_p"],
                    arrays["k_p"],
                    arrays["mu_f"],
                    arrays["k_f"],
                    grid,
                )
                classes[i, j] = (
                    CLASS_STABLE if peak < 1.0 - stability.PEAK_MARGIN else CLASS_UNSTABLE
                )
            except (EvaluationError, np.linalg.LinAlgError):
                classes[i, j] = CLASS_ASYMP_UNSTABLE
    return classes


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

    With small blocks a panel spans several grid blocks and scan chunks.
    """
    if small_blocks:
        monkeypatch.setattr(stability, "_GRID_ENTRIES", 3000)  # 3 cells per grid call
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_scan_extreme_gains_fail_as_asymptotically_unstable(default_coeffs, caplog):
    spec = spec_with(default_coeffs, 2, 2)
    axes = tuple(
        GainAxis(vehicle=-1, component=c, lo=-1e300, hi=1e300, points=p)
        for c, p in (("mu", 5), ("k", 3))
    )
    with caplog.at_level(logging.WARNING, logger="lcc.stability"):
        classes = scan_region(spec, *axes).classes
    np.testing.assert_array_equal(classes, _reference_scan_region(spec, *axes))
    assert (classes == CLASS_ASYMP_UNSTABLE).sum() == 14
    assert "cell (-1e+300, 1e+300) failed to evaluate: non-finite gain at omega=0.01" in (
        caplog.messages
    )
    assert len(caplog.messages) == 14


def test_scan_eigvals_failure_marks_only_that_cell(default_coeffs, monkeypatch, caplog):
    spec = spec_with(default_coeffs, 2, 2)
    axes = _panel_axes(1, points=7)
    model, A_base, _ = stability._oracle_model(spec)
    u_row, col = model.index_map[0][1], model.index_map[1][0]
    bad_entry = A_base[u_row, col] + axes[0].values()[2]
    real_eigvals = np.linalg.eigvals

    def eigvals(a):
        if np.any(np.asarray(a)[..., u_row, col] == bad_entry):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvals(a)

    expected = _reference_scan_region(spec, *axes)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    with caplog.at_level(logging.WARNING, logger="lcc.stability"):
        classes = scan_region(spec, *axes).classes
    assert np.all(classes[2] == CLASS_ASYMP_UNSTABLE)
    np.testing.assert_array_equal(np.delete(classes, 2, 0), np.delete(expected, 2, 0))
    g1 = axes[0].values()[2]
    assert caplog.messages == [
        f"cell ({g1:g}, {g2:g}) failed to evaluate: Eigenvalues did not converge"
        for g2 in axes[1].values()
    ]


@pytest.mark.parametrize("case", ["hdv", "caseA", "caseB", "caseC", "caseD"])
def test_string_verdict_matches_per_call_refinement(default_coeffs, case):
    spec = spec_with(default_coeffs, 2, 2, GAIN_CASES[case])
    got, ref = is_string_stable(spec), _reference_is_string_stable(spec)
    assert got.peak_mag == pytest.approx(ref.peak_mag, rel=1e-12, abs=0)
    assert f"{got.peak_mag:.12g}" == f"{ref.peak_mag:.12g}"
    assert (got.stable, got.asymptotically_stable) == (ref.stable, ref.asymptotically_stable)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_string_verdict_raises_on_non_finite_grid(default_coeffs):
    spec = spec_with(default_coeffs, 2, 2, {-1: (1e300, 1e300)})
    with pytest.raises(EvaluationError, match="non-finite gain at omega=0.01"):
        _reference_is_string_stable(spec)
    with pytest.raises(EvaluationError, match="non-finite gain at omega=0.01"):
        is_string_stable(spec)
