"""Transfer functions, string-stability verdicts, and region scans."""


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
from lcc.stability import CLASS_STABLE, CLASS_UNSTABLE


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
