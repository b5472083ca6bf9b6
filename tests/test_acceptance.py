"""Acceptance gates, one test per criterion.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` or
``-v`` to see them) and is held to its runtime budget.  Numeric targets
marked "informative" are printed but not gated; everything else asserts
at the stated tolerance.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lcc import (
    CavController,
    FeedbackGains,
    FollowerBrake,
    GainAxis,
    HeadSinusoid,
    HeterogeneitySpec,
    ScenarioConfig,
    SystemVariant,
    TransferSpec,
    aave,
    build_output_matrix,
    build_system,
    closed_loop_matrix,
    condition_check,
    energy_scaling_study,
    gramian,
    head_to_tail,
    is_string_stable,
    magnitude_curve,
    pbh_controllability,
    pbh_observability,
    scan_region,
    simulate,
    state_space_gain,
    total_fuel,
    transfer_value,
)
from lcc.presets import (
    CF_CONTROLLER,
    FD_CONTROLLER,
    GAIN_CASES,
    HETEROGENEITY_SEED,
    ZERO_RESPONSE,
    _brake_scenario,
)
from lcc.vehicles import ovm_acceleration

V = SystemVariant


@contextmanager
def criterion(num: int, budget: float, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        print(f"criterion {num:2d} FAIL (runtime {elapsed:.2f}s >= {budget:g}s): {desc}")
        raise AssertionError(f"criterion {num} exceeded its {budget:g}s budget")
    print(f"criterion {num:2d} PASS ({elapsed:6.2f}s / {budget:g}s): {desc}")


def _info(label: str, value: float, target: float, band: float) -> None:
    rel = abs(value - target) / abs(target)
    mark = "within" if rel <= band else "OUTSIDE"
    print(
        f"    [informative] {label}: {value:.4g} vs reported {target:.4g} "
        f"({100 * rel:.1f}% off, {mark} {100 * band:.0f}% band)"
    )


def test_criterion_01_linearization(default_params, default_coeffs):
    with criterion(1, 1.0, "linearized gains, finite differences, condition value"):
        c = default_coeffs
        assert c.alpha1 == pytest.approx(0.9425, abs=1e-3)
        assert c.alpha2 == pytest.approx(1.5, abs=1e-3)
        assert c.alpha3 == pytest.approx(0.9, abs=1e-3)
        eq = c.equilibrium
        h = 1e-5
        f = ovm_acceleration
        p = default_params
        dfds = (f(eq.s_star + h, 0, eq.v_star, p) - f(eq.s_star - h, 0, eq.v_star, p)) / (2 * h)
        dfdsd = (f(eq.s_star, h, eq.v_star, p) - f(eq.s_star, -h, eq.v_star, p)) / (2 * h)
        dfdv = (f(eq.s_star, 0, eq.v_star + h, p) - f(eq.s_star, 0, eq.v_star - h, p)) / (2 * h)
        assert c.alpha1 == pytest.approx(dfds, rel=1e-6)
        assert c.alpha2 == pytest.approx(dfdsd - dfdv, rel=1e-6)
        assert c.alpha3 == pytest.approx(dfdsd, rel=1e-6)
        assert condition_check(c) == pytest.approx(0.4025, abs=1e-3)


def test_criterion_02_controllability_suite(default_coeffs):
    with criterion(2, 10.0, "controllability verdicts for every chain, PBH vs rank"):
        c = default_coeffs
        for n in range(1, 5):
            for variant in (V.FD_LCC, V.CF_LCC):
                mod = build_system(variant, 0, n, c)
                rep = pbh_controllability(mod.A, mod.B)
                assert rep.controllable and rep.controllable_dim == 2 * n + 2
        for m in range(1, 5):
            for n in range(1, 5):
                mod = build_system(V.GENERAL_LCC, m, n, c)
                rep = pbh_controllability(mod.A, mod.B)
                assert not rep.controllable
                assert rep.controllable_dim == 2 * n + 2
                upstream = np.linalg.eigvals(mod.A[: 2 * m, : 2 * m])
                reported = np.array(rep.uncontrollable_mode_eigenvalues)
                assert all(np.min(np.abs(upstream - z)) < 2e-3 for z in reported)
                assert all(np.min(np.abs(reported - z)) < 2e-3 for z in upstream)
        for m in range(1, 5):
            mod = build_system(V.CCC, m, 0, c)
            rep = pbh_controllability(mod.A, mod.B)
            assert rep.controllable_dim == 2


def test_criterion_03_observability_suite(default_coeffs):
    with criterion(3, 10.0, "observability verdicts via duality for every (m, n, k)"):
        c = default_coeffs
        for n in range(1, 5):
            fd = build_system(V.FD_LCC, 0, n, c)
            cf = build_system(V.CF_LCC, 0, n, c)
            for k in range(1, n + 1):
                rep = pbh_observability(fd.A, build_output_matrix(fd, k), model=fd)
                # vehicles behind k are lost; the CAV's drifting position always is
                assert rep.observable_dim == 2 * k + 1
                assert set(rep.unobservable_vehicle_ids) == {0, *range(k + 1, n + 1)}
                rep = pbh_observability(cf.A, build_output_matrix(cf, k), model=cf)
                assert rep.observable_dim == 2 * k + 2
                assert set(rep.unobservable_vehicle_ids) == set(range(k + 1, n + 1))
                assert rep.observable == (k == n)
        for m in range(1, 5):
            for n in range(1, 5):
                gen = build_system(V.GENERAL_LCC, m, n, c)
                for k in range(1, n + 1):
                    rep = pbh_observability(gen.A, build_output_matrix(gen, k), model=gen)
                    assert rep.observable_dim == 2 * m + 2 + 2 * k
                    assert rep.observable == (k == n)
                    assert set(rep.unobservable_vehicle_ids) == set(range(k + 1, n + 1))
            ccc = build_system(V.CCC, m, 0, c)
            rep = pbh_observability(ccc.A, build_output_matrix(ccc, 0), model=ccc)
            assert rep.observable and rep.observable_dim == 2 * m + 2


def test_criterion_04_energy_trends(default_coeffs):
    with criterion(4, 120.0, "Gramian energy scaling: harder with n, easier with t"):
        ns = range(1, 6)
        ts = [10.0, 20.0, 30.0]
        rows = energy_scaling_study(default_coeffs, ns, ts)
        lam = {(r[0], r[1]): r[2] for r in rows}
        tri = {(r[0], r[1]): r[3] for r in rows}
        for t in ts:
            for n in range(1, 5):
                assert lam[(n + 1, t)] < lam[(n, t)]
                # exponential-difficulty signature: at least one decade per vehicle
                assert math.log10(lam[(n, t)]) - math.log10(lam[(n + 1, t)]) >= 1.0
            values = [tri[(n, t)] for n in ns if tri[(n, t)] is not None]
            assert all(b > a for a, b in zip(values, values[1:]))
        for n in ns:
            assert lam[(n, 10.0)] < lam[(n, 20.0)] < lam[(n, 30.0)]


def test_criterion_05_transfer_oracle(default_coeffs):
    with criterion(5, 30.0, "closed-form transfer function vs state-space response"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            ids = list(range(-m, 0)) + list(range(1, n + 1))
            pairs = {i: (rng.uniform(-2, 2), rng.uniform(-2, 2)) for i in ids}
            spec = TransferSpec(
                m=m, n=n, coeffs=default_coeffs, gains=FeedbackGains.from_pairs(pairs)
            )
            for w in 10 ** rng.uniform(-2, 2, size=20):
                closed = head_to_tail(spec, float(w))
                oracle = state_space_gain(spec, float(w))
                assert abs(closed - oracle) <= 1e-6 * (1.0 + abs(closed))


def test_criterion_06_string_stability_facts(default_coeffs):
    with criterion(6, 300.0, "HDV chain unstable, case ordering, region expansion"):
        c = default_coeffs
        assert c.alpha2**2 - c.alpha3**2 - 2 * c.alpha1 == pytest.approx(-0.445, abs=1e-3)

        def spec(pairs):
            return TransferSpec(m=2, n=2, coeffs=c, gains=FeedbackGains.from_pairs(pairs))

        hdv = is_string_stable(spec({}))
        assert not hdv.stable and hdv.peak_mag > 1.0

        omegas = np.logspace(-2, 0, 400)
        order = ["caseA", "caseB", "caseC", "caseD"]
        curves = {case: magnitude_curve(spec(GAIN_CASES[case]), omegas) for case in order}
        for earlier, later in zip(order, order[1:]):
            assert np.all(curves[later] <= curves[earlier] + 1e-12)

        focus = is_string_stable(spec({1: (-1.0, -1.0)}))
        assert focus.stable and focus.asymptotically_stable

        def axes(vid):
            return (
                GainAxis(vehicle=vid, component="mu", lo=-10, hi=10, points=51),
                GainAxis(vehicle=vid, component="k", lo=-10, hi=10, points=51),
            )

        masks = {}
        for name, base_pairs, vid in [
            ("a", {}, -1),
            ("b", {}, -2),
            ("c", {1: (-1.0, -1.0)}, -1),
            ("d", {1: (-1.0, -1.0)}, -2),
            ("e", {2: (-1.0, -1.0)}, -1),
            ("f", {2: (-1.0, -1.0)}, -2),
        ]:
            masks[name] = scan_region(spec(base_pairs), *axes(vid)).stable_mask()
        for new, base in [("c", "a"), ("d", "b"), ("e", "a"), ("f", "b")]:
            assert np.all(~masks[base] | masks[new]), f"panel {new} lost cells vs {base}"
            assert masks[new].sum() > masks[base].sum(), f"panel {new} did not expand"


def _sinusoid_scenario(case: str) -> ScenarioConfig:
    return ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=2,
        n=2,
        horizon=100.0,
        perturbation=HeadSinusoid(),
        cav=CavController(
            gains=FeedbackGains.from_pairs(GAIN_CASES[case]), mode="hdv-baseline"
        ),
    )


def test_criterion_07_nonlinear_simulation(default_coeffs):
    with criterion(7, 60.0, "equilibrium hold, case ordering, small-signal agreement"):
        hold = simulate(
            ScenarioConfig(variant=V.GENERAL_LCC, m=2, n=2, horizon=40.0)
        )
        assert np.abs(hold.velocity - 15.0).max() < 1e-9
        assert np.nanmax(np.abs(hold.spacing - 20.0)) < 1e-9

        peaks = {}
        for case in ("caseA", "caseB", "caseC", "caseD"):
            tr = simulate(_sinusoid_scenario(case))
            sel = tr.times >= 20.0
            peaks[case] = float(np.abs(tr.velocity_of(2)[sel] - 15.0).max())
        assert peaks["caseA"] >= peaks["caseB"] >= peaks["caseC"] >= peaks["caseD"]

        model = build_system(V.GENERAL_LCC, 2, 2, default_coeffs)
        A_cl = closed_loop_matrix(model, FeedbackGains())
        H = model.H[:, 0]
        errors = {}
        for eps in (0.01, 0.001):
            tr = simulate(
                ScenarioConfig(
                    variant=V.GENERAL_LCC,
                    m=2,
                    n=2,
                    horizon=60.0,
                    perturbation=HeadSinusoid(amplitude=eps, period=10.0, start=20.0),
                )
            )
            head_dev = tr.velocity_of("h") - 15.0
            steps = len(tr.times) - 1
            x = np.zeros(model.dim)
            linear = np.zeros((steps + 1, model.dim))
            for k in range(steps):
                linear[k] = x
                x = x + tr.dt * (A_cl @ x + H * head_dev[k])
            linear[steps] = x
            worst = 0.0
            for vid in (-2, -1, 0, 1, 2):
                nonlinear = tr.velocity_of(vid) - 15.0
                predicted = linear[:, model.index_map[vid][1]]
                worst = max(worst, float(np.abs(nonlinear - predicted).max()))
            errors[eps] = worst
        assert errors[0.01] / errors[0.001] >= 50.0


def _performance(controller, heterogeneous=False):
    trace = simulate(_brake_scenario(controller, heterogeneous))
    window = (20.0, 40.0)
    vehicles = range(0, 11)
    return (
        aave(trace, window, vehicles=vehicles),
        total_fuel(trace, window, vehicles=vehicles),
    )


def test_criterion_08_brake_reproduction():
    with criterion(8, 60.0, "brake scenario: leading the chain beats looking-ahead"):
        base_aave, base_fc = _performance(ZERO_RESPONSE)
        fd_aave, fd_fc = _performance(FD_CONTROLLER)
        cf_aave, cf_fc = _performance(CF_CONTROLLER)
        red = lambda new, old: 100.0 * (1.0 - new / old)
        assert red(fd_aave, base_aave) > 0 and red(cf_aave, base_aave) > 0
        assert red(fd_fc, base_fc) > 0 and red(cf_fc, base_fc) > 0
        assert red(fd_aave, base_aave) > red(cf_aave, base_aave)
        assert red(fd_fc, base_fc) > 10.0
        assert red(cf_fc, base_fc) > 10.0
        _info("looking-ahead AAVE (m/s)", base_aave, 0.89, 0.10)
        _info("fd-lcc AAVE (m/s)", fd_aave, 0.58, 0.10)
        _info("cf-lcc AAVE (m/s)", cf_aave, 0.81, 0.10)
        _info("looking-ahead FC (mL)", base_fc, 392.86, 0.10)
        _info("fd-lcc FC (mL)", fd_fc, 321.94, 0.10)
        _info("cf-lcc FC (mL)", cf_fc, 340.56, 0.10)


def test_criterion_09_heterogeneous_reproduction():
    with criterion(9, 120.0, "heterogeneous drivers with delay keep the gains' benefit"):
        base_aave, base_fc = _performance(ZERO_RESPONSE, heterogeneous=True)
        fd_aave, fd_fc = _performance(FD_CONTROLLER, heterogeneous=True)
        cf_aave, cf_fc = _performance(CF_CONTROLLER, heterogeneous=True)
        red = lambda new, old: 100.0 * (1.0 - new / old)
        assert red(fd_aave, base_aave) > 0 and red(cf_aave, base_aave) > 0
        assert red(fd_fc, base_fc) > 0 and red(cf_fc, base_fc) > 0
        assert red(fd_aave, base_aave) > red(cf_aave, base_aave)
        print(f"    heterogeneity seed: {HETEROGENEITY_SEED}")
        _info("fd-lcc AAVE reduction (%)", red(fd_aave, base_aave), 23.0, 0.15)
        _info("cf-lcc AAVE reduction (%)", red(cf_aave, base_aave), 8.77, 0.15)
        _info("fd-lcc FC reduction (%)", red(fd_fc, base_fc), 17.55, 0.15)
        _info("cf-lcc FC reduction (%)", red(cf_fc, base_fc), 13.72, 0.15)


def test_criterion_10_property_suites(default_coeffs):
    with criterion(10, 120.0, "PSD/Loewner Gramians, feedback invariance, symmetry, determinism"):
        c = default_coeffs
        for n in (1, 2, 3):
            mod = build_system(V.FD_LCC, 0, n, c)
            prev = None
            for t in (3.0, 8.0, 15.0):
                g = gramian(mod.A, mod.B, t)
                assert np.linalg.eigvalsh(g.W).min() >= -1e-10
                if prev is not None:
                    assert np.linalg.eigvalsh(g.W - prev).min() >= -1e-8
                prev = g.W

        mod = build_system(V.FD_LCC, 0, 3, c)
        base_dim = pbh_controllability(mod.A, mod.B).controllable_dim
        rng = np.random.default_rng(12)
        for _ in range(20):
            K = rng.uniform(-2, 2, size=(1, mod.dim))
            assert pbh_controllability(mod.A - mod.B @ K, mod.B).controllable_dim == base_dim

        spec = TransferSpec(
            m=2, n=2, coeffs=c, gains=FeedbackGains.from_pairs(GAIN_CASES["caseD"])
        )
        for w in (0.03, 0.5, 4.0, 60.0):
            assert transfer_value(spec, -1j * w) == pytest.approx(
                transfer_value(spec, 1j * w).conjugate(), rel=1e-12
            )

        cfg = ScenarioConfig(
            variant=V.FD_LCC,
            n=5,
            horizon=30.0,
            perturbation=FollowerBrake(),
            heterogeneity=HeterogeneitySpec(),
            seed=4,
            cav=CavController(mode="explicit"),
        )
        first, second = simulate(cfg), simulate(cfg)
        assert np.array_equal(first.velocity, second.velocity)
        assert np.array_equal(first.position, second.position)
