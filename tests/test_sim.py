"""Nonlinear chain simulation: scenarios, overrides, determinism."""

import cmath
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcc import (
    CavController,
    CollisionError,
    DriverParams,
    FeedbackGains,
    FollowerBrake,
    HeadSinusoid,
    HeterogeneitySpec,
    ScenarioConfig,
    SystemVariant,
    TopologyError,
    TransferSpec,
    build_system,
    closed_loop_matrix,
    equilibrium_spacing,
    kernels,
    linearize,
    phi_gamma,
    sample_heterogeneous,
    simulate,
    transfer_value,
)
from lcc.presets import GAIN_CASES

V = SystemVariant


def test_equilibrium_is_fixed_point():
    for variant, m, n in [(V.GENERAL_LCC, 2, 2), (V.CF_LCC, 0, 3), (V.CCC, 2, 0)]:
        cfg = ScenarioConfig(variant=variant, m=m, n=n, horizon=30.0)
        tr = simulate(cfg)
        assert np.abs(tr.velocity - 15.0).max() < 1e-9
        assert np.nanmax(np.abs(tr.spacing - 20.0)) < 1e-9


def test_equilibrium_with_heterogeneity_and_delay():
    cfg = ScenarioConfig(
        variant=V.FD_LCC,
        n=5,
        horizon=20.0,
        heterogeneity=HeterogeneitySpec(),
        seed=3,
        cav=CavController(mode="explicit"),
    )
    tr = simulate(cfg)
    assert np.abs(tr.velocity - 15.0).max() < 1e-9
    # per-vehicle equilibrium spacings differ but stay constant
    assert np.nanmax(np.abs(tr.spacing - tr.spacing[0])) < 1e-9


def test_forced_brake_kinematics():
    cfg = ScenarioConfig(
        variant=V.FD_LCC,
        n=10,
        horizon=40.0,
        perturbation=FollowerBrake(vehicle=1, decel=-5.0, duration=1.0, start=20.0),
        cav=CavController(mode="explicit"),
    )
    tr = simulate(cfg)
    k21 = round(21.0 / cfg.dt)
    assert tr.velocity[:, tr.col(1)][k21] == pytest.approx(10.0, abs=1e-9)
    k_forced = slice(round(20.0 / cfg.dt), round(21.0 / cfg.dt))
    assert np.all(tr.acceleration[k_forced, tr.col(1)] == -5.0)


def test_head_sinusoid_is_exact():
    pert = HeadSinusoid(amplitude=2.0, period=10.0, start=20.0)
    cfg = ScenarioConfig(variant=V.GENERAL_LCC, m=2, n=2, horizon=60.0, perturbation=pert)
    tr = simulate(cfg)
    t = tr.times
    expected = np.where(
        t >= 20.0, 15.0 + 2.0 * np.sin(2.0 * np.pi * (t - 20.0) / 10.0), 15.0
    )
    assert np.array_equal(tr.velocity[:, tr.col("h")], expected)


def test_accelerations_saturated():
    cfg = ScenarioConfig(
        variant=V.FD_LCC,
        n=10,
        horizon=40.0,
        perturbation=FollowerBrake(),
        cav=CavController(mode="explicit"),
    )
    tr = simulate(cfg)
    assert tr.acceleration.min() >= -5.0
    assert tr.acceleration.max() <= 2.0


def test_safety_override_forces_full_braking():
    """Whenever the stopping-demand predicate holds, the CAV logs exactly -5."""
    cfg = ScenarioConfig(
        variant=V.CF_LCC,
        n=1,
        horizon=60.0,
        perturbation=HeadSinusoid(amplitude=6.0, period=8.0, start=5.0),
        cav=CavController(gains=FeedbackGains(mu={0: 2.0}, k={}), mode="explicit"),
    )
    tr = simulate(cfg)
    assert tr.events, "scenario is chosen to trip the emergency brake"
    assert all(vid == 0 and label == "safety-brake" for _, vid, label in tr.events)
    j0, jh = tr.col(0), tr.col("h")
    v0 = tr.velocity[:, j0]
    vh = tr.velocity[:, jh]
    s0 = tr.spacing[:, j0]
    predicate = (v0**2 - vh**2) / (2.0 * s0) >= 5.0
    assert predicate.any()
    assert np.all(tr.acceleration[predicate, j0] == -5.0)
    event_steps = {round(t / cfg.dt) for t, _, _ in tr.events}
    assert event_steps == set(np.nonzero(predicate)[0].tolist())


def test_velocities_never_negative():
    cfg = ScenarioConfig(
        variant=V.FD_LCC,
        n=4,
        horizon=30.0,
        perturbation=FollowerBrake(vehicle=1, decel=-5.0, duration=4.0, start=5.0),
        cav=CavController(mode="explicit"),
    )
    tr = simulate(cfg)
    assert tr.velocity.min() >= 0.0
    assert tr.velocity[:, tr.col(1)].min() == 0.0  # braking 4 s from 15 m/s reaches standstill


def test_spacing_matches_positions_bitwise():
    cfg = ScenarioConfig(variant=V.GENERAL_LCC, m=1, n=2, horizon=20.0,
                         perturbation=HeadSinusoid(start=5.0))
    tr = simulate(cfg)
    assert np.array_equal(tr.spacing[:, 1:], tr.position[:, :-1] - tr.position[:, 1:])
    assert np.all(np.isnan(tr.spacing[:, 0]))


def test_trace_determinism():
    cfg = ScenarioConfig(
        variant=V.FD_LCC,
        n=6,
        horizon=30.0,
        perturbation=FollowerBrake(),
        heterogeneity=HeterogeneitySpec(),
        seed=9,
        cav=CavController(mode="explicit"),
    )
    a, b = simulate(cfg), simulate(cfg)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.velocity, b.velocity)
    assert np.array_equal(a.acceleration, b.acceleration)
    other = simulate(
        ScenarioConfig(
            variant=V.FD_LCC,
            n=6,
            horizon=30.0,
            perturbation=FollowerBrake(),
            heterogeneity=HeterogeneitySpec(),
            seed=10,
            cav=CavController(mode="explicit"),
        )
    )
    assert not np.array_equal(a.velocity, other.velocity)


def test_collision_detected_and_reported():
    cfg = ScenarioConfig(
        variant=V.FD_LCC,
        n=2,
        horizon=40.0,
        perturbation=FollowerBrake(vehicle=1, decel=-5.0, duration=3.0, start=5.0),
        base_params=DriverParams(delay=2.5),
        cav=CavController(mode="explicit"),
    )
    with pytest.raises(CollisionError) as err:
        simulate(cfg)
    assert err.value.follower == 2
    assert err.value.leader == 1
    assert 5.0 < err.value.time < 40.0


def test_sample_heterogeneous():
    spec = HeterogeneitySpec()
    params = sample_heterogeneous(spec, 100, seed=1)
    alphas = np.array([p.alpha for p in params])
    betas = np.array([p.beta for p in params])
    sgos = np.array([p.s_go for p in params])
    delays = np.array([p.delay for p in params])
    assert np.all((alphas >= 0.5) & (alphas <= 0.7))
    assert np.all((betas >= 0.8) & (betas <= 1.0))
    assert np.all((sgos >= 30.0) & (sgos <= 40.0))
    assert np.all((delays >= 0.3) & (delays <= 0.5))
    assert sample_heterogeneous(spec, 100, seed=1) == params
    assert sample_heterogeneous(spec, 100, seed=2) != params

    frozen = HeterogeneitySpec(
        alpha_jitter=0.0, beta_jitter=0.0, s_go_jitter=0.0, delay_base=0.4, delay_jitter=0.0
    )
    for p in sample_heterogeneous(frozen, 5, seed=0):
        assert p == DriverParams(delay=0.4)


def test_sample_heterogeneous_counts():
    # a chain with no HDVs draws nothing, but its seed and spec are still
    # checked; a negative count is refused by name
    assert sample_heterogeneous(HeterogeneitySpec(), 0, seed=0) == []
    with pytest.raises(ValueError, match="seed"):
        sample_heterogeneous(HeterogeneitySpec(), 0, seed=-1)
    with pytest.raises(ValueError, match="alpha_jitter"):
        sample_heterogeneous(HeterogeneitySpec(alpha_jitter=-1.0), 0, seed=0)
    with pytest.raises(ValueError, match="n_vehicles must be >= 0, got -1"):
        sample_heterogeneous(HeterogeneitySpec(), -1, seed=0)



@pytest.mark.parametrize(
    "spec, field",
    [
        (HeterogeneitySpec(delay_base=0.05, delay_jitter=0.1), "delay_jitter"),
        (HeterogeneitySpec(alpha_jitter=-1.0), "alpha_jitter"),
        (HeterogeneitySpec(beta_jitter=-0.1), "beta_jitter"),
        (HeterogeneitySpec(s_go_jitter=-5.0), "s_go_jitter"),
        (HeterogeneitySpec(delay_jitter=-0.1), "delay_jitter"),
        (HeterogeneitySpec(alpha_jitter=0.6), "alpha_jitter"),
        (HeterogeneitySpec(beta_jitter=1.0), "beta_jitter"),
        (HeterogeneitySpec(s_go_jitter=30.0), "s_go_jitter"),
        (HeterogeneitySpec(alpha_jitter=float("nan")), "alpha_jitter"),
    ],
)
def test_sample_heterogeneous_rejects_bad_bands(spec, field):
    # seed 1 raised only from inside DriverParams for the first spec; every
    # seed must now fail up front, naming the field
    for seed in (0, 1, 2):
        with pytest.raises(ValueError, match=field):
            sample_heterogeneous(spec, 10, seed=seed)


@pytest.mark.parametrize(
    "base, spec, field",
    [
        (DriverParams(alpha=1e308), HeterogeneitySpec(alpha_jitter=9e307), "alpha_jitter"),
        (DriverParams(beta=1e308), HeterogeneitySpec(beta_jitter=9e307), "beta_jitter"),
        (DriverParams(s_go=1.7e308), HeterogeneitySpec(s_go_jitter=9e307), "s_go_jitter"),
        (DriverParams(), HeterogeneitySpec(delay_base=1e308, delay_jitter=1e308), "delay_jitter"),
    ],
    ids=["alpha", "beta", "s_go", "delay"],
)
def test_sample_heterogeneous_rejects_bands_past_the_float_range(base, spec, field):
    # each band lies within the checks above, but numpy's draw overflows
    # on its width: refused up front, naming the jitter
    with pytest.raises(ValueError, match=f"^{field} must keep .* finite"):
        sample_heterogeneous(spec, 3, seed=0, base=base)


def test_sample_heterogeneous_edge_bands_accepted():
    base = DriverParams()
    spec = HeterogeneitySpec(
        alpha_jitter=0.59, beta_jitter=0.89, s_go_jitter=29.9, delay_base=0.1, delay_jitter=0.1
    )
    params = sample_heterogeneous(spec, 50, seed=1, base=base)
    assert min(p.delay for p in params) >= 0.0
    # the checks draw nothing: the first draws match a bare generator's
    rng = np.random.default_rng(1)
    assert params[0].alpha == base.alpha + rng.uniform(-0.59, 0.59)
    assert params[0].beta == base.beta + rng.uniform(-0.89, 0.89)

def test_config_validation_errors():
    with pytest.raises(TopologyError):
        simulate(ScenarioConfig(variant=V.FD_LCC, n=-1, cav=CavController(mode="explicit")))
    with pytest.raises(TopologyError):
        simulate(ScenarioConfig(variant=V.GENERAL_LCC, m=1, n=0))
    with pytest.raises(TopologyError):
        simulate(ScenarioConfig(variant=V.FD_LCC, n=2, perturbation=HeadSinusoid()))
    with pytest.raises(TopologyError):
        simulate(ScenarioConfig(variant=V.FD_LCC, n=2))  # hdv-baseline needs a predecessor
    with pytest.raises(TopologyError):
        simulate(
            ScenarioConfig(
                variant=V.FD_LCC,
                n=2,
                perturbation=FollowerBrake(vehicle=5),
                cav=CavController(mode="explicit"),
            )
        )
    with pytest.raises(TopologyError):
        simulate(
            ScenarioConfig(
                variant=V.GENERAL_LCC,
                m=1,
                n=1,
                cav=CavController(gains=FeedbackGains(mu={0: 1.0}, k={})),
            )
        )
    with pytest.raises(TopologyError):
        simulate(
            ScenarioConfig(
                variant=V.FD_LCC,
                n=2,
                cav=CavController(gains=FeedbackGains(mu={0: 0.1}, k={}), mode="explicit"),
            )
        )
    with pytest.raises(ValueError):
        simulate(
            ScenarioConfig(
                variant=V.CF_LCC,
                n=1,
                horizon=10.0,
                perturbation=HeadSinusoid(start=20.0),
            )
        )


def test_simulate_and_build_system_admit_the_same_topologies(default_coeffs):
    for variant in V:
        for m in range(-1, 3):
            for n in range(-1, 3):
                cfg = ScenarioConfig(
                    variant=variant, m=m, n=n, horizon=0.5, dt=0.1,
                    cav=CavController(mode="explicit"),
                )
                try:
                    build_system(variant, m, n, default_coeffs)
                except TopologyError:
                    with pytest.raises(TopologyError):
                        simulate(cfg)
                else:
                    ids = [vid for vid in simulate(cfg).ids if vid != "h"]
                    assert ids == list(range(-m, n + 1))


@pytest.mark.parametrize("field", ["dt", "horizon"])
def test_nan_step_or_horizon_rejected(field):
    with pytest.raises(ValueError, match=f"{field} must be > 0"):
        simulate(ScenarioConfig(variant=V.CF_LCC, n=1, **{field: math.nan}))


_PAST_V_STAR = math.nextafter(15.0, math.inf)


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param({"perturbation": HeadSinusoid(period=0.0)}, "period must be > 0",
                     id="period=0"),
        # 2 pi (t - start) / period overflows: sin would give a NaN head
        pytest.param({"perturbation": HeadSinusoid(period=1e-320)},
                     "period must keep the head's phase finite", id="period-phase-overflows"),
        pytest.param({"perturbation": HeadSinusoid(amplitude=math.nan)},
                     "amplitude must be finite", id="amplitude=nan"),
        pytest.param({"perturbation": HeadSinusoid(start=math.nan)}, "start must be >= 0",
                     id="start=nan"),
        pytest.param({"perturbation": FollowerBrake(decel=math.nan)}, "decel must be finite",
                     id="decel=nan"),
        pytest.param({"perturbation": FollowerBrake(duration=-1.0)}, "duration must be > 0",
                     id="duration=-1"),
        pytest.param({"dt": math.inf}, "dt must be > 0 and finite", id="dt=inf"),
        pytest.param({"cav": CavController(gains=FeedbackGains(mu={1: math.nan}, k={}))},
                     r"gain mu\[1\] must be finite", id="mu=nan"),
        pytest.param({"seed": 1.5, "heterogeneity": HeterogeneitySpec()},
                     "seed must be an integer", id="seed=1.5"),
        # a bool is refused by the field's own limit, before the sampler sees it
        pytest.param({"seed": True, "heterogeneity": HeterogeneitySpec()},
                     "^seed must be a number, got True$", id="seed=True"),
        # 2000.0 and 2000.4 steps round alike, so the window holds no step
        pytest.param({"perturbation": FollowerBrake(vehicle=1, duration=0.004)},
                     r"start=20\.0 and duration=0\.004 at dt=0\.01", id="brake-no-step"),
        # the window opens at the last step, which updates no state
        pytest.param({"horizon": 100.0, "perturbation": FollowerBrake(start=99.999)},
                     r"start=99\.999 and duration=1\.0 at dt=0\.01", id="brake-last-step"),
        # a head that would drive backwards, or either sign just past v*
        pytest.param({"perturbation": HeadSinusoid(amplitude=_PAST_V_STAR)},
                     r"at most v_star = 15\.0 in size, got 15\.000000000000002",
                     id="amplitude=v*+ulp"),
        pytest.param({"perturbation": HeadSinusoid(amplitude=-_PAST_V_STAR)},
                     r"at most v_star = 15\.0 in size, got -15\.000000000000002",
                     id="amplitude=-v*-ulp"),
        # horizon / dt rounds to no step at all
        pytest.param({"horizon": 0.05, "dt": 0.1},
                     r"more than half a step, got horizon=0\.05 and dt=0\.1", id="horizon=dt/2"),
        pytest.param({"horizon": 1.0, "dt": 5.0},
                     r"more than half a step, got horizon=1\.0 and dt=5\.0", id="horizon=dt/5"),
    ],
)
def test_scenario_values_the_config_rejects_are_rejected(change, message):
    """Library callers get the config's bounds too, not a NaN, unperturbed or
    stalled trace."""
    with pytest.raises(ValueError, match=message):
        simulate(ScenarioConfig(**{"variant": V.CF_LCC, "n": 1, "horizon": 30.0, **change}))


@pytest.mark.parametrize("amplitude", [15.0, -15.0])
def test_head_sinusoid_of_amplitude_v_star_accepted(amplitude):
    """A head sinusoid as large as v* slows the head to a stop, never
    backwards."""
    trace = simulate(ScenarioConfig(
        variant=V.CF_LCC, n=1, horizon=60.0,
        perturbation=HeadSinusoid(amplitude=amplitude, period=60.0, start=0.0),
    ))
    assert 0.0 <= trace.velocity[:, 0].min() < 1e-9


def test_non_finite_step_count_rejected():
    with pytest.raises(ValueError, match=r"horizon=1e\+300 and dt=1e-10"):
        simulate(ScenarioConfig(variant=V.CF_LCC, n=1, horizon=1e300, dt=1e-10))


def test_trace_allocation_failure_names_horizon(trace_rows_out_of_memory):
    cfg = ScenarioConfig(variant=V.CF_LCC, n=1, horizon=1e12, dt=0.1)
    with pytest.raises(ValueError) as err:
        simulate(cfg)
    assert "horizon=1000000000000.0 at dt=0.1 needs 1e+13 trace rows" in str(err.value)


def test_delay_past_horizon_reads_no_delayed_state():
    def run(delay):
        return simulate(
            ScenarioConfig(
                variant=V.CF_LCC,
                n=2,
                horizon=5.0,
                perturbation=HeadSinusoid(start=1.0),
                base_params=DriverParams(delay=delay),
            )
        )

    ref = run(5.02)  # 502 steps, past the 500-step horizon
    # the largest finite delay over dt overflows to inf steps
    for delay in (6.0, 1e300, sys.float_info.max):
        tr = run(delay)
        for name in ("position", "velocity", "acceleration"):
            assert np.array_equal(getattr(tr, name), getattr(ref, name))
    assert not np.array_equal(run(0.5).velocity, ref.velocity)


@pytest.mark.parametrize("period", [5.0, 10.0])
@pytest.mark.parametrize(
    "case, delay",
    [("hdv", 0), ("caseA", 0), ("caseD", 0), ("hdv", 5), ("hdv", 40),
     pytest.param("hdv", HeterogeneitySpec(), id="hdv-heterogeneous"),
     pytest.param("hdv", HeterogeneitySpec(delay_base=0.01, delay_jitter=0.01),
                  id="hdv-heterogeneous-mixed")],
)
def test_small_signal_response_is_the_euler_transfer_function(case, delay, period):
    """A 1 mm/s head sinusoid through the general 2+2 chain: vehicle 2's
    velocity phasor over the head's, over whole periods after t = 100 s, is
    the transfer function of the forward-Euler chain, Gamma at s_d = (z -
    1)/dt with z = e^(j w dt).  An HDV that reacts d steps late has the
    factor z^-d (alpha1 + alpha3 s_d) / (s_d^2 + z^-d (alpha2 s_d +
    alpha1)).  HDVs without delay step row by row, late ones in the block
    pass, so the oracle covers both with no reference loop.  With
    ``delay`` a ``HeterogeneitySpec`` every HDV has its own draw of it: its
    own alphas and its own delay, and Gamma is the product of their own
    factors.  ``HeterogeneitySpec()`` gives delays of 30-50 steps, so a
    block's HDVs read rows at distinct lags; the mixed spec gives 0 to 2
    steps, so HDVs that react at once step between the late ones' blocks."""
    heterogeneity = delay if isinstance(delay, HeterogeneitySpec) else None
    dt, base = 0.01, DriverParams(delay=0.0 if heterogeneity else delay / 100)
    gains = FeedbackGains.from_pairs(GAIN_CASES[case])
    cfg = ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=2,
        n=2,
        horizon=200.0,
        dt=dt,
        perturbation=HeadSinusoid(amplitude=1e-3, period=period, start=0.0),
        base_params=base,
        heterogeneity=heterogeneity,
        cav=CavController(gains=gains),
        seed=5,
    )
    with mock.patch.object(kernels, "simulate_loop", wraps=kernels.simulate_loop) as loop:
        trace = simulate(cfg)
    late = loop.call_args.args[1].blocks[0].size  # HDVs the block pass steps
    window = slice(round(100.0 / dt), round(200.0 / dt))  # 20 or 10 whole periods
    omega = 2.0 * math.pi / period
    phasor = np.exp(-1j * omega * trace.times[window])
    head, tail = ((trace.velocity[window, trace.col(vid)] - 15.0) @ phasor for vid in ("h", 2))

    z = cmath.exp(1j * omega * dt)
    s_d = (z - 1.0) / dt
    c = linearize(equilibrium_spacing(15.0, base), base)
    if delay == 0:
        assert late == 0
        want = transfer_value(TransferSpec(m=2, n=2, coeffs=c, gains=gains), s_d)
    else:
        drivers = sample_heterogeneous(heterogeneity, 4, cfg.seed, base) if heterogeneity \
            else [base] * 4
        lags = [round(p.delay / dt) for p in drivers]
        assert late == sum(d > 0 for d in lags)
        if heterogeneity == HeterogeneitySpec():
            assert len(set(lags)) == 4 and 30 <= min(lags) and max(lags) <= 50
        elif heterogeneity:
            assert min(lags) == 0 and max(lags) >= 1
        phi, gam = phi_gamma(c, s_d)
        want = phi / gam  # the CAV's own factor: its baseline law, no gains, no delay
        for p, d in zip(drivers, lags):
            ci = linearize(equilibrium_spacing(15.0, p), p)
            late = z**-d
            want *= late * (ci.alpha1 + ci.alpha3 * s_d) / (
                s_d * s_d + late * (ci.alpha2 * s_d + ci.alpha1))
    assert abs(tail / head - want) <= 1e-6 * abs(want)


# chains with gains on both sides of the CAV where the variant has them, and
# cf under both CAV laws: variant, m, n, gains {id: (mu, k)} and mode
JACOBIAN_CHAINS = {
    "general-2-2": (V.GENERAL_LCC, 2, 2, {-1: (0.4, -0.3), 1: (-0.2, 0.5)}, "hdv-baseline"),
    "general-1-3": (V.GENERAL_LCC, 1, 3, {-1: (0.4, -0.3), 2: (-0.2, 0.5), 3: (0.1, -0.1)},
                    "hdv-baseline"),
    "ccc-3": (V.CCC, 3, 0, {-3: (0.3, 0.2)}, "hdv-baseline"),
    # the CAV's own velocity gain, on the row of its negated position, and a follower's
    "fd": (V.FD_LCC, 0, 2, {0: (0.0, -0.5), 2: (-0.1, 0.05)}, "explicit"),
    "cf-hdv-baseline": (V.CF_LCC, 0, 2, {1: (-0.2, 0.05)}, "hdv-baseline"),
    "cf-explicit": (V.CF_LCC, 0, 2, {1: (-0.2, 0.05)}, "explicit"),
}


def _one_step_jacobian(cfg, eps=1e-4):
    """(J - I)/dt of one forward-Euler step from equilibrium, J by central
    differences: the error state (s~, v~ of each vehicle -m..n, -p~0 for a
    free-driving CAV) is moved by +-eps at row 0, through a wrapper of
    ``kernels.simulate_loop``.  A spacing moves its vehicle and every one
    behind it, a velocity its vehicle alone."""
    vids = range(-cfg.m, cfg.n + 1)
    loop = kernels.simulate_loop

    def stepped(q, step):
        def perturbed(n_steps, chain, pos, vel, acc):
            j = q // 2 + cfg.has_head
            if q % 2:
                vel[0, j] += step
            else:
                pos[0, j:] -= step
            return loop(n_steps, chain, pos, vel, acc)

        with mock.patch.object(kernels, "simulate_loop", perturbed):
            tr = simulate(cfg)
        p, v = tr.position[1], tr.velocity[1]
        return np.array([x for j in map(tr.col, vids)
                         for x in (p[j - 1] - p[j] if j else -p[j], v[j])])

    dim = 2 * len(vids)
    J = np.column_stack([(stepped(q, eps) - stepped(q, -eps)) / (2 * eps) for q in range(dim)])
    return (J - np.eye(dim)) / cfg.dt


def _assert_one_step_jacobian(variant, m, n, pairs, mode, seed=None):
    """One step of the nonlinear chain maps the error state x to x + dt A_cl
    x + O(|x|^2): the simulator and ``systems`` agree on every vehicle's
    feedback term, index and sign.  cf's model puts the HDV law inside A
    (the CAV's P1 block), which the simulator spells as mode hdv-baseline;
    under mode explicit the CAV's velocity row lacks alpha1 s~0 - alpha2
    v~0.  With a ``seed`` every HDV drives with its own draw of
    ``HeterogeneitySpec`` with no delay, and its rows of A_cl are built
    here from its own ``linearize``; the CAV keeps the base driver's."""
    base = DriverParams()
    spec = None if seed is None else HeterogeneitySpec(delay_base=0.0, delay_jitter=0.0)
    gains = FeedbackGains.from_pairs(pairs)
    cfg = ScenarioConfig(variant=variant, m=m, n=n, horizon=0.01, dt=0.01, base_params=base,
                         heterogeneity=spec, seed=seed or 0,
                         cav=CavController(gains=gains, mode=mode))
    c = linearize(equilibrium_spacing(15.0, base), base)
    model = build_system(variant, m, n, c)
    want = closed_loop_matrix(model, gains)
    if spec is not None:
        for vid, p in zip(cfg.hdv_ids(), sample_heterogeneous(spec, m + n, seed, base)):
            ci = linearize(equilibrium_spacing(15.0, p), p)
            rs, rv = model.index_map[vid]
            want[rv, rs], want[rv, rv] = ci.alpha1, -ci.alpha2
            if rs > 0:  # the velocity of the vehicle ahead, unless it is the head
                want[rv, rv - 2] = ci.alpha3
    if variant is V.CF_LCC and mode == "explicit":
        want[1, :2] -= c.alpha1, -c.alpha2
    assert np.abs(_one_step_jacobian(cfg) - want).max() <= 1e-7


@pytest.mark.parametrize("name", JACOBIAN_CHAINS)
def test_one_step_jacobian_is_the_closed_loop_matrix(name):
    _assert_one_step_jacobian(*JACOBIAN_CHAINS[name])


@st.composite
def _jacobian_chains(draw):
    """A chain of any variant with m, n <= 3, the CAV law its model spells
    (mode explicit where the chain has no head, either in cf), gains of
    +-1 on any HDV and on the CAV's own errors where the variant admits them
    (its velocity alone in fd, which has no spacing), and drivers of their
    own in about half the draws (a chain with no HDVs samples none)."""
    variant = draw(st.sampled_from(list(V)))
    m = draw(st.integers(1, 3)) if variant in (V.GENERAL_LCC, V.CCC) else 0
    n = 0 if variant is V.CCC else draw(st.integers(int(variant is V.GENERAL_LCC), 3))
    mode = {V.FD_LCC: "explicit", V.CF_LCC: draw(st.sampled_from(["hdv-baseline", "explicit"]))
            }.get(variant, "hdv-baseline")
    ids = [i for i in range(-m, n + 1) if i or mode == "explicit"]
    gain = st.floats(-1.0, 1.0)
    pairs = draw(st.dictionaries(st.sampled_from(ids), st.tuples(gain, gain))) if ids else {}
    if variant is V.FD_LCC and 0 in pairs:
        pairs[0] = (0.0, pairs[0][1])
    seed = draw(st.none() | st.integers(0, 1000))
    return variant, m, n, pairs, mode, seed


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(chain=_jacobian_chains())
def test_one_step_jacobian_of_drawn_chains(chain):
    _assert_one_step_jacobian(*chain)
