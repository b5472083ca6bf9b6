"""Kernel checks: the transfer-magnitude kernels against the state-space
realization, and the chain-stepping loop bit for bit against its
element-indexing reference."""

import math
from unittest import mock

import numpy as np
import pytest

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
    TransferSpec,
    kernels,
    output,
    simulate,
)
from lcc.kernels import BLOCK_MIN_DELAY, gamma_mag_sq_grid, gamma_mag_sq_scalar, ovm_ramp_array
from lcc.output import fmt, write_trace_csv
from lcc.presets import CF_CONTROLLER, FD_CONTROLLER, GAIN_CASES
from lcc.sim import A_MAX, A_MIN, _hdv_drivers
from lcc.stability import _gain_arrays
from lcc.vehicles import equilibrium_spacing, linearize, ovm_ramp
from oracles import state_space_gain


@pytest.mark.parametrize(
    "m, n, pairs",
    [
        pytest.param(0, 2, {1: (-1.0, -1.0), 2: (-0.5, 0.3)}, id="m0"),
        pytest.param(2, 0, {-2: (1.0, -1.0), -1: (0.5, 0.2)}, id="n0"),
        pytest.param(2, 1, {-2: (0.5, 0.2), -1: (1.0, -1.0), 1: (-1.0, -1.0)}, id="m2n1"),
        pytest.param(2, 2, GAIN_CASES["caseD"], id="caseD"),
    ],
)
def test_gamma_grid_matches_scalar_and_closed_form(default_coeffs, m, n, pairs):
    spec = TransferSpec(m=m, n=n, coeffs=default_coeffs, gains=FeedbackGains.from_pairs(pairs))
    c = spec.coeffs
    args = (c.alpha1, c.alpha2, c.alpha3, *_gain_arrays(spec))
    omegas = np.logspace(-2, 2, 500)
    grid = gamma_mag_sq_grid(omegas, *args)
    scalar = np.array([gamma_mag_sq_scalar(w, *args) for w in omegas])
    oracle = np.array([abs(state_space_gain(spec, w)) ** 2 for w in omegas.tolist()])
    np.testing.assert_allclose(grid, scalar, rtol=1e-12)
    np.testing.assert_allclose(grid, oracle, rtol=1e-12)


V = SystemVariant


# ---------------------------------------------------------------------------
# chain stepping: bit-exact against the element-indexing reference
# ---------------------------------------------------------------------------

def _desired_velocity(s, vmax, sst, sgo):
    if s <= sst:
        return 0.0
    if s >= sgo:
        return vmax
    return 0.5 * vmax * (1.0 - math.cos(math.pi * (s - sst) / (sgo - sst)))


def test_desired_velocity_is_the_kernel_ramp_bitwise():
    """The public V(s) and the block stepper's elementwise V(s) round exactly
    as the ramp the traces are built on."""
    rng = np.random.default_rng(7)
    for p in (DriverParams(), DriverParams(v_max=33.3, s_st=4.1, s_go=38.7)):
        spacings = rng.uniform(0.0, 45.0, 10_000)
        want = [_desired_velocity(s, p.v_max, p.s_st, p.s_go) for s in spacings.tolist()]
        assert [ovm_ramp(s, p.v_max, p.s_st, p.s_go) for s in spacings.tolist()] == want
        assert ovm_ramp_array(spacings, p.v_max, p.s_st, p.s_go).tobytes() == np.array(want).tobytes()


def _reference_simulate_loop(
    n_steps,
    dt,
    pos,
    vel,
    acc,
    has_head,
    head_vel,
    cav,
    alpha,
    beta,
    vmax,
    sst,
    sgo,
    delay_steps,
    s_star,
    v_star,
    mode_baseline,
    a1,
    a2,
    a3,
    gain_mu,
    gain_k,
    brake_col,
    brake_k0,
    brake_k1,
    brake_acc,
    a_min,
    a_max,
    override_flag,
):
    """The element-indexing chain loop that ``simulate_loop`` replaced.

    Takes the chain as per-column arrays (see ``_reference_args``), with
    the hdv-baseline law as its own branch.  Column 0 is the front-most
    vehicle (prescribed head, or the CAV in a free-driving chain); fills
    pos/vel/acc in place.  Returns (status, step, column): status 0 on
    success, 1 on collision at the reported step between column-1 and
    column.
    """
    n_veh = pos.shape[1]
    for k in range(n_steps + 1):
        if has_head:
            vel[k, 0] = head_vel[k]
        # accelerations at step k
        for j in range(n_veh):
            if has_head and j == 0:
                if k < n_steps:
                    acc[k, 0] = (head_vel[k + 1] - head_vel[k]) / dt
                else:
                    acc[k, 0] = acc[k - 1, 0]
                continue
            if j == cav:
                u = 0.0
                if mode_baseline:
                    # HDV-like linear law toward the predecessor
                    sc = pos[k, j - 1] - pos[k, j]
                    u += a1 * (sc - s_star[j]) - a2 * (vel[k, j] - v_star)
                    u += a3 * (vel[k, j - 1] - v_star)
                else:
                    if gain_k[j] != 0.0:
                        u += gain_k[j] * (vel[k, j] - v_star)
                    if j > 0 and gain_mu[j] != 0.0:
                        u += gain_mu[j] * (pos[k, j - 1] - pos[k, j] - s_star[j])
                for j2 in range(n_veh):
                    if j2 == cav:
                        continue
                    if j2 > 0 and gain_mu[j2] != 0.0:
                        u += gain_mu[j2] * (pos[k, j2 - 1] - pos[k, j2] - s_star[j2])
                    if gain_k[j2] != 0.0:
                        u += gain_k[j2] * (vel[k, j2] - v_star)
                if j > 0:
                    s0 = pos[k, j - 1] - pos[k, j]
                    if s0 > 0.0 and (vel[k, j] ** 2 - vel[k, j - 1] ** 2) / (2.0 * s0) >= -a_min:
                        u = a_min
                        override_flag[k] = 1
                a = u
            else:
                kd = k - delay_steps[j]
                if kd < 0:
                    sj = s_star[j]
                    sd = 0.0
                    vj = v_star
                else:
                    sj = pos[kd, j - 1] - pos[kd, j]
                    sd = vel[kd, j - 1] - vel[kd, j]
                    vj = vel[kd, j]
                a = alpha[j] * (_desired_velocity(sj, vmax[j], sst[j], sgo[j]) - vj) + beta[j] * sd
            if j == brake_col and brake_k0 <= k < brake_k1:
                a = brake_acc
            if a < a_min:
                a = a_min
            elif a > a_max:
                a = a_max
            acc[k, j] = a
        if k == n_steps:
            break
        # state update
        for j in range(n_veh):
            pos[k + 1, j] = pos[k, j] + dt * vel[k, j]
            if has_head and j == 0:
                vel[k + 1, 0] = head_vel[k + 1]
            else:
                v_new = vel[k, j] + dt * acc[k, j]
                vel[k + 1, j] = v_new if v_new > 0.0 else 0.0
        for j in range(1, n_veh):
            if pos[k + 1, j - 1] - pos[k + 1, j] <= 0.0:
                return 1, k + 1, j
    return 0, 0, 0


def _reference_args(cfg):
    """The reference's arguments for ``cfg``: one slot per column in each
    per-vehicle array, flat scalars for the baseline and the brake."""
    dt, v_star = cfg.dt, cfg.v_star
    n_steps = max(1, round(cfg.horizon / dt))
    params = dict(zip(cfg.hdv_ids(), _hdv_drivers(cfg)))
    ids = (["h"] if cfg.has_head else []) + list(range(-cfg.m, cfg.n + 1))
    n_veh = len(ids)
    cav = ids.index(0)
    alpha, beta, vmax, sst, sgo, s_star = (np.zeros(n_veh) for _ in range(6))
    delay_steps = np.zeros(n_veh, dtype=np.int64)
    for j, vid in enumerate(ids):
        p = cfg.base_params if vid in ("h", 0) else params[vid]
        alpha[j], beta[j], vmax[j], sst[j], sgo[j] = p.alpha, p.beta, p.v_max, p.s_st, p.s_go
        delay_steps[j] = round(min(p.delay / dt, n_steps + 1)) if vid not in ("h", 0) else 0
        if j > 0:
            s_star[j] = equilibrium_spacing(v_star, p).s_star
    coeffs = linearize(equilibrium_spacing(v_star, cfg.base_params), cfg.base_params)
    gain_mu, gain_k = np.zeros(n_veh), np.zeros(n_veh)
    for vid, g in cfg.cav.gains.mu.items():
        gain_mu[ids.index(vid)] = g
    for vid, g in cfg.cav.gains.k.items():
        gain_k[ids.index(vid)] = g
    head_vel = np.full(n_steps + 1, v_star)
    pert = cfg.perturbation
    if isinstance(pert, HeadSinusoid):
        t = np.arange(n_steps + 1) * dt
        active = t >= pert.start
        head_vel[active] = v_star + pert.amplitude * np.sin(
            2.0 * math.pi * (t[active] - pert.start) / pert.period
        )
    brake = (-1, 0, 0, 0.0)
    if isinstance(pert, FollowerBrake):
        brake = (
            ids.index(pert.vehicle),
            round(pert.start / dt),
            round((pert.start + pert.duration) / dt),
            pert.decel,
        )
    pos, vel, acc = (np.zeros((n_steps + 1, n_veh)) for _ in range(3))
    vel[0, :] = v_star
    for j in range(1, n_veh):
        pos[0, j] = pos[0, j - 1] - s_star[j]
    return (
        n_steps, dt, pos, vel, acc, cfg.has_head, head_vel, cav,
        alpha, beta, vmax, sst, sgo, delay_steps, s_star, v_star,
        cfg.cav.mode == "hdv-baseline", coeffs.alpha1, coeffs.alpha2, coeffs.alpha3,
        gain_mu, gain_k, *brake, A_MIN, A_MAX, np.zeros(n_steps + 1, dtype=np.uint8),
    )


LOOP_CASES = {
    "cf-sinusoid-fig9": ScenarioConfig(
        variant=V.CF_LCC,
        n=3,
        horizon=40.0,
        perturbation=HeadSinusoid(start=5.0),
        cav=CF_CONTROLLER,
    ),
    "general-sinusoid-caseD": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=2,
        n=2,
        horizon=40.0,
        perturbation=HeadSinusoid(start=5.0),
        cav=CavController(gains=FeedbackGains.from_pairs(GAIN_CASES["caseD"])),
    ),
    "fd-explicit-brake": ScenarioConfig(
        variant=V.FD_LCC,
        n=10,
        horizon=30.0,
        perturbation=FollowerBrake(start=5.0),
        cav=FD_CONTROLLER,
    ),
    # the predecessor (-1) carries gains too: the baseline's term on it
    # must come first, not be summed into them
    "hdv-baseline-predecessor-gains": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=1,
        n=2,
        horizon=30.0,
        perturbation=HeadSinusoid(amplitude=4.0, start=5.0),
        cav=CavController(gains=FeedbackGains(mu={-1: 0.5, 2: -0.3}, k={-1: -0.4, 1: 0.2})),
    ),
    "appendixC-delays-brake": ScenarioConfig(
        variant=V.FD_LCC,
        n=10,
        horizon=30.0,
        perturbation=FollowerBrake(start=5.0),
        heterogeneity=HeterogeneitySpec(),
        seed=5,
        cav=FD_CONTROLLER,
    ),
    "safety-override": ScenarioConfig(
        variant=V.CF_LCC,
        n=1,
        horizon=60.0,
        perturbation=HeadSinusoid(amplitude=6.0, period=8.0, start=5.0),
        cav=CavController(gains=FeedbackGains(mu={0: 2.0}, k={}), mode="explicit"),
    ),
    "collision": ScenarioConfig(
        variant=V.FD_LCC,
        n=2,
        horizon=40.0,
        perturbation=FollowerBrake(vehicle=1, decel=-5.0, duration=3.0, start=5.0),
        base_params=DriverParams(delay=2.5),
        cav=CavController(mode="explicit"),
    ),
    # the cases below, but for "min-delay-below-block", step in blocks
    "general-delayed-ahead-sinusoid": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=2,
        n=2,
        horizon=30.0,
        perturbation=HeadSinusoid(start=5.0),
        heterogeneity=HeterogeneitySpec(),
        seed=3,
        cav=CavController(gains=FeedbackGains.from_pairs(GAIN_CASES["caseD"])),
    ),
    # blocks of 21 steps: the brake runs from step 500 (17 into a block) to
    # step 600 (12 into one)
    "brake-inside-blocks": ScenarioConfig(
        variant=V.CF_LCC,
        n=3,
        horizon=10.0,
        perturbation=FollowerBrake(vehicle=2, start=5.0),
        base_params=DriverParams(delay=0.2),
        cav=CF_CONTROLLER,
    ),
    # the last vehicle brakes to a stop, so its velocity clamps to 0 mid-block
    "hdv-stops": ScenarioConfig(
        variant=V.FD_LCC,
        n=2,
        horizon=20.0,
        perturbation=FollowerBrake(vehicle=2, duration=5.0, start=5.0),
        base_params=DriverParams(delay=0.35),
        cav=FD_CONTROLLER,
    ),
    "safety-override-delayed": ScenarioConfig(
        variant=V.CF_LCC,
        n=1,
        horizon=60.0,
        perturbation=HeadSinusoid(amplitude=6.0, period=8.0, start=5.0),
        base_params=DriverParams(delay=0.2),
        cav=CavController(gains=FeedbackGains(mu={0: 2.0}, k={}), mode="explicit"),
    ),
    "min-delay-at-block": ScenarioConfig(
        variant=V.CF_LCC,
        n=3,
        horizon=20.0,
        perturbation=HeadSinusoid(start=2.0),
        base_params=DriverParams(delay=BLOCK_MIN_DELAY * 0.01),
        cav=CF_CONTROLLER,
    ),
    "min-delay-below-block": ScenarioConfig(
        variant=V.CF_LCC,
        n=3,
        horizon=20.0,
        perturbation=HeadSinusoid(start=2.0),
        base_params=DriverParams(delay=(BLOCK_MIN_DELAY - 1) * 0.01),
        cav=CF_CONTROLLER,
    ),
    # 401 steps in blocks of 31: the last block holds 29 of them
    "horizon-not-block-multiple": ScenarioConfig(
        variant=V.FD_LCC,
        n=4,
        horizon=4.0,
        perturbation=FollowerBrake(vehicle=1, start=0.5),
        base_params=DriverParams(delay=0.3),
        cav=FD_CONTROLLER,
    ),
}

# the cases whose every HDV reacts at least kernels.BLOCK_MIN_DELAY steps late
BLOCK_CASES = {
    "appendixC-delays-brake",
    "collision",
    "general-delayed-ahead-sinusoid",
    "brake-inside-blocks",
    "hdv-stops",
    "safety-override-delayed",
    "min-delay-at-block",
    "horizon-not-block-multiple",
}


@pytest.mark.parametrize("name", LOOP_CASES)
def test_simulate_loop_matches_reference_bitwise(name):
    """``simulate`` reproduces the reference on the per-column arrays bit
    for bit: positions, velocities, accelerations and safety-brake times,
    or the collision."""
    cfg = LOOP_CASES[name]
    args = _reference_args(cfg)
    status, step, col = _reference_simulate_loop(*args)
    n_steps, dt, pos, vel, acc, override = *args[:5], args[-1]
    ids = (["h"] if cfg.has_head else []) + list(range(-cfg.m, cfg.n + 1))
    with mock.patch.object(kernels, "simulate_loop", wraps=kernels.simulate_loop) as loop, \
            mock.patch.object(kernels, "_simulate_blocks", wraps=kernels._simulate_blocks) as blocks:
        if status == 1:
            with pytest.raises(CollisionError) as err:
                simulate(cfg)
            assert (err.value.time, err.value.follower, err.value.leader) == (
                step * dt, ids[col], ids[col - 1]
            )
            new = loop.call_args.args[2:5]
        else:
            trace = simulate(cfg)
            new = trace.position, trace.velocity, trace.acceleration
            times = np.arange(n_steps + 1) * dt
            assert [t for t, _, _ in trace.events] == times[np.nonzero(override)[0]].tolist()
    for got, want in zip(new, (pos, vel, acc)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert blocks.called == (name in BLOCK_CASES)
    if name.startswith("safety-override"):
        assert override.any()
    if name == "hdv-stops":
        # held at 0 for more than a block of 36 steps, from a row inside one
        stopped = np.flatnonzero(vel[:, 2] == 0.0)
        assert stopped.size > 36 and stopped[0] % 36 != 0
    if name == "collision":
        assert (status, ids[col], ids[col - 1]) == (1, 2, 1)


def test_trace_csv_matches_cell_formatting(tmp_path):
    """Six steps, and a trace past two chunks that ends in a partial one."""
    for horizon in (0.5, 110.0):
        trace = simulate(
            ScenarioConfig(
                variant=V.CF_LCC,
                n=2,
                horizon=horizon,
                dt=0.1,
                perturbation=HeadSinusoid(amplitude=1.0, period=1.0, start=0.0),
                cav=CF_CONTROLLER,
            )
        )
        assert trace.ids[0] == "h" and np.isnan(trace.spacing[:, 0]).all()
        lines = ["t,vehicle,pos,vel,acc,spacing"]
        for k, t in enumerate(trace.times):
            for j, vid in enumerate(trace.ids):
                row = (
                    float(t),
                    vid,
                    float(trace.position[k, j]),
                    float(trace.velocity[k, j]),
                    float(trace.acceleration[k, j]),
                    float(trace.spacing[k, j]),
                )
                lines.append(",".join(fmt(cell) for cell in row))
        path = write_trace_csv(tmp_path / "trace.csv", trace)
        assert path.read_text() == "\n".join(lines) + "\n"
        assert ",h," in path.read_text() and ",nan\n" in path.read_text()
    assert len(trace.times) > 2 * output._TRACE_CHUNK
    assert len(trace.times) % output._TRACE_CHUNK


def test_block_collision_leaves_later_steps_unwritten():
    """A collision early in a block, while the CAV's safety brake fires on
    every step: the block stepper writes positions and velocities through
    the collision row and accelerations and safety-brake steps before it,
    as the per-step loop does, and leaves every later row as it was."""

    def run(min_delay):
        n_steps = 100
        pos, vel, acc = (np.zeros((n_steps + 1, 4)) for _ in range(3))
        # head, CAV closing fast on it, HDV 1, HDV 2 closing on HDV 1 from 8 cm
        pos[0] = 0.0, -20.0, -40.0, -40.08
        vel[0] = 15.0, 25.0, 15.0, 20.0
        override = np.zeros(n_steps + 1, dtype=np.uint8)
        hdvs = [(j, 50, 20.0, 0.6, 0.9, 30.0, 5.0, 35.0) for j in (2, 3)]
        with mock.patch.object(kernels, "BLOCK_MIN_DELAY", min_delay):
            status = kernels.simulate_loop(
                n_steps, 0.01, pos, vel, acc, [15.0] * (n_steps + 1), 1, [(1, 2.0, 0.0, 20.0)],
                hdvs, 15.0, (-1, 0, 0, 0.0), A_MIN, A_MAX, override,
            )
        return status, pos, vel, acc, override

    status, pos, vel, acc, override = run(0)
    assert status == (1, 2, 3)
    assert override[:2].all() and not override[2:].any()
    assert not pos[3:].any() and not vel[3:].any() and not acc[2:].any()
    for got, want in zip(run(0)[1:], run(10**9)[1:]):
        assert got.tobytes() == want.tobytes()


def _random_scenario(rng):
    """A valid scenario of any variant, with random delays, gains and
    perturbation, short enough for the element-indexing reference."""
    variant = V(rng.choice([v.value for v in (V.CF_LCC, V.FD_LCC, V.GENERAL_LCC, V.CCC)]))
    m = int(rng.integers(1, 4)) if variant in (V.GENERAL_LCC, V.CCC) else 0
    n = 0 if variant is V.CCC else int(rng.integers(1, 4))
    ids = list(range(-m, 0)) + list(range(1, n + 1))
    has_head = variant is not V.FD_LCC
    horizon = float(rng.uniform(3.0, 15.0))
    start = float(rng.uniform(0.0, horizon / 2))
    perturbation = [
        None,
        FollowerBrake(vehicle=int(rng.choice(ids)), decel=float(rng.uniform(-10.0, -1.0)),
                      duration=float(rng.uniform(0.1, 8.0)), start=start),
        HeadSinusoid(amplitude=float(rng.uniform(0.5, 8.0)),
                     period=float(rng.uniform(2.0, 15.0)), start=start),
    ][rng.integers(3 if has_head else 2)]
    mode = "explicit" if not has_head or rng.random() < 0.6 else "hdv-baseline"
    gain_ids = ids + ([0] if mode == "explicit" else [])
    mu = {i: float(rng.uniform(-1.5, 1.5)) for i in gain_ids
          if rng.random() < 0.6 and (i != 0 or has_head)}
    k = {i: float(rng.uniform(-1.5, 1.5)) for i in gain_ids if rng.random() < 0.6}
    delay_base = float(rng.uniform(0.0, 1.5))
    return ScenarioConfig(
        variant=variant,
        m=m,
        n=n,
        v_star=float(rng.uniform(5.0, 25.0)),
        horizon=horizon,
        dt=float(rng.choice([0.02, 0.05, 0.1])),
        perturbation=perturbation,
        base_params=DriverParams(delay=delay_base),
        heterogeneity=HeterogeneitySpec(delay_base=delay_base,
                                        delay_jitter=float(rng.uniform(0.0, delay_base)))
        if rng.random() < 0.6 else None,
        cav=CavController(gains=FeedbackGains(mu=mu, k=k), mode=mode),
        seed=int(rng.integers(1000)),
    )


def test_both_stepping_paths_match_reference_on_random_scenarios():
    """Forced through blocks (any delay, down to one-step blocks) and through
    the per-step loop, random chains give the reference's arrays, safety-brake
    steps and collisions bit for bit."""
    rng = np.random.default_rng(2024)
    collisions = 0
    for _ in range(60):
        cfg = _random_scenario(rng)
        args = _reference_args(cfg)
        status, step, col = _reference_simulate_loop(*args)
        ids = (["h"] if cfg.has_head else []) + list(range(-cfg.m, cfg.n + 1))
        want = (step * cfg.dt, ids[col], ids[col - 1]) if status else None
        collisions += status
        for min_delay in (0, 10**9):
            with mock.patch.object(kernels, "BLOCK_MIN_DELAY", min_delay), \
                    mock.patch.object(kernels, "simulate_loop", wraps=kernels.simulate_loop) as loop:
                try:
                    simulate(cfg)
                    got = None
                except CollisionError as err:
                    got = err.time, err.follower, err.leader
            assert got == want
            new = loop.call_args.args
            for got_array, want_array in zip(new[2:5] + new[13:], args[2:5] + args[-1:]):
                assert got_array.tobytes() == want_array.tobytes()
    assert collisions > 0
