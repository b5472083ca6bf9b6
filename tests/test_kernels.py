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
from lcc.kernels import gamma_mag_sq_grid, gamma_mag_sq_scalar
from lcc.output import fmt, write_trace_csv
from lcc.presets import CF_CONTROLLER, FD_CONTROLLER, GAIN_CASES
from lcc.sim import A_MAX, A_MIN, _hdv_drivers
from lcc.stability import _gain_arrays, state_space_gain
from lcc.vehicles import desired_velocity, equilibrium_spacing, linearize


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
    """The public V(s) rounds exactly as the ramp the traces are built on."""
    rng = np.random.default_rng(7)
    for p in (DriverParams(), DriverParams(v_max=33.3, s_st=4.1, s_go=38.7)):
        for s in rng.uniform(0.0, 45.0, 10_000).tolist():
            assert desired_velocity(s, p) == _desired_velocity(s, p.v_max, p.s_st, p.s_go)


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
    with mock.patch.object(kernels, "simulate_loop", wraps=kernels.simulate_loop) as loop:
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
    if name == "safety-override":
        assert override.any()
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
