"""Kernel checks: the transfer-magnitude kernels against the state-space
realization, and the chain-stepping loop bit for bit against its
element-indexing reference."""

import copy
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
from lcc.stability import _gain_arrays, state_space_gain
from lcc.vehicles import desired_velocity


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
    ovm_baseline,
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

    Column 0 is the front-most vehicle (prescribed head, or the CAV in a
    free-driving chain); fills pos/vel/acc in place.  Returns
    (status, step, column): status 0 on success, 1 on collision at the
    reported step between column-1 and column.
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
                if ovm_baseline and j > 0:
                    sc = pos[k, j - 1] - pos[k, j]
                    sd = vel[k, j - 1] - vel[k, j]
                    u += alpha[j] * (_desired_velocity(sc, vmax[j], sst[j], sgo[j]) - vel[k, j])
                    u += beta[j] * sd
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


def _loop_args(cfg):
    """The arguments ``simulate`` passes to ``kernels.simulate_loop``."""
    captured = []

    def record(*args):
        captured.append(copy.deepcopy(args))
        return 0, 0, 0

    with mock.patch.object(kernels, "simulate_loop", record):
        simulate(cfg)
    (args,) = captured
    return args


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
    "hdv-baseline-ovm": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=1,
        n=2,
        horizon=30.0,
        perturbation=HeadSinusoid(amplitude=4.0, start=5.0),
        cav=CavController(
            gains=FeedbackGains(mu={-1: 0.5, 2: -0.3}, k={-1: -0.4, 1: 0.2}),
            ovm_baseline=True,
        ),
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
        hdv_params=[DriverParams(), DriverParams(delay=2.5)],
        cav=CavController(mode="explicit"),
    ),
}


@pytest.mark.parametrize("name", LOOP_CASES)
def test_simulate_loop_matches_reference_bitwise(name):
    args = _loop_args(LOOP_CASES[name])
    ref_args, new_args = copy.deepcopy(args), copy.deepcopy(args)
    ref = _reference_simulate_loop(*ref_args)
    new = kernels.simulate_loop(*new_args)
    assert new == ref
    # pos, vel, acc and override_flag
    for i in (2, 3, 4, 29):
        assert new_args[i].dtype == ref_args[i].dtype
        assert new_args[i].tobytes() == ref_args[i].tobytes()
    if name == "safety-override":
        assert ref_args[29].any()
    if name == "collision":
        assert ref[0] == 1
        with pytest.raises(CollisionError):
            simulate(LOOP_CASES[name])


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
