"""Kernel checks: the transfer-magnitude kernels against the state-space
realization, and the chain-stepping loop bit for bit against its
element-indexing reference."""

import dataclasses
import itertools
import math
import random
import struct
import sys
import tracemalloc
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
from lcc.kernels import gamma_mag_sq_grid, gamma_mag_sq_scalar, ovm_ramp_array
from lcc.output import fmt, write_trace_csv
from lcc.presets import CF_CONTROLLER, FD_CONTROLLER, GAIN_CASES, ZERO_RESPONSE
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
    """The public V(s) and the block pass's elementwise V(s) round exactly
    as the ramp the traces are built on."""
    rng = np.random.default_rng(7)
    for p in (DriverParams(), DriverParams(v_max=33.3, s_st=4.1, s_go=38.7)):
        spacings = rng.uniform(0.0, 45.0, 10_000)
        want = [_desired_velocity(s, p.v_max, p.s_st, p.s_go) for s in spacings.tolist()]
        assert [ovm_ramp(s, p.v_max, p.s_st, p.s_go) for s in spacings.tolist()] == want
        assert ovm_ramp_array(spacings, p.v_max, p.s_st, p.s_go).tobytes() == np.array(want).tobytes()


def test_np_cos_is_math_cos_bitwise():
    """The block pass takes the OVM cosine from ``np.cos``, the row-by-row
    steppers from ``math.cos``: both are the C library's ``cos``, so they agree
    bit for bit over the ramp's clipped arguments [0, pi], its ends, pi/2
    and NaN, in a 2-D C-contiguous array as a block's.  A numpy whose
    float64 cosine is its own (a SIMD one, say) fails here first."""
    rng = np.random.default_rng(37)
    ends = [0.0, math.pi / 2, math.pi, math.nan]
    x = np.concatenate([rng.uniform(0.0, math.pi, 200_000 - len(ends)), ends]).reshape(-1, 250)
    assert x.flags.c_contiguous
    got = np.cos(x).ravel()
    want = np.array([math.cos(v) for v in x.ravel().tolist()])
    wrong = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    if wrong.size:
        i = wrong[0]
        from numpy.lib.introspect import opt_func_info
        pytest.fail(
            f"np.cos differs from math.cos at {wrong.size} of {x.size} points, first at "
            f"x = {float(x.flat[i])!r}: {float(got[i])!r} against {float(want[i])!r}; "
            f"numpy {np.__version__}, cos loops {opt_func_info(func_name='^cos$')}"
        )


@pytest.mark.parametrize(
    "v_max, s_st, s_go",
    [pytest.param(p.v_max, p.s_st, p.s_go, id=name) for name, p in (
        ("default", DriverParams()),
        ("subnormal-v_max", DriverParams(v_max=5e-324)),
        ("other", DriverParams(v_max=33.3, s_st=0.0, s_go=38.7)),
    )],
)
def test_ovm_ramp_array_edges_match_the_scalar_ramp_bitwise(v_max, s_st, s_go):
    """At both ends of the ramp, one ulp either side of them and at
    spacings outside the physical range, the elementwise V(s) is the
    scalar one bit for bit, in a 1-D array and in a (steps, columns)
    block with per-column parameters.  (Spacings stay below ~5e307:
    pi * s overflows past it, in the scalar ramp as well.)"""
    spacings = [s_st, s_go, -3.0, 0.0, -0.0, math.inf, -math.inf, math.nan, 1e307]
    for end in (s_st, s_go):
        spacings += [float(np.nextafter(end, -math.inf)), float(np.nextafter(end, math.inf))]
    want = np.array([ovm_ramp(s, v_max, s_st, s_go) for s in spacings])
    assert ovm_ramp_array(np.array(spacings), v_max, s_st, s_go).tobytes() == want.tobytes()
    block = np.array(spacings)[:, None].repeat(2, axis=1)
    params = (np.full(2, x) for x in (v_max, s_st, s_go))
    assert ovm_ramp_array(block, *params).tobytes() == want.repeat(2).tobytes()


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


def _write_head(pos, vel, acc, head_vel, dt):
    """Column 0 as ``simulate`` writes a prescribed head before stepping,
    element by element: its velocities, their forward difference (the last
    step repeating the one before) and Euler positions."""
    n_steps = len(head_vel) - 1
    for k in range(n_steps + 1):
        vel[k, 0] = head_vel[k]
        acc[k, 0] = (head_vel[k + 1] - head_vel[k]) / dt if k < n_steps else acc[k - 1, 0]
        if k < n_steps:
            pos[k + 1, 0] = pos[k, 0] + dt * head_vel[k]


def _assert_rows_match(got, want, step=None):
    """``simulate_loop``'s pos, vel and acc equal the reference's bit for
    bit in every trace row, or through a collision at ``step``: pos and vel
    through that row, acc through the step before, as far as the reference
    steps.  ``got``'s pos and vel may hold the scratch row past the horizon,
    which no step reads."""
    rows = (len(want[2]),) * 3 if step is None else (step + 1, step + 1, step)
    for got_array, want_array, end in zip(got, want, rows):
        assert got_array.dtype == want_array.dtype
        assert got_array[:end].tobytes() == want_array[:end].tobytes()


def _reference_args(cfg, head_vel=None):
    """The reference's arguments for ``cfg``: one slot per column in each
    per-vehicle array, flat scalars for the baseline and the brake.  A
    head's column holds its whole trace (``head_vel``, or the one ``cfg``
    prescribes), as ``simulate_loop`` takes it."""
    dt, v_star = cfg.dt, cfg.v_star
    n_steps = round(cfg.horizon / dt)
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
    pert = cfg.perturbation
    if head_vel is None:
        head_vel = np.full(n_steps + 1, v_star)
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
    if cfg.has_head:
        _write_head(pos, vel, acc, head_vel, dt)
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
    # no feedback past the CAV's own column: every HDV steps alone
    "fd-all-alone": ScenarioConfig(
        variant=V.FD_LCC,
        n=6,
        horizon=20.0,
        perturbation=FollowerBrake(start=5.0),
        cav=ZERO_RESPONSE,
    ),
    # vehicle 1 steps with the CAV; the braking vehicle 4 steps alone, its
    # brake from step 500 to 600 across the first chunk boundary
    "fd-gain-on-1-brake-on-4": ScenarioConfig(
        variant=V.FD_LCC,
        n=6,
        horizon=20.0,
        perturbation=FollowerBrake(vehicle=4, decel=-4.0, start=5.0),
        cav=CavController(gains=FeedbackGains(mu={1: -0.2}, k={0: -0.5, 1: 0.05}), mode="explicit"),
    ),
    # 5-step delays: blocks of 6 steps, across chunk boundaries
    "cf-sinusoid-tail-delays": ScenarioConfig(
        variant=V.CF_LCC,
        n=5,
        horizon=20.0,
        perturbation=HeadSinusoid(start=2.0),
        base_params=DriverParams(delay=0.05),
        cav=CF_CONTROLLER,
    ),
    # every HDV reacts at once: the CAV, in its row with vehicles 1 and 2,
    # runs into vehicle -1 (alone) at step 424
    "zero-delay-cav-collision": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=1,
        n=3,
        v_star=19.6,
        horizon=12.0,
        dt=0.02,
        perturbation=FollowerBrake(vehicle=-1, duration=6.6, start=3.6),
        cav=CavController(
            gains=FeedbackGains(mu={-1: -0.77, 0: -0.6, 2: -0.86}, k={0: 0.41, 1: -1.4, 2: 0.99}),
            mode="explicit",
        ),
    ),
    # the predecessors step alone ahead of the CAV, the followers behind it
    "general-gains-ahead-only": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=2,
        n=2,
        horizon=30.0,
        perturbation=HeadSinusoid(start=5.0),
        cav=CavController(gains=FeedbackGains.from_pairs(GAIN_CASES["caseB"])),
    ),
    # vehicle 1 runs into the CAV at step 67, one step before the CAV runs
    # into vehicle -1
    "tail-collision-before-core": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=2,
        n=2,
        v_star=20.0,
        horizon=20.0,
        dt=0.1,
        perturbation=FollowerBrake(vehicle=-1, duration=5.0, start=2.0),
        base_params=DriverParams(alpha=0.46, beta=0.61, delay=1.7),
        cav=CavController(
            gains=FeedbackGains(mu={-2: -0.29, -1: 0.24, 0: -1.02}, k={-2: 0.6, -1: 1.04, 0: -0.57}),
            mode="explicit",
        ),
    ),
    # at step 63 the CAV runs into vehicle -1 and vehicle 1 into the CAV:
    # the front-most pair is the one reported
    "tail-and-core-collide-together": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=1,
        n=4,
        v_star=17.2,
        horizon=20.0,
        dt=0.1,
        perturbation=FollowerBrake(vehicle=-1, duration=5.7, start=2.0),
        base_params=DriverParams(alpha=0.84, beta=0.31, delay=1.7),
        cav=CavController(gains=FeedbackGains(mu={-1: 1.15}, k={0: -0.63}), mode="explicit"),
    ),
    # every HDV reacts at once, crawling over a ramp from 5 m to 8 m:
    # vehicle 1, in the CAV's row, and vehicle 2, alone, each read spacings
    # at or below s_st, between the ends and at or above s_go, at speeds
    # where no acceleration limit hides which branch V(s) took
    "ramp-ends-zero-delay": ScenarioConfig(
        variant=V.CF_LCC,
        n=2,
        v_star=2.0,
        horizon=20.0,
        perturbation=HeadSinusoid(amplitude=2.0, period=10.0, start=2.0),
        base_params=DriverParams(v_max=4.0, s_st=5.0, s_go=8.0),
        cav=CavController(gains=FeedbackGains(mu={1: -0.2}, k={1: 0.1})),
    ),
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
    # blocks of 31 steps, from the start of each chunk: the brake runs from
    # step 500 (4 into a block) to step 600 (26 into one)
    "brake-inside-blocks": ScenarioConfig(
        variant=V.CF_LCC,
        n=3,
        horizon=10.0,
        perturbation=FollowerBrake(vehicle=2, start=5.0),
        base_params=DriverParams(delay=0.3),
        cav=CF_CONTROLLER,
    ),
    # the last vehicle brakes to a stop, so its velocity clamps to 0 mid-block
    "hdv-stops": ScenarioConfig(
        variant=V.FD_LCC,
        n=2,
        horizon=20.0,
        perturbation=FollowerBrake(vehicle=2, duration=5.0, start=5.0),
        base_params=DriverParams(delay=0.34),
        cav=FD_CONTROLLER,
    ),
    "safety-override-delayed": ScenarioConfig(
        variant=V.CF_LCC,
        n=1,
        horizon=60.0,
        perturbation=HeadSinusoid(amplitude=6.0, period=8.0, start=5.0),
        base_params=DriverParams(delay=0.3),
        cav=CavController(gains=FeedbackGains(mu={0: 2.0}, k={}), mode="explicit"),
    ),
    # blocks of 31 and of 30 steps
    "min-delay-at-block": ScenarioConfig(
        variant=V.CF_LCC,
        n=3,
        horizon=20.0,
        perturbation=HeadSinusoid(start=2.0),
        base_params=DriverParams(delay=0.3),
        cav=CF_CONTROLLER,
    ),
    "min-delay-below-block": ScenarioConfig(
        variant=V.CF_LCC,
        n=3,
        horizon=20.0,
        perturbation=HeadSinusoid(start=2.0),
        base_params=DriverParams(delay=0.29),
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
    # HDVs -2 and 1 react one step late, the others at once: blocks of two
    # steps
    "mixed-zero-and-one-step-delays": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=2,
        n=3,
        horizon=30.0,
        dt=0.1,
        perturbation=HeadSinusoid(start=2.0),
        heterogeneity=HeterogeneitySpec(delay_base=0.05, delay_jitter=0.05),
        seed=1,
        cav=CavController(gains=FeedbackGains.from_pairs(GAIN_CASES["caseD"])),
    ),
    # HDVs 1, 2 and 3 react 1, 0 and 2 steps late: HDV 2 steps in the CAV's
    # row behind HDV 1, which the block pass steps, so the two columns the
    # row writes are not adjacent
    "prompt-follower-behind-late-follower": ScenarioConfig(
        variant=V.CF_LCC,
        n=3,
        horizon=20.0,
        perturbation=HeadSinusoid(start=2.0),
        heterogeneity=HeterogeneitySpec(delay_base=0.01, delay_jitter=0.01),
        seed=13,
        cav=CF_CONTROLLER,
    ),
    # HDV -1 reacts at once and brakes, alone ahead of the CAV, from step 501
    # to 601 (each inside a block of two steps); HDVs -2, 1 and 2 react 1, 1
    # and 2 steps late
    "prompt-braking-hdv-ahead-of-late-ones": ScenarioConfig(
        variant=V.GENERAL_LCC,
        m=2,
        n=2,
        horizon=20.0,
        perturbation=FollowerBrake(vehicle=-1, start=5.01),
        heterogeneity=HeterogeneitySpec(delay_base=0.01, delay_jitter=0.01),
        seed=3,
        cav=CavController(gains=FeedbackGains.from_pairs(GAIN_CASES["caseD"])),
    ),
    # HDV 2 reacts at once, between HDVs 1 and 3 one step late, and runs
    # into the braking HDV 1 at step 804
    "collision-at-prompt-column-of-mixed-chain": ScenarioConfig(
        variant=V.FD_LCC,
        n=3,
        horizon=20.0,
        perturbation=FollowerBrake(vehicle=1, decel=-5.0, duration=3.0, start=5.0),
        base_params=DriverParams(alpha=0.1, beta=0.1),
        heterogeneity=HeterogeneitySpec(alpha_jitter=0.05, beta_jitter=0.05, delay_base=0.01,
                                        delay_jitter=0.01),
        seed=3,
        cav=CavController(mode="explicit"),
    ),
}

# the columns of each case that step alone (``kernels._step_alone``): HDVs that
# react at once, ahead of the CAV or behind the last column its law reads
ALONE_COLUMNS = {
    "cf-sinusoid-fig9": {4},
    "general-sinusoid-caseD": {1, 2},
    "fd-explicit-brake": set(range(3, 11)),
    "hdv-baseline-predecessor-gains": {1},
    "safety-override": {2},
    "fd-all-alone": set(range(1, 7)),
    "fd-gain-on-1-brake-on-4": set(range(2, 7)),
    "zero-delay-cav-collision": {1, 5},
    "general-gains-ahead-only": {1, 2, 4, 5},
    "ramp-ends-zero-delay": {3},
    "mixed-zero-and-one-step-delays": {2, 6},
    "prompt-braking-hdv-ahead-of-late-ones": {2},
    "collision-at-prompt-column-of-mixed-chain": {2},
}

# the delay steps of each HDV, in ``hdv_ids`` order, of the cases that mix
# HDVs that react at once with late ones
MIXED_DELAYS = {
    "mixed-zero-and-one-step-delays": [1, 0, 1, 0, 0],
    "prompt-follower-behind-late-follower": [1, 0, 2],
    "prompt-braking-hdv-ahead-of-late-ones": [1, 0, 1, 2],
    "collision-at-prompt-column-of-mixed-chain": [1, 0, 1],
}

# the cases with an HDV that reacts at least one step late
BLOCK_CASES = MIXED_DELAYS.keys() | {
    "appendixC-delays-brake",
    "collision",
    "general-delayed-ahead-sinusoid",
    "brake-inside-blocks",
    "hdv-stops",
    "safety-override-delayed",
    "min-delay-at-block",
    "horizon-not-block-multiple",
    "cf-sinusoid-tail-delays",
    "tail-collision-before-core",
    "tail-and-core-collide-together",
    "min-delay-below-block",
}


def _block_bounds(n_steps, block, chunk):
    """(k0, k1) of each block ``simulate_loop`` steps over n_steps: chunks
    of ``chunk`` rows, each cut into blocks of ``block`` steps."""
    return [(k0, min(k0 + block, r0 + chunk, n_steps + 1))
            for r0 in range(0, n_steps + 1, chunk)
            for k0 in range(r0, min(r0 + chunk, n_steps + 1), block)]


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
            mock.patch.object(kernels, "_step_blocks", wraps=kernels._step_blocks) as blocks, \
            mock.patch.object(kernels, "_step_coupled", wraps=kernels._step_coupled) as coupled, \
            mock.patch.object(kernels, "_step_alone", wraps=kernels._step_alone) as alone:
        if status == 1:
            with pytest.raises(CollisionError) as err:
                simulate(cfg)
            assert (err.value.time, err.value.follower, err.value.leader) == (
                step * dt, ids[col], ids[col - 1]
            )
            _assert_rows_match(loop.call_args.args[2:5], (pos, vel, acc), step)
        else:
            trace = simulate(cfg)
            new = trace.position, trace.velocity, trace.acceleration
            _assert_rows_match(new, (pos, vel, acc))
            # the trace keeps the stepped rows as views, past the scratch row
            for got, stepped in zip(new, loop.call_args.args[2:4]):
                assert got.base is stepped and len(stepped) == n_steps + 2
            times = np.arange(n_steps + 1) * dt
            assert [t for t, _, _ in trace.events] == times[np.nonzero(override)[0]].tolist()
    # the block pass steps exactly the late HDVs, in blocks of their least
    # delay plus one step, or of the whole chunk when there are none; each
    # block then steps the CAV with its coupled followers, which react at
    # once, and the other HDVs that react at once alone
    chain = loop.call_args.args[1]
    delays = args[13]
    late = np.flatnonzero(delays > 0).tolist()
    assert chain.blocks[0].tolist() == late and bool(late) == (name in BLOCK_CASES)
    assert chain.block == (min(delays[late]) + 1 if late else kernels.ROW_CHUNK)
    bounds = [call.args[3:5] for call in blocks.call_args_list]
    every = _block_bounds(n_steps, chain.block, kernels.ROW_CHUNK)
    assert bounds == (every[:len(bounds)] if status else every) and bounds
    assert [call.args[3:5] for call in coupled.call_args_list] == bounds
    assert all(delays[h[0]] == 0 for h in chain.ahead + chain.coupled + chain.tail)
    assert {call.args[3][0] for call in alone.call_args_list} == ALONE_COLUMNS.get(name, set())
    if name in MIXED_DELAYS:
        assert [delays[ids.index(vid)] for vid in cfg.hdv_ids()] == MIXED_DELAYS[name]
    if name == "prompt-follower-behind-late-follower":
        assert [h[0] for h in chain.coupled] == [3] and 2 in late
    if name.startswith("safety-override"):
        assert override.any()
    if name == "ramp-ends-zero-delay":
        # V(s) takes each of its three branches in the coupled follower
        # (column 2) and in the column stepped alone (3)
        assert [h[0] for h in chain.coupled] == [2]
        s_st, s_go = args[11], args[12]
        for j in (2, 3):
            s = pos[:, j - 1] - pos[:, j]
            assert (s <= s_st[j]).any() and (s >= s_go[j]).any()
            assert ((s_st[j] < s) & (s < s_go[j])).any()
    if name == "hdv-stops":
        # held at 0 for more than a block of 35 steps, from a row inside one
        stopped = np.flatnonzero(vel[:, 2] == 0.0)
        assert stopped.size > 35 and stopped[0] % kernels.ROW_CHUNK % 35 != 0
    if name == "collision":
        assert (status, ids[col], ids[col - 1]) == (1, 2, 1)
    if name == "collision-at-prompt-column-of-mixed-chain":
        assert (status, step, ids[col], ids[col - 1]) == (1, 804, 2, 1)
    if name == "tail-collision-before-core":
        assert (status, step, ids[col], ids[col - 1]) == (1, 67, 1, 0)
    if name == "zero-delay-cav-collision":
        assert (status, step, ids[col], ids[col - 1]) == (1, 424, 0, -1)
    if name == "tail-and-core-collide-together":
        assert (status, step, ids[col], ids[col - 1]) == (1, 63, 0, -1)


def test_plan_chain_layout():
    """``plan_chain`` splits the HDVs, sorted front to back, by delay: those
    that react at least one step late into the block pass's arrays, with
    blocks of their least delay plus one step, and those that react at
    once into those ahead of the CAV, the followers its law reads and the
    tail."""

    def columns(hdvs):
        return [h[0] for h in hdvs]

    def chain_of(cfg):
        with mock.patch.object(kernels, "simulate_loop", wraps=kernels.simulate_loop) as loop:
            simulate(cfg)
        return loop.call_args.args[1]

    general = dict(variant=V.GENERAL_LCC, m=2, n=2, horizon=1.0)
    case_d = chain_of(ScenarioConfig(
        **general, cav=CavController(gains=FeedbackGains.from_pairs(GAIN_CASES["caseD"])),
    ))
    assert (case_d.cav, case_d.blocks[0].tolist(), case_d.block) == (3, [], kernels.ROW_CHUNK)
    assert (columns(case_d.ahead), columns(case_d.coupled), case_d.tail) == ([1, 2], [4, 5], ())
    # the baseline's term on column cav - 1 reads no follower
    case_a = chain_of(ScenarioConfig(
        **general, cav=CavController(gains=FeedbackGains.from_pairs(GAIN_CASES["caseA"])),
    ))
    assert [term[0] for term in case_a.feedback] == [3, 2, 1]
    assert (columns(case_a.ahead), case_a.coupled, columns(case_a.tail)) == ([1, 2], (), [4, 5])
    fd = chain_of(ScenarioConfig(
        variant=V.FD_LCC, n=6, horizon=1.0,
        cav=CavController(gains=FeedbackGains(mu={1: -0.2}, k={0: -0.5, 1: 0.05}), mode="explicit"),
    ))
    assert (fd.cav, fd.ahead, columns(fd.coupled), columns(fd.tail)) == (0, (), [1], [2, 3, 4, 5, 6])

    # four HDVs passed out of order, each field but the delay different from
    # HDV to HDV, behind a CAV whose law reads columns 1 and 3: one HDV
    # reacts a step late, three each at its own delay, or all at once.
    # Each row: delays, coupled and tail columns, late columns, L.
    feedback = [(1, 0.1, -0.5, 20.0), (3, -0.2, 0.05, 21.5)]
    brake = (4, 10, 20, -5.0)
    for delays, coupled, tail, late_columns, block in (
        ((0, 1, 0, 0), [2], [4, 5], [3], 2),
        ((0, 1, 2, 3), [2], [], [3, 4, 5], 2),
        ((0, 0, 0, 0), [2, 3], [4, 5], [], kernels.ROW_CHUNK),
    ):
        hdvs = [
            (j, delays[j - 2], 19.0 + j, 0.5 + j / 10, 0.9 - j / 10, 30.0 + j, 5.0 - j / 10, 35.0 + j)
            for j in (4, 2, 5, 3)
        ]
        chain = kernels.plan_chain(0.01, 15.0, 1, feedback, hdvs, brake)
        late = [h for h in sorted(hdvs) if h[1] > 0]
        assert chain[:5] == (0.01, 15.0, 1, tuple(feedback), brake)
        assert (chain.ahead, columns(chain.coupled), columns(chain.tail)) == ((), coupled, tail)
        assert sorted(chain.coupled + chain.tail + tuple(late)) == sorted(hdvs)
        assert columns(late) == late_columns and chain.block == block
        *arrays, braked = chain.blocks
        assert len(arrays) == 8
        for i, (array, field) in enumerate(zip(arrays, list(zip(*late)) or [()] * 8)):
            assert array.dtype.kind == ("i" if i < 2 else "f")
            assert array.tolist() == list(field)
        assert braked.tolist() == [j == 4 for j in late_columns]


def test_a_prompt_hdv_leaves_the_late_ones_their_blocks():
    """HDVs 0, 1, 2 and 3 steps late behind a free-driving CAV: the block
    pass runs once per block of two steps, their least positive delay plus
    one, over each chunk, not once per step as when the HDV that reacts at
    once set L = 1 for all.  This counts calls, so no timing decides it."""
    n_steps = 1300  # chunks of 512, 512 and 277 steps
    hdvs = [(j, j - 1, 20.0, 0.6, 0.9, 30.0, 5.0, 35.0) for j in (1, 2, 3, 4)]
    chain = kernels.plan_chain(0.01, 15.0, 0, [(0, 0.0, -0.5, 20.0)], hdvs, (-1, 0, 0, 0.0))
    pos, vel = (np.zeros((n_steps + 2, 5)) for _ in range(2))
    acc = np.zeros((n_steps + 1, 5))
    pos[0] = -20.0 * np.arange(5)
    vel[0] = 15.0
    with mock.patch.object(kernels, "_step_blocks", wraps=kernels._step_blocks) as blocks:
        assert kernels.simulate_loop(n_steps, chain, pos, vel, acc) == (None, [])
    assert chain.block == 2 and blocks.call_count == 256 + 256 + 139
    assert [call.args[3:5] for call in blocks.call_args_list] == \
        _block_bounds(n_steps, 2, kernels.ROW_CHUNK)


def test_trace_csv_matches_cell_formatting(tmp_path):
    """Six steps, a trace whose last chunk is full, so the file ends on a
    chunk boundary, and one past two chunks that ends in a partial one."""
    chunk = output._TRACE_CHUNK
    for horizon, steps in ((0.5, 6), ((2 * chunk - 1) * 0.1, 2 * chunk), (110.0, 1101)):
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
        assert len(trace.times) == steps
    assert steps > 2 * chunk and steps % chunk


def test_bytes_and_str_cell_formatting_agree():
    """write_trace_csv formats cells with ``bytes`` ``%.12g`` and ``fmt``
    with ``str`` ``%.12g``; both must give the same digits.  Seeded and
    stdlib-only: random 64-bit patterns (subnormals, nans and huge
    exponents among them), values spread over the decades 1e-8 to 1e14,
    the times k * 0.01 of a trace, and the edge values.  One template per
    side formats them all at once, as write_trace_csv does per step."""
    rng = random.Random(40)
    n = 200_000
    values = list(struct.unpack(f"<{n}d", rng.getrandbits(64 * n).to_bytes(8 * n, "little")))
    values += [10.0 ** (22.0 * rng.random() - 8.0) for _ in range(n)]
    values += [k * 0.01 for k in range(20_001)]
    for x in (0.0, math.nan, math.inf, 5e-324, sys.float_info.max, 999999999999.5):
        values += [x, -x]
    cells = tuple(values)
    if (b"%.12g\n" * len(cells)) % cells != (("%.12g\n" * len(cells)) % cells).encode():
        bad = [x for x in values if b"%.12g" % x != ("%.12g" % x).encode()]
        pytest.fail(f"bytes and str %.12g differ under Python {sys.version} on "
                    f"{len(bad)} of {len(values)} values, first {bad[:5]!r}")


def test_trace_csv_memory_is_bounded_by_the_chunk(tmp_path, monkeypatch):
    """Writing a trace holds one chunk of it as floats and text at a time,
    not the whole file: the traced peak of the write is a small share of
    the file's size.  The chunk is made small so that a short trace spans
    many chunks and the check stays quick under tracemalloc."""
    monkeypatch.setattr(output, "_TRACE_CHUNK", 64)
    trace = simulate(
        ScenarioConfig(
            variant=V.CF_LCC,
            n=2,
            horizon=40.0,
            dt=0.01,
            perturbation=HeadSinusoid(amplitude=1.0, period=1.0, start=0.0),
            cav=CF_CONTROLLER,
        )
    )
    assert len(trace.times) > 60 * output._TRACE_CHUNK
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        path = write_trace_csv(tmp_path / "trace.csv", trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 4, f"peak {peak} bytes for a {size}-byte file"


@pytest.mark.parametrize(
    "delay, chunk",
    [pytest.param(delay, chunk, id=f"{chunk}-delay{delay}" if delay else f"{chunk}")
     for delay in (0, 50) for chunk in (1, 3, kernels.ROW_CHUNK)],
)
def test_step_collision_leaves_later_steps_unwritten(delay, chunk):
    """On arrays filled with a sentinel but for the head's column, which
    holds its whole trace, HDV 2 runs into HDV 1 at step 2 while the CAV's
    safety brake fires on every step.  The run ends with the chunk that
    gives row 2: every row of a later chunk keeps the sentinel and the
    head's column keeps its trace, whether the collision ends a chunk or
    falls inside one (with 50-step delays in 512-row chunks, inside a
    block of 51 steps).  Stepped column by column (no delay) or in blocks
    (50-step delays), positions and velocities through step 2 and
    accelerations and safety-brake steps through step 1 are the
    reference's bit for bit.  Over a one-step horizon the pair meets only
    in the scratch row, which is no collision."""
    sentinel = -123.25
    n_steps, dt, head_vel = 100, 0.01, np.full(101, 15.0)
    pos, vel = (np.full((n_steps + 2, 4), sentinel) for _ in range(2))
    acc = np.full((n_steps + 1, 4), sentinel)
    # head, CAV closing fast on it, HDV 1, HDV 2 closing on HDV 1 from 8 cm
    pos[0] = 0.0, -20.0, -40.0, -40.08
    vel[0] = 15.0, 25.0, 15.0, 20.0
    _write_head(pos, vel, acc, head_vel, dt)
    want = [a[:n_steps + 1].copy() for a in (pos, vel, acc)]
    override = np.zeros(n_steps + 1, dtype=np.uint8)
    per_column = [np.array([0.0, 0.0, value, value]) for value in (0.6, 0.9, 30.0, 5.0, 35.0)]
    reference = _reference_simulate_loop(
        n_steps, dt, *want, True, head_vel, 1, *per_column, np.array([0, 0, delay, delay]),
        np.array([0.0, 20.0, 20.0, 20.0]), 15.0, False, 0.0, 0.0, 0.0,
        np.array([0.0, 2.0, 0.0, 0.0]), np.zeros(4), -1, 0, 0, 0.0, A_MIN, A_MAX, override,
    )

    hdvs = [(j, delay, 20.0, 0.6, 0.9, 30.0, 5.0, 35.0) for j in (2, 3)]
    with mock.patch.object(kernels, "ROW_CHUNK", chunk), \
            mock.patch.object(kernels, "_step_alone", wraps=kernels._step_alone) as alone:
        chain = kernels.plan_chain(dt, 15.0, 1, [(1, 2.0, 0.0, 20.0)], hdvs, (-1, 0, 0, 0.0))
        result = kernels.simulate_loop(n_steps, chain, pos, vel, acc)
        # over a one-step horizon the pair meets only in the scratch row
        short = [want[0][:3].copy(), want[1][:3].copy(), want[2][:2].copy()]
        assert kernels.simulate_loop(1, chain, *short)[0] is None
    assert short[0][2, 2] <= short[0][2, 3]
    collision, brake_steps = result
    assert collision == (2, 3) and reference == (1, 2, 3)
    assert [k for k in brake_steps if k < 2] == np.flatnonzero(override).tolist() == [0, 1]
    assert chain.blocks[0].tolist() == ([2, 3] if delay else [])
    assert {call.args[3][0] for call in alone.call_args_list} == (set() if delay else {2, 3})
    r1 = min(chunk * (1 // chunk + 1), n_steps + 1)  # the end of step 1's chunk
    assert (pos[r1 + 1:, 1:] == sentinel).all() and (vel[r1 + 1:, 1:] == sentinel).all()
    assert (acc[r1:, 1:] == sentinel).all()
    assert sentinel not in pos[:3] and sentinel not in vel[:3] and sentinel not in acc[:2]
    assert (vel[:-1, 0] == 15.0).all() and (acc[:, 0] == 0.0).all()
    assert pos[:-1, 0].tolist() == list(itertools.accumulate([0.0] + [0.01 * 15.0] * 100))
    _assert_rows_match((pos, vel, acc), want, 2)


# a free-driving CAV and two followers 5 steps late, at dt = 0.01
_DELAYED_FD = kernels.plan_chain(0.01, 15.0, 0, [(0, 0.0, -0.5, 20.0)],
                                 [(j, 5, 20.0, 0.6, 0.9, 30.0, 5.0, 35.0) for j in (1, 2)],
                                 (-1, 0, 0, 0.0))


def _loop_arrays(n_steps):
    """pos, vel (with the scratch row) and acc of ``_DELAYED_FD`` at
    equilibrium, for an n_steps run."""
    arrays = {key: np.zeros((n_steps + 2, 3)) for key in ("pos", "vel")}
    arrays["acc"] = np.zeros((n_steps + 1, 3))
    arrays["pos"][0] = 0.0, -20.0, -40.0
    arrays["vel"][0] = 15.0
    return arrays


@pytest.mark.parametrize("name", ["pos", "vel"])
def test_simulate_loop_rejects_fortran_ordered_state(name):
    """The block pass reads pos and vel through flat views, so a
    Fortran-ordered array is refused by name rather than read as a stale
    copy."""
    arrays = _loop_arrays(20)
    arrays[name] = np.asfortranarray(arrays[name])
    with pytest.raises(ValueError, match=f"C-contiguous {name} array"):
        kernels.simulate_loop(20, _DELAYED_FD, arrays["pos"], arrays["vel"], arrays["acc"])


@pytest.mark.parametrize("name", ["pos", "vel"])
def test_simulate_loop_rejects_state_without_the_scratch_row(name):
    """The horizon's last step writes pos and vel one row past it, so an
    array of n_steps + 1 rows is refused by name before any step."""
    arrays = _loop_arrays(20)
    arrays[name] = arrays[name][:-1]
    with pytest.raises(ValueError, match=rf"{name} array of n_steps \+ 2 = 22 rows, .* got 21"):
        kernels.simulate_loop(20, _DELAYED_FD, arrays["pos"], arrays["vel"], arrays["acc"])
    assert (arrays["acc"] == 0.0).all()


def _random_scenario(rng):
    """A valid scenario of any variant, with random delays (none in about
    half the draws), gains and perturbation, short enough for the
    element-indexing reference."""
    variant = V(rng.choice([v.value for v in (V.CF_LCC, V.FD_LCC, V.GENERAL_LCC, V.CCC)]))
    m = int(rng.integers(1, 4)) if variant in (V.GENERAL_LCC, V.CCC) else 0
    n = 0 if variant is V.CCC else int(rng.integers(1, 7))
    ids = list(range(-m, 0)) + list(range(1, n + 1))
    has_head = variant is not V.FD_LCC
    v_star = float(rng.uniform(5.0, 25.0))
    horizon = float(rng.uniform(3.0, 15.0))
    start = float(rng.uniform(0.0, horizon / 2))
    perturbation = [
        None,
        FollowerBrake(vehicle=int(rng.choice(ids)), decel=float(rng.uniform(-10.0, -1.0)),
                      duration=float(rng.uniform(0.1, 8.0)), start=start),
        HeadSinusoid(amplitude=float(rng.uniform(0.5, min(8.0, v_star))),
                     period=float(rng.uniform(2.0, 15.0)), start=start),
    ][rng.integers(3 if has_head else 2)]
    mode = "explicit" if not has_head or rng.random() < 0.6 else "hdv-baseline"
    gain_ids = ids + ([0] if mode == "explicit" else [])
    mu = {i: float(rng.uniform(-1.5, 1.5)) for i in gain_ids
          if rng.random() < 0.6 and (i != 0 or has_head)}
    k = {i: float(rng.uniform(-1.5, 1.5)) for i in gain_ids if rng.random() < 0.6}
    delay_base = float(rng.uniform(0.0, 1.5)) if rng.random() < 0.5 else 0.0
    return ScenarioConfig(
        variant=variant,
        m=m,
        n=n,
        v_star=v_star,
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
    """Random chains, in chunks of 1 to 40 rows so that delays and brakes
    cross chunk boundaries, give the reference's arrays, safety-brake steps
    and collisions bit for bit, whether every HDV reacts at once (one block
    per chunk), every one at least one step late (down to one-step
    blocks), or some of each.  Of the first 90 draws a third or more have
    no late HDV and a third or more some late one; 20 more draw each
    HDV's delay from 0 to 2 steps, so that most of them mix the two kinds.
    Chains that react at once seldom collide, so LOOP_CASES and the
    sentinel test hold most collisions at a prompt column."""
    rng = np.random.default_rng(2024)
    draws, mixed_draws = 90, 20
    runs, collisions = [0, 0], [0, 0]  # no late HDV, some late HDV
    kinds = {"prompt": 0, "late": 0, "mixed": 0}
    for i in range(draws + mixed_draws):
        cfg = _random_scenario(rng)
        if i >= draws:
            cfg = dataclasses.replace(cfg, heterogeneity=HeterogeneitySpec(
                delay_base=cfg.dt, delay_jitter=cfg.dt))
        chunk = int(rng.integers(1, 41))
        args = _reference_args(cfg)
        status, step, col = _reference_simulate_loop(*args)
        ids = (["h"] if cfg.has_head else []) + list(range(-cfg.m, cfg.n + 1))
        want = (step * cfg.dt, ids[col], ids[col - 1]) if status else None
        results = []
        with mock.patch.object(kernels, "ROW_CHUNK", chunk), \
                mock.patch.object(kernels, "simulate_loop",
                                  side_effect=_recording(kernels.simulate_loop, results)) as loop:
            try:
                simulate(cfg)
                got = None
            except CollisionError as err:
                got = err.time, err.follower, err.leader
        assert got == want
        _assert_rows_match(loop.call_args.args[2:], args[2:5], step if status else None)
        brake_steps = results[0][1]
        if status:
            brake_steps = [k for k in brake_steps if k < step]
        assert brake_steps == np.flatnonzero(args[-1]).tolist()
        chain = loop.call_args.args[1]
        delays = [args[13][ids.index(vid)] for vid in cfg.hdv_ids()]
        assert chain.blocks[0].size == sum(d > 0 for d in delays)
        blocked = int(max(delays, default=0) > 0)
        if delays:
            kinds["mixed" if blocked and min(delays) == 0 else "late" if blocked else "prompt"] += 1
        if i < draws:
            runs[blocked] += 1
        collisions[blocked] += status
    assert 3 * min(runs) >= draws and collisions[1] > 0
    assert min(kinds.values()) > 0 and kinds["mixed"] > mixed_draws / 2, kinds


def _recording(function, results):
    """``function``, appending each call's result to ``results``."""

    def call(*args):
        results.append(function(*args))
        return results[-1]

    return call


@pytest.mark.parametrize("delay, step", [(0, 301), (30, 264)])
def test_prescribed_head_that_stops_dead(delay, step):
    """A general 1+1 chain behind a head at 15 m/s that stops dead at step
    101: HDV -1 runs into the head at the reference's step, stepped one
    step at a time or in blocks.  Every row through the collision is the
    reference's bit for bit, and the head's column keeps the prescribed
    trace in every row."""
    cfg = ScenarioConfig(variant=V.GENERAL_LCC, m=1, n=1, horizon=5.0,
                         base_params=DriverParams(delay=delay / 100),
                         cav=CavController(mode="explicit"))
    head_vel = np.full(501, 15.0)
    head_vel[101:] = 0.0
    args = _reference_args(cfg, head_vel)
    n_steps, dt = args[:2]
    pos, vel = (np.append(a, a[-1:], axis=0) for a in args[2:4])  # and the scratch row
    acc = args[4].copy()
    head = args[2][:, 0].copy(), args[3][:, 0].copy(), acc[:, 0].copy()
    alpha, beta, vmax, sst, sgo, delays, s_star = args[8:15]
    hdvs = [(j, int(delays[j]), *(float(x[j]) for x in (s_star, alpha, beta, vmax, sst, sgo)))
            for j in (1, 3)]
    chain = kernels.plan_chain(dt, 15.0, 2, [(2, 0.0, 0.0, float(s_star[2]))], hdvs,
                               (-1, 0, 0, 0.0))
    assert chain.blocks[0].tolist() == ([1, 3] if delay else [])
    assert chain.ahead + chain.tail == (() if delay else tuple(hdvs))

    collision, brake_steps = kernels.simulate_loop(n_steps, chain, pos, vel, acc)
    assert _reference_simulate_loop(*args) == (1, step, 1) and collision == (step, 1)
    assert [k for k in brake_steps if k < step] == np.flatnonzero(args[-1]).tolist()
    _assert_rows_match((pos, vel, acc), args[2:5], step)
    for got, want in zip((pos, vel, acc), head):
        assert got[:n_steps + 1, 0].tobytes() == want.tobytes()
