"""Nonlinear time-domain simulation of the mixed vehicle chain.

Vehicles run front to back: an optional head vehicle with a prescribed
velocity, m HDVs ahead of the CAV, the CAV, and n HDVs behind; the
layouts allowed are those of ``systems.validate_topology``.  HDVs follow
the nonlinear OVM with optional per-vehicle reaction delay; the CAV
applies one linear feedback sum on error states plus an emergency
braking override, and every acceleration is saturated to [A_MIN, A_MAX].
``simulate`` alone lays out the CAV's law, its own errors as the first
feedback term.  It turns a scenario into one ``kernels.plan_chain`` of
columns, HDV constants and feedback terms, writes the head's whole
prescribed trace, and hands that plan and the initial state to
``kernels.simulate_loop``, which steps every other column with forward
Euler on a fixed step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from . import kernels
from .errors import CollisionError, TopologyError, bounded, check_limits
from .systems import COUNT_LIMIT, FeedbackGains, SystemVariant, validate_gain_ids, validate_topology
from .vehicles import A_MAX, A_MIN, DriverParams, equilibrium_spacing, linearize

__all__ = [
    "A_MIN",
    "A_MAX",
    "HeadSinusoid",
    "FollowerBrake",
    "CavController",
    "HeterogeneitySpec",
    "ScenarioConfig",
    "SimulationTrace",
    "sample_heterogeneous",
    "simulate",
]


@dataclass(frozen=True)
class HeadSinusoid:
    """Head-vehicle velocity v* + amplitude*sin(2*pi*(t-start)/period)."""

    amplitude: float = bounded(2.0, help="head velocity amplitude (m/s), |amplitude| <= v_star")
    period: float = bounded(10.0, "> 0", "head velocity period (s)")
    start: float = bounded(20.0, ">= 0", "onset time (s)")


@dataclass(frozen=True)
class FollowerBrake:
    """One HDV forced to a fixed deceleration for a time window."""

    vehicle: int = bounded(1, help="id of the braking HDV")
    decel: float = bounded(-5.0, help="forced acceleration (m/s^2)")
    duration: float = bounded(1.0, "> 0", "braking time (s)")
    start: float = HeadSinusoid.__dataclass_fields__["start"]  # one onset: default, limit, help


Perturbation = Union[HeadSinusoid, FollowerBrake, None]


@dataclass(frozen=True)
class CavController:
    """CAV feedback law on error states.

    mode "hdv-baseline": the CAV mimics an HDV toward its predecessor
    (linearized gains) and adds the feedback terms; gains may not touch
    id 0.  mode "explicit": the input is exactly the printed feedback
    row, which may include the CAV's own states (id 0).  Either way the
    input is one linear sum over error states, u = sum mu_i s~_i + k_i v~_i;
    the baseline's terms alpha1 s~_0 - alpha2 v~_0 + alpha3 v~_pred, on
    the CAV's own errors and its predecessor's velocity error, come first.
    """

    gains: FeedbackGains = field(default_factory=FeedbackGains)
    mode: str = bounded("hdv-baseline", ("hdv-baseline", "explicit"), "CAV feedback law")

    def __post_init__(self):
        check_limits(self)


@dataclass(frozen=True)
class HeterogeneitySpec:
    """Uniform jitter around the base driver parameters, plus delays."""

    alpha_jitter: float = bounded(0.1, ">= 0", "half-width of the alpha band (1/s)")
    beta_jitter: float = bounded(0.1, ">= 0", "half-width of the beta band (1/s)")
    s_go_jitter: float = bounded(5.0, ">= 0", "half-width of the s_go band (m)")
    delay_base: float = bounded(0.4, ">= 0", "mean HDV reaction delay (s)")
    delay_jitter: float = bounded(0.1, ">= 0", "half-width of the delay band (s)")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation run: chain layout, horizon, perturbation and CAV law.

    Every HDV drives with ``base_params``, or, when ``heterogeneity`` is
    set, with its own draw around them (``sample_heterogeneous`` with
    ``seed``); the CAV's equilibrium spacing uses ``base_params``.  The
    default chain, a CAV behind a head vehicle with two HDVs following,
    suits the default ``hdv-baseline`` controller, which needs a vehicle
    ahead.
    """

    variant: SystemVariant = SystemVariant.CF_LCC
    m: int = bounded(0, COUNT_LIMIT, "HDVs ahead of the CAV (count)")
    n: int = bounded(2, COUNT_LIMIT, "HDVs behind the CAV (count)")
    v_star: float = bounded(15.0, "> 0", "equilibrium velocity (m/s)")
    dt: float = bounded(0.01, "> 0", "simulation step (s)")
    horizon: float = bounded(100.0, "> 0", "simulation length (s)")
    perturbation: Perturbation = None
    base_params: DriverParams = field(default_factory=DriverParams)
    heterogeneity: Optional[HeterogeneitySpec] = None
    cav: CavController = field(default_factory=CavController)
    seed: int = bounded(0, ">= 0", "RNG seed for heterogeneity sampling")

    @property
    def has_head(self) -> bool:
        return self.variant is not SystemVariant.FD_LCC

    def hdv_ids(self) -> List[int]:
        return list(range(-self.m, 0)) + list(range(1, self.n + 1))


@dataclass
class SimulationTrace:
    """Time-indexed per-vehicle records of one simulation run.

    Arrays are (steps+1, vehicles) with columns ordered front to back;
    ``ids`` labels the columns ("h" marks the head vehicle).  Spacing is
    recomputed from positions, so spacing[:, j] is exactly
    position[:, j-1] - position[:, j]; the front column is NaN.
    """

    times: np.ndarray
    ids: Tuple
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    spacing: np.ndarray
    events: List[Tuple[float, object, str]]
    v_star: float
    dt: float

    def col(self, vid) -> int:
        """Column of vehicle ``vid``; ValueError if the trace has none."""
        if vid not in self.ids:
            raise ValueError(f"vehicle {vid!r} is not in the trace, whose ids are {self.ids}")
        return self.ids.index(vid)

    def window_mask(self, t_a: float, t_b: float) -> np.ndarray:
        if not (math.isfinite(t_a) and math.isfinite(t_b) and t_a <= t_b):
            raise ValueError(f"window must be finite with start <= end, got ({t_a}, {t_b})")
        half = 0.5 * self.dt
        return (self.times >= t_a - half) & (self.times <= t_b + half)


def sample_heterogeneous(
    spec: HeterogeneitySpec,
    n_vehicles: int,
    seed: int,
    base: Optional[DriverParams] = None,
) -> List[DriverParams]:
    """Draw per-vehicle OVM parameters and reaction delays.

    Each parameter is independently uniform within its jitter band around
    the base value (delays around ``delay_base``).  Deterministic for a
    given seed; a chain with no HDVs draws none and gets ``[]``.  Raises
    ValueError, before any draw, when ``n_vehicles`` is negative, the seed
    is not an integer >= 0 (a bool is not one), ``spec`` breaks its own
    limits, or a band reaches past the float range or to a value
    ``DriverParams`` rejects.
    """
    if n_vehicles < 0:
        raise ValueError(f"n_vehicles must be >= 0, got {n_vehicles}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    base = base or DriverParams()
    bands = {"alpha_jitter": ("alpha", base.alpha), "beta_jitter": ("beta", base.beta),
             "s_go_jitter": ("s_go", base.s_go), "delay_jitter": ("delay_base", spec.delay_base)}
    check_limits(spec)
    for name, (key, center) in bands.items():
        # numpy's draw overflows on a band past the float range
        if not math.isfinite(center + getattr(spec, name)):
            raise ValueError(f"{name} must keep {key} + {name} finite, got {key}={center} "
                             f"and {name}={getattr(spec, name)}")
    if not base.alpha - spec.alpha_jitter > 0:
        raise ValueError(f"alpha_jitter must be < alpha = {base.alpha}, got {spec.alpha_jitter}")
    if not base.beta - spec.beta_jitter > 0:
        raise ValueError(f"beta_jitter must be < beta = {base.beta}, got {spec.beta_jitter}")
    if not base.s_go - spec.s_go_jitter > base.s_st:
        raise ValueError(
            f"s_go_jitter must be < s_go - s_st = {base.s_go - base.s_st}, "
            f"got {spec.s_go_jitter}"
        )
    if not spec.delay_base - spec.delay_jitter >= 0:
        raise ValueError(
            f"delay_jitter must be <= delay_base = {spec.delay_base}, got {spec.delay_jitter}"
        )
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_vehicles):
        out.append(
            DriverParams(
                alpha=base.alpha + rng.uniform(-spec.alpha_jitter, spec.alpha_jitter),
                beta=base.beta + rng.uniform(-spec.beta_jitter, spec.beta_jitter),
                v_max=base.v_max,
                s_st=base.s_st,
                s_go=base.s_go + rng.uniform(-spec.s_go_jitter, spec.s_go_jitter),
                delay=spec.delay_base + rng.uniform(-spec.delay_jitter, spec.delay_jitter),
            )
        )
    return out


def _validate(cfg: ScenarioConfig) -> None:
    validate_topology(cfg.variant, cfg.m, cfg.n)
    check_limits(cfg)
    if not math.isfinite(cfg.horizon / cfg.dt):
        raise ValueError(
            f"horizon/dt must be finite, got horizon={cfg.horizon} and dt={cfg.dt}"
        )
    if _step_count(cfg) == 0:
        raise ValueError(
            f"horizon must be more than half a step, got horizon={cfg.horizon} and dt={cfg.dt}"
        )
    pert = cfg.perturbation
    if isinstance(pert, (HeadSinusoid, FollowerBrake)):
        check_limits(pert)
        if isinstance(pert, HeadSinusoid) and abs(pert.amplitude) > cfg.v_star:
            raise ValueError(
                f"amplitude must be at most v_star = {cfg.v_star} in size, got {pert.amplitude}"
            )
        if pert.start >= cfg.horizon:
            raise ValueError("perturbation must start before the horizon ends")
    if isinstance(pert, HeadSinusoid):
        if not cfg.has_head:
            raise TopologyError("free-driving scenario has no head vehicle to perturb")
        # the head's phase at the last step, as ``simulate`` computes it
        phase = 2.0 * math.pi * (_step_count(cfg) * cfg.dt - pert.start) / pert.period
        if not math.isfinite(phase):
            raise ValueError(f"period must keep the head's phase finite, got {pert.period}")
    if isinstance(pert, FollowerBrake):
        if pert.vehicle not in cfg.hdv_ids():
            raise TopologyError(f"brake vehicle {pert.vehicle} is not an HDV of this chain")
        k0, k1 = _brake_steps(pert, cfg.dt)
        # a brake on the last step alone moves no trace row: the state that
        # step gives lies past the horizon
        if not k0 < min(k1, _step_count(cfg)):
            raise ValueError(
                "brake must cover a step that updates the state, got "
                f"start={pert.start} and duration={pert.duration} at dt={cfg.dt}"
            )
    validate_gain_ids(cfg.cav.gains.ids(), cfg.m, cfg.n, cfg.cav.mode == "explicit")
    for name, gains in (("mu", cfg.cav.gains.mu), ("k", cfg.cav.gains.k)):
        for vid, g in gains.items():
            if not math.isfinite(g):
                raise ValueError(f"gain {name}[{vid}] must be finite, got {g}")
    if cfg.cav.mode == "hdv-baseline" and not cfg.has_head:
        raise TopologyError("hdv-baseline controller needs a vehicle ahead of the CAV")
    if cfg.cav.gains.mu.get(0, 0.0) != 0.0 and not cfg.has_head:
        raise TopologyError("mu[0] needs a spacing, which a free-driving CAV lacks")


def _step_count(cfg: ScenarioConfig) -> int:
    return round(cfg.horizon / cfg.dt)


def _brake_steps(brake: FollowerBrake, dt: float) -> Tuple[int, int]:
    """The steps k0 <= k < k1 on which ``brake`` forces its deceleration."""
    return round(brake.start / dt), round((brake.start + brake.duration) / dt)


def _hdv_drivers(cfg: ScenarioConfig) -> List[DriverParams]:
    if cfg.heterogeneity is not None:
        return sample_heterogeneous(
            cfg.heterogeneity, cfg.m + cfg.n, cfg.seed, base=cfg.base_params
        )
    return [cfg.base_params] * (cfg.m + cfg.n)


def simulate(cfg: ScenarioConfig) -> SimulationTrace:
    """Run one scenario and return its trace.

    The chain starts in exact equilibrium (each HDV at its own
    equilibrium spacing for v*), so an unperturbed run holds velocities
    and spacings constant.  Raises CollisionError when any spacing
    reaches zero.
    """
    _validate(cfg)
    dt, v_star = cfg.dt, cfg.v_star
    n_steps = _step_count(cfg)
    params = {0: cfg.base_params, **dict(zip(cfg.hdv_ids(), _hdv_drivers(cfg)))}

    ids: List = (["h"] if cfg.has_head else []) + list(range(-cfg.m, cfg.n + 1))
    n_veh = len(ids)
    cav = ids.index(0)
    # equilibrium spacing of each column; the front column has no spacing
    s_star = [0.0] + [float(equilibrium_spacing(v_star, params[vid]).s_star) for vid in ids[1:]]

    # u = sum_i mu_i s~_i + k_i v~_i with the CAV's own errors (i = 0) first;
    # the HDV-like baseline then adds alpha3 v~ of the predecessor.
    gains = cfg.cav.gains
    if cfg.cav.mode == "hdv-baseline":
        c = linearize(equilibrium_spacing(v_star, cfg.base_params), cfg.base_params)
        feedback = [(cav, c.alpha1, -c.alpha2, s_star[cav]),
                    (cav - 1, 0.0, c.alpha3, s_star[cav - 1])]
    else:
        feedback = [(cav, float(gains.mu.get(0, 0.0)), float(gains.k.get(0, 0.0)), s_star[cav])]
    hdvs = []
    for j, vid in enumerate(ids):
        if vid in ("h", 0):
            continue
        p = params[vid]
        # A delay past the horizon reads no delayed state, so clamping it
        # changes no trace; it keeps ``round`` finite and bounds the
        # prehistory the block body reads.
        delay = round(min(p.delay / dt, n_steps + 1))
        hdvs.append((j, delay, s_star[j], *map(float, (p.alpha, p.beta, p.v_max, p.s_st, p.s_go))))
        mu, k = float(gains.mu.get(vid, 0.0)), float(gains.k.get(vid, 0.0))
        if mu != 0.0 or k != 0.0:
            feedback.append((j, mu, k, s_star[j]))

    try:
        # the last step writes a scratch row of pos/vel past the horizon
        pos_rows = np.zeros((n_steps + 2, n_veh))
        vel_rows = np.zeros((n_steps + 2, n_veh))
        acc = np.zeros((n_steps + 1, n_veh))
        times = np.arange(n_steps + 1) * dt
    except (MemoryError, ValueError) as exc:  # numpy: ValueError past its dimension limit
        raise ValueError(
            f"horizon={cfg.horizon} at dt={cfg.dt} needs {n_steps + 1:.3g} trace rows, "
            "more than fit in memory"
        ) from exc
    pos, vel = pos_rows[:-1], vel_rows[:-1]
    vel[0] = v_star
    for j in range(1, n_veh):
        pos[0, j] = pos[0, j - 1] - s_star[j]
    if cfg.has_head:
        # the prescribed head: its velocities, their forward difference (the
        # last step repeats the one before) and Euler positions, in sequence
        head_v = vel[:, 0]
        head_v[:] = v_star
        if isinstance(cfg.perturbation, HeadSinusoid):
            active = times >= cfg.perturbation.start
            head_v[active] = v_star + cfg.perturbation.amplitude * np.sin(
                2.0 * math.pi * (times[active] - cfg.perturbation.start) / cfg.perturbation.period
            )
        acc[:-1, 0] = (head_v[1:] - head_v[:-1]) / dt
        acc[-1, 0] = acc[-2, 0]
        pos[1:, 0] = np.add.accumulate(np.append(pos[0, 0], dt * head_v[:-1]))[1:]
    brake = (-1, 0, 0, 0.0)
    if isinstance(cfg.perturbation, FollowerBrake):
        brake = (
            ids.index(cfg.perturbation.vehicle),
            *_brake_steps(cfg.perturbation, dt),
            cfg.perturbation.decel,
        )

    chain = kernels.plan_chain(dt, v_star, cav, feedback, hdvs, brake)
    collision, brake_steps = kernels.simulate_loop(n_steps, chain, pos_rows, vel_rows, acc)
    if collision is not None:
        step, col = collision
        raise CollisionError(step * dt, ids[col], ids[col - 1])

    spacing = np.full_like(pos, np.nan)
    spacing[:, 1:] = pos[:, :-1] - pos[:, 1:]
    events = [(float(times[k]), 0, "safety-brake") for k in brake_steps]
    return SimulationTrace(
        times=times,
        ids=tuple(ids),
        position=pos,
        velocity=vel,
        acceleration=acc,
        spacing=spacing,
        events=events,
        v_star=v_star,
        dt=dt,
    )
