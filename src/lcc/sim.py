"""Nonlinear time-domain simulation of the mixed vehicle chain.

Vehicles run front to back: an optional head vehicle with a prescribed
velocity, m HDVs ahead of the CAV, the CAV, and n HDVs behind.  HDVs
follow the nonlinear OVM with optional per-vehicle reaction delay; the
CAV applies a feedback controller on error states plus an emergency
braking override, and every acceleration is saturated to [a_min, a_max].
Integration is forward Euler on a fixed step, delegated to
``kernels.simulate_loop``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels
from .errors import CollisionError, TopologyError
from .systems import FeedbackGains, SystemVariant
from .vehicles import DriverParams, equilibrium_spacing, linearize

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

# Acceleration limits applied to every vehicle (m/s^2).
A_MIN = -5.0
A_MAX = 2.0

CONTROLLER_MODES = ("hdv-baseline", "explicit")


@dataclass(frozen=True)
class HeadSinusoid:
    """Head-vehicle velocity v* + amplitude*sin(2*pi*(t-start)/period)."""

    amplitude: float = 2.0
    period: float = 10.0
    start: float = 20.0


@dataclass(frozen=True)
class FollowerBrake:
    """One HDV forced to a fixed deceleration for a time window."""

    vehicle: int = 1
    decel: float = -5.0
    duration: float = 1.0
    start: float = 20.0


Perturbation = Union[HeadSinusoid, FollowerBrake, None]


@dataclass(frozen=True)
class CavController:
    """CAV feedback law on error states.

    mode "hdv-baseline": the CAV mimics an HDV toward its predecessor
    (linearized gains) and adds the feedback terms; gains may not touch
    id 0.  mode "explicit": the input is exactly the printed feedback
    row, which may include the CAV's own states (id 0); ``ovm_baseline``
    additionally stacks the nonlinear OVM response toward the
    predecessor on top (car-following chains only).
    """

    gains: FeedbackGains = field(default_factory=FeedbackGains)
    mode: str = "hdv-baseline"
    ovm_baseline: bool = False

    def __post_init__(self):
        if self.mode not in CONTROLLER_MODES:
            raise ValueError(f"unknown controller mode {self.mode!r}")


@dataclass(frozen=True)
class HeterogeneitySpec:
    """Uniform jitter around the base driver parameters, plus delays."""

    alpha_jitter: float = 0.1
    beta_jitter: float = 0.1
    s_go_jitter: float = 5.0
    delay_base: float = 0.4
    delay_jitter: float = 0.1


@dataclass(frozen=True)
class ScenarioConfig:
    variant: SystemVariant = SystemVariant.FD_LCC
    m: int = 0
    n: int = 2
    v_star: float = 15.0
    horizon: float = 100.0
    dt: float = 0.01
    perturbation: Perturbation = None
    base_params: DriverParams = field(default_factory=DriverParams)
    hdv_params: Optional[Sequence[DriverParams]] = None
    heterogeneity: Optional[HeterogeneitySpec] = None
    cav: CavController = field(default_factory=CavController)
    seed: int = 0

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
        return self.ids.index(vid)

    def velocity_of(self, vid) -> np.ndarray:
        return self.velocity[:, self.col(vid)]

    def window_mask(self, t_a: float, t_b: float) -> np.ndarray:
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
    given seed.  Raises ValueError, before any draw, when a jitter is
    negative or a band reaches a value ``DriverParams`` rejects.
    """
    if n_vehicles < 1:
        raise ValueError("need at least one vehicle")
    base = base or DriverParams()
    for name in ("alpha_jitter", "beta_jitter", "s_go_jitter", "delay_jitter"):
        value = getattr(spec, name)
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
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
    if not cfg.dt > 0:
        raise ValueError(f"dt must be > 0, got {cfg.dt}")
    if not cfg.horizon > 0:
        raise ValueError(f"horizon must be > 0, got {cfg.horizon}")
    if not math.isfinite(cfg.horizon / cfg.dt):
        raise ValueError(
            f"horizon/dt must be finite, got horizon={cfg.horizon} and dt={cfg.dt}"
        )
    if cfg.variant in (SystemVariant.FD_LCC, SystemVariant.CF_LCC) and cfg.m != 0:
        raise TopologyError(f"{cfg.variant.value} scenario needs m = 0")
    if cfg.variant in (SystemVariant.GENERAL_LCC, SystemVariant.CCC) and cfg.m < 1:
        raise TopologyError(f"{cfg.variant.value} scenario needs m >= 1")
    if cfg.variant is SystemVariant.CCC and cfg.n != 0:
        raise TopologyError("ccc scenario needs n = 0")
    if isinstance(cfg.perturbation, (HeadSinusoid, FollowerBrake)):
        if cfg.perturbation.start >= cfg.horizon:
            raise ValueError("perturbation must start before the horizon ends")
    if isinstance(cfg.perturbation, HeadSinusoid) and not cfg.has_head:
        raise TopologyError("free-driving scenario has no head vehicle to perturb")
    if isinstance(cfg.perturbation, FollowerBrake):
        if cfg.perturbation.vehicle not in cfg.hdv_ids():
            raise TopologyError(
                f"brake vehicle {cfg.perturbation.vehicle} is not an HDV of this chain"
            )
    allowed = set(cfg.hdv_ids())
    if cfg.cav.mode == "explicit":
        allowed.add(0)
    bad = cfg.cav.gains.ids() - allowed
    if bad:
        raise TopologyError(f"controller gain ids {sorted(bad)} invalid for this chain")
    if cfg.cav.mode == "hdv-baseline" and not cfg.has_head:
        raise TopologyError("hdv-baseline controller needs a vehicle ahead of the CAV")
    if cfg.cav.gains.mu.get(0, 0.0) != 0.0 and not cfg.has_head:
        raise TopologyError("mu[0] needs a spacing, which a free-driving CAV lacks")
    if cfg.cav.ovm_baseline and not cfg.has_head:
        raise TopologyError("ovm baseline needs a vehicle ahead of the CAV")
    if cfg.hdv_params is not None and len(cfg.hdv_params) != cfg.m + cfg.n:
        raise ValueError(
            f"hdv_params must list {cfg.m + cfg.n} vehicles, got {len(cfg.hdv_params)}"
        )


def _resolve_hdv_params(cfg: ScenarioConfig) -> List[DriverParams]:
    if cfg.hdv_params is not None:
        return list(cfg.hdv_params)
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
    n_steps = max(1, round(cfg.horizon / dt))
    hdvs = _resolve_hdv_params(cfg)
    hdv_ids = cfg.hdv_ids()

    ids: List = (["h"] if cfg.has_head else []) + hdv_ids[: cfg.m] + [0] + hdv_ids[cfg.m :]
    n_veh = len(ids)
    cav = ids.index(0)
    params = {vid: p for vid, p in zip(hdv_ids, hdvs)}

    alpha = np.zeros(n_veh)
    beta = np.zeros(n_veh)
    vmax = np.zeros(n_veh)
    sst = np.zeros(n_veh)
    sgo = np.zeros(n_veh)
    delay_steps = np.zeros(n_veh, dtype=np.int64)
    s_star = np.zeros(n_veh)
    for j, vid in enumerate(ids):
        p = cfg.base_params if vid in ("h", 0) else params[vid]
        alpha[j], beta[j], vmax[j], sst[j], sgo[j] = (
            p.alpha,
            p.beta,
            p.v_max,
            p.s_st,
            p.s_go,
        )
        # A delay past the horizon reads no delayed state, so clamping it
        # changes no trace and bounds the kernel's history window.
        delay_steps[j] = round(min(p.delay / dt, n_steps + 1)) if vid not in ("h", 0) else 0
        if j > 0:
            s_star[j] = equilibrium_spacing(v_star, p).s_star

    coeffs = linearize(equilibrium_spacing(v_star, cfg.base_params), cfg.base_params)
    gain_mu = np.zeros(n_veh)
    gain_k = np.zeros(n_veh)
    for vid, g in cfg.cav.gains.mu.items():
        gain_mu[ids.index(vid)] = g
    for vid, g in cfg.cav.gains.k.items():
        gain_k[ids.index(vid)] = g

    try:
        head_vel = np.full(n_steps + 1, v_star)
        pos = np.zeros((n_steps + 1, n_veh))
        vel = np.zeros((n_steps + 1, n_veh))
        acc = np.zeros((n_steps + 1, n_veh))
        override = np.zeros(n_steps + 1, dtype=np.uint8)
    except MemoryError as exc:
        raise ValueError(
            f"horizon={cfg.horizon} at dt={cfg.dt} needs {n_steps + 1} trace rows, "
            "more than fit in memory"
        ) from exc
    if isinstance(cfg.perturbation, HeadSinusoid):
        t = np.arange(n_steps + 1) * dt
        active = t >= cfg.perturbation.start
        head_vel[active] = v_star + cfg.perturbation.amplitude * np.sin(
            2.0 * math.pi * (t[active] - cfg.perturbation.start) / cfg.perturbation.period
        )
    brake_col, brake_k0, brake_k1, brake_acc = -1, 0, 0, 0.0
    if isinstance(cfg.perturbation, FollowerBrake):
        brake_col = ids.index(cfg.perturbation.vehicle)
        brake_k0 = round(cfg.perturbation.start / dt)
        brake_k1 = round((cfg.perturbation.start + cfg.perturbation.duration) / dt)
        brake_acc = cfg.perturbation.decel

    vel[0, :] = v_star
    for j in range(1, n_veh):
        pos[0, j] = pos[0, j - 1] - s_star[j]

    status, step, col = kernels.simulate_loop(
        n_steps,
        dt,
        pos,
        vel,
        acc,
        cfg.has_head,
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
        cfg.cav.mode == "hdv-baseline",
        cfg.cav.ovm_baseline,
        coeffs.alpha1,
        coeffs.alpha2,
        coeffs.alpha3,
        gain_mu,
        gain_k,
        brake_col,
        brake_k0,
        brake_k1,
        brake_acc,
        A_MIN,
        A_MAX,
        override,
    )
    if status == 1:
        raise CollisionError(step * dt, ids[col], ids[col - 1])

    times = np.arange(n_steps + 1) * dt
    spacing = np.full_like(pos, np.nan)
    spacing[:, 1:] = pos[:, :-1] - pos[:, 1:]
    events = [(float(times[k]), 0, "safety-brake") for k in np.nonzero(override)[0]]
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
