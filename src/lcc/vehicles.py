"""Optimal-velocity car-following dynamics, equilibria, and linearization.

The driver model is the classic OVM: acceleration depends on the spacing
to the vehicle ahead through a desired-velocity profile, on the relative
velocity, and on the vehicle's own velocity,

    a = alpha * (V(s) - v) + beta * s_dot.

V(s) is zero below a standstill spacing ``s_st``, saturates at ``v_max``
above a free-flow spacing ``s_go``, and rises smoothly (half-cosine) in
between.  ``ovm_ramp`` is V(s) of one spacing, the definition the
simulation kernel follows: when it steps an HDV that reacts at once, one
step at a time, it spells the same expression inline, and when it steps
the HDVs that react late, a block of steps at once, it evaluates it
elementwise (``kernels.ovm_ramp_array``, whose ``np.cos`` is the C
library's ``cos``, as ``math.cos`` is); both round as ``ovm_ramp``
does.  Traces depend on that rounding.  ``A_MIN``
and ``A_MAX`` bound every vehicle's acceleration in the simulation, the
one definition of those limits.  All functions here are pure and
operate on plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import bounded, check_limits

__all__ = [
    "A_MIN",
    "A_MAX",
    "DriverParams",
    "Equilibrium",
    "LinearCoeffs",
    "ovm_ramp",
    "desired_velocity_slope",
    "equilibrium_spacing",
    "linearize",
]

# Acceleration limits applied to every vehicle (m/s^2).
A_MIN = -5.0
A_MAX = 2.0


@dataclass(frozen=True)
class DriverParams:
    """OVM parameters of one driver; only the nonlinear simulator reads ``delay``."""

    alpha: float = bounded(0.6, "> 0", "OVM desired-velocity gain (1/s)")
    beta: float = bounded(0.9, "> 0", "OVM relative-velocity gain (1/s)")
    v_max: float = bounded(30.0, "> 0", "free-flow velocity (m/s)")
    s_st: float = bounded(5.0, ">= 0", "standstill spacing (m)")
    s_go: float = bounded(35.0, "> 0", "free-flow spacing (m)")
    delay: float = bounded(0.0, ">= 0", "HDV reaction delay (s)")

    def __post_init__(self):
        check_limits(self)
        if not self.s_st < self.s_go:
            raise ValueError(f"need s_st < s_go, got s_st={self.s_st}, s_go={self.s_go}")


@dataclass(frozen=True)
class Equilibrium:
    """Uniform-flow operating point: every vehicle at (s_star, v_star)."""

    v_star: float
    s_star: float


@dataclass(frozen=True)
class LinearCoeffs:
    """First-order coefficients of the OVM around an equilibrium.

    alpha1  spacing gain (1/s^2), alpha * V'(s_star)
    alpha2  own-velocity gain (1/s), alpha + beta
    alpha3  predecessor-velocity gain (1/s), beta
    """

    alpha1: float
    alpha2: float
    alpha3: float
    equilibrium: Equilibrium = field(
        default_factory=lambda: Equilibrium(v_star=15.0, s_star=20.0)
    )

    def __post_init__(self):
        if not self.alpha1 > 0:
            raise ValueError(f"alpha1 must be > 0, got {self.alpha1}")
        if not self.alpha2 > self.alpha3 > 0:
            raise ValueError(
                f"need alpha2 > alpha3 > 0, got alpha2={self.alpha2}, alpha3={self.alpha3}"
            )


def ovm_ramp(s: float, v_max: float, s_st: float, s_go: float) -> float:
    """V(s) on plain floats: zero up to s_st, v_max beyond s_go, half-cosine in between."""
    if s <= s_st:
        return 0.0
    if s >= s_go:
        return v_max
    return 0.5 * v_max * (1.0 - math.cos(math.pi * (s - s_st) / (s_go - s_st)))


def desired_velocity_slope(s: float, p: DriverParams) -> float:
    """Derivative dV/ds; zero outside the (s_st, s_go) ramp."""
    if s < 0:
        raise ValueError(f"spacing must be >= 0, got {s}")
    if s <= p.s_st or s >= p.s_go:
        return 0.0
    width = p.s_go - p.s_st
    x = (s - p.s_st) / width
    return 0.5 * p.v_max * math.pi / width * math.sin(math.pi * x)


def equilibrium_spacing(v_star: float, p: DriverParams) -> Equilibrium:
    """Spacing at which a vehicle holds velocity v_star with zero acceleration.

    Inverts V(s) = v_star in closed form on the half-cosine ramp.  The
    saturated branches make the inverse non-unique at the endpoints; by
    convention v_star = 0 maps to s_st and v_star = v_max maps to s_go
    (the continuous limits of the interior branch).
    """
    if not 0 <= v_star <= p.v_max:
        raise ValueError(f"v_star must lie in [0, {p.v_max}], got {v_star}")
    if v_star == 0:
        return Equilibrium(v_star=v_star, s_star=p.s_st)
    if v_star == p.v_max:
        return Equilibrium(v_star=v_star, s_star=p.s_go)
    s_star = p.s_st + (p.s_go - p.s_st) * math.acos(1.0 - 2.0 * v_star / p.v_max) / math.pi
    return Equilibrium(v_star=v_star, s_star=s_star)


def linearize(eq: Equilibrium, p: DriverParams) -> LinearCoeffs:
    """Linearized OVM coefficients at an interior equilibrium.

    alpha1 = alpha * V'(s_star), alpha2 = alpha + beta, alpha3 = beta.
    The equilibrium must sit strictly inside (s_st, s_go): on a saturated
    branch V'(s_star) = 0 and the linear model degenerates.
    """
    if not p.s_st < eq.s_star < p.s_go:
        raise ValueError(
            f"equilibrium spacing {eq.s_star} is saturated; "
            f"linearization needs s_st < s_star < s_go"
        )
    return LinearCoeffs(
        alpha1=p.alpha * desired_velocity_slope(eq.s_star, p),
        alpha2=p.alpha + p.beta,
        alpha3=p.beta,
        equilibrium=eq,
    )
