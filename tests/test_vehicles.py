"""Car-following dynamics, equilibria, and linearization."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcc import (
    DriverParams,
    Equilibrium,
    LinearCoeffs,
    desired_velocity_slope,
    equilibrium_spacing,
    kernels,
    linearize,
)
from lcc.vehicles import ovm_ramp
from oracles import ovm_acceleration

FD_STEP = 1e-5


def ovm_oracle(s, s_dot, v, p):
    """Independent scalar evaluation of the OVM law, kept separate on purpose."""
    if s <= p.s_st:
        vdes = 0.0
    elif s >= p.s_go:
        vdes = p.v_max
    else:
        vdes = p.v_max / 2.0 * (1.0 - math.cos(math.pi * (s - p.s_st) / (p.s_go - p.s_st)))
    return p.alpha * (vdes - v) + p.beta * s_dot


def test_desired_velocity_boundaries(default_params):
    p = default_params
    assert ovm_ramp(5.0, p.v_max, p.s_st, p.s_go) == 0.0
    assert ovm_ramp(35.0, p.v_max, p.s_st, p.s_go) == 30.0
    assert ovm_ramp(20.0, p.v_max, p.s_st, p.s_go) == pytest.approx(15.0, abs=1e-12)
    assert ovm_ramp(0.0, p.v_max, p.s_st, p.s_go) == 0.0
    assert ovm_ramp(100.0, p.v_max, p.s_st, p.s_go) == 30.0


def test_desired_velocity_rejects_negative_spacing(default_params):
    with pytest.raises(ValueError):
        desired_velocity_slope(-1.0, default_params)


def test_desired_velocity_continuous_and_monotone(default_params):
    p = default_params
    s = np.linspace(0.0, 50.0, 10_000)
    v = np.array([ovm_ramp(x, p.v_max, p.s_st, p.s_go) for x in s])
    assert np.all(np.diff(v) >= -1e-12)
    for edge in (default_params.s_st, default_params.s_go):
        jump = abs(
            ovm_ramp(edge + 1e-9, p.v_max, p.s_st, p.s_go)
            - ovm_ramp(edge - 1e-9, p.v_max, p.s_st, p.s_go)
        )
        assert jump < 1e-12


def _kernel_acceleration(s, s_dot, v, p):
    """The row-0 acceleration ``kernels.simulate_loop`` gives an HDV at
    spacing ``s``, relative velocity ``s_dot`` and velocity ``v``: one step
    of a CAV whose law reads only itself, followed by the HDV, which steps
    alone."""
    pos, vel, acc = (np.zeros((2, 2)) for _ in range(3))
    pos[0] = s, 0.0
    vel[0] = v + s_dot, v
    hdv = (1, 0, s, p.alpha, p.beta, p.v_max, p.s_st, p.s_go)
    with mock.patch.object(kernels, "_step_alone", wraps=kernels._step_alone) as alone:
        chain = kernels.plan_chain(0.01, v, 0, [(0, 0.0, 0.0, s)], [hdv], (-1, 0, 0, 0.0))
        result = kernels.simulate_loop(1, chain, pos, vel, acc)
    assert result == (0, 0, 0, []) and alone.call_args.args[3] == hdv
    return acc[0, 1]


def test_ovm_acceleration_examples(default_params):
    """The kernel's OVM acceleration equals the independent scalar law."""
    p = default_params
    # (s, s_dot, v, acceleration); v + s_dot - v == s_dot exactly in each
    for s, s_dot, v, want in [
        (20.0, 0.0, 15.0, 0.0),
        (20.0, 0.0, 14.0, 0.6),
        (20.0, 1.0, 14.0, 1.5),
        (12.0, -0.5, 10.0, None),
    ]:
        got = _kernel_acceleration(s, s_dot, v, p)
        assert got == ovm_oracle(s, s_dot, v, p)
        if want is not None:
            assert got == pytest.approx(want, abs=1e-12)
    # standstill: zero desired velocity and zero speed balance exactly
    assert _kernel_acceleration(5.0, 0.0, 0.0, p) == 0.0


def test_equilibrium_spacing_examples(default_params):
    p = default_params
    eq = equilibrium_spacing(15.0, default_params)
    assert eq.s_star == pytest.approx(20.0, abs=1e-12)
    assert ovm_ramp(eq.s_star, p.v_max, p.s_st, p.s_go) == pytest.approx(15.0, abs=1e-12)
    assert equilibrium_spacing(0.0, default_params).s_star == 5.0
    assert equilibrium_spacing(30.0, default_params).s_star == 35.0


def test_equilibrium_spacing_rejects_out_of_range(default_params):
    with pytest.raises(ValueError):
        equilibrium_spacing(-1.0, default_params)
    with pytest.raises(ValueError):
        equilibrium_spacing(31.0, default_params)


def test_equilibrium_inverse_identity(default_params):
    p = default_params
    for v in np.linspace(0.01, 29.99, 200):
        eq = equilibrium_spacing(float(v), default_params)
        assert abs(ovm_ramp(eq.s_star, p.v_max, p.s_st, p.s_go) - v) < 1e-9
        assert ovm_acceleration(eq.s_star, 0.0, float(v), default_params) == pytest.approx(
            0.0, abs=1e-12
        )


def test_linearize_default_values(default_coeffs, default_params):
    assert default_coeffs.alpha1 == pytest.approx(0.9425, abs=1e-3)
    assert default_coeffs.alpha1 == pytest.approx(0.3 * math.pi, rel=1e-12)
    assert default_coeffs.alpha2 == 1.5
    assert default_coeffs.alpha3 == default_params.beta


def test_linearize_near_saturation_slope_vanishes(default_params):
    # alpha1 -> 0 toward the free-flow end, so the constructor rejects it there
    eq = equilibrium_spacing(29.999999, default_params)
    c = linearize(eq, default_params)
    assert c.alpha1 < 1e-3


def test_linearize_rejects_saturated(default_params):
    with pytest.raises(ValueError):
        linearize(Equilibrium(v_star=0.0, s_star=5.0), default_params)
    with pytest.raises(ValueError):
        linearize(Equilibrium(v_star=30.0, s_star=40.0), default_params)


def _finite_differences(p, eq):
    s, v = eq.s_star, eq.v_star
    h = FD_STEP
    dfds = (ovm_acceleration(s + h, 0.0, v, p) - ovm_acceleration(s - h, 0.0, v, p)) / (2 * h)
    dfdsdot = (ovm_acceleration(s, h, v, p) - ovm_acceleration(s, -h, v, p)) / (2 * h)
    dfdv = (ovm_acceleration(s, 0.0, v + h, p) - ovm_acceleration(s, 0.0, v - h, p)) / (2 * h)
    return dfds, dfdsdot, dfdv


def test_linearize_matches_finite_differences_default(default_params, default_coeffs):
    eq = default_coeffs.equilibrium
    dfds, dfdsdot, dfdv = _finite_differences(default_params, eq)
    assert default_coeffs.alpha1 == pytest.approx(dfds, rel=1e-6)
    assert default_coeffs.alpha3 == pytest.approx(dfdsdot, rel=1e-6)
    assert default_coeffs.alpha2 == pytest.approx(dfdsdot - dfdv, rel=1e-6)


def test_linearize_matches_finite_differences_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = DriverParams(
            alpha=rng.uniform(0.1, 2.0),
            beta=rng.uniform(0.1, 2.0),
            v_max=rng.uniform(10.0, 40.0),
            s_st=rng.uniform(0.0, 10.0),
            s_go=rng.uniform(15.0, 60.0),
        )
        v_star = rng.uniform(0.1, 0.9) * p.v_max
        eq = equilibrium_spacing(v_star, p)
        c = linearize(eq, p)
        dfds, dfdsdot, dfdv = _finite_differences(p, eq)
        assert c.alpha1 == pytest.approx(dfds, rel=1e-6)
        assert c.alpha3 == pytest.approx(dfdsdot, rel=1e-6)
        assert c.alpha2 == pytest.approx(dfdsdot - dfdv, rel=1e-6)


def test_coeff_validation():
    with pytest.raises(ValueError):
        LinearCoeffs(alpha1=-0.1, alpha2=1.5, alpha3=0.9)
    with pytest.raises(ValueError):
        LinearCoeffs(alpha1=0.5, alpha2=0.9, alpha3=1.5)
    with pytest.raises(ValueError):
        LinearCoeffs(alpha1=0.5, alpha2=1.5, alpha3=0.0)


def test_param_validation():
    with pytest.raises(ValueError):
        DriverParams(alpha=0.0)
    with pytest.raises(ValueError):
        DriverParams(s_st=35.0, s_go=35.0)
    with pytest.raises(ValueError):
        DriverParams(delay=-0.1)


@pytest.mark.parametrize("field", ["alpha", "beta", "v_max", "s_st", "s_go", "delay"])
def test_param_validation_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        DriverParams(**{field: math.nan})


@given(
    s1=st.floats(min_value=0.0, max_value=60.0),
    s2=st.floats(min_value=0.0, max_value=60.0),
)
@settings(deadline=None)
def test_desired_velocity_monotone_property(s1, s2):
    p = DriverParams()
    lo, hi = sorted((s1, s2))
    assert ovm_ramp(lo, p.v_max, p.s_st, p.s_go) <= ovm_ramp(hi, p.v_max, p.s_st, p.s_go) + 1e-12


@given(
    frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    alpha=st.floats(min_value=0.05, max_value=3.0),
    beta=st.floats(min_value=0.05, max_value=3.0),
)
@settings(deadline=None, max_examples=200)
def test_equilibrium_roundtrip_property(frac, alpha, beta):
    p = DriverParams(alpha=alpha, beta=beta)
    v_star = frac * p.v_max
    eq = equilibrium_spacing(v_star, p)
    assert ovm_ramp(eq.s_star, p.v_max, p.s_st, p.s_go) == pytest.approx(v_star, abs=1e-9)
