"""Fuel and velocity-error metrics."""

import numpy as np
import pytest

from lcc import (
    CavController,
    FollowerBrake,
    HeadSinusoid,
    HeterogeneitySpec,
    ScenarioConfig,
    SimulationTrace,
    SystemVariant,
    aave,
    fuel_rate,
    simulate,
    total_fuel,
)
from lcc.presets import CF_CONTROLLER, FD_CONTROLLER
from oracles import aave_per_vehicle, total_fuel_per_vehicle


def test_fuel_rate_examples():
    # engine-load proxy goes negative under hard braking: idle rate
    assert fuel_rate(10.0, -3.0) == 0.444
    # cruising at 15 m/s: R = 0.576, rate = 0.444 + 0.09*0.576*15
    assert fuel_rate(15.0, 0.0) == pytest.approx(1.2216, abs=1e-12)
    # standstill: positive load but zero speed voids both speed terms
    assert fuel_rate(0.0, 0.0) == 0.444
    # acceleration surcharge only while accelerating
    assert fuel_rate(10.0, 1.0) > fuel_rate(10.0, 0.0)
    with pytest.raises(ValueError):
        fuel_rate(-1.0, 0.0)


def test_fuel_rate_vectorized_matches_scalar():
    v = np.array([0.0, 5.0, 15.0, 25.0])
    a = np.array([-4.0, 0.0, 1.5, -0.5])
    vec = fuel_rate(v, a)
    assert vec.shape == (4,)
    for i in range(4):
        assert vec[i] == fuel_rate(float(v[i]), float(a[i]))


def _equilibrium_trace(n=10, horizon=40.0):
    return simulate(
        ScenarioConfig(
            variant=SystemVariant.FD_LCC,
            n=n,
            horizon=horizon,
            cav=CavController(mode="explicit"),
        )
    )


def test_total_fuel_at_equilibrium():
    tr = _equilibrium_trace()
    fc = total_fuel(tr, (20.0, 40.0), vehicles=range(0, 11))
    # 11 vehicles cruising for 20 s at the 15 m/s rate
    assert fc == pytest.approx(11 * 20 * 1.2216, rel=1e-9)
    assert fc == pytest.approx(268.752, rel=1e-9)


def test_total_fuel_empty_window():
    tr = _equilibrium_trace(n=2, horizon=10.0)
    assert total_fuel(tr, (8.0, 8.0)) == 0.0
    assert total_fuel(tr, (20.0, 30.0)) == 0.0


@pytest.mark.parametrize("window", [(25.0, 20.0), (float("nan"), 5.0), (0.0, float("inf"))])
def test_metrics_reject_reversed_or_non_finite_window(window):
    tr = _equilibrium_trace(n=2, horizon=40.0)
    with pytest.raises(ValueError, match="window"):
        total_fuel(tr, window)
    with pytest.raises(ValueError, match="window"):
        aave(tr, window)


def test_total_fuel_empty_vehicle_set_raises():
    tr = _equilibrium_trace(n=2, horizon=10.0)
    with pytest.raises(ValueError, match="vehicle set is empty"):
        total_fuel(tr, (0.0, 10.0), vehicles=[])


def test_aave_at_equilibrium():
    tr = _equilibrium_trace(n=3, horizon=30.0)
    assert aave(tr, (10.0, 30.0)) == pytest.approx(0.0, abs=1e-12)


def _synthetic_trace(scale):
    times = np.arange(0.0, 10.01, 0.01)
    dev = scale * np.sin(times)
    vel = np.stack([15.0 + dev, 15.0 - 0.5 * dev], axis=1)
    zeros = np.zeros_like(vel)
    return SimulationTrace(
        times=times,
        ids=(0, 1),
        position=zeros,
        velocity=vel,
        acceleration=zeros,
        spacing=zeros,
        events=[],
        v_star=15.0,
        dt=0.01,
    )


def test_aave_scales_linearly_with_deviation():
    one = aave(_synthetic_trace(1.0), (0.0, 10.0))
    two = aave(_synthetic_trace(2.0), (0.0, 10.0))
    assert two == pytest.approx(2.0 * one, rel=1e-12)
    assert one > 0


def test_aave_vehicle_subset():
    tr = _synthetic_trace(1.0)
    only_first = aave(tr, (0.0, 10.0), vehicles=[0])
    only_second = aave(tr, (0.0, 10.0), vehicles=[1])
    assert only_first == pytest.approx(2.0 * only_second, rel=1e-12)


def test_aave_empty_vehicle_set_raises():
    tr = _synthetic_trace(1.0)
    with pytest.raises(ValueError, match="vehicle set is empty"):
        aave(tr, (0.0, 10.0), vehicles=[])


@pytest.mark.parametrize("metric", [total_fuel, aave])
def test_metrics_name_a_vehicle_not_in_the_trace(metric):
    tr = _equilibrium_trace(n=2, horizon=10.0)
    with pytest.raises(ValueError, match=r"vehicle 7 is not in the trace, whose ids are \(0, 1, 2\)"):
        metric(tr, (0.0, 10.0), vehicles=[7])


# Traces the metrics integrate: a heterogeneous, delayed chain whose last
# HDV brakes (the Appendix C scenario), a chain with a prescribed head
# column, and one whose HDVs react at once.
_ORACLE_TRACES = {
    "delayed": dict(variant=SystemVariant.FD_LCC, n=10, horizon=40.0, cav=FD_CONTROLLER,
                    perturbation=FollowerBrake(vehicle=10), heterogeneity=HeterogeneitySpec(),
                    seed=5),
    "head": dict(variant=SystemVariant.CF_LCC, n=4, horizon=40.0, cav=CF_CONTROLLER,
                 perturbation=HeadSinusoid(amplitude=3.0, period=7.0, start=10.0)),
    "at-once": dict(variant=SystemVariant.FD_LCC, n=3, horizon=40.0, cav=FD_CONTROLLER,
                    perturbation=FollowerBrake(vehicle=2, duration=3.0)),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_TRACES))
def test_metrics_match_the_per_vehicle_oracle_bitwise(name):
    """Integrating the whole vehicle set in one call rounds as one
    trapezoid per vehicle, summed in set order: over windows long, short
    and of exactly two samples, and sets reordered, repeated, of one
    vehicle and holding the head."""
    tr = simulate(ScenarioConfig(**_ORACLE_TRACES[name]))
    others = [vid for vid in tr.ids if vid != "h"]
    sets = [None, others[::-1], [others[1], others[2], others[1]], [others[-1]],
            tr.ids[:2] if name == "head" else [0, 0]]
    windows = [(20.0, 40.0), (0.0, 40.0), (13.37, 29.0), (5.0, 5.01)]
    assert tr.window_mask(*windows[-1]).sum() == 2
    for window in windows:
        for vehicles in sets:
            for metric, oracle in ((total_fuel, total_fuel_per_vehicle), (aave, aave_per_vehicle)):
                got, want = metric(tr, window, vehicles), oracle(tr, window, vehicles)
                assert float(got).hex() == float(want).hex(), (metric.__name__, window, vehicles)
    # the perturbation moves every trace off its equilibrium in (20, 40)
    assert aave(tr, (20.0, 40.0)) > 0.0


def test_total_fuel_rejects_a_negative_velocity():
    """Every vehicle's rate comes from one ``fuel_rate`` call, which still
    rejects a negative velocity anywhere in the set's window."""
    tr = _synthetic_trace(1.0)
    tr.velocity[500, 1] = -0.25
    with pytest.raises(ValueError, match="velocity must be >= 0"):
        total_fuel(tr, (0.0, 10.0))
    with pytest.raises(ValueError, match="velocity must be >= 0"):
        fuel_rate(tr.velocity.T, tr.acceleration.T)
    assert total_fuel(tr, (0.0, 4.0)) > 0.0
