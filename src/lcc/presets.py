"""Named end-to-end reproduction runs, each writing CSV artifacts.

Every preset pins its full parameterization (chain layout, gains,
perturbation, seed; the paper's 0.01 s step is ``ScenarioConfig``'s for
simulations and ``analysis.GRAMIAN_DT`` for Gramians) and runs from a
clean checkout with no arguments beyond its name.  The gain cases A-D
step through progressively wider communication patterns: two vehicles
ahead, then one and two vehicles behind added on top.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List

from .analysis import energy_scaling_study
from .metrics import aave, total_fuel
from .output import write_csv_atomic, write_events_csv, write_trace_csv
from .sim import (
    CavController,
    FollowerBrake,
    HeadSinusoid,
    HeterogeneitySpec,
    ScenarioConfig,
    simulate,
)
from .stability import FrequencyGrid, TransferSpec, is_string_stable, magnitude_curve
from .systems import FeedbackGains, SystemVariant
from .vehicles import DriverParams, equilibrium_spacing, linearize

__all__ = [
    "GAIN_CASES",
    "FD_CONTROLLER",
    "CF_CONTROLLER",
    "PRESETS",
    "run_preset",
]

# Feedback-gain setups of the four studied communication patterns,
# id -> (mu, k); "hdv" is the all-zero reference.
GAIN_CASES: Dict[str, Dict[int, tuple]] = {
    "hdv": {},
    "caseA": {-2: (1.0, -1.0)},
    "caseB": {-2: (1.0, -1.0), -1: (1.0, -1.0)},
    "caseC": {-2: (1.0, -1.0), -1: (1.0, -1.0), 1: (-1.0, -1.0)},
    "caseD": {-2: (1.0, -1.0), -1: (1.0, -1.0), 1: (-1.0, -1.0), 2: (-1.0, -1.0)},
}

# Explicit feedback rows of the two leading-the-chain controllers:
# the free-driving CAV damps its own velocity and tracks two followers;
# the car-following variant adds a weak pull toward its equilibrium
# spacing behind the head vehicle.
FD_CONTROLLER = CavController(
    gains=FeedbackGains(mu={1: -0.2, 2: -0.1}, k={0: -0.5, 1: 0.05, 2: 0.05}),
    mode="explicit",
)
CF_CONTROLLER = CavController(
    gains=FeedbackGains(mu={0: 0.1, 1: -0.2, 2: -0.1}, k={0: -0.5, 1: 0.05, 2: 0.05}),
    mode="explicit",
)
ZERO_RESPONSE = CavController(mode="explicit")

HETEROGENEITY_SEED = 5


def _default_coeffs():
    p = DriverParams()
    return linearize(equilibrium_spacing(15.0, p), p)


def _case_spec(case: str) -> TransferSpec:
    return TransferSpec(
        m=2, n=2, coeffs=_default_coeffs(), gains=FeedbackGains.from_pairs(GAIN_CASES[case])
    )


def _sinusoid_scenario(case: str) -> ScenarioConfig:
    return ScenarioConfig(
        variant=SystemVariant.GENERAL_LCC,
        m=2,
        n=2,
        horizon=100.0,
        perturbation=HeadSinusoid(),
        cav=CavController(
            gains=FeedbackGains.from_pairs(GAIN_CASES[case]), mode="hdv-baseline"
        ),
    )


def _brake_scenario(controller: CavController, heterogeneous: bool) -> ScenarioConfig:
    variant = (
        SystemVariant.CF_LCC if 0 in controller.gains.mu else SystemVariant.FD_LCC
    )
    return ScenarioConfig(
        variant=variant,
        m=0,
        n=10,
        horizon=40.0,
        perturbation=FollowerBrake(),
        heterogeneity=HeterogeneitySpec() if heterogeneous else None,
        cav=controller,
        seed=HETEROGENEITY_SEED,
    )


def preset_fig5(outdir: Path) -> List[Path]:
    rows = energy_scaling_study(_default_coeffs(), range(1, 9), [10.0, 20.0, 30.0])
    return [
        write_csv_atomic(outdir / "fig5.csv", ("n", "t", "lambda_min", "trace_inv"), rows)
    ]


def preset_fig8(outdir: Path) -> List[Path]:
    omegas = FrequencyGrid().omegas()
    paths = []
    for case in GAIN_CASES:
        mags = magnitude_curve(_case_spec(case), omegas)
        paths.append(
            write_csv_atomic(
                outdir / f"fig8-{case}.csv",
                ("omega", "mag"),
                zip(omegas.tolist(), mags.tolist()),
            )
        )
    return paths


def _trace_preset(name: str, scenario: ScenarioConfig):
    """Simulate ``scenario`` and write ``<name>.csv`` and ``<name>-events.csv``."""

    def run(outdir: Path) -> List[Path]:
        trace = simulate(scenario)
        return [
            write_trace_csv(outdir / f"{name}.csv", trace),
            write_events_csv(outdir / f"{name}-events.csv", trace),
        ]

    return run


def preset_table1(outdir: Path) -> List[Path]:
    header = ["case"]
    for vid in (-2, -1, 1, 2):
        header += [f"mu_{vid}", f"k_{vid}"]
    header += ["peak_mag", "string_stable"]
    rows = []
    for case, pairs in GAIN_CASES.items():
        res = is_string_stable(_case_spec(case))
        row = [case]
        for vid in (-2, -1, 1, 2):
            mu, k = pairs.get(vid, (0.0, 0.0))
            row += [float(mu), float(k)]
        row += [res.peak_mag, str(res.stable).lower()]
        rows.append(row)
    return [write_csv_atomic(outdir / "table1.csv", header, rows)]


def _performance_preset(name: str, heterogeneous: bool):
    """Write ``<name>.csv``: each strategy's AAVE and fuel in the brake
    scenario, and the LCC strategies' reductions against looking-ahead."""

    def run(outdir: Path) -> List[Path]:
        window = (20.0, 40.0)
        vehicles = list(range(0, 11))
        strategies = [
            ("looking-ahead", ZERO_RESPONSE),
            ("fd-lcc", FD_CONTROLLER),
            ("cf-lcc", CF_CONTROLLER),
        ]
        rows = []
        for label, controller in strategies:
            trace = simulate(_brake_scenario(controller, heterogeneous))
            a = aave(trace, window, vehicles=vehicles)
            f = total_fuel(trace, window, vehicles=vehicles)
            # free this trace before the next strategy's is simulated
            del trace
            if label == "looking-ahead":
                base_aave, base_fc = a, f
                rows.append([label, a, f, None, None])
            else:
                rows.append(
                    [label, a, f, 100.0 * (1.0 - a / base_aave), 100.0 * (1.0 - f / base_fc)]
                )
        return [
            write_csv_atomic(
                outdir / f"{name}.csv",
                ("strategy", "aave", "fc", "aave_reduction_pct", "fc_reduction_pct"),
                rows,
            )
        ]

    return run


PRESETS: Dict[str, Callable] = {
    "fig5": preset_fig5,
    "fig8": preset_fig8,
    "fig9-caseA": _trace_preset("fig9-caseA", _sinusoid_scenario("caseA")),
    "fig9-caseB": _trace_preset("fig9-caseB", _sinusoid_scenario("caseB")),
    "fig9-caseC": _trace_preset("fig9-caseC", _sinusoid_scenario("caseC")),
    "fig9-caseD": _trace_preset("fig9-caseD", _sinusoid_scenario("caseD")),
    "fig10-fd": _trace_preset("fig10-fd", _brake_scenario(FD_CONTROLLER, heterogeneous=False)),
    "fig10-cf": _trace_preset("fig10-cf", _brake_scenario(CF_CONTROLLER, heterogeneous=False)),
    "table1": preset_table1,
    "table2": _performance_preset("table2", heterogeneous=False),
    "appendixC": _performance_preset("appendixC", heterogeneous=True),
}


def run_preset(name: str, outdir) -> List[Path]:
    """Run one preset into ``outdir`` and return the files written."""
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return PRESETS[name](outdir)
