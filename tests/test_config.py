"""JSON configuration parsing, defaults, and round-tripping."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from lcc import (
    CavController,
    ConfigError,
    DriverParams,
    FollowerBrake,
    FrequencyGrid,
    HeadSinusoid,
    HeterogeneitySpec,
    ScenarioConfig,
    SystemVariant,
)
from lcc.config import (
    DEFAULTS,
    apply_overrides,
    axes_from_config,
    grid_from_config,
    parse_config,
    read_config,
    scenario_from_config,
    transfer_spec_from_config,
)


def test_minimal_config_fills_defaults():
    cfg = parse_config({"variant": "fd", "n": 2})
    assert cfg["dt"] == 0.01
    assert cfg["v_star"] == 15.0
    assert cfg["driver"]["alpha"] == 0.6
    assert cfg["controller"]["mode"] == "hdv-baseline"
    assert cfg["perturbation"] == {"kind": "none"}
    scenario = scenario_from_config(
        parse_config({"variant": "fd", "n": 2, "controller": {"mode": "explicit"}})
    )
    assert scenario.variant is SystemVariant.FD_LCC
    assert scenario.n == 2 and scenario.m == 0


def test_case_gains_config():
    cfg = parse_config(
        {
            "variant": "general",
            "m": 2,
            "n": 2,
            "gains": {"-2": [1, -1], "-1": [1, -1], "1": [-1, -1], "2": [-1, -1]},
        }
    )
    spec = transfer_spec_from_config(cfg)
    assert spec.gains.mu == {-2: 1, -1: 1, 1: -1, 2: -1}
    assert spec.gains.k == {-2: -1, -1: -1, 1: -1, 2: -1}


def _canonical(cfg: dict) -> str:
    # the canonical JSON text also tells 1 from 1.0
    return json.dumps(cfg, indent=2, sort_keys=True)


def test_round_trip():
    """A parsed config parses to itself, also after a trip through JSON text."""
    doc = {
        "variant": "cf",
        "n": 3,
        "gains": {"1": [-0.2, 0.05]},
        "perturbation": {"kind": "follower-brake", "vehicle": 1},
        "heterogeneity": {"delay_base": 0.3},
    }
    cfg = parse_config(doc)
    again = parse_config(json.loads(json.dumps(cfg)))
    assert again == cfg
    assert _canonical(again) == _canonical(cfg)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config({"variant": "fd", "bogus": 1})
    assert "bogus" in str(err.value)
    # controller takes mode only
    with pytest.raises(ConfigError, match=r"\$\.controller\.ovm_baseline: unknown key"):
        parse_config({"controller": {"ovm_baseline": True}})


def test_nested_error_names_path():
    with pytest.raises(ConfigError) as err:
        parse_config({"driver": {"alpha": -1.0}})
    assert "driver.alpha" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config({"scan": {"axis1": {"vehicle": 1}}})
    assert "scan" in str(err.value)


def test_bad_json_and_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        read_config(tmp_path / "absent.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        read_config(path)


def test_perturbation_defaults_by_kind():
    cfg = parse_config({"perturbation": {"kind": "head-sinusoid"}})
    scenario = scenario_from_config(parse_config({"variant": "cf", "n": 1,
                                                  "perturbation": {"kind": "head-sinusoid"}}))
    assert cfg["perturbation"]["amplitude"] == 2.0
    assert scenario.perturbation == HeadSinusoid(amplitude=2.0, period=10.0, start=20.0)
    scenario = scenario_from_config(
        parse_config(
            {
                "variant": "fd",
                "n": 4,
                "controller": {"mode": "explicit"},
                "perturbation": {"kind": "follower-brake", "decel": -3.0},
            }
        )
    )
    assert scenario.perturbation == FollowerBrake(vehicle=1, decel=-3.0, duration=1.0, start=20.0)


def test_scan_axes_and_grid():
    cfg = parse_config(
        {
            "variant": "general",
            "m": 2,
            "n": 2,
            "frequency": {"points": 200},
            "scan": {
                "axis1": {"vehicle": 1, "component": "mu", "lo": -5, "hi": 5, "points": 11},
                "axis2": {"vehicle": 1, "component": "k"},
            },
        }
    )
    ax1, ax2 = axes_from_config(cfg)
    assert ax1.points == 11 and ax1.lo == -5
    assert ax2.points == 101 and ax2.lo == -10 and ax2.hi == 10  # defaults
    assert grid_from_config(cfg).points == 200
    with pytest.raises(ConfigError):
        axes_from_config(parse_config({}))


def test_overrides():
    doc = apply_overrides({"variant": "fd"}, ["n=4", "driver.alpha=0.55", "controller.mode=explicit"])
    cfg = parse_config(doc)
    assert cfg["n"] == 4
    assert cfg["driver"]["alpha"] == 0.55
    assert cfg["controller"]["mode"] == "explicit"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])
    with pytest.raises(ConfigError, match="must be a JSON object"):
        apply_overrides([1], [])
    with pytest.raises(ConfigError):
        parse_config(apply_overrides({}, ["driver.unknown=1"]))


def test_schema_version_pinned():
    with pytest.raises(ConfigError):
        parse_config({"schema": 99})


EXPECTED_DEFAULTS = {
    "schema": 1,
    "variant": "cf",
    "m": 0,
    "n": 2,
    "v_star": 15.0,
    "dt": 0.01,
    "horizon": 100.0,
    "seed": 0,
    "driver": {
        "alpha": 0.6, "beta": 0.9, "v_max": 30.0, "s_st": 5.0, "s_go": 35.0, "delay": 0.0,
    },
    "gains": {},
    "controller": {"mode": "hdv-baseline"},
    "perturbation": {"kind": "none"},
    "heterogeneity": None,
    "frequency": {"omega_min": 0.01, "omega_max": 100.0, "points": 1000},
    "scan": None,
}

# Valid documents, each with the top-level entries of its parsed form that
# differ from EXPECTED_DEFAULTS.  Integers given for number keys stay
# integers.
PARITY = [
    ({}, {}),
    (
        {"variant": "cf", "n": 3, "v_star": 20, "dt": 0.05, "horizon": 60, "seed": 7},
        {"variant": "cf", "n": 3, "v_star": 20, "dt": 0.05, "horizon": 60, "seed": 7},
    ),
    (
        {
            "driver": {"alpha": 1, "beta": 0.5, "v_max": 40, "s_st": 0, "s_go": 30.5, "delay": 0.2},
            "controller": {"mode": "explicit"},
            "gains": {"0": [0.1, -0.2], "1": [-1, 2]},
        },
        {
            "driver": {"alpha": 1, "beta": 0.5, "v_max": 40, "s_st": 0, "s_go": 30.5, "delay": 0.2},
            "controller": {"mode": "explicit"},
            "gains": {"0": [0.1, -0.2], "1": [-1, 2]},
        },
    ),
    (
        {"variant": "general", "m": 2, "n": 2,
         "perturbation": {"kind": "head-sinusoid", "amplitude": 1, "period": 5}},
        {"variant": "general", "m": 2,
         "perturbation": {"kind": "head-sinusoid", "amplitude": 1, "period": 5, "start": 20.0}},
    ),
    (
        {"perturbation": {"kind": "follower-brake", "vehicle": 2, "decel": -3, "duration": 2,
                          "start": 10}},
        {"perturbation": {"kind": "follower-brake", "vehicle": 2, "decel": -3, "duration": 2,
                          "start": 10}},
    ),
    ({"schema": 1, "perturbation": {"kind": "none"}, "heterogeneity": None, "scan": None}, {}),
    (
        {"heterogeneity": {"alpha_jitter": 0, "beta_jitter": 0.05, "s_go_jitter": 2,
                           "delay_base": 0.3, "delay_jitter": 0.1}},
        {"heterogeneity": {"alpha_jitter": 0, "beta_jitter": 0.05, "s_go_jitter": 2,
                           "delay_base": 0.3, "delay_jitter": 0.1}},
    ),
    (
        {
            "frequency": {"omega_min": 0.001, "omega_max": 1000, "points": 2},
            "scan": {
                "axis1": {"vehicle": -1, "component": "mu"},
                "axis2": {"vehicle": 2, "component": "k", "lo": -5, "hi": 5.5, "points": 1},
            },
        },
        {
            "frequency": {"omega_min": 0.001, "omega_max": 1000, "points": 2},
            "scan": {
                "axis1": {"vehicle": -1, "component": "mu", "lo": -10.0, "hi": 10.0, "points": 101},
                "axis2": {"vehicle": 2, "component": "k", "lo": -5, "hi": 5.5, "points": 1},
            },
        },
    ),
    (
        {"variant": "ccc", "m": 3, "n": 0, "gains": {"-3": [0, 0]}},
        {"variant": "ccc", "m": 3, "n": 0, "gains": {"-3": [0, 0]}},
    ),
]


@pytest.mark.parametrize("doc, changed", PARITY)
def test_valid_documents_parse_to_recorded_dicts(doc, changed):
    assert _canonical(parse_config(doc)) == _canonical({**EXPECTED_DEFAULTS, **changed})


def test_defaults_are_the_dataclass_defaults():
    assert _canonical(DEFAULTS) == _canonical(EXPECTED_DEFAULTS)
    scenario = ScenarioConfig()
    assert DEFAULTS["variant"] == scenario.variant.value
    for key in ("m", "n", "v_star", "dt", "horizon", "seed"):
        assert DEFAULTS[key] == getattr(scenario, key)
    assert DEFAULTS["driver"] == asdict(DriverParams())
    assert DEFAULTS["controller"] == {"mode": CavController().mode}
    assert DEFAULTS["frequency"] == asdict(FrequencyGrid())
    assert parse_config({"heterogeneity": {}})["heterogeneity"] == asdict(HeterogeneitySpec())
    for kind, cls in (("head-sinusoid", HeadSinusoid), ("follower-brake", FollowerBrake)):
        pert = parse_config({"perturbation": {"kind": kind}})["perturbation"]
        assert pert == {"kind": kind, **asdict(cls())}


def test_partial_heterogeneity_is_default_filled():
    cfg = parse_config({"heterogeneity": {"delay_base": 0.3}})
    assert cfg["heterogeneity"] == {**asdict(HeterogeneitySpec()), "delay_base": 0.3}
    assert scenario_from_config(cfg).heterogeneity == HeterogeneitySpec(delay_base=0.3)


_AXIS = {"vehicle": 1, "component": "mu"}

# One rejected value per key: (dotted key, value).
BAD_VALUES = [
    ("schema", 2),
    ("variant", "warp-drive"),
    ("m", -1),
    ("n", 1.5),
    ("v_star", 0),
    ("dt", "0.1"),
    ("horizon", -1.0),
    ("seed", "x"),
    ("driver.alpha", 0),
    ("driver.beta", -0.5),
    ("driver.v_max", 0.0),
    ("driver.s_st", -1),
    ("driver.s_go", 0),
    ("driver.delay", -0.1),
    ("gains", {"x": [1, 2]}),
    ("controller.mode", "auto"),
    ("perturbation.kind", "brake"),
    ("perturbation.amplitude", "big"),
    ("perturbation.period", 0),
    ("perturbation.start", -1),
    ("perturbation.vehicle", "1"),
    ("perturbation.decel", None),
    ("perturbation.duration", 0.0),
    ("heterogeneity.alpha_jitter", -0.1),
    ("heterogeneity.beta_jitter", "0"),
    ("heterogeneity.s_go_jitter", -1),
    ("heterogeneity.delay_base", -0.4),
    ("heterogeneity.delay_jitter", [0.1]),
    ("frequency.omega_min", 0),
    ("frequency.omega_max", -1.0),
    ("frequency.points", 1),
    ("scan.axis1.vehicle", "1"),
    ("scan.axis1.component", "v"),
    ("scan.axis1.lo", "low"),
    ("scan.axis1.hi", None),
    ("scan.axis1.points", 0),
    ("scan.axis2.vehicle", 1.5),
    ("scan.axis2.component", None),
    ("scan.axis2.lo", [0]),
    ("scan.axis2.hi", {}),
    ("scan.axis2.points", -3),
]


def _document_with(key, value):
    """A valid document that has every section, with ``key`` set to ``value``."""
    brake = key in ("perturbation.vehicle", "perturbation.decel", "perturbation.duration")
    doc = {
        "perturbation": {"kind": "follower-brake" if brake else "head-sinusoid"},
        "heterogeneity": {},
        "scan": {"axis1": dict(_AXIS), "axis2": dict(_AXIS)},
    }
    *parents, leaf = key.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    return doc


def test_bad_value_table_covers_every_key():
    def leaves(node, prefix=""):
        for name, val in node.items():
            if isinstance(val, dict) and val and name != "gains":
                yield from leaves(val, f"{prefix}{name}.")
            else:
                yield prefix + name

    keys = [key for key, _ in BAD_VALUES]
    assert len(keys) == len(set(keys)) == 41
    covered = set()
    for probe in ("perturbation.amplitude", "perturbation.vehicle"):
        covered |= set(leaves(parse_config(_document_with(probe, 1))))
    assert set(keys) == covered


@pytest.mark.parametrize("key, value", BAD_VALUES, ids=[key for key, _ in BAD_VALUES])
def test_bad_value_names_its_key(key, value):
    with pytest.raises(ConfigError, match=re.escape(f"at $.{key}")):
        parse_config(_document_with(key, value))


def test_import_does_not_load_jsonschema():
    """Nor scipy.linalg, which only ``min_energy`` imports, when called."""
    import lcc

    probe = ("import sys, lcc.cli; "
             "print(sorted(m for m in sys.modules if 'jsonschema' in m or m == 'scipy.linalg'))")
    src = str(Path(lcc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
