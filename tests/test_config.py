"""JSON configuration parsing, defaults, and round-tripping."""

import json
import math
import operator
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import pytest

import lcc
from lcc import (
    CavController,
    ConfigError,
    DriverParams,
    FollowerBrake,
    FrequencyGrid,
    GainAxis,
    HeadSinusoid,
    HeterogeneitySpec,
    ScenarioConfig,
    SystemVariant,
    TopologyError,
    sample_heterogeneous,
    simulate,
)
from lcc.systems import COUNT_LIMIT
from lcc.config import (
    DEFAULTS,
    apply_overrides,
    axes_from_config,
    config_help,
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


def test_follower_brake_defaults_to_the_papers_brake():
    """Fig. 10's brake: HDV 1 at -5 m/s^2 for 1 s from t = 20 s."""
    cfg = parse_config({"perturbation": {"kind": "follower-brake"}})
    assert cfg["perturbation"] == {"kind": "follower-brake", "vehicle": 1, "decel": -5.0,
                                   "duration": 1.0, "start": 20.0}


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


@pytest.mark.parametrize("spelling", ["01", "-0", "007"])
def test_gain_key_is_an_id_as_str_writes_it(spelling):
    """A second spelling of an id ("01" beside "1") would name one vehicle twice,
    and one of its two gain pairs would be lost without a word."""
    doc = {"variant": "general", "m": 2, "controller": {"mode": "explicit"},
           "gains": {str(int(spelling)): [0.1, 0.1], spelling: [5, 5]}}
    with pytest.raises(ConfigError, match=re.escape(f"invalid config at $.gains.{spelling}: ")):
        parse_config(doc)


def test_gain_keys_written_plainly_are_accepted():
    gains = {"-10": [1, 2], "-1": [3, 4], "0": [5, 6], "1": [7, 8], "10": [9, 0]}
    cfg = parse_config({"variant": "general", "m": 10, "n": 10,
                        "controller": {"mode": "explicit"}, "gains": gains})
    assert scenario_from_config(cfg).cav.gains.mu == {-10: 1, -1: 3, 0: 5, 1: 7, 10: 9}


def test_import_does_not_load_jsonschema():
    """Nor scipy.linalg: no module of ``lcc`` imports it, and a Gramian that needs
    its ``expm`` must import it where it is called, not on ``import lcc``."""
    import lcc

    probe = ("import sys, lcc.cli; "
             "print(sorted(m for m in sys.modules if 'jsonschema' in m or m == 'scipy.linalg'))")
    src = str(Path(lcc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# each key's own limit, declared on its dataclass field: config and library agree
# ---------------------------------------------------------------------------


def _simulate(scenario, perturbation=None):
    """``simulate`` on a short cf chain, or a ccc one when m > 0: no chain type
    takes both m = 0 and m = 1."""
    if scenario.get("m", 0) > 0:
        chain = {"variant": SystemVariant.CCC, "n": 0}
    else:
        chain = {"variant": SystemVariant.CF_LCC, "n": 1}
    simulate(ScenarioConfig(**{**chain, "horizon": 0.1, **scenario}, perturbation=perturbation))


# Each dataclass whose fields declare limits: the config path of its keys, the
# document entries that path needs, and the library call that enforces the limits,
# given the field values and the scenario around them.
_OWNERS = {
    ScenarioConfig: ("", {}, lambda own, scenario: _simulate({**scenario, **own})),
    DriverParams: ("driver", {}, lambda own, _: DriverParams(**own)),
    CavController: ("controller", {}, lambda own, _: CavController(**own)),
    HeadSinusoid: ("perturbation", {"kind": "head-sinusoid"},
                   lambda own, scenario: _simulate(scenario, HeadSinusoid(**own))),
    FollowerBrake: ("perturbation", {"kind": "follower-brake"},
                    lambda own, scenario: _simulate(scenario, FollowerBrake(**own))),
    HeterogeneitySpec: ("heterogeneity", {},
                        lambda own, _: sample_heterogeneous(HeterogeneitySpec(**own), 2, 0)),
    FrequencyGrid: ("frequency", {}, lambda own, _: FrequencyGrid(**own)),
    GainAxis: ("scan.axis1", {"vehicle": 1, "component": "mu"},
               lambda own, _: GainAxis(**{"vehicle": 1, "component": "mu", **own})),
}

# The keys that no dataclass owns, by config path; the other top-level names are sections.
_UNOWNED = {"": {"schema", "variant", "gains"}, "perturbation": {"kind"}}


def _owner_document(cls):
    """A valid document that has ``cls``'s config path, and the object at that path."""
    path, entries, _ = _OWNERS[cls]
    doc = node = {}
    for part in path.split(".") if path else []:
        node = node.setdefault(part, {})
    node.update(entries)
    if path.startswith("scan."):
        doc["scan"]["axis2"] = {"vehicle": 1, "component": "k"}
    return doc, node


def _at(cfg: dict, key: str):
    for part in key.split(".") if key else []:
        cfg = cfg[part]
    return cfg


@pytest.mark.parametrize("cls", list(_OWNERS), ids=lambda cls: cls.__name__)
def test_each_key_is_declared_on_its_own_field(cls):
    """The keys config fills at a dataclass's path, per perturbation kind, are exactly
    its fields that declare help, and ``--help`` shows each with that help text."""
    path = _OWNERS[cls][0]
    declared = {f.name: f.metadata["help"] for f in fields(cls) if f.metadata.get("help")}
    sections = {p.split(".")[0] for p, _, _ in _OWNERS.values()} if not path else set()
    assert set(_at(parse_config(_owner_document(cls)[0]), path)) - _UNOWNED.get(path, set()) - sections == set(declared)
    lines = {line.split()[0]: line for line in config_help().splitlines()
             if re.match(r"  \S", line)}
    for name, text in declared.items():
        assert text in lines[f"{path}.{name}".lstrip(".")]


# Field values, then scenario values, that a value at a limit needs so that no
# limit spanning fields refuses it: a step that fits the horizon, a brake that
# covers a step, s_st < s_go, a finite head phase, a delay band within its base,
# an omega_min below omega_max, a one-point scan axis, whose hi need not pass lo.
_CONTEXT = {
    (ScenarioConfig, "v_star"): ({"cav": CavController(mode="explicit")}, {}),
    (ScenarioConfig, "dt"): ({"horizon": 1e-323}, {}),
    (ScenarioConfig, "horizon"): ({"dt": 5e-324}, {}),
    (DriverParams, "s_go"): ({"s_st": 0.0}, {}),
    (HeadSinusoid, "period"): ({"start": 0.0}, {"dt": 1e-16, "horizon": 1e-16}),
    (FollowerBrake, "duration"): ({"start": 0.0}, {"dt": 5e-324, "horizon": 1e-323}),
    (HeterogeneitySpec, "delay_base"): ({"delay_jitter": 0.0}, {}),
    (FrequencyGrid, "omega_max"): ({"omega_min": math.sqrt(sys.float_info.min)}, {}),
    (GainAxis, "lo"): ({"points": 1}, {}),
    (GainAxis, "hi"): ({"points": 1}, {}),
}

_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

# Ends that a limit had before it moved: the values around them stay checked,
# against the limit as it is now.  omega_max was "> 0" before it declared
# omega_min's floor, so config took an omega_max just above 0 that the library refused.
_FORMER_ENDS = {(FrequencyGrid, "omega_max"): [0.0]}


def _limit_cases():
    """(owner, field, value, accepted) at each end of each declared limit, and
    each former end in ``_FORMER_ENDS``, and the adjacent int or float on either side."""
    for cls in _OWNERS:
        for f in fields(cls):
            limit = f.metadata.get("limit")
            if isinstance(limit, tuple):
                yield from ((cls, f.name, value, True) for value in limit)
                yield cls, f.name, "no-such-value", False
            elif limit:
                terms = [(op, float(x)) for op, x in (t.split() for t in limit.split(" and "))]
                for x in _FORMER_ENDS.get((cls, f.name), []) + [x for _, x in terms]:
                    if isinstance(f.default, int):
                        values = [int(x) - 1, int(x), int(x) + 1]
                    else:
                        values = [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
                    for value in values:
                        yield cls, f.name, value, all(_OPS[op](value, y) for op, y in terms)


_LIMIT_CASES = list(_limit_cases())


def test_limit_cases_cover_every_limited_dataclass():
    limited = {obj for obj in vars(lcc).values()
               if is_dataclass(obj) and any("limit" in f.metadata for f in fields(obj))}
    assert limited == set(_OWNERS)
    bounded = {(cls, f.name) for cls in _OWNERS for f in fields(cls) if f.metadata.get("limit")}
    assert {(cls, name) for cls, name, _, _ in _LIMIT_CASES} == bounded


@pytest.mark.parametrize(
    "cls, name, value, accepted", _LIMIT_CASES,
    ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, value, _ in _LIMIT_CASES],
)
def test_config_and_library_agree_on_each_limit(cls, name, value, accepted):
    """Both refuse a value past a key's own limit, naming it, and both accept
    one within it: config exits 3 where the library raises."""
    path, _, call = _OWNERS[cls]
    key = f"{path}.{name}".lstrip(".")
    doc, node = _owner_document(cls)
    node[name] = value
    own, scenario = _CONTEXT.get((cls, name), ({}, {}))
    if accepted:
        assert _at(parse_config(doc), key) == value
        call({**own, name: value}, scenario)
        return
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert f"invalid config at $.{key}: must be " in str(err.value)
    assert str(err.value).endswith(f", got {value!r}")
    # m and n are counts, which ``validate_count`` refuses with a TopologyError
    counted = cls.__dataclass_fields__[name].metadata["limit"] is COUNT_LIMIT
    with pytest.raises(TopologyError if counted else ValueError, match=f"^{name} must be "):
        call({**own, name: value}, scenario)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: DriverParams(alpha="x"), "alpha must be a number, got 'x'",
                     id="DriverParams.alpha='x'"),
        pytest.param(lambda: simulate(ScenarioConfig(perturbation=FollowerBrake(vehicle="1"))),
                     "vehicle must be a number, got '1'", id="FollowerBrake.vehicle='1'"),
        pytest.param(lambda: GainAxis(vehicle=None, component="mu"),
                     "vehicle must be a number, got None", id="GainAxis.vehicle=None"),
        # a bool is an int to Python, but config refuses it, and so does the library
        pytest.param(lambda: DriverParams(alpha=True), "alpha must be a number, got True",
                     id="DriverParams.alpha=True"),
        pytest.param(lambda: GainAxis(vehicle=True, component="mu"),
                     "vehicle must be a number, got True", id="GainAxis.vehicle=True"),
        pytest.param(lambda: simulate(ScenarioConfig(perturbation=FollowerBrake(vehicle=True))),
                     "vehicle must be a number, got True", id="FollowerBrake.vehicle=True"),
        # refused by the declared limit, before omega_min < omega_max compares the two
        pytest.param(lambda: FrequencyGrid(omega_min="x"), "omega_min must be a number, got 'x'",
                     id="FrequencyGrid.omega_min='x'"),
        pytest.param(lambda: FrequencyGrid(omega_max="x"), "omega_max must be a number, got 'x'",
                     id="FrequencyGrid.omega_max='x'"),
        pytest.param(lambda: FrequencyGrid(omega_min=None), "omega_min must be a number, got None",
                     id="FrequencyGrid.omega_min=None"),
    ],
)
def test_non_number_is_a_value_error_naming_the_field(build, message):
    """A bounded field given something other than a number fails as one past
    its limit does, with a ValueError that names it (the CLI's exit 4)."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
