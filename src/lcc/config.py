"""Declarative JSON configuration for scenarios, analyses, and scans.

One versioned document type covers every CLI command; each command reads
the sections it needs.  Each key is one row of the table ``_KEYS``: its
default, type, bound (allowed values, or a lower bound such as "> 0")
and help text with units.  Where a dataclass (``ScenarioConfig``,
``DriverParams``, ``CavController``, ``HeadSinusoid``, ``FollowerBrake``,
``HeterogeneitySpec``, ``FrequencyGrid``) configures the key, the
default is that dataclass field's.  ``parse_config`` walks a document
against the table: it rejects unknown or missing required keys, integer
keys that are not ``int``, number keys that are not a finite ``int`` or
``float``, ``bool`` for any key (none takes one), and keys of another
perturbation kind, naming the dotted key; it keeps given values as they
are and fills in every default, so ``{"variant": "fd", "n": 2}`` is
complete.
``DEFAULTS`` is the parse of ``{}``, a ``cf`` chain that ``simulate``
runs as it stands; ``config_help`` renders the table.
A file's config is ``parse_config(read_config(path))``: the CLI reads a
file with ``read_config``, applies ``--set`` overrides to the raw
document, and only then calls ``parse_config``, once; no other CLI option
sets a key.  Each command reads the keys it needs and ignores the rest:
``energy`` takes its Gramian step from ``analysis.GRAMIAN_DT``, not from
``dt``, as ``analyze`` ignores ``horizon``.
"""

from __future__ import annotations

import copy
import json
import math
import operator
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import NamedTuple, Tuple

from .errors import ConfigError
from .sim import (
    CONTROLLER_MODES,
    CavController,
    FollowerBrake,
    HeadSinusoid,
    HeterogeneitySpec,
    Perturbation,
    ScenarioConfig,
)
from .stability import FrequencyGrid, GainAxis, TransferSpec
from .systems import FeedbackGains, SystemVariant
from .vehicles import DriverParams, equilibrium_spacing, linearize

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULTS",
    "config_help",
    "read_config",
    "parse_config",
    "apply_overrides",
    "driver_from_config",
    "coeffs_from_config",
    "scenario_from_config",
    "transfer_spec_from_config",
    "grid_from_config",
    "axes_from_config",
]

SCHEMA_VERSION = 1


class _Key(NamedTuple):
    default: object  # MISSING: the key is required
    type: type  # int, float (any finite number), str, or dict (the gains map)
    bound: object  # None, a tuple of allowed values, or a lower bound "> x" / ">= x"
    help: str


class _Section(NamedTuple):
    default: object  # value when absent: {} fills every key, None, or MISSING (required)
    keys: dict


def _rows(cls, **rows) -> dict:
    """Keys (type, bound, help) named after fields of ``cls``, with its defaults."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {name: _Key(defaults[name], *row) for name, row in rows.items()}


# perturbation.kind -> the dataclass it builds; a kind takes that class's fields
_PERTURBATIONS = {"none": None, "head-sinusoid": HeadSinusoid, "follower-brake": FollowerBrake}
_KIND_KEYS = {kind: {f.name for f in fields(cls)} if cls else set()
              for kind, cls in _PERTURBATIONS.items()}

_AXIS = _Section(MISSING, {
    "vehicle": _Key(MISSING, int, None, "id of the vehicle whose gain is scanned"),
    "component": _Key(MISSING, str, ("mu", "k"), "scanned gain"),
    "lo": _Key(-10.0, float, None, "first gain value (1/s^2 for mu, 1/s for k)"),
    "hi": _Key(10.0, float, None, "last gain value"),
    "points": _Key(101, int, ">= 1", "gain values, evenly spaced"),
})

_KEYS = {
    "schema": _Key(SCHEMA_VERSION, int, (SCHEMA_VERSION,), "document version"),
    "variant": _Key(ScenarioConfig.variant.value, str, tuple(v.value for v in SystemVariant),
                    "chain type"),
    **_rows(
        ScenarioConfig,
        m=(int, ">= 0", "HDVs ahead of the CAV (count)"),
        n=(int, ">= 0", "HDVs behind the CAV (count)"),
        v_star=(float, "> 0", "equilibrium velocity (m/s)"),
        dt=(float, "> 0", "simulation step (s)"),
        horizon=(float, "> 0", "simulation length (s)"),
        seed=(int, ">= 0", "RNG seed for heterogeneity sampling"),
    ),
    "driver": _Section({}, _rows(
        DriverParams,
        alpha=(float, "> 0", "OVM desired-velocity gain (1/s)"),
        beta=(float, "> 0", "OVM relative-velocity gain (1/s)"),
        v_max=(float, "> 0", "free-flow velocity (m/s)"),
        s_st=(float, ">= 0", "standstill spacing (m)"),
        s_go=(float, "> 0", "free-flow spacing (m)"),
        delay=(float, ">= 0", "HDV reaction delay (s)"),
    )),
    "gains": _Key({}, dict, None, '{"id": [mu, k]}: spacing (1/s^2) and velocity (1/s) '
                  "feedback gains,\nid in -m..-1, 1..n (0: own state, explicit mode only)"),
    "controller": _Section({}, _rows(
        CavController,
        mode=(str, CONTROLLER_MODES, "CAV feedback law"),
    )),
    "perturbation": _Section({"kind": "none"}, {
        "kind": _Key(MISSING, str, tuple(_PERTURBATIONS), "perturbation applied"),
        **_rows(
            HeadSinusoid,
            amplitude=(float, None, "head velocity amplitude (m/s)"),
            period=(float, "> 0", "head velocity period (s)"),
            start=(float, ">= 0", "onset time (s)"),
        ),
        **_rows(
            FollowerBrake,
            vehicle=(int, None, "id of the braking HDV"),
            decel=(float, None, "forced acceleration (m/s^2)"),
            duration=(float, "> 0", "braking time (s)"),
        ),
    }),
    "heterogeneity": _Section(None, _rows(
        HeterogeneitySpec,
        alpha_jitter=(float, ">= 0", "half-width of the alpha band (1/s)"),
        beta_jitter=(float, ">= 0", "half-width of the beta band (1/s)"),
        s_go_jitter=(float, ">= 0", "half-width of the s_go band (m)"),
        delay_base=(float, ">= 0", "mean HDV reaction delay (s)"),
        delay_jitter=(float, ">= 0", "half-width of the delay band (s)"),
    )),
    "frequency": _Section({}, _rows(
        FrequencyGrid,
        # the lowest omega_min whose square is a normal float (FrequencyGrid)
        omega_min=(float, f">= {math.sqrt(sys.float_info.min)!r}",
                   "lowest frequency of verdicts and magnitude CSV (rad/s)"),
        omega_max=(float, "> 0", "highest frequency of verdicts and magnitude CSV (rad/s)"),
        points=(int, ">= 2", "log-spaced points of the stability magnitude CSV only"),
    )),
    "scan": _Section(None, {"axis1": _AXIS, "axis2": _AXIS}),
}

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}
_LOWER = {">": operator.gt, ">=": operator.ge}


def _fail(where: str, message: str):
    raise ConfigError(f"invalid config at {where}: {message}")


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # also rejects NaN and ints beyond the float range


def _checked(value, key: _Key, where: str):
    if key.type is dict:
        return _checked_gains(value, where)
    if key.type is float:
        ok = _is_number(value)
    else:
        ok = isinstance(value, key.type) and not isinstance(value, bool)
    if not ok:
        _fail(where, f"expected {_TYPE_NAMES[key.type]}, got {value!r}")
    if isinstance(key.bound, tuple) and value not in key.bound:
        _fail(where, f"expected one of {', '.join(map(repr, key.bound))}, got {value!r}")
    if isinstance(key.bound, str):
        op, limit = key.bound.split()
        if not _LOWER[op](value, float(limit)):
            _fail(where, f"must be {key.bound}, got {value!r}")
    return value


def _checked_gains(value, where: str) -> dict:
    if not isinstance(value, dict):
        _fail(where, f"expected an object, got {value!r}")
    for vid, pair in value.items():
        if not (isinstance(vid, str) and re.fullmatch(r"-?[0-9]+", vid)):
            _fail(f"{where}.{vid}", "a gain key must be an integer vehicle id")
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
            _fail(f"{where}.{vid}", f"expected [mu, k], two finite numbers, got {pair!r}")
    return copy.deepcopy(value)


def _walk(doc, keys: dict, where: str) -> dict:
    """Check one object against its keys and return it with defaults filled."""
    if not isinstance(doc, dict):
        _fail(where, f"expected an object, got {doc!r}")
    if keys is _KEYS["perturbation"].keys and "kind" in doc:
        names = _KIND_KEYS[_checked(doc["kind"], keys["kind"], f"{where}.kind")] | {"kind"}
        keys = {name: key for name, key in keys.items() if name in names}
    out = {}
    for name, key in keys.items():
        at = f"{where}.{name}"
        value = doc.get(name, key.default)
        if value is MISSING:
            _fail(at, "required key is missing")
        if isinstance(key, _Section):
            nulled = value is None and key.default is None
            out[name] = None if nulled else _walk(value, key.keys, at)
        else:
            out[name] = _checked(value, key, at) if name in doc else copy.deepcopy(value)
    for name in doc:
        if name not in keys:
            _fail(f"{where}.{name}", f"unknown key; expected one of {', '.join(keys)}")
    return out


def parse_config(doc: dict) -> dict:
    """Validate a raw document and fill in all defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    return _walk(doc, _KEYS, "$")


DEFAULTS = parse_config({})


def config_help() -> str:
    """The configuration keys with their units and bounds, for ``--help``."""
    lines = ["configuration keys (JSON; optional unless marked required in their object):"]
    first_path = {}

    def add(keys: dict, prefix: str) -> None:
        for name, key in keys.items():
            path, required = prefix + name, " (required)" if key.default is MISSING else ""
            if isinstance(key, _Section):
                if id(key.keys) in first_path:
                    lines.append(f"  {path:<28} keys as {first_path[id(key.keys)]}{required}")
                    continue
                first_path[id(key.keys)] = path
                if key.default is None or required:
                    what = "null (default), or an" if key.default is None else "an"
                    lines.append(f"  {path:<28} {what} object{required} of:")
                add(key.keys, path + ".")
                continue
            kinds = [k for k, names in _KIND_KEYS.items()
                     if path.removeprefix("perturbation.") in names]
            text = f"{' / '.join(kinds)}: {key.help}" if kinds else key.help
            if isinstance(key.bound, tuple):
                text += ": " + " | ".join(map(str, key.bound))
            elif key.bound:
                text += ", " + key.bound
            text = (text + required).replace("\n", "\n" + " " * 31)
            lines.append(f"  {path:<28} {text}")

    add(_KEYS, "")
    return "\n".join(lines) + "\n"


def read_config(path):
    """Read a JSON config file as it stands, neither validated nor default-filled."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({path}): {exc}") from exc


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply dotted key=value pairs (JSON values when possible) to a raw, unparsed document."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    doc = copy.deepcopy(doc)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return doc


def driver_from_config(cfg: dict) -> DriverParams:
    return DriverParams(**cfg["driver"])


def coeffs_from_config(cfg: dict):
    p = driver_from_config(cfg)
    return linearize(equilibrium_spacing(cfg["v_star"], p), p)


def gains_from_config(cfg: dict) -> FeedbackGains:
    return FeedbackGains.from_pairs(
        {int(key): (pair[0], pair[1]) for key, pair in cfg["gains"].items()}
    )


def _perturbation_from_config(cfg: dict) -> Perturbation:
    params = dict(cfg["perturbation"])
    cls = _PERTURBATIONS[params.pop("kind")]
    return cls(**params) if cls else None


def scenario_from_config(cfg: dict) -> ScenarioConfig:
    het = cfg["heterogeneity"]
    return ScenarioConfig(
        variant=SystemVariant(cfg["variant"]),
        m=cfg["m"],
        n=cfg["n"],
        v_star=cfg["v_star"],
        horizon=cfg["horizon"],
        dt=cfg["dt"],
        perturbation=_perturbation_from_config(cfg),
        base_params=driver_from_config(cfg),
        heterogeneity=HeterogeneitySpec(**het) if het is not None else None,
        cav=CavController(
            gains=gains_from_config(cfg),
            mode=cfg["controller"]["mode"],
        ),
        seed=cfg["seed"],
    )


def transfer_spec_from_config(cfg: dict) -> TransferSpec:
    return TransferSpec(
        m=cfg["m"], n=cfg["n"], coeffs=coeffs_from_config(cfg), gains=gains_from_config(cfg)
    )


def grid_from_config(cfg: dict) -> FrequencyGrid:
    f = cfg["frequency"]
    return FrequencyGrid(
        omega_min=f["omega_min"], omega_max=f["omega_max"], points=f["points"]
    )


def axes_from_config(cfg: dict) -> Tuple[GainAxis, GainAxis]:
    if cfg["scan"] is None:
        raise ConfigError("config has no 'scan' section")
    return tuple(GainAxis(**cfg["scan"][axis]) for axis in ("axis1", "axis2"))
