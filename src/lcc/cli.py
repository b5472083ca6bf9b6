"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``analyze``
(controllability/observability), ``energy`` (Gramian scaling study),
``stability`` (head-to-tail verdict and magnitude curve), ``scan``
(gain-region map), ``simulate`` (nonlinear chain), and ``reproduce``
(named end-to-end presets).  Every command but ``reproduce`` reads the
same JSON config document (keys, units and bounds under ``--help``),
whose keys are set only by the ``--config`` file and ``--set`` dotted
overrides; no other flag names a key.  Each command computes its results
and writes its CSV artifacts atomically into the output directory
(``-o``, or the LCC_OUTDIR environment variable) before it prints, so a
failed run prints only its error.

Exit codes: 0 success, 2 usage error, 3 bad configuration, 4 domain or
topology error, out of memory, or an output path that cannot be written,
5 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    build_output_matrix,
    energy_scaling_study,
    pbh_controllability,
    pbh_observability,
)
from .config import (
    apply_overrides,
    axes_from_config,
    coeffs_from_config,
    config_help,
    grid_from_config,
    parse_config,
    read_config,
    scenario_from_config,
    transfer_spec_from_config,
)
from .errors import ConfigError, LccError, NumericalError
from .output import write_csv_atomic, write_events_csv, write_trace_csv
from .presets import PRESETS, run_preset
from .sim import simulate
from .stability import is_string_stable, magnitude_curve, scan_region
from .systems import SystemVariant, build_system, validate_count

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_DOMAIN = 4
EXIT_NUMERICAL = 5


def _label(text: str) -> str:
    """A ``--label`` value: it names a file inside -o, so it holds no path separator."""
    if any(sep and sep in text for sep in ("/", os.sep, os.altsep)):
        raise argparse.ArgumentTypeError(f"must not contain a path separator, got {text!r}")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcc",
        description=__doc__,
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"lcc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_command(name, help, config=True):
        """A subcommand with -o, and --config/--set unless ``config`` is false; no
        abbreviated flags, so a removed flag's old spelling lands on no other option."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.add_argument(
            "-o",
            "--output",
            default=None,
            help="output directory (default: $LCC_OUTDIR or ./lcc-out)",
        )
        if config:
            sp.add_argument("--config", default=None, help="JSON configuration file")
            sp.add_argument(
                "--set",
                dest="overrides",
                action="append",
                default=[],
                metavar="KEY=VALUE",
                help="override a config key (dotted path, JSON value)",
            )
        return sp

    sp = add_command("analyze", "controllability / observability report")
    sp.add_argument(
        "--k", type=int, default=None, help="also report observability measuring vehicle k"
    )

    sp = add_command("energy", "Gramian energy metrics across chain sizes")
    sp.add_argument("--n-range", default="1:5", help="chain sizes, as lo:hi or comma list")
    sp.add_argument("--t", default="10,20,30", help="comma list of horizons (s)")

    sp = add_command("stability", "head-to-tail string-stability verdict")
    sp.add_argument(
        "--label", default="spec", type=_label, help="label used in the magnitude CSV name"
    )

    add_command("scan", "string-stable region over a 2-D gain grid")
    add_command("simulate", "nonlinear chain simulation")

    sp = add_command("reproduce", "run a named reproduction preset", config=False)
    sp.add_argument("preset", choices=sorted(PRESETS), metavar="PRESET",
                    help=f"one of: {', '.join(sorted(PRESETS))}")
    return parser


def _outdir(args) -> Path:
    out = args.output or os.environ.get("LCC_OUTDIR") or "lcc-out"
    return Path(out)


def _load_cfg(args) -> dict:
    """The config file, with ``--set`` applied, validated once."""
    doc = read_config(args.config) if args.config else {}
    return parse_config(apply_overrides(doc, args.overrides))


def _cmd_analyze(args):
    cfg = _load_cfg(args)
    coeffs = coeffs_from_config(cfg)
    model = build_system(SystemVariant(cfg["variant"]), cfg["m"], cfg["n"], coeffs)
    rep = pbh_controllability(model.A, model.B, coeffs=coeffs)
    lines = [
        f"controllable={str(rep.controllable).lower()} "
        f"dim={rep.controllable_dim} condition={rep.condition_value:.4g}"
    ]
    if rep.uncontrollable_mode_eigenvalues:
        modes = " ".join(f"{z:.4g}" for z in rep.uncontrollable_mode_eigenvalues)
        lines.append(f"uncontrollable_modes={modes}")
    if args.k is not None:
        C = build_output_matrix(model, args.k)
        orep = pbh_observability(model.A, C, model=model)
        ids = ",".join(str(v) for v in orep.unobservable_vehicle_ids)
        lines.append(
            f"observable={str(orep.observable).lower()} dim={orep.observable_dim} "
            f"unobservable_vehicles=[{ids}]"
        )
    return lines, []


def _parse_n_range(text: str):
    if ":" in text:
        lo, hi = map(int, text.split(":"))
        for bound in (lo, hi):  # each a count, checked before the range is built
            validate_count("--n-range bound", bound)
        return range(lo, hi + 1)
    return [int(x) for x in text.split(",") if x]


def _cmd_energy(args):
    cfg = _load_cfg(args)
    try:
        n_list = _parse_n_range(args.n_range)
    except ValueError:
        raise ValueError(
            f"--n-range takes lo:hi or a comma list of integers, got {args.n_range!r}"
        ) from None
    if not n_list:
        raise ValueError(f"--n-range names no chain length, got {args.n_range!r}")
    try:
        t_list = [float(x) for x in args.t.split(",") if x]
    except ValueError:
        raise ValueError(f"--t takes a comma list of horizons (s), got {args.t!r}") from None
    rows = energy_scaling_study(coeffs_from_config(cfg), n_list, t_list)
    path = write_csv_atomic(
        _outdir(args) / "energy.csv", ("n", "t", "lambda_min", "trace_inv"), rows
    )
    lines = []
    for n, t, lam, tr in rows:
        tr_text = f"{tr:.6g}" if tr is not None else "singular"
        lines.append(f"n={n} t={t:g} lambda_min={lam:.6g} trace_inv={tr_text}")
    return lines, [path]


def _cmd_stability(args):
    cfg = _load_cfg(args)
    spec = transfer_spec_from_config(cfg)
    grid = grid_from_config(cfg)
    res = is_string_stable(spec, grid)
    omegas = grid.omegas()
    mags = magnitude_curve(spec, omegas)
    path = write_csv_atomic(
        _outdir(args) / f"magnitude-{args.label}.csv",
        ("omega", "mag"),
        zip(omegas.tolist(), mags.tolist()),
    )
    line = (
        f"string_stable={str(res.stable).lower()} peak_mag={res.peak_mag:.6g} "
        f"peak_omega={res.peak_omega:.6g} "
        f"asymptotically_stable={str(res.asymptotically_stable).lower()}"
    )
    return [line], [path]


def _cmd_scan(args):
    cfg = _load_cfg(args)
    spec = transfer_spec_from_config(cfg)
    axis1, axis2 = axes_from_config(cfg)
    region = scan_region(spec, axis1, axis2, grid_from_config(cfg))
    rows = zip(
        np.repeat(axis1.values(), axis2.points).tolist(),
        np.tile(axis2.values(), axis1.points).tolist(),
        region.classes.ravel().tolist(),
    )
    path = write_csv_atomic(_outdir(args) / "region.csv", ("axis1", "axis2", "class"), rows)
    counts = " ".join(f"{code}={np.sum(region.classes == code)}" for code in ("SS", "SU", "AU"))
    return [f"cells {counts}"], [path]


def _cmd_simulate(args):
    cfg = _load_cfg(args)
    trace = simulate(scenario_from_config(cfg))
    out = _outdir(args)
    paths = [write_trace_csv(out / "trace.csv", trace), write_events_csv(out / "events.csv", trace)]
    return [], paths


def _cmd_reproduce(args):
    return [], run_preset(args.preset, _outdir(args))


_COMMANDS = {
    "analyze": _cmd_analyze,
    "energy": _cmd_energy,
    "stability": _cmd_stability,
    "scan": _cmd_scan,
    "simulate": _cmd_simulate,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    """Run ``lcc`` with ``argv`` and return its exit code.

    Each command maps its arguments to ``(lines, paths)``: the summary lines it
    reports and the files it wrote, in the order it wrote them.  Only here are
    they printed, the lines first and then one ``wrote <path>`` line per file,
    so nothing prints before every file is in place.  Errors, a failing print
    among them, map to the exit codes in the module docstring.
    """
    args = _build_parser().parse_args(argv)
    try:
        lines, paths = _COMMANDS[args.command](args)
        for line in [*lines, *(f"wrote {path}" for path in paths)]:
            print(line)
        return EXIT_OK
    except ConfigError as exc:
        print(f"lcc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"lcc: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (LccError, ValueError) as exc:
        print(f"lcc: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"lcc: error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"lcc: error: {args.command} cannot write its output: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
