"""End-to-end CLI behavior: output formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import shlex
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

from lcc import ScenarioConfig, simulate
from lcc.cli import main
from lcc.output import write_text_atomic
from lcc.presets import PRESETS

# SHA-256 of every file each preset writes, as the benchmark records them.
_PRESET_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "references.json").read_text()
)["numpy"]["reproduce"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_line(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--set", "variant=fd", "--set", "n=2")
    assert code == 0
    assert out.splitlines()[0] == "controllable=true dim=6 condition=0.4025"


def test_analyze_uncontrollable_reports_modes(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--set", "variant=general", "--set", "m=1", "--set", "n=1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("controllable=false dim=4")
    assert lines[1].startswith("uncontrollable_modes=")


def test_analyze_observability(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--set", "variant=fd", "--set", "n=3", "--k", "2"
    )
    assert code == 0
    assert "observable=false dim=5 unobservable_vehicles=[0,3]" in out


def test_analyze_fd_paper_scale(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--set", "variant=fd", "--set", "n=8")
    assert code == 0
    assert out.splitlines()[0].startswith("controllable=true dim=18 ")


def test_analyze_general_lists_modes_with_multiplicity(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--set", "variant=general", "--set", "m=2", "--set", "n=20"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("controllable=false dim=42 ")
    assert len(lines[1].removeprefix("uncontrollable_modes=").split()) == 4


@pytest.mark.parametrize(
    "n_range, horizons, bad",
    [
        pytest.param("1:2", "inf", "t=inf", id="inf-t=inf"),
        pytest.param("1:2", "nan", "t=nan", id="nan-t=nan"),
        pytest.param("1:2", ",", "t_list", id=",-t_list"),
        pytest.param("1:2", "10,abc", "--t takes a comma list of horizons (s), got '10,abc'",
                     id="t-10,abc"),
        pytest.param("1:2:3", "10", "--n-range takes lo:hi or a comma list of integers, "
                     "got '1:2:3'", id="n-range-1:2:3"),
        pytest.param("a:3", "10", "--n-range takes lo:hi or a comma list of integers, "
                     "got 'a:3'", id="n-range-a:3"),
        pytest.param("5:1", "10", "--n-range names no chain length, got '5:1'",
                     id="n-range-5:1"),
    ],
)
def test_energy_bad_horizons_exit_code(capsys, tmp_path, n_range, horizons, bad):
    code, _, err = run_cli(
        capsys, "energy", "--n-range", n_range, "--t", horizons, "-o", str(tmp_path)
    )
    assert code == 4
    assert bad in err
    assert not (tmp_path / "energy.csv").exists()


def test_energy_csv_blank_when_singular(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "energy", "--n-range", "5:5", "--t", "10", "-o", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "energy.csv").read_text().splitlines()
    assert lines[0] == "n,t,lambda_min,trace_inv"
    assert lines[1].startswith("5,10,")
    assert lines[1].endswith(",")  # singular Gramian leaves the cell blank
    assert "singular" in out


def test_stability_command(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "stability", "--set", "m=2", "--set", "n=2", "-o", str(tmp_path)
    )
    assert code == 0
    assert "string_stable=false" in out
    lines = (tmp_path / "magnitude-spec.csv").read_text().splitlines()
    assert lines[0] == "omega,mag"
    assert len(lines) == 1001


def test_scan_command(capsys, tmp_path):
    cfg = {
        "variant": "general",
        "m": 2,
        "n": 2,
        "scan": {
            "axis1": {"vehicle": 1, "component": "mu", "lo": -6, "hi": 6, "points": 5},
            "axis2": {"vehicle": 1, "component": "k", "lo": -6, "hi": 6, "points": 5},
        },
    }
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "scan", "--config", str(path), "-o", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "region.csv").read_text().splitlines()
    assert rows[0] == "axis1,axis2,class"
    assert len(rows) == 26
    classes = {row.split(",")[2] for row in rows[1:]}
    assert classes <= {"SS", "SU", "AU"}


def test_simulate_command(capsys, tmp_path):
    cfg = {
        "variant": "fd",
        "n": 2,
        "horizon": 5.0,
        "controller": {"mode": "explicit"},
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "-o", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,vehicle,pos,vel,acc,spacing"
    assert len(lines) == 1 + 501 * 3
    assert (tmp_path / "events.csv").read_text().splitlines()[0] == "t,vehicle,event"


def test_overrides_through_cli(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--set",
        "variant=fd",
        "--set",
        "n=2",
        "--set",
        "driver.beta=2.0",
    )
    assert code == 0
    # beta=2.0 changes the condition value away from the default setup
    assert "condition=0.4025" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--set", "variant=general", "--set", "m=2", "--set", "scan.axis1.vehicle=1",
         "--set", "scan.axis1.component=mu", "--set", "scan.axis1.points=3",
         "--set", "scan.axis2.vehicle=1", "--set", "scan.axis2.component=k",
         "--set", "scan.axis2.points=3"],
        ["simulate", "--set", "variant=fd", "--set", "controller.mode=explicit",
         "--set", "horizon=2", "--set", "heterogeneity.delay_base=0.2"],
    ],
    ids=["scan-axes", "heterogeneity"],
)
def test_set_completes_an_empty_config_file(capsys, tmp_path, argv):
    """``--set`` applies to the file as written, before validation: it can
    fill a section that ``{}`` leaves null, as it does with no file."""
    path = tmp_path / "empty.json"
    path.write_text("{}")
    outputs = []
    for config in (["--config", str(path)], []):
        out = tmp_path / ("with" if config else "without")
        code, _, err = run_cli(capsys, *argv, *config, "-o", str(out))
        assert code == 0, err
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_bad_config_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variant": "warp-drive"}))
    code, _, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 3
    assert "variant" in err


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"\xff\xfe{\x00}\x00"), "can't decode byte 0xff"),
        (lambda path: path.write_text("{"), "is not valid JSON"),
    ],
    ids=["missing", "directory", "utf-16", "not-json"],
)
def test_unreadable_config_is_a_config_error(capsys, tmp_path, make, reason):
    path = tmp_path / "config.json"
    make(path)
    code, _, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 3
    assert err.startswith("lcc: config error: ")
    assert str(path) in err and reason in err


_AXIS2 = '"axis2": {"vehicle": 1, "component": "k"}'


@pytest.mark.parametrize(
    "argv, key",
    [
        (["analyze", "--set", 'variant="general"', "--set", "m=2.0", "--set", "n=1"], "m"),
        (["analyze", "--set", "seed=5.0"], "seed"),
        (["stability", "--set", "m=2", "--set", "n=2", "--set", "frequency.points=50.0"],
         "frequency.points"),
        (["scan", "--set", "variant=general", "--set", "m=2",
          "--set", 'scan={"axis1": {"vehicle": 1.0, "component": "mu"}, ' + _AXIS2 + "}"],
         "scan.axis1.vehicle"),
        (["simulate", "--set", "horizon=Infinity"], "horizon"),
        (["simulate", "--set", "driver.delay=Infinity"], "driver.delay"),
        (["simulate", "--set", "dt=NaN"], "dt"),
        (["simulate", "--set", 'perturbation={"kind": "follower-brake", "amplitude": 9}'],
         "perturbation.amplitude"),
        (["simulate", "--set", 'perturbation={"kind": "head-sinusoid", "vehicle": 1}'],
         "perturbation.vehicle"),
        (["simulate", "--set", 'controller={"ovm_baseline": true}'], "controller.ovm_baseline"),
        (["simulate", "--set", "variant=cf", "--set", "n=1",
          "--set", "heterogeneity.delay_base=0.4", "--set", "seed=-1"], "seed"),
    ],
    ids=["int-as-float", "seed-float", "points-float", "axis-vehicle-float", "horizon-inf",
         "delay-inf", "dt-nan", "brake-amplitude", "sinusoid-vehicle", "ovm-baseline-unknown",
         "seed-negative"],
)
def test_bad_config_value_names_key(capsys, tmp_path, argv, key):
    code, _, err = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert code == 3
    assert f"invalid config at $.{key}:" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, named",
    [
        # Gramians take the paper's fixed step: the config's dt does not reach them
        (["energy", "--n-range", "1:1", "--t", "1e300", "--set", "dt=1e-10"],
         "steps of 0.01 s, got t=1e+300"),
        (["simulate", "--set", 'variant="cf"', "--set", "n=1", "--set", "horizon=1e300",
          "--set", "dt=1e-10"], "dt=1e-10"),
        # a finite step count, but 1e302 RK4 steps: refused, not run
        (["energy", "--n-range", "1:1", "--t", "1e300"], "steps of 0.01 s, got t=1e+300"),
    ],
    ids=["energy", "simulate", "energy-default-dt"],
)
def test_step_count_overflow_exit_code(capsys, tmp_path, argv, named):
    code, _, err = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert code == 4
    assert "1e+300" in err and named in err
    assert not list(tmp_path.iterdir())


_SCAN_PANEL = [
    "--set", "variant=general", "--set", "m=2",
    "--set", 'scan={"axis1": {"vehicle": 1, "component": "mu"}, ' + _AXIS2 + "}",
]


@pytest.mark.parametrize("argv", [["stability"], ["scan", *_SCAN_PANEL]], ids=["stability", "scan"])
def test_omega_max_with_overflowing_square_exit_code(capsys, tmp_path, argv):
    """The verdicts work in x = omega^2: an omega_max whose square overflows is
    refused by name, not left to raise OverflowError."""
    code, out, err = run_cli(
        capsys, *argv, "--set", "frequency.omega_max=1e300", "-o", str(tmp_path)
    )
    assert (code, out) == (4, "")
    assert err.startswith("lcc: error: omega_max must be finite, with a finite square")
    assert "got 1e+300" in err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_omega_min_with_subnormal_square_exit_code(capsys, tmp_path):
    """An omega_min whose square underflows is a config error naming the key,
    not a verdict with its peak at omega = 0, outside the range."""
    code, out, err = run_cli(
        capsys, "stability", "--set", "frequency.omega_min=1e-170",
        "--set", "frequency.omega_max=1e-160", "-o", str(tmp_path),
    )
    assert (code, out) == (3, "")
    assert err.startswith("lcc: config error: invalid config at $.frequency.omega_min: ")
    assert "got 1e-170" in err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_gramian_blow_up_exit_code(capsys, tmp_path):
    """A fast driver (alpha = 1e3) makes the t = 10 s RK4 path overflow: one line
    that names the horizon and the step, and no numpy warning before it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "energy", "--set", "driver.alpha=1e3", "--n-range", "1", "--t", "10",
            "-o", str(tmp_path),
        )
    assert (code, out, caught) == (5, "", [])
    assert err == (
        "lcc: numerical error: Gramian integration produced non-finite entries at "
        "horizon t=10.0 with RK4 step GRAMIAN_DT=0.01 s\n"
    )
    assert not list(tmp_path.iterdir())


def test_simulate_step_beyond_numpy_dimension_limit(capsys, tmp_path):
    """numpy refuses 1e302 trace rows with a ValueError, not a MemoryError;
    the message still names the horizon and the step."""
    with pytest.raises(ValueError, match=r"horizon=100.0 at dt=1e-300 needs 1e\+302 trace rows"):
        simulate(ScenarioConfig(dt=1e-300))
    code, out, err = run_cli(capsys, "simulate", "--set", "dt=1e-300", "-o", str(tmp_path))
    assert (code, out) == (4, "")
    assert err.startswith("lcc: error: horizon=100.0 at dt=1e-300 needs ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, where",
    [
        (["reproduce", "table1"], ""),
        (["simulate"], "x"),
        (["stability", "--set", "m=2", "--set", "n=2"], ""),
    ],
    ids=["reproduce-existing-file", "simulate-below-a-file", "stability-existing-file"],
)
def test_unwritable_output_exit_code(capsys, tmp_path, argv, where):
    """An -o that names a file, or a path below one, exits 4 naming the
    path, and prints no result before the failed write."""
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out_dir = blocker / where if where else blocker
    code, out, err = run_cli(capsys, *argv, "-o", str(out_dir))
    assert (code, out) == (4, "")
    assert err.startswith(f"lcc: error: {argv[0]} cannot write its output: ")
    assert str(out_dir) in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["a-file"]


def test_failed_analyze_prints_nothing(capsys):
    """The controllability lines wait for the observability report."""
    code, out, err = run_cli(
        capsys, "analyze", "--set", "variant=general", "--set", "m=1", "--set", "n=1",
        "--k", "5",
    )
    assert (code, out) == (4, "")
    assert err == "lcc: error: k must lie in 1..1, got 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--set", 'gains={"0": [1, 1]}'],
        ["scan", "--set", "n=2", "--set", 'scan={"axis1": {"vehicle": 0, "component": "mu"}, '
         + _AXIS2 + "}"],
    ],
    ids=["stability", "scan-axis"],
)
def test_gain_on_the_cav_is_refused(capsys, tmp_path, argv):
    """With m = 0 the message names the followers only, not "-0..-1"."""
    code, out, err = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert (code, out) == (4, "")
    assert err == "lcc: error: gain ids [0] outside 1..2\n"


def test_simulate_out_of_memory_exit_code(capsys, tmp_path, trace_rows_out_of_memory):
    code, _, err = run_cli(
        capsys, "simulate", "--set", 'variant="cf"', "--set", "n=1", "--set", "horizon=1e12",
        "-o", str(tmp_path),
    )
    assert code == 4
    assert "horizon=1000000000000.0" in err and "trace rows" in err
    assert not list(tmp_path.iterdir())


def test_scan_out_of_memory_exit_code(capsys, tmp_path, monkeypatch):
    """A gain grid too large for memory exits 4 and names the command.

    ``scan_region`` lays out the grid's cells with ``np.repeat``; past
    1e5 cells it raises numpy's MemoryError here, without allocating.
    """
    real_repeat = np.repeat

    def repeat(a, repeats, *args, **kwargs):
        if np.size(a) * np.max(repeats) > 1e5:
            raise MemoryError("Unable to allocate 7.45 MiB for an array")
        return real_repeat(a, repeats, *args, **kwargs)

    monkeypatch.setattr(np, "repeat", repeat)
    axes = {
        "axis1": {"vehicle": 1, "component": "mu", "points": 1000},
        "axis2": {"vehicle": 1, "component": "k", "points": 1000},
    }
    code, _, err = run_cli(
        capsys, "scan", "--set", "n=2", "--set", f"scan={json.dumps(axes)}", "-o", str(tmp_path)
    )
    assert code == 4
    assert err == "lcc: error: scan ran out of memory: Unable to allocate 7.45 MiB for an array\n"
    assert not list(tmp_path.iterdir())


def test_default_chain_simulates(capsys, tmp_path):
    """The default scenario and the default config run as they stand."""
    trace = simulate(ScenarioConfig())
    assert np.abs(trace.velocity - trace.v_star).max() < 1e-9
    code, _, err = run_cli(capsys, "simulate", "-o", str(tmp_path))
    assert (code, err) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "trace.csv"]
    code, out, _ = run_cli(capsys, "analyze", "-o", str(tmp_path))
    assert (code, out) == (0, "controllable=true dim=6 condition=0.4025\n")


def test_simulate_delay_past_horizon(capsys, tmp_path):
    traces = []
    for delay in ("1e300", "6"):
        out = tmp_path / delay
        code, _, _ = run_cli(
            capsys, "simulate", "--set", "variant=cf", "--set", "n=1", "--set", "horizon=5",
            "--set", 'perturbation={"kind": "head-sinusoid", "start": 1}',
            "--set", f"driver.delay={delay}", "-o", str(out),
        )
        assert code == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--set", "variant=general", "--set", "m=0", "--set", "n=2"
    )
    assert code == 4
    assert "general" in err


def test_unknown_command_and_preset(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig99"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_help_lists_commands_and_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("analyze", "energy", "stability", "scan", "simulate", "reproduce"):
        assert cmd in out
    for key in ("v_star", "driver.alpha", "perturbation.kind", "scan.axis1"):
        assert key in out
    assert "m/s" in out  # units documented


def test_outdir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LCC_OUTDIR", str(tmp_path / "from-env"))
    code, _, _ = run_cli(capsys, "energy", "--n-range", "1:1", "--t", "5")
    assert code == 0
    assert (tmp_path / "from-env" / "energy.csv").exists()


def test_reproduce_byte_identical(capsys, tmp_path):
    for directory in ("a", "b"):
        code, _, _ = run_cli(capsys, "reproduce", "table2", "-o", str(tmp_path / directory))
        assert code == 0
    assert (tmp_path / "a" / "table2.csv").read_bytes() == (
        tmp_path / "b" / "table2.csv"
    ).read_bytes()
    lines = (tmp_path / "a" / "table2.csv").read_text().splitlines()
    assert lines[0] == "strategy,aave,fc,aave_reduction_pct,fc_reduction_pct"
    assert [row.split(",")[0] for row in lines[1:]] == ["looking-ahead", "fd-lcc", "cf-lcc"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_reproduce_csv_mode_follows_umask(capsys, tmp_path, umask):
    """Atomic writes give the mode a plain open() would, not mkstemp's 0600."""
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "reproduce", "table1", "-o", str(tmp_path))
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    assert code == 0
    mode = stat.S_IMODE((tmp_path / "table1.csv").stat().st_mode)
    assert mode == 0o666 & ~umask
    assert mode == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)


def test_atomic_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    """Changing the umask is process-wide: another thread's files would get 0666."""

    def umask(mask):
        raise AssertionError(f"umask set to {mask:o}")

    monkeypatch.setattr(os, "umask", umask)
    path = write_text_atomic(tmp_path / "out.csv", "a,b\n")
    assert path.read_text() == "a,b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_runs(capsys, tmp_path, preset):
    """Each preset writes the bytes recorded in the benchmark's reference digests."""
    code, out, _ = run_cli(capsys, "reproduce", preset, "-o", str(tmp_path))
    assert code == 0
    assert "wrote" in out
    written = [line.split(" ", 1)[1] for line in out.splitlines() if line.startswith("wrote")]
    for path in written:
        text = open(path).read()
        assert text.endswith("\n") and "," in text.splitlines()[0]
    digests = {
        Path(path).name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in written
    }
    assert digests == _PRESET_DIGESTS[preset]


def test_reproduce_rejects_step_option(capsys, tmp_path):
    """Presets pin the paper's step; there is no --dt to override it."""
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "table1", "--dt", "0.02", "-o", str(tmp_path)])
    assert exc.value.code == 2
    assert "--dt" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (["energy", "--n", "1", "--t", "5"], "--n 1"),
        (["stability", "--s", "m=2", "--l", "x"], "--s m=2 --l x"),
    ],
)
def test_abbreviated_flags_are_usage_errors(capsys, tmp_path, argv, unknown):
    """A prefix of a flag is not that flag: ``--n`` is not ``--n-range``."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-o", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    """Every ``lcc`` line of README's CLI block exits 0, with the example
    config files it names written from README's JSON blocks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1]
    commands = re.search(r"```bash\n(.*?)```", cli_section, re.S).group(1)
    lines = [line for line in commands.splitlines() if line.startswith("lcc ")]
    assert len(lines) >= 7
    examples = dict(re.findall(r"Example `([\w.]+)`[^`]*?```json\n(.*?)```", cli_section, re.S))
    assert sorted(examples) == ["scan.json", "scenario.json"]
    monkeypatch.chdir(tmp_path)
    for name, text in examples.items():
        Path(name).write_text(text)
    for line in lines:
        argv = shlex.split(line)[1:]
        if "-o" not in argv:
            argv += ["-o", "out"]
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), line
