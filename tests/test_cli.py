"""End-to-end CLI behavior: output formats, exit codes, determinism."""

import errno
import hashlib
import importlib
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lcc
from lcc import ScenarioConfig, cli, output, simulate
from lcc.cli import main
from lcc.output import write_text_atomic, write_trace_csv
from lcc.presets import PRESETS

from cli_cases import CASES, check

# SHA-256 of every file each preset writes, as the benchmark records them.
_PRESET_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "references.json").read_text()
)["numpy"]["reproduce"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_cli_case(capsys, tmp_path, monkeypatch, deadline, case):
    """Each row of the CLI case table, run in-process in an empty directory; a
    warning goes to stderr, as a child process would print it."""

    def run(argv, seconds):
        with deadline(seconds), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors, --help and --version
                code = exc.code
        out, err = capsys.readouterr()
        err += "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                       for w in caught)
        return code, out, err, None

    monkeypatch.chdir(tmp_path)
    check(case, run, tmp_path)


def test_console_script_is_cli_main():
    """The ``lcc`` script pyproject.toml declares, which the table runs as a child
    process, is the ``main`` that tier-1 runs in-process."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    module, _, name = project["scripts"]["lcc"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_version_is_the_packages_version():
    """``lcc --version`` and the wheel's version come from two files; they agree."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"(?ms)^\[project\]$(.*?)(?=^\[|\Z)", pyproject).group(1)
    [version] = re.findall(r'(?m)^version\s*=\s*"([^"]+)"$', project)
    assert version == lcc.__version__


def test_key_error_is_a_bug_not_an_exit_code(capsys, monkeypatch):
    """``main`` maps no ``KeyError`` to an exit code: the CLI raises none by design,
    so one is a bug and keeps its traceback."""

    def broken(args):
        raise KeyError("key")

    monkeypatch.setitem(cli._COMMANDS, "analyze", broken)
    with pytest.raises(KeyError, match="key"):
        main(["analyze"])
    assert capsys.readouterr() == ("", "")


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
    classes = [row.split(",")[2] for row in rows[1:]]
    assert set(classes) <= {"SS", "SU", "AU"}
    counts = " ".join(f"{cls}={classes.count(cls)}" for cls in ("SS", "SU", "AU"))
    assert out.splitlines()[0] == f"cells {counts}"


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


def test_simulate_step_beyond_numpy_dimension_limit():
    """numpy refuses 1e302 trace rows with a ValueError, not a MemoryError;
    the message still names the horizon and the step (and the CLI's exit 4 in
    the case table)."""
    with pytest.raises(ValueError, match=r"horizon=100.0 at dt=1e-300 needs 1e\+302 trace rows"):
        simulate(ScenarioConfig(dt=1e-300))


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


def test_atomic_write_is_utf8_with_line_endings_as_given(tmp_path):
    """The bytes do not follow the platform or the locale: text is encoded
    as UTF-8, and neither "\n" nor "\r\n" is translated.  A child process
    writes the same text under the C locale, with neither locale coercion
    nor UTF-8 mode, where Python's locale encoding is ASCII."""
    text = "t,vehicle\r\n0,\u00e9\n1,\u00b5\r\n"
    path = write_text_atomic(tmp_path / "out.csv", text)
    assert path.read_bytes() == text.encode()
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(Path(output.__file__).parents[1]))
    code = f"from lcc.output import write_text_atomic; write_text_atomic('c.csv', {ascii(text)})"
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, check=True, timeout=60)
    assert (tmp_path / "c.csv").read_bytes() == text.encode()


def _fail_write_call(monkeypatch, call, directory):
    """Make the ``call``-th write on each handle ``os.fdopen`` opens raise
    OSError; return the (name, size) of each temp file in ``directory`` at
    each failure, once the writes before it are flushed."""
    seen = []
    real_fdopen = os.fdopen

    def fdopen(*args, **kwargs):
        fh = real_fdopen(*args, **kwargs)
        real_write = fh.write
        calls = 0

        def write(text):
            nonlocal calls
            calls += 1
            if calls == call:
                fh.flush()
                seen.extend((p.name, p.stat().st_size) for p in directory.glob(".*.tmp"))
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(text)

        fh.write = write
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen)
    return seen


def _write_long_trace(path):
    trace = simulate(ScenarioConfig(horizon=100.0))
    assert len(trace.times) > 2 * output._TRACE_CHUNK
    return write_trace_csv(path, trace)


@pytest.mark.parametrize(
    "write, call",
    [
        # the header, the first chunk, then the second chunk fails
        pytest.param(_write_long_trace, 3, id="trace-second-chunk"),
        pytest.param(lambda path: write_text_atomic(path, "a,b\n1,2\n"), 1, id="text"),
    ],
)
def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch, write, call):
    """A write that fails midway propagates its error, leaves an existing
    target with its old bytes, and unlinks the temp file it was filling."""
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    seen = _fail_write_call(monkeypatch, call, tmp_path)
    with pytest.raises(OSError, match="No space left on device"):
        write(target)
    [(name, size)] = seen
    assert name.startswith(".out.csv.") and (size > 0) == (call > 1)
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_simulate_failing_midway_exit_code(capsys, tmp_path, monkeypatch):
    """``lcc simulate`` whose trace write fails in its second chunk exits 4
    and leaves the files of the run before it as they were."""
    code, _, _ = run_cli(capsys, "simulate", "--set", "horizon=50", "-o", str(tmp_path))
    assert code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["events.csv", "trace.csv"]
    seen = _fail_write_call(monkeypatch, 3, tmp_path)
    code, out, err = run_cli(capsys, "simulate", "-o", str(tmp_path))
    assert (code, out) == (4, "")
    assert err.startswith("lcc: error: simulate cannot write its output: ")
    assert "No space left on device" in err and err.count("\n") == 1
    [(name, size)] = seen
    assert name.startswith(".trace.csv.") and size > 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


def test_readme_library_example_runs(capsys):
    """README's Library block runs as written, so ``lcc`` still exports every
    name it shows."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    verdict, metrics = capsys.readouterr().out.splitlines()
    assert verdict.startswith("StringStabilityResult(verdict='SS', ")
    assert all(float(x) > 0 for x in metrics.split())