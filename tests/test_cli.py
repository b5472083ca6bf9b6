"""End-to-end CLI behavior: output formats, exit codes, determinism."""

import json
import os
import stat

import pytest

from lcc.cli import main
from lcc.presets import PRESETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_line(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--variant", "fd", "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "controllable=true dim=6 condition=0.4025"


def test_analyze_uncontrollable_reports_modes(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--variant", "general", "--m", "1", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("controllable=false dim=4")
    assert lines[1].startswith("uncontrollable_modes=")


def test_analyze_observability(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--variant", "fd", "--n", "3", "--k", "2"
    )
    assert code == 0
    assert "observable=false dim=5 unobservable_vehicles=[0,3]" in out


def test_analyze_fd_paper_scale(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--variant", "fd", "--n", "8")
    assert code == 0
    assert out.splitlines()[0].startswith("controllable=true dim=18 ")


def test_analyze_general_lists_modes_with_multiplicity(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--variant", "general", "--m", "2", "--n", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("controllable=false dim=42 ")
    assert len(lines[1].removeprefix("uncontrollable_modes=").split()) == 4


@pytest.mark.parametrize("horizons, bad", [("inf", "t=inf"), ("nan", "t=nan"), (",", "t_list")])
def test_energy_bad_horizons_exit_code(capsys, tmp_path, horizons, bad):
    code, _, err = run_cli(
        capsys, "energy", "--n-range", "1:2", "--t", horizons, "-o", str(tmp_path)
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
        capsys, "stability", "--m", "2", "--n", "2", "-o", str(tmp_path)
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
        "--variant",
        "fd",
        "--n",
        "2",
        "--set",
        "driver.beta=2.0",
    )
    assert code == 0
    # beta=2.0 changes the condition value away from the default setup
    assert "condition=0.4025" not in out


def test_bad_config_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variant": "warp-drive"}))
    code, _, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 3
    assert "variant" in err


_AXIS2 = '"axis2": {"vehicle": 1, "component": "k"}'


@pytest.mark.parametrize(
    "argv, key",
    [
        (["analyze", "--set", 'variant="general"', "--set", "m=2.0", "--set", "n=1"], "m"),
        (["analyze", "--set", "seed=5.0"], "seed"),
        (["stability", "--m", "2", "--n", "2", "--set", "frequency.points=50.0"],
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
    ],
    ids=["int-as-float", "seed-float", "points-float", "axis-vehicle-float", "horizon-inf",
         "delay-inf", "dt-nan", "brake-amplitude", "sinusoid-vehicle"],
)
def test_bad_config_value_names_key(capsys, tmp_path, argv, key):
    code, _, err = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert code == 3
    assert f"invalid config at $.{key}:" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--n-range", "1:1", "--t", "1e300", "--set", "dt=1e-10"],
        ["simulate", "--set", 'variant="cf"', "--set", "n=1", "--set", "horizon=1e300",
         "--set", "dt=1e-10"],
    ],
    ids=["energy", "simulate"],
)
def test_step_count_overflow_exit_code(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv, "-o", str(tmp_path))
    assert code == 4
    assert "1e+300" in err and "1e-10" in err
    assert not list(tmp_path.iterdir())


def test_simulate_out_of_memory_exit_code(capsys, tmp_path, trace_rows_out_of_memory):
    code, _, err = run_cli(
        capsys, "simulate", "--set", 'variant="cf"', "--set", "n=1", "--set", "horizon=1e12",
        "-o", str(tmp_path),
    )
    assert code == 4
    assert "horizon=1000000000000.0" in err and "trace rows" in err
    assert not list(tmp_path.iterdir())


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
    code, _, err = run_cli(capsys, "analyze", "--variant", "general", "--m", "0", "--n", "2")
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

@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_runs(capsys, tmp_path, preset):
    code, out, _ = run_cli(capsys, "reproduce", preset, "-o", str(tmp_path))
    assert code == 0
    assert "wrote" in out
    written = [line.split(" ", 1)[1] for line in out.splitlines() if line.startswith("wrote")]
    for path in written:
        text = open(path).read()
        assert text.endswith("\n") and "," in text.splitlines()[0]
