"""Every ``lcc`` exit-code case in one table, and the one check each row gets.

A row is a command line, the exit code it must end with and a regex its stderr
must hold.  In the command line, and in the regex, ``{out}`` is an output
directory that does not exist yet and ``{file}`` an empty regular file beside
it.  ``check`` holds every row to what the CLI keeps on every run:

- a run that fails prints nothing on stdout and no traceback, and writes
  nothing: the directory holding ``{out}`` and ``{file}`` keeps only the file,
  still empty;
- exits 3, 4 and 5 write one line to stderr, ``lcc: ...``, and an exit 3 names
  the ``$.key`` it refuses;
- a run that succeeds writes nothing to stderr;
- a run ends within ``SECONDS``.

tier-1 runs each row in-process through ``lcc.cli.main``
(``tests/test_cli.py::test_cli_case``).  As a script, this module runs each row
through the ``lcc`` console script beside ``sys.executable``, in a child
process, which also measures its peak memory::

    python tests/cli_cases.py
"""

import functools
import re
import resource
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Case:
    id: str
    argv: str  # a shell-quoted command line, after ``lcc``
    code: int
    stderr: str = ""  # a regex that stderr holds
    stdout: str = ""  # a regex that stdout holds
    lines: dict = field(default_factory=dict)  # file name in {out}: its line count
    peak_rss_mib: Optional[float] = None  # measured only in a child process


# each row's deadline: a case that once hung fails instead
SECONDS = 20

_AXES = """'scan={"axis1": {"vehicle": 1, "component": "mu"}, "axis2": {"vehicle": 1, "component": "k"}}'"""
_PANEL = "--set variant=general --set m=2 --set " + _AXES
_HEAD_SINUSOID = "simulate --set variant=general --set m=2 --set n=2 --set perturbation.kind=head-sinusoid"
_HUGE = str(10**20)
# a count past n's limit, named as $.n by config, or as n by the library for --n-range
_HUGE_N = r"(\$\.n: | n )must be .*<= 100, got "
# test_sim's collision scenario: HDV 1 brakes hard in front of HDV 2
_FOLLOWER_BRAKE = ("simulate --set variant=fd --set n=2 --set horizon=40 --set controller.mode=explicit "
                   "--set perturbation.kind=follower-brake --set perturbation.vehicle=1 "
                   "--set perturbation.decel=-5 --set perturbation.duration=3 --set perturbation.start=5")
_OMEGA_MAX = r"^lcc: config error: invalid config at \$\.frequency\.omega_max: "

CASES = [
    # what the commands print and write
    Case("version", "--version", 0, stdout=r"^lcc \d+\.\d+\.\d+$"),
    # each key's help text comes from its dataclass field
    Case("help", "--help", 0,
         stdout=r"(?m)^  driver\.alpha +OVM desired-velocity gain \(1/s\), > 0$"),
    Case("reproduce-table1", "reproduce table1 -o {out}", 0, lines={"table1.csv": 6}),
    Case("reproduce-appendixC", "reproduce appendixC -o {out}", 0, lines={"appendixC.csv": 4}),
    Case("reproduce-fig10-fd", "reproduce fig10-fd -o {out}", 0,
         lines={"fig10-fd.csv": 44012, "fig10-fd-events.csv": 1}),
    Case("simulate-default", "simulate -o {out}", 0, lines={"trace.csv": 40005, "events.csv": 1}),
    # HDV 1 reacts at once and HDV 2 three steps late: each block of two
    # steps takes HDV 2 in the block pass, then the CAV and HDV 1 row by row
    Case("simulate-mixed-delays",
         "simulate --set heterogeneity.delay_base=0.02 --set heterogeneity.delay_jitter=0.02 -o {out}",
         0, lines={"trace.csv": 40005, "events.csv": 1}),
    # a long trace streams to its file chunk by chunk, never held whole:
    # 200,001 steps x 4 vehicles and the header
    Case("simulate-long-trace", "simulate --set horizon=2000 -o {out}", 0,
         lines={"trace.csv": 800005}, peak_rss_mib=120),
    # heterogeneous drivers on a chain with no HDVs: none drawn, and the head
    # and the CAV run 101 steps
    Case("simulate-heterogeneity-no-hdvs",
         "simulate --set variant=cf --set n=0 --set heterogeneity={} --set horizon=1 -o {out}", 0,
         lines={"trace.csv": 203, "events.csv": 1}),
    # both axes at their defaults: 101 x 101 cells in one chunk
    Case("scan-default-axes", "scan " + _PANEL + " -o {out}", 0, lines={"region.csv": 10202}),
    Case("scan-axes-at-the-gain-limit",
         """scan --set variant=general --set m=2 --set 'scan={"axis1": {"vehicle": 1, "component": "mu", """
         """"lo": -1e6, "hi": 1e6, "points": 3}, "axis2": {"vehicle": 1, "component": "k", """
         """"lo": -1e6, "hi": 1e6, "points": 3}}' -o {out}""", 0, lines={"region.csv": 10}),
    # usage errors
    Case("usage-unknown-command", "frobnicate", 2, r"invalid choice: 'frobnicate'"),
    Case("usage-unknown-preset", "reproduce fig99", 2, r"invalid choice: 'fig99'"),
    # presets pin the paper's step
    Case("usage-reproduce-dt", "reproduce table1 --dt 0.02 -o {out}", 2,
         r"unrecognized arguments: --dt 0\.02"),
    # a prefix of a flag is not that flag: --n is not --n-range
    Case("usage-abbreviated-n", "energy --n 1 --t 5 -o {out}", 2, r"unrecognized arguments: --n 1$"),
    Case("usage-abbreviated-s-l", "stability --s m=2 --l x -o {out}", 2,
         r"unrecognized arguments: --s m=2 --l x$"),
    # the label names a file inside -o
    Case("usage-label-parent-dir", "stability --label ../../etc -o {out}", 2,
         r"argument --label: must not contain a path separator"),
    Case("usage-label-subdir", "stability --label a/b -o {out}", 2,
         r"argument --label: must not contain a path separator"),
    # a key past its own limit, or of the wrong type, is a config error naming the key
    Case("config-int-as-float", """analyze --set 'variant="general"' --set m=2.0 --set n=1 -o {out}""",
         3, r"invalid config at \$\.m:"),
    Case("config-seed-float", "analyze --set seed=5.0 -o {out}", 3, r"invalid config at \$\.seed:"),
    Case("config-points-float", "stability --set m=2 --set n=2 --set frequency.points=50.0 -o {out}",
         3, r"invalid config at \$\.frequency\.points:"),
    Case("config-axis-vehicle-float",
         """scan --set variant=general --set m=2 --set 'scan={"axis1": {"vehicle": 1.0, "component": "mu"}, """
         """"axis2": {"vehicle": 1, "component": "k"}}' -o {out}""",
         3, r"invalid config at \$\.scan\.axis1\.vehicle:"),
    Case("config-horizon-inf", "simulate --set horizon=Infinity -o {out}", 3,
         r"invalid config at \$\.horizon:"),
    Case("config-delay-inf", "simulate --set driver.delay=Infinity -o {out}", 3,
         r"invalid config at \$\.driver\.delay:"),
    Case("config-dt-nan", "simulate --set dt=NaN -o {out}", 3, r"invalid config at \$\.dt:"),
    Case("config-brake-amplitude",
         """simulate --set 'perturbation={"kind": "follower-brake", "amplitude": 9}' -o {out}""",
         3, r"invalid config at \$\.perturbation\.amplitude:"),
    Case("config-sinusoid-vehicle",
         """simulate --set 'perturbation={"kind": "head-sinusoid", "vehicle": 1}' -o {out}""",
         3, r"invalid config at \$\.perturbation\.vehicle:"),
    Case("config-ovm-baseline-unknown", """simulate --set 'controller={"ovm_baseline": true}' -o {out}""",
         3, r"invalid config at \$\.controller\.ovm_baseline:"),
    Case("config-seed-negative",
         "simulate --set variant=cf --set n=1 --set heterogeneity.delay_base=0.4 --set seed=-1 -o {out}",
         3, r"invalid config at \$\.seed:"),
    # "01" names vehicle 1 a second time; one of the two pairs was once lost, exit 0
    Case("config-gain-id-two-spellings",
         """stability --set m=2 --set n=2 --set 'gains={"1": [-1, -1], "01": [5, 5]}' -o {out}""",
         3, r"invalid config at \$\.gains\.01:"),
    Case("config-s_st-negative", "simulate --set driver.s_st=-1 -o {out}", 3,
         r"invalid config at \$\.driver\.s_st:"),
    # the verdicts work in x = omega^2: a square that overflows or is subnormal is past the limit
    Case("omega_max-square-overflows-stability-1e300",
         "stability --set frequency.omega_max=1e300 -o {out}", 3,
         _OMEGA_MAX + r".*<= 1\.3407807929942596e\+154, got 1e\+300$"),
    Case("omega_max-square-overflows-stability-1e200",
         "stability --set frequency.omega_max=1e200 -o {out}", 3,
         _OMEGA_MAX + r".*<= 1\.3407807929942596e\+154, got 1e\+200$"),
    Case("omega_max-square-overflows-scan-1e300",
         "scan " + _PANEL + " --set frequency.omega_max=1e300 -o {out}", 3,
         _OMEGA_MAX + r".*<= 1\.3407807929942596e\+154, got 1e\+300$"),
    Case("omega_max-square-overflows-scan-1e200",
         "scan " + _PANEL + " --set frequency.omega_max=1e200 -o {out}", 3,
         _OMEGA_MAX + r".*<= 1\.3407807929942596e\+154, got 1e\+200$"),
    # no omega_min could lie below an omega_max at or below omega_min's floor
    Case("omega_max-below-omega_min-floor", "stability --set frequency.omega_max=1e-300 -o {out}", 3,
         _OMEGA_MAX + r".*must be > 1\.4916681462400413e-154, got 1e-300$"),
    Case("omega_min-square-subnormal",
         "stability --set frequency.omega_min=1e-170 --set frequency.omega_max=1e-100 -o {out}", 3,
         r"^lcc: config error: invalid config at \$\.frequency\.omega_min: .*got 1e-170$"),
    # a scanned gain stops where round-off would start to decide a cell's class
    Case("scan-axis1-lo-past-the-gain-limit",
         "scan " + _PANEL + " --set scan.axis1.lo=-1000000.0000000001 -o {out}", 3,
         r"invalid config at \$\.scan\.axis1\.lo: must be >= -1e6, got -1000000\.0000000001$"),
    Case("scan-axis2-hi-past-the-gain-limit",
         "scan " + _PANEL + " --set scan.axis2.hi=1000000.0000000001 -o {out}", 3,
         r"invalid config at \$\.scan\.axis2\.hi: must be >= -1e6 and <= 1e6, "
         r"got 1000000\.0000000001$"),
    # a count past n's limit fails at once: it once walked range(1, n + 1), which
    # hung, or overflowed len() in a traceback
    Case("huge-n-analyze", f"analyze --set n={_HUGE} -o {{out}}", 3, _HUGE_N),
    Case("huge-n-stability", f"stability --set n={_HUGE} -o {{out}}", 3, _HUGE_N),
    Case("huge-n-scan", f"scan --set n={_HUGE} --set {_AXES} -o {{out}}", 3, _HUGE_N),
    Case("huge-n-simulate", f"simulate --set n={_HUGE} -o {{out}}", 3, _HUGE_N),
    Case("huge-n-energy", f"energy --n-range {_HUGE} -o {{out}}", 4, _HUGE_N),
    # each bound is checked before the range is built
    Case("huge-n-energy-range", f"energy --n-range 1:{_HUGE} -o {{out}}", 4,
         rf"^lcc: error: --n-range bound must be an integer >= 0 and <= 100, got {_HUGE}$"),
    # domain errors, and inputs whose limit spans keys
    Case("energy-t-inf", "energy --n-range 1:2 --t inf -o {out}", 4, r"t=inf"),
    Case("energy-t-nan", "energy --n-range 1:2 --t nan -o {out}", 4, r"t=nan"),
    Case("energy-t-empty", "energy --n-range 1:2 --t , -o {out}", 4, r"t_list"),
    Case("energy-t-not-a-number", "energy --n-range 1:2 --t 10,abc -o {out}", 4,
         r"--t takes a comma list of horizons \(s\), got '10,abc'"),
    Case("energy-n-range-three-parts", "energy --n-range 1:2:3 --t 10 -o {out}", 4,
         r"--n-range takes lo:hi or a comma list of integers, got '1:2:3'"),
    Case("energy-n-range-not-integers", "energy --n-range a:3 --t 10 -o {out}", 4,
         r"--n-range takes lo:hi or a comma list of integers, got 'a:3'"),
    Case("energy-n-range-empty", "energy --n-range 5:1 --t 10 -o {out}", 4,
         r"--n-range names no chain length, got '5:1'"),
    # Gramians take the paper's fixed step: the config's dt does not reach them
    Case("steps-energy", "energy --n-range 1:1 --t 1e300 --set dt=1e-10 -o {out}", 4,
         r"steps of 0\.01 s, got t=1e\+300"),
    Case("steps-simulate",
         """simulate --set 'variant="cf"' --set n=1 --set horizon=1e300 --set dt=1e-10 -o {out}""", 4,
         r"horizon=1e\+300 and dt=1e-10"),
    # the largest float is a number the config takes; only its step count fails
    Case("steps-simulate-largest-horizon", "simulate --set horizon=1.7976931348623157e308 -o {out}",
         4, r"^lcc: error: horizon/dt must be finite, got horizon=1\.7976931348623157e\+308 and dt=0\.01$"),
    # a finite step count, but 1e302 RK4 steps: refused, not run
    Case("steps-energy-default-dt", "energy --n-range 1:1 --t 1e300 -o {out}", 4,
         r"steps of 0\.01 s, got t=1e\+300"),
    # numpy refuses 1e302 trace rows with a ValueError, not a MemoryError
    Case("steps-simulate-past-numpy-dimension-limit", "simulate --set dt=1e-300 -o {out}", 4,
         r"^lcc: error: horizon=100\.0 at dt=1e-300 needs "),
    Case("analyze-general-without-m", "analyze --set variant=general --set m=0 --set n=2", 4,
         r"general"),
    # the controllability lines wait for the observability report
    Case("analyze-failed-prints-nothing",
         "analyze --set variant=general --set m=1 --set n=1 --k 5", 4,
         r"^lcc: error: k must lie in 1\.\.1, got 5$"),
    # with m = 0 the message names the followers only, not "-0..-1"
    Case("gain-on-the-cav-stability", """stability --set 'gains={"0": [1, 1]}' -o {out}""", 4,
         r"^lcc: error: gain ids \[0\] outside 1\.\.2$"),
    Case("gain-on-the-cav-scan-axis",
         """scan --set n=2 --set 'scan={"axis1": {"vehicle": 0, "component": "mu"}, """
         """"axis2": {"vehicle": 1, "component": "k"}}' -o {out}""", 4,
         r"^lcc: error: gain ids \[0\] outside 1\.\.2$"),
    Case("scan-axis-hi-below-lo",
         """scan --set n=2 --set 'scan={"axis1": {"vehicle": 1, "component": "mu", "lo": 1, "hi": -1}, """
         """"axis2": {"vehicle": 1, "component": "k"}}' -o {out}""", 4,
         r"^lcc: error: axis range must have hi > lo, got lo=1 and hi=-1$"),
    # a head sinusoid that would drive the head backwards, a step past the horizon,
    # or a delay band past the float range is refused before anything runs
    Case("simulate-amplitude-16", _HEAD_SINUSOID + " --set perturbation.amplitude=16 -o {out}", 4,
         r"^lcc: error: amplitude must be at most v_star = 15\.0 in size, got 16$"),
    Case("simulate-amplitude-minus-20", _HEAD_SINUSOID + " --set perturbation.amplitude=-20 -o {out}",
         4, r"^lcc: error: amplitude must be at most v_star = 15\.0 in size, got -20$"),
    Case("simulate-horizon-below-half-step", "simulate --set horizon=1 --set dt=5 -o {out}", 4,
         r"^lcc: error: horizon must be more than half a step, got horizon=1 and dt=5$"),
    Case("simulate-delay-band-overflows",
         "simulate --set horizon=1 --set heterogeneity.delay_base=1e308 "
         "--set heterogeneity.delay_jitter=1e308 -o {out}", 4,
         r"^lcc: error: delay_jitter must keep delay_base \+ delay_jitter finite, "
         r"got delay_base=1e\+308 and delay_jitter=1e\+308$"),
    # once raw numpy warnings, a NaN head and a false collision
    Case("simulate-period-phase-overflows",
         _HEAD_SINUSOID + " --set perturbation.period=1e-320 -o {out}", 4,
         r"^lcc: error: period must keep the head's phase finite, got 1e-320$"),
    # a collision ends the run, stepped one step at a time (no delay) or in
    # blocks (HDVs 2.5 s late), and writes no trace
    Case("simulate-collision-per-step",
         _FOLLOWER_BRAKE + " --set driver.delay=0 --set driver.alpha=0.1 --set driver.beta=0.1 -o {out}",
         4, r"^lcc: error: collision at t=8\.13s: vehicle 2 reached vehicle 1$"),
    Case("simulate-collision-blocks", _FOLLOWER_BRAKE + " --set driver.delay=2.5 -o {out}", 4,
         r"^lcc: error: collision at t=7\.84s: vehicle 2 reached vehicle 1$"),
    # an -o that names a file, or a path below one, names the path
    Case("output-reproduce-existing-file", "reproduce table1 -o {file}", 4,
         r"^lcc: error: reproduce cannot write its output: .*{file}"),
    Case("output-simulate-below-a-file", "simulate -o {file}/x", 4,
         r"^lcc: error: simulate cannot write its output: .*{file}/x"),
    Case("output-stability-existing-file", "stability --set m=2 --set n=2 -o {file}", 4,
         r"^lcc: error: stability cannot write its output: .*{file}"),
    # a fast driver overflows the t = 10 s RK4 path: one line, and no numpy warning
    Case("gramian-blows-up", "energy --set driver.alpha=1e3 --n-range 1 --t 10 -o {out}", 5,
         r"^lcc: numerical error: Gramian integration produced non-finite entries at "
         r"horizon t=10\.0 with RK4 step GRAMIAN_DT=0\.01 s$"),
]


def check(case: Case, run, root: Path) -> None:
    """Run ``case`` in the empty directory ``root`` through ``run(argv, seconds)``,
    which returns the exit code, stdout, stderr and peak RSS in MiB (None where it
    cannot be measured), and assert all that the row and the contract ask."""
    file = root / "a-file"
    file.touch()
    paths = {"{out}": str(root / "out"), "{file}": str(file)}

    def fill(text, quote=str):
        for placeholder, path in paths.items():
            text = text.replace(placeholder, quote(path))
        return text

    code, out, err, peak = run([fill(arg) for arg in shlex.split(case.argv)], SECONDS)
    assert code == case.code, (code, err)
    assert re.search(fill(case.stderr, re.escape), err), err
    assert re.search(case.stdout, out), out
    if code == 0:
        assert err == ""
    else:
        assert out == "" and "Traceback" not in err, (out, err)
        assert [p.name for p in root.iterdir()] == ["a-file"] and file.stat().st_size == 0
    if code >= 3:
        assert re.fullmatch(r"lcc: [^\n]*\n", err), err
    if code == 3:
        assert re.search(r"\$\.\w", err), err
    for name, count in case.lines.items():
        with open(root / "out" / name, "rb") as fh:
            assert sum(1 for _ in fh) == count, name
    if case.peak_rss_mib is not None and peak is not None:
        assert peak < case.peak_rss_mib, f"peak RSS {peak:.1f} MiB"


def _run_child(argv, seconds, cwd):
    """``lcc`` with ``argv`` as a child process; the peak RSS is that of the largest
    child so far, an upper bound on this one's."""
    lcc = Path(sys.executable).with_name("lcc")
    done = subprocess.run([lcc, *argv], cwd=cwd, capture_output=True, text=True, timeout=seconds)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return done.returncode, done.stdout, done.stderr, peak


if __name__ == "__main__":
    # the rows with a peak bound run first, while the largest child so far is theirs
    for case in sorted(CASES, key=lambda case: case.peak_rss_mib is None):
        print(case.id, flush=True)
        with tempfile.TemporaryDirectory() as root:
            check(case, functools.partial(_run_child, cwd=root), Path(root))
