#!/usr/bin/env python3
"""Benchmark of the ``lcc`` package, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):

  reproduce  all 11 paper presets through ``lcc.cli.main``; op = one preset
  scan       51x51 string-stability panels; op = one panel
  ensemble   Appendix-C brake scenario over heterogeneity draws; op = one scenario
  analyze    PBH controllability/observability and Gramians, n up to 20;
             op = one (variant, n) case.  Not in BENCHMARK.json: several of
             its cases fail at the seed commit, and the gated workloads
             must run without failures.

The program is imported from ``src/`` of the checkout in this single
process, with BLAS pinned to one thread; ``LCC_BACKEND`` is left as the
caller set it.  After one untimed warm-up op, whole passes run until
``--seconds`` have elapsed (and at least three passes).  Every op's
output is checked after its pass against ``perfbench/references.json``;
an op that raises or mismatches counts as failed.

``--trace 0`` reports the end-to-end metrics: setup_s is the median over
three fresh interpreters of the time to import lcc and finish one warm-up
op.  Timings are in reference-speed seconds (see ``hostspeed.py``): each
op and probe is scaled by how long a fixed reference workload took just
before and after it, because shared hosts drift by up to 2x; raw wall
times are in the report.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (per traced pass) plus the tracing overhead, and fails
if a layer the workload must use records no calls, or one it must not
use records some.

The last line of stdout is the JSON result; the line before it, starting
with ``report``, holds the full report (environment, seed, tail level,
failure share, per-layer detail).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before anything imports numpy, which sizes its BLAS pool on import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hostspeed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_PASSES = 3
# The tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120

clock = time.perf_counter


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_lcc():
    if not (SRC / "lcc" / "__init__.py").is_file():
        fail(f"no lcc sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import lcc

    if Path(lcc.__file__).resolve().parent != (SRC / "lcc").resolve():
        fail(f"imported lcc from {lcc.__file__}, not from {SRC}")
    return lcc


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def blas_thread_counts() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return counts
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(lcc) -> dict:
    import numpy
    import scipy

    return {
        "backend": lcc.kernels.backend_name(),
        "lcc_version": lcc.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": blas_thread_counts(),
        "machine": platform.machine(),
        "cpu": cpu_model(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def time_setup(workload: str, seed: int, refs: list):
    """Raw and reference-speed times of fresh interpreters that import lcc
    and run one warm-up op; reference times are appended to ``refs``."""
    raw, scaled = [], []
    refs.append(hostspeed.reference_time())
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            timeout=PROBE_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        raw.append(clock() - t0)
        refs.append(hostspeed.reference_time())
        scaled.append(raw[-1] * hostspeed.factor(refs[-2], refs[-1]))
    return raw, scaled


class Tally:
    """Op latencies, pass walls and failures of one kind of pass."""

    def __init__(self):
        self.latencies = []  # raw seconds
        self.scaled = []  # reference-speed seconds
        self.kinds = []
        self.walls = []  # raw time of each pass's ops
        self.refs = []  # host-speed reference times taken around the ops
        self.attempted = 0
        self.failed = []

    def pass_time(self, latencies: list) -> float:
        """One pass's time, summed from the median latency of each of its ops.

        Slow spells of a few seconds scatter whole-pass times; a per-op
        median drops the ops a spell hit.
        """
        by_kind = {}
        for kind, lat in zip(self.kinds, latencies):
            by_kind.setdefault(kind, []).append(lat)
        one_pass = self.kinds[: len(self.kinds) // len(self.walls)]
        return sum(statistics.median(by_kind[k]) for k in one_pass)


def run_pass(wl, tally: Tally) -> None:
    ops = wl.next_pass()
    results = []
    before = hostspeed.reference_time()
    tally.refs.append(before)
    for label, fn in ops:
        t0 = clock()
        try:
            out, err = fn(), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, exc
        lat = clock() - t0
        after = hostspeed.reference_time()
        tally.refs.append(after)
        results.append((label, out, err, lat, lat * hostspeed.factor(before, after)))
        before = after
    tally.walls.append(sum(r[3] for r in results))
    for label, out, err, lat, scaled in results:
        tally.latencies.append(lat)
        tally.scaled.append(scaled)
        tally.kinds.append(wl.kind(label))
        tally.attempted += 1
        if err is not None or not wl.check(label, out):
            tally.failed.append(label if err is None else f"{label}: {err!r}")
    wl.end_pass()


def tail(latencies: list):
    """Highest order statistic with TAIL_BEYOND samples above it, and its level.

    (None, None) when there are too few samples for one.
    """
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return None, None
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure(wl, seconds: float) -> Tally:
    tally = Tally()
    start = clock()
    while clock() - start < seconds or len(tally.walls) < MIN_PASSES:
        run_pass(wl, tally)
    return tally


def measure_traced(wl, seconds: float):
    """Alternate untraced and traced passes; per-layer data from the traced ones."""
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    start = clock()
    while clock() - start < seconds or len(traced.walls) < 2:
        run_pass(wl, plain)
        with tracer:
            run_pass(wl, traced)
    return plain, traced, tracer


def layer_metrics(tracer, plain: Tally, traced: Tally) -> dict:
    """Every per-layer figure, per traced pass; idle layers read zero."""
    passes = len(traced.walls)
    aggs, ctr = tracer.aggs, tracer.counters
    out = {}

    def per_pass(value):
        return value / passes

    for name in tracer.names:
        agg = aggs[name]
        out[f"{name}.calls"] = per_pass(agg.calls)
        out[f"{name}.failed"] = per_pass(agg.failed)
        out[f"{name}.self_s"] = per_pass(agg.self_s)
        out[f"{name}.wall_s"] = per_pass(agg.wall_s)
    for name in tracing.COUNTERS:
        out[name] = per_pass(ctr.get(name, 0))
    out["output.rows_written"] = per_pass(
        ctr.get("output.lines_written", 0) - ctr.get("output.csv_files", 0)
    )
    cells = ctr.get("stability.scan_region.cells", 0)
    out["stability.verdict_ratio"] = (
        ctr.get("stability.scan_region.peak_searches", 0) / cells if cells else 0.0
    )
    steps = ctr.get("kernels.simulate_loop.vehicle_steps", 0)
    out["kernels.simulate_loop.ns_per_vehicle_step"] = (
        1e9 * aggs["kernels.simulate_loop"].self_s / steps if steps else 0.0
    )
    traced_wall = statistics.fmean(traced.walls)
    plain_wall = statistics.fmean(plain.walls)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = plain_wall
    # The host's speed flips every few seconds, so the overhead compares
    # reference-speed pass times rather than raw walls.
    out["trace.overhead_s"] = traced.pass_time(traced.scaled) - plain.pass_time(plain.scaled)
    out["trace.self_sum_s"] = per_pass(tracer.self_total())
    out["trace.hooks_s"] = per_pass(tracer.hooks_s)
    out["trace.unattributed_s"] = traced_wall - out["trace.self_sum_s"] - out["trace.hooks_s"]
    return out


def coverage_problems(wl, tracer) -> list:
    problems = [f"{n}: no calls" for n in wl.expect_busy if tracer.calls(n) == 0]
    for prefix in wl.expect_idle:
        problems += [
            f"{n}: {a.calls} unexpected calls"
            for n, a in tracer.aggs.items()
            if n.startswith(prefix) and a.calls
        ]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lcc = load_lcc()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs_all = json.loads((HERE / "references.json").read_text())
    backend = lcc.kernels.backend_name()
    if backend not in refs_all:
        fail(f"no references for backend {backend!r}; run perfbench/record_references.py")

    wl = workloads.WORKLOADS[args.workload](ROOT, refs_all[backend], args.seed)
    _, op = wl.warmup_op()
    op()
    wl.end_pass()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(lcc),
    }
    if args.trace:
        plain, traced, tracer = measure_traced(wl, args.seconds)
        values = layer_metrics(tracer, plain, traced)
        problems = coverage_problems(wl, tracer)
        tallies = (plain, traced)
        wanted = spec["per_layer"]
        extra = {}
        report.update(
            layers=dict(sorted(values.items())),
            coverage_problems=problems,
            speed_factor=hostspeed.NOMINAL_S / statistics.median(plain.refs + traced.refs),
        )
    else:
        refs = []
        setup_raw, setup = time_setup(args.workload, args.seed, refs)
        tally = measure(wl, args.seconds)
        tallies = (tally,)
        refs += tally.refs
        lat_tail, level = tail(tally.scaled)
        raw = {
            "setup_s": statistics.median(setup_raw),
            "wall_s": tally.pass_time(tally.latencies),
            "op_p50_ms": 1e3 * statistics.median(tally.latencies),
        }
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": tally.pass_time(tally.scaled),
            "op_p50_ms": 1e3 * statistics.median(tally.scaled),
        }
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
        problems = []
        # Reported, not gated: on a shared host it mostly measures interference.
        op_tail_ms = None if lat_tail is None else 1e3 * lat_tail
        extra = {}
        if op_tail_ms is not None:
            extra[f"op_tail_ms (p{level:.1f} of {len(tally.latencies)} ops)"] = (op_tail_ms, "ms")
        report.update(
            raw=raw,
            raw_setup_runs_s=setup_raw,
            raw_pass_walls_s=tally.walls,
            speed_factor=hostspeed.NOMINAL_S / statistics.median(refs),
            reference_ms=[1e3 * r for r in refs],
            op_tail_ms=op_tail_ms,
            op_tail_level_pct=level,
            op_count=len(tally.latencies),
        )
    attempted = sum(t.attempted for t in tallies)
    failed_ops = [f for t in tallies for f in t.failed]
    outputs, outputs_ok = wl.summary()
    report.update(
        outputs=outputs,
        outputs_ok=outputs_ok,
        ops_failed_share=len(failed_ops) / attempted,
        failed_ops=failed_ops,
    )
    correct = not failed_ops and outputs_ok and not problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    shown = [(n, m["value"], m["unit"]) for n, m in metrics.items()]
    shown += [(n, v, u) for n, (v, u) in extra.items()]
    shown.append(("ops_failed_share", report["ops_failed_share"], "1"))
    for name, value, unit in shown:
        print(f"{args.workload:<10} {name:<48} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"perfbench: coverage: {problem}", file=sys.stderr)
    print("report " + json.dumps(report))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failed_ops),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
