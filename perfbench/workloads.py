"""The benchmark's workloads: inputs made from the seed, ops, and checks.

Each workload hands the runner one pass at a time as a list of ops.  An
op is a label and a zero-argument callable into ``lcc``; its output is
checked against a reference only after the pass's timing has ended.
Every call goes through a module attribute (``sim.simulate``, not a
name bound at import), so the tracer's wrappers see it.  Only public
``lcc`` names are used, so the benchmark runs unchanged on later
commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from lcc import analysis, cli, metrics, presets, sim, stability, systems, vehicles
from lcc.errors import LccError

Op = Tuple[str, Callable[[], object]]

# Relative tolerance on recorded floating-point references.
FLOAT_RTOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def default_coeffs():
    p = vehicles.DriverParams()
    return vehicles.linearize(vehicles.equilibrium_spacing(15.0, p), p)


def file_digests(directory: Path) -> Dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class Workload:
    """One named workload.  Subclasses fill in the hooks below."""

    name = ""
    # Layers a traced run must see called, and layer prefixes it must not.
    expect_busy: Tuple[str, ...] = ()
    expect_idle: Tuple[str, ...] = ()

    def __init__(self, root: Path, refs: dict, seed: int):
        self.root = root
        self.refs = refs.get(self.name, {})
        self.rng = np.random.default_rng(seed)

    def warmup_op(self) -> Op:
        raise NotImplementedError

    def next_pass(self) -> List[Op]:
        raise NotImplementedError

    def check(self, label: str, output) -> bool:
        raise NotImplementedError

    @staticmethod
    def kind(label: str) -> str:
        """Ops of one kind do the same work in every pass."""
        return label

    def end_pass(self) -> None:
        """Release what the pass left behind (called after its checks)."""

    def summary(self) -> Tuple[dict, bool]:
        """Run-level outputs for the report, and whether they check out."""
        return {}, True


# ---------------------------------------------------------------------------
# reproduce: every paper preset through the CLI
# ---------------------------------------------------------------------------


class Reproduce(Workload):
    name = "reproduce"
    expect_busy = (
        "cli.main",
        "presets.run_preset",
        "stability.is_string_stable",
        "stability.magnitude_curve",
        "kernels.gamma_mag_sq_grid",
        "kernels.gamma_mag_sq_scalar",
        "kernels.simulate_loop",
        "sim.simulate",
        "metrics.aave",
        "metrics.total_fuel",
        "analysis.gramian",
        "output.write_csv_atomic",
        "output.write_text_atomic",
    )
    expect_idle = ("stability.scan_region", "analysis.pbh_")
    warmup_preset = "table2"

    def __init__(self, root, refs, seed):
        super().__init__(root, refs, seed)
        self.tmp_parent = root / ".bench_tmp"
        self.outdir = None

    def _op(self, preset: str) -> Op:
        out = self.outdir / preset

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["reproduce", preset, "-o", str(out)])

        return preset, run

    def _fresh_outdir(self) -> None:
        self.tmp_parent.mkdir(exist_ok=True)
        self.outdir = Path(tempfile.mkdtemp(prefix="reproduce-", dir=self.tmp_parent))

    def warmup_op(self) -> Op:
        self._fresh_outdir()
        return self._op(self.warmup_preset)

    def next_pass(self) -> List[Op]:
        self.end_pass()
        self._fresh_outdir()
        names = sorted(presets.PRESETS)
        return [self._op(names[i]) for i in self.rng.permutation(len(names))]

    def check(self, label, output) -> bool:
        return output == 0 and file_digests(self.outdir / label) == self.refs.get(label)

    def end_pass(self) -> None:
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)
            self.outdir = None
        with contextlib.suppress(OSError):
            self.tmp_parent.rmdir()


# ---------------------------------------------------------------------------
# scan: 51x51 string-stability region panels of the 2+1+2 chain
# ---------------------------------------------------------------------------

# panel -> (base feedback pairs, scanned vehicle).  "a" and "c" are
# predecessor-axis panels of the paper's region figure, where every cell
# reaches the peak search; "follower" scans vehicle 1 on the HDV base,
# where ~45% of cells stop at the eigenvalue check.
SCAN_PANELS: Dict[str, Tuple[dict, int]] = {
    "a": ({}, -1),
    "c": ({1: (-1.0, -1.0)}, -1),
    "follower": ({}, 1),
}
SCAN_POINTS = 51


def scan_inputs(panel: str):
    pairs, vid = SCAN_PANELS[panel]
    spec = stability.TransferSpec(
        m=2, n=2, coeffs=default_coeffs(), gains=systems.FeedbackGains.from_pairs(pairs)
    )
    axes = tuple(
        stability.GainAxis(vehicle=vid, component=c, lo=-10.0, hi=10.0, points=SCAN_POINTS)
        for c in ("mu", "k")
    )
    return spec, axes


def scan_counts(region) -> Dict[str, int]:
    return {code: int((region.classes == code).sum()) for code in ("SS", "SU", "AU")}


class Scan(Workload):
    name = "scan"
    expect_busy = (
        "stability.scan_region",
        "kernels.gamma_mag_sq_grid",
        "kernels.gamma_mag_sq_scalar",
    )
    expect_idle = ("output.", "sim.", "kernels.simulate_loop", "cli.", "analysis.")

    @staticmethod
    def _op(panel: str) -> Op:
        spec, (ax1, ax2) = scan_inputs(panel)
        return panel, lambda: stability.scan_region(spec, ax1, ax2)

    def warmup_op(self) -> Op:
        return self._op("follower")

    def next_pass(self) -> List[Op]:
        names = sorted(SCAN_PANELS)
        return [self._op(names[i]) for i in self.rng.permutation(len(names))]

    def check(self, label, output) -> bool:
        return scan_counts(output) == self.refs.get(label)


# ---------------------------------------------------------------------------
# ensemble: Appendix-C follower brake over many heterogeneity draws
# ---------------------------------------------------------------------------

# Heterogeneity seeds the references cover; a run visits them in an
# order drawn from the workload seed, cycling if it outlasts the pool.
ENSEMBLE_POOL = 96
DRAWS_PER_PASS = 8
ENSEMBLE_WINDOW = (20.0, 40.0)
ENSEMBLE_VEHICLES = tuple(range(0, 11))


def ensemble_strategies():
    return (
        ("looking-ahead", sim.CavController(mode="explicit")),
        ("fd-lcc", presets.FD_CONTROLLER),
        ("cf-lcc", presets.CF_CONTROLLER),
    )


def ensemble_scenario(controller, draw: int):
    variant = (
        systems.SystemVariant.CF_LCC
        if 0 in controller.gains.mu
        else systems.SystemVariant.FD_LCC
    )
    return sim.ScenarioConfig(
        variant=variant,
        m=0,
        n=10,
        horizon=40.0,
        dt=0.01,
        perturbation=sim.FollowerBrake(),
        heterogeneity=sim.HeterogeneitySpec(),
        cav=controller,
        seed=int(draw),
    )


def run_scenario(cfg) -> Tuple[float, float]:
    trace = sim.simulate(cfg)
    return (
        metrics.aave(trace, ENSEMBLE_WINDOW, vehicles=ENSEMBLE_VEHICLES),
        metrics.total_fuel(trace, ENSEMBLE_WINDOW, vehicles=ENSEMBLE_VEHICLES),
    )


def reductions_table(per_draw: Dict[int, Dict[str, Tuple[float, float]]]) -> dict:
    """Mean and sample spread of the AAVE / fuel reductions (%) vs looking-ahead."""
    table = {}
    for label in ("fd-lcc", "cf-lcc"):
        red = np.array(
            [
                [100.0 * (1.0 - r[label][i] / r["looking-ahead"][i]) for i in (0, 1)]
                for r in per_draw.values()
            ]
        )
        spread = red.std(axis=0, ddof=1) if len(red) > 1 else np.zeros(2)
        table[label] = {
            "aave_reduction_pct_mean": float(red[:, 0].mean()),
            "aave_reduction_pct_std": float(spread[0]),
            "fc_reduction_pct_mean": float(red[:, 1].mean()),
            "fc_reduction_pct_std": float(spread[1]),
        }
    table["draws"] = len(per_draw)
    return table


class Ensemble(Workload):
    name = "ensemble"
    expect_busy = ("sim.simulate", "kernels.simulate_loop", "metrics.aave", "metrics.total_fuel")
    expect_idle = ("output.", "stability.", "kernels.gamma_", "analysis.", "cli.")

    def __init__(self, root, refs, seed):
        super().__init__(root, refs, seed)
        self.order = self.rng.permutation(ENSEMBLE_POOL)
        self.cursor = 0
        self.results: Dict[int, Dict[str, Tuple[float, float]]] = {}

    @staticmethod
    def _op(label: str, controller, draw: int) -> Op:
        cfg = ensemble_scenario(controller, draw)
        return f"{draw}:{label}", lambda: run_scenario(cfg)

    @staticmethod
    def kind(label):
        return label.split(":")[1]

    def warmup_op(self) -> Op:
        label, controller = ensemble_strategies()[0]
        return self._op(label, controller, 0)

    def next_pass(self) -> List[Op]:
        ops = []
        for _ in range(DRAWS_PER_PASS):
            draw = int(self.order[self.cursor % ENSEMBLE_POOL])
            self.cursor += 1
            ops += [self._op(label, ctl, draw) for label, ctl in ensemble_strategies()]
        return ops

    def check(self, label, output) -> bool:
        draw, strategy = label.split(":")
        self.results.setdefault(int(draw), {})[strategy] = output
        ref = self.refs.get(draw, {}).get(strategy)
        return ref is not None and all(_close(x, r) for x, r in zip(output, ref))

    def summary(self):
        complete = {d: r for d, r in self.results.items() if len(r) == 3}
        if not complete:
            return {}, False
        got = reductions_table(complete)
        want = reductions_table({d: self.refs[str(d)] for d in complete})
        ok = got["draws"] == want["draws"] and all(
            _close(got[s][k], want[s][k]) for s in ("fd-lcc", "cf-lcc") for k in got[s]
        )
        return {"reductions": got}, ok


# ---------------------------------------------------------------------------
# analyze: PBH controllability / observability and Gramians beyond n = 8
# ---------------------------------------------------------------------------

ANALYZE_VARIANTS = ("fd", "cf", "general", "ccc")
ANALYZE_SIZES = (2, 4, 6, 8, 10, 15, 20)
GRAMIAN_HORIZONS = (10.0, 20.0, 30.0)
GENERAL_M = 2


def analyze_layout(variant: str, size: int) -> Tuple[int, int]:
    """(m, n) of a case; for ccc the size counts the HDVs ahead."""
    if variant == "general":
        return GENERAL_M, size
    if variant == "ccc":
        return size, 0
    return 0, size


def expected_dims(variant: str, m: int, n: int) -> Tuple[int, int]:
    """Paper's controllable / observable dimensions, tail vehicle measured."""
    ctrb = 2 if variant == "ccc" else 2 * n + 2
    obs = {"fd": 2 * n + 1, "cf": 2 * n + 2, "general": 2 * m + 2 * n + 2, "ccc": 2 * m + 2}
    return ctrb, obs[variant]


def _attempt(fn):
    try:
        return fn()
    except (LccError, np.linalg.LinAlgError, ValueError) as exc:
        return exc


def analyze_case(variant: str, size: int):
    m, n = analyze_layout(variant, size)
    coeffs = default_coeffs()
    model = systems.build_system(systems.SystemVariant(variant), m, n, coeffs)
    ctrb = _attempt(lambda: analysis.pbh_controllability(model.A, model.B, coeffs=coeffs))
    C = analysis.build_output_matrix(model, n if variant != "ccc" else 0)
    obs = _attempt(lambda: analysis.pbh_observability(model.A, C, model=model))
    grams = [_attempt(lambda t=t: analysis.gramian(model.A, model.B, t)) for t in GRAMIAN_HORIZONS]
    return ctrb, obs, grams


def analyze_ok(variant: str, size: int, output) -> bool:
    ctrb, obs, grams = output
    want_c, want_o = expected_dims(variant, *analyze_layout(variant, size))
    return (
        not isinstance(ctrb, Exception)
        and ctrb.controllable_dim == want_c
        and not isinstance(obs, Exception)
        and obs.observable_dim == want_o
        and all(
            not isinstance(g, Exception) and np.all(np.isfinite(g.W)) for g in grams
        )
    )


class Analyze(Workload):
    name = "analyze"
    expect_busy = ("analysis.pbh_controllability", "analysis.pbh_observability", "analysis.gramian")
    expect_idle = ("output.", "sim.", "stability.", "kernels.", "cli.")

    @staticmethod
    def _op(variant: str, size: int) -> Op:
        return f"{variant}:{size}", lambda: analyze_case(variant, size)

    def warmup_op(self) -> Op:
        return self._op("fd", 2)

    def next_pass(self) -> List[Op]:
        cases = [(v, s) for v in ANALYZE_VARIANTS for s in ANALYZE_SIZES]
        return [self._op(*cases[i]) for i in self.rng.permutation(len(cases))]

    def check(self, label, output) -> bool:
        variant, size = label.split(":")
        return analyze_ok(variant, int(size), output)


WORKLOADS = {w.name: w for w in (Reproduce, Scan, Ensemble, Analyze)}
