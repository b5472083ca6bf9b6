"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the ``lcc`` modules from the
benchmark's side; nothing under ``src/`` knows about it.  Modules import
each other's functions both by name (``presets`` holds its own reference
to ``simulate``) and through the module (``stability`` calls
``kernels.gamma_mag_sq_grid``), so a wrapper goes on every lookup site:
every attribute of every loaded ``lcc`` module that is the original
function, plus the entries of the ``PRESETS`` table.

Spans are aggregated as they close rather than stored: a 51x51 scan panel
alone makes ~73k kernel calls.  A span's self time is its duration minus
the durations of the spans it directly encloses.  Counters are computed
by hooks from a call's arguments and result after its span closed; hook
time is charged to ``trace.hooks_s``, not to any layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _Agg:
    __slots__ = ("calls", "failed", "wall_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.wall_s = 0.0
        self.self_s = 0.0


def _count_collision(tr, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "CollisionError":
        tr.count("sim.collisions")
    if result is not None:
        tr.count("sim.safety_brake_events", len(result.events))


def _count_loop(tr, args, kwargs, result, exc):
    n_steps, pos = args[0], args[2]
    tr.count("kernels.simulate_loop.vehicle_steps", (n_steps + 1) * pos.shape[1])


def _count_grid(tr, args, kwargs, result, exc):
    tr.count("kernels.gamma_mag_sq_grid.points", len(args[0]))
    if tr.inside("stability.scan_region"):
        tr.count("stability.scan_region.peak_searches")


def _count_scan(tr, args, kwargs, result, exc):
    if result is None:
        return
    classes = result.classes
    tr.count("stability.scan_region.cells", classes.size)
    for code in ("SS", "SU", "AU"):
        tr.count(f"stability.scan_region.cells_{code.lower()}", int((classes == code).sum()))


def _count_gramian(tr, args, kwargs, result, exc):
    t = args[2] if len(args) > 2 else kwargs["t"]
    dt = args[3] if len(args) > 3 else kwargs.get("dt", 0.01)
    tr.count("analysis.gramian.rk4_steps", max(1, round(t / dt)))


def _count_text(tr, args, kwargs, result, exc):
    if result is None:
        return
    text = args[1] if len(args) > 1 else kwargs["text"]
    tr.count("output.bytes_written", os.stat(result).st_size)
    tr.count("output.lines_written", text.count("\n"))


def _count_csv(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("output.csv_files", 1)


# (module, function, counter hook) of every traced layer boundary.
TRACED: List[Tuple[str, str, Optional[Callable]]] = [
    ("lcc.cli", "main", None),
    ("lcc.presets", "run_preset", None),
    ("lcc.stability", "scan_region", _count_scan),
    ("lcc.stability", "is_string_stable", None),
    ("lcc.stability", "magnitude_curve", None),
    ("lcc.kernels", "gamma_mag_sq_scalar", None),
    ("lcc.kernels", "gamma_mag_sq_grid", _count_grid),
    ("lcc.kernels", "simulate_loop", _count_loop),
    ("lcc.analysis", "pbh_controllability", None),
    ("lcc.analysis", "pbh_observability", None),
    ("lcc.analysis", "gramian", _count_gramian),
    ("lcc.analysis", "energy_scaling_study", None),
    ("lcc.sim", "simulate", _count_collision),
    ("lcc.metrics", "aave", None),
    ("lcc.metrics", "total_fuel", None),
    ("lcc.output", "write_csv_atomic", _count_csv),
    ("lcc.output", "write_text_atomic", _count_text),
    ("lcc.output", "write_trace_csv", None),
    ("lcc.output", "write_events_csv", None),
]


class Tracer:
    """Span aggregates and counters of one traced run."""

    def __init__(self):
        self.aggs: Dict[str, _Agg] = defaultdict(_Agg)
        self.counters: Dict[str, float] = defaultdict(float)
        self.hooks_s = 0.0
        self.names: List[str] = []  # every span name installed
        # open spans: [name, start, time covered by direct children]
        self._stack: List[list] = []
        self._patched: List[Tuple[object, object, object]] = []

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, func: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        stack, aggs = self._stack, self.aggs

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [name, _clock(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                agg = aggs[name]
                agg.calls += 1
                agg.failed += exc is not None
                agg.wall_s += dur
                agg.self_s += dur - frame[2]
                if hook is not None:
                    hook(self, args, kwargs, result, exc)
                    hook_s = _clock() - end
                    self.hooks_s += hook_s
                    dur += hook_s
                if stack:
                    stack[-1][2] += dur

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every lookup site of every traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.names = []
        mods = [m for k, m in sorted(sys.modules.items()) if k == "lcc" or k.startswith("lcc.")]
        for mod_name, func_name, hook in TRACED:
            orig = getattr(sys.modules[mod_name], func_name)
            name = f"{mod_name[4:]}.{func_name}"
            wrapped = self.wrap(orig, name, hook)
            self.names.append(name)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))
        presets = sys.modules["lcc.presets"].PRESETS
        for key, orig in list(presets.items()):
            presets[key] = self.wrap(orig, f"presets.{key}")
            self.names.append(f"presets.{key}")
            self._patched.append((presets, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting --------------------------------------------------------

    def self_total(self) -> float:
        return sum(a.self_s for a in self.aggs.values())

    def calls(self, name: str) -> int:
        return self.aggs[name].calls if name in self.aggs else 0


# Every counter a hook may record, so that idle ones report zero.
COUNTERS = (
    "sim.collisions",
    "sim.safety_brake_events",
    "kernels.simulate_loop.vehicle_steps",
    "kernels.gamma_mag_sq_grid.points",
    "stability.scan_region.peak_searches",
    "stability.scan_region.cells",
    "stability.scan_region.cells_ss",
    "stability.scan_region.cells_su",
    "stability.scan_region.cells_au",
    "analysis.gramian.rk4_steps",
    "output.bytes_written",
    "output.lines_written",
    "output.csv_files",
)
