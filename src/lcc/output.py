"""Atomic CSV/text emission with deterministic float formatting."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .sim import SimulationTrace

__all__ = [
    "fmt",
    "write_text_atomic",
    "write_csv_atomic",
    "write_trace_csv",
    "write_events_csv",
]

# Steps of a trace converted to Python floats at once by write_trace_csv.
_TRACE_CHUNK = 512


def fmt(value) -> str:
    """Deterministic cell formatting: floats via %.12g, None blank."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_text_atomic(path, text: str) -> Path:
    """Write via a temp file and rename, so readers never see a torn file.

    The temp file is opened with mode 0666 and the kernel applies the
    umask, so the file gets the mode a plain ``open()`` would give it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv_atomic(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return write_text_atomic(path, "\n".join(lines) + "\n")


def write_trace_csv(path, trace: SimulationTrace) -> Path:
    """One row per (step, vehicle): t,vehicle,pos,vel,acc,spacing.

    Cells are formatted as ``fmt`` would format them.  Each step's time is
    formatted once and joined between the pieces of a ``%`` template that
    holds the rest of all of its vehicles' rows.  Steps are converted with
    ``tolist()`` in chunks of ``_TRACE_CHUNK``, so at most
    4 * vehicles * _TRACE_CHUNK cells exist as Python floats at once,
    never the whole trace.
    """
    pieces = [""] + [f",{vid},%.12g,%.12g,%.12g,%.12g\n" for vid in trace.ids]
    pieces[-1] = pieces[-1][:-1]
    lines = ["t,vehicle,pos,vel,acc,spacing"]
    for k in range(0, len(trace.times), _TRACE_CHUNK):
        cells = np.stack(
            (
                trace.position[k : k + _TRACE_CHUNK],
                trace.velocity[k : k + _TRACE_CHUNK],
                trace.acceleration[k : k + _TRACE_CHUNK],
                trace.spacing[k : k + _TRACE_CHUNK],
            ),
            axis=-1,
        )
        lines.extend(
            ("%.12g" % t).join(pieces) % tuple(row)
            for t, row in zip(
                trace.times[k : k + _TRACE_CHUNK].tolist(),
                cells.reshape(len(cells), -1).tolist(),
            )
        )
    return write_text_atomic(path, "\n".join(lines) + "\n")


def write_events_csv(path, trace: SimulationTrace) -> Path:
    return write_csv_atomic(
        path,
        ("t", "vehicle", "event"),
        ((float(t), vid, label) for t, vid, label in trace.events),
    )
