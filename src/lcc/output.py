"""Atomic CSV/text emission with deterministic float formatting.

Every file is written to a temp sibling and renamed over its target only
after its last byte, so a reader never sees a torn file and a failed
write leaves an existing target as it was.  Files are written through a
binary handle: text is encoded as UTF-8 and "\n" is written as LF, on
every platform and under every locale.  A trace CSV is streamed to its
temp file one chunk of steps at a time, so its memory is bounded by the
chunk, not by the trace; its cells are formatted by a ``bytes`` ``%``
template, whose ``%.12g`` gives the same digits as ``fmt``'s.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

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


@contextmanager
def _atomic_file(path: Path) -> Iterator[BinaryIO]:
    """Yield a binary handle on a temp sibling of ``path``; rename it over
    ``path`` once the block ends, or unlink it if anything raises.

    The temp file is opened with mode 0666 and the kernel applies the
    umask, so the file gets the mode a plain ``open()`` would give it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` as UTF-8, line endings as given, via a temp file
    renamed over ``path`` after its last byte, so readers never see a torn
    file; on failure ``path`` keeps its old contents and no temp file is
    left."""
    path = Path(path)
    with _atomic_file(path) as fh:
        fh.write(text.encode())
    return path


def write_csv_atomic(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return write_text_atomic(path, "\n".join(lines) + "\n")


def write_trace_csv(path, trace: SimulationTrace) -> Path:
    """One row per (step, vehicle): t,vehicle,pos,vel,acc,spacing.

    Cells are formatted as ``fmt`` would format them: ``bytes`` ``%.12g``
    and ``str`` ``%.12g`` format a float through the same CPython routine
    (``PyOS_double_to_string`` with 'g' and precision 12), so the digits
    are the same, and ``bytes`` skips the text layer's encoder.  Each
    step's time is formatted once and joined between the pieces of a
    ``%`` template that holds all of its vehicles' rows.  Steps are
    converted with ``tolist()`` and formatted in chunks of
    ``_TRACE_CHUNK``, and each chunk's bytes are written before the next
    is built, so at most 4 * vehicles * _TRACE_CHUNK cells exist as Python
    floats, and one chunk as bytes, at once, never the whole trace.  The
    file is renamed over ``path`` only after the last chunk; a write that
    fails midway leaves ``path`` as it was.
    """
    path = Path(path)
    pieces = [b""] + [
        f",{vid},%.12g,%.12g,%.12g,%.12g\n".encode() for vid in trace.ids
    ]
    with _atomic_file(path) as fh:
        fh.write(b"t,vehicle,pos,vel,acc,spacing\n")
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
            fh.write(
                b"".join(
                    (b"%.12g" % t).join(pieces) % tuple(row)
                    for t, row in zip(
                        trace.times[k : k + _TRACE_CHUNK].tolist(),
                        cells.reshape(len(cells), -1).tolist(),
                    )
                )
            )
    return path


def write_events_csv(path, trace: SimulationTrace) -> Path:
    return write_csv_atomic(
        path,
        ("t", "vehicle", "event"),
        ((float(t), vid, label) for t, vid, label in trace.events),
    )
