import contextlib
import faulthandler
import os
import signal

import numpy as np
import pytest

from lcc import (
    DriverParams,
    LinearCoeffs,
    equilibrium_spacing,
    linearize,
)


@pytest.fixture(scope="session")
def default_params() -> DriverParams:
    return DriverParams()


@pytest.fixture(scope="session")
def default_coeffs(default_params) -> LinearCoeffs:
    return linearize(equilibrium_spacing(15.0, default_params), default_params)


@pytest.fixture
def trace_rows_out_of_memory(monkeypatch):
    """Make ``np.zeros`` raise MemoryError for more than 1e9 elements.

    ``simulate`` allocates its trace arrays with ``np.zeros`` first, so a
    huge horizon fails as it would on a real machine, without allocating.
    """
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)


class Hung(Exception):
    """A call that outlived its deadline; not an OSError, so ``cli.main`` lets it through."""


def _hung(signum, frame):
    raise Hung("the call ran past its deadline")


@pytest.fixture
def deadline(capsys):
    """``with deadline(s):`` fails a call that runs past ``s`` seconds instead of
    hanging: ``signal.alarm`` raises ``Hung`` in Python code, and since a loop inside
    one C call holds off that handler, a second later ``faulthandler`` writes every
    thread's stack and ends the test process.  The stack goes to a copy of the run's
    own stderr, taken with capture suspended: the captured fd 2 dies unread with the
    process, and so would any file the run reports only at its end."""
    with capsys.disabled():
        stderr = os.fdopen(os.dup(2), "w")

    @contextlib.contextmanager
    def within(seconds):
        faulthandler.dump_traceback_later(seconds + 1, exit=True, file=stderr)
        previous = signal.signal(signal.SIGALRM, _hung)
        signal.alarm(seconds)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    with stderr:
        yield within
