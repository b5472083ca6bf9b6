"""Exception hierarchy shared across the package, and the limits of input fields.

A dataclass field declares its own limit once, as ``bounded(default, limit, help)``:
``check_limits`` enforces the limit, and a field that declares help text (units
included) is a ``config`` key, which reads all three for JSON and ``--help``.
A limit is a tuple of the allowed values, or comparisons joined by " and ",
each ">", ">=" or "<=" and a number (">= 0 and <= 100"); a value that is not
an ``int`` must be finite too, so "" admits any finite number.  A limit that
spans fields stays with the code that owns them.
"""

import math
from dataclasses import MISSING, field, fields

_OPS = {">": lambda a, b: a > b, ">=": lambda a, b: a >= b, "<=": lambda a, b: a <= b}


def bounded(default=MISSING, limit="", help=""):
    """A dataclass field with ``default``, its own ``limit`` and, as a config key, its ``help``."""
    return field(default=default, metadata={"limit": limit, "help": help})


def violation(value, limit):
    """The limit ``value`` breaks, up to its first broken comparison, or None."""
    if isinstance(limit, tuple):
        return None if value in limit else "one of " + ", ".join(map(repr, limit))
    terms = (limit.split(" and ") if limit else []) + ([] if isinstance(value, int) else ["finite"])
    for i, term in enumerate(terms):
        op, _, bound = term.partition(" ")
        if not (math.isfinite(value) if term == "finite" else _OPS[op](value, float(bound))):
            return " and ".join(terms[: i + 1])
    return None


def check_limits(obj) -> None:
    """Raise ValueError, naming the field, unless each declared limit of ``obj`` holds."""
    for f in fields(obj):
        broken = "limit" in f.metadata and violation(getattr(obj, f.name), f.metadata["limit"])
        if broken:
            raise ValueError(f"{f.name} must be {broken}, got {getattr(obj, f.name)!r}")


class LccError(Exception):
    """Base class for all package-specific errors."""


class TopologyError(LccError):
    """Raised when (variant, m, n) or a gain/vehicle id is inconsistent."""


class EvaluationError(LccError):
    """Raised when a transfer function cannot be evaluated at a point."""


class NumericalError(LccError):
    """Raised when a numerical routine produces non-finite results."""


class CollisionError(LccError):
    """Raised when a simulated spacing reaches zero."""

    def __init__(self, time: float, follower, leader):
        self.time = time
        self.follower = follower
        self.leader = leader
        super().__init__(
            f"collision at t={time:.2f}s: vehicle {follower} reached vehicle {leader}"
        )


class ConfigError(LccError):
    """Raised for malformed or schema-violating configuration input."""
