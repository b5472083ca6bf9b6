"""Exception hierarchy shared across the package."""


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
