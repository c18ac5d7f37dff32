"""Exception types shared across the package, and the one copy of each argument check."""

__all__ = ["ResourceLimitError", "StateError", "UnreachableTargetError", "check_bias", "check_index", "check_size"]


class StateError(ValueError):
    """A quantum state violates a required property (e.g. normalization)."""


class UnreachableTargetError(ValueError):
    """The target weight has zero amplitude, so no amount of sampling or
    amplification can reach it."""


class ResourceLimitError(RuntimeError):
    """A request exceeds a configured resource bound (qubit cap, scan bound)."""


def check_index(name: str, value: int, n: int) -> None:
    """Refuse a negative n, then an index outside [0, n]: a weight, or a Krawtchouk row or column."""
    check_size("n", n, 0)
    if not 0 <= value <= n:
        raise ValueError(f"{name}={value} out of range [0, {n}]")


def check_bias(r: float, n: int) -> float:
    """r / n for a bias r in [0, n], and 0 at n = 0, which has no bias layer; NaN is refused."""
    if not 0.0 <= r <= n:
        raise ValueError(f"r={r} out of range [0, {n}]")
    return r / n if n else 0.0


def check_size(name: str, value: int, least: int) -> None:
    """Refuse a size below `least`, which is 0 ("non-negative") or 1 ("positive")."""
    if value < least:
        raise ValueError(f"{name}={value} must be {'positive' if least else 'non-negative'}")
