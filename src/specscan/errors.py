"""Exception types shared across the package, and the scalar checks every record makes."""

import math
import numbers


class SpecScanError(Exception):
    """Base class for every error raised by this package."""


class FormatError(SpecScanError):
    """A file is missing, malformed, or inconsistent with its header."""


class DataError(SpecScanError):
    """An in-memory object violates an invariant, or inputs do not line up."""


class ComputeError(SpecScanError):
    """A computation is degenerate for the given input (too few points, zero norm, ...)."""


class ConfigError(SpecScanError):
    """A configuration is incomplete or inconsistent for the requested operation."""


class StageError(SpecScanError):
    """A pipeline stage failed; carries the stage name for attribution."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


def _check_int(name: str, value, low: int, high: int | None = None, error: type = ConfigError) -> int:
    """`value` as an int: an integer (numpy's too, never a bool) in [low, high]; else `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} {value!r} must be an integer")
    if high is None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise error(f"{name} must lie in [{low}, {high}], got {value}")
    return int(value)


def _check_real(name: str, value, error: type = ConfigError) -> float:
    """`value` as a float: a real number (numpy's too, never a bool) that is finite; else `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} {value!r} must be a number")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond every float
        real = math.inf
    if not math.isfinite(real):
        raise error(f"{name} must be finite, got {real}")
    return real
