"""Shared exception types and checks."""

import math

import numpy as np


class TapkitError(Exception):
    """Data or validation failure anywhere in the library."""


class ParseError(TapkitError):
    """Tapping-DSL syntax or semantic error, carrying a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def not_utf8(path) -> TapkitError:
    """The refusal of a file that is not UTF-8 text: it names the line of the
    first bad byte, counting ``\\n`` as an editor does. Error paths only: it
    reads the file again, a line at a time."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
    return TapkitError(f"{path}: line {lineno}: not UTF-8 text")


def check_at_least(what: str, value, low: int) -> None:
    """Refuse ``value < low``; NaN compares false, so it passes."""
    if value < low:
        raise TapkitError(f"{what} must be >= {low}, got {value}")


def check_fraction(what: str, value: float) -> None:
    """Refuse a value outside [0, 1], or NaN."""
    if not 0.0 <= value <= 1.0:
        raise TapkitError(f"{what} must be in [0, 1], got {value}")


def check_positive_fraction(what: str, value: float) -> None:
    """Refuse a value outside (0, 1], or NaN."""
    if not 0.0 < value <= 1.0:
        raise TapkitError(f"{what} must be in (0, 1], got {value}")


def check_finite(what: str, value: float) -> None:
    """Refuse a nan or inf scalar."""
    if not math.isfinite(value):  # a tenth of np.isfinite's cost on a Python float
        raise TapkitError(f"{what} must be finite, got {value}")


def check_box(low, high) -> None:
    """Refuse an empty command box, then one with a nan or inf bound or a
    width past float64's range; ``low`` and ``high`` are scalars or
    per-channel arrays. A nan bound compares false, so only the second
    check refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(high <= low):
            raise TapkitError("command box is empty (high <= low)")
        if not np.isfinite(np.subtract(high, low)).all():
            raise TapkitError("command box needs finite bounds and a width float64 can hold")


def check_seed(seed: int) -> None:
    """Refuse a negative seed where one enters the library: ``SeedSequence``
    accepts only non-negative entropy."""
    check_at_least("seed", seed, 0)
