"""Shared exception types and checks."""


class TapkitError(Exception):
    """Data or validation failure anywhere in the library."""


class ParseError(TapkitError):
    """Tapping-DSL syntax or semantic error, carrying a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def check_seed(seed: int) -> None:
    """Refuse a negative seed where one enters the library: ``SeedSequence``
    accepts only non-negative entropy."""
    if seed < 0:
        raise TapkitError(f"seed must be >= 0, got {seed}")


def check_positive(what: str, count: int) -> None:
    """Refuse a count below 1 where at least one is needed."""
    if count < 1:
        raise TapkitError(f"{what} must be >= 1, got {count}")
