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
