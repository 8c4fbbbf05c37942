"""Tapping data model, text DSL, causality check, composition, and templates.

A tapping is a named set of taps; each tap points at a (group, channels, lag)
coordinate of the sensorimotor matrix and is colored input or target. Lags are
relative to the anchor time t=0, negative into the past.

DSL grammar (UTF-8, ``#`` line comments, newlines are plain whitespace)::

    file          := space_block? tapping_block*
    space_block   := "space" IDENT "{" (KIND IDENT ":" INT)+ "}"
    tapping_block := "tapping" IDENT "{" tap_line+ "}"
    tap_line      := ("input" | "target") IDENT chans? "@" lag drop?
    chans         := "[" INT ("," INT)* "]"
    lag           := INT | INT ".." INT          # inclusive, ascending
    drop          := "[" "drop" "p" "=" NUMBER "]"

KIND is one of motor/proprio/extero/intero. NUMBER is an integer or a
decimal, either with an optional exponent (``0.25``, ``1e-07``). Conventional
file extension: ``.tap``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError, TapkitError
from .smcore import _IDENT_RE, KINDS, SensorimotorSpace, define_space

ROLE_INPUT = "input"
ROLE_TARGET = "target"

CAUSAL = "causal"
BUFFERED = "buffered"
ACAUSAL = "acausal"


@dataclass(frozen=True)
class Tap:
    """One tapped coordinate set: a group (or channel subset) at a fixed lag.

    ``channels=None`` means all channels of the group. Explicit channel lists
    are normalized to ascending order, which is also the dataset column order.
    """

    group: str
    lag: int
    role: str
    channels: tuple[int, ...] | None = None
    drop_p: float = 0.0

    def __post_init__(self):
        if self.role not in (ROLE_INPUT, ROLE_TARGET):
            raise TapkitError(f"tap role must be input or target, got {self.role!r}")
        if not 0.0 <= self.drop_p <= 1.0:
            raise TapkitError(f"drop_p must be in [0, 1], got {self.drop_p}")
        if self.channels is not None:
            chans = tuple(sorted(int(c) for c in self.channels))
            if len(set(chans)) != len(chans):
                raise TapkitError(f"duplicate channel indices in {chans}")
            if not chans:
                raise TapkitError("explicit channel list may not be empty")
            if chans[0] < 0:
                raise TapkitError(f"negative channel index in {chans}")
            object.__setattr__(self, "channels", chans)
        try:
            lag = int(self.lag)
        except (TypeError, ValueError, OverflowError):
            lag = None
        if lag is None or lag != self.lag:
            raise TapkitError(f"lag must be an integer, got {self.lag}")
        object.__setattr__(self, "lag", lag)


@dataclass(frozen=True)
class Tapping:
    """A named, ordered set of taps over one space.

    Invariants enforced here: at least one input and one target tap, channel
    indices valid for their group, and no duplicate (group, channel, lag,
    role) coordinate.
    """

    name: str
    space: SensorimotorSpace
    taps: tuple[Tap, ...]

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise TapkitError(f"tapping name {self.name!r} is not an identifier")
        object.__setattr__(self, "taps", tuple(self.taps))
        if not self.taps:
            raise TapkitError(f"tapping {self.name!r} has no taps")
        _add_coordinates(set(), self.name, self.space, self.taps)
        if not any(t.role == ROLE_INPUT for t in self.taps):
            raise TapkitError(f"tapping {self.name!r} has no input taps")
        if not any(t.role == ROLE_TARGET for t in self.taps):
            raise TapkitError(f"tapping {self.name!r} has no target taps")

    @property
    def min_lag(self) -> int:
        return min(t.lag for t in self.taps)

    @property
    def max_lag(self) -> int:
        return max(t.lag for t in self.taps)

    @property
    def span(self) -> int:
        """Window width W = max_lag - min_lag + 1."""
        return self.max_lag - self.min_lag + 1


def tap_channels(space: SensorimotorSpace, tap: Tap) -> tuple[int, ...]:
    """Concrete ascending channel indices a tap addresses, range-checked."""
    if tap.channels is None:
        return tuple(range(space.group(tap.group).dim))
    for ch in tap.channels:
        space.resolve(tap.group, ch)
    return tap.channels


def _add_coordinates(seen: set, name: str, space: SensorimotorSpace, taps) -> None:
    """Add each tap's (group, channel, lag, role) coordinates to ``seen``,
    refusing one already there; ``name`` is the tapping's, for the message."""
    for tap in taps:
        for ch in tap_channels(space, tap):
            key = (tap.group, ch, tap.lag, tap.role)
            if key in seen:
                raise TapkitError(
                    f"tapping {name!r}: duplicate tap coordinate "
                    f"{tap.group}[{ch}]@{tap.lag} ({tap.role})"
                )
            seen.add(key)


@dataclass(frozen=True)
class CausalityReport:
    """Classification of a tapping's temporal footprint.

    causal: every lag <= 0. buffered: inputs all <= 0 but some target in the
    future, so emission must wait ``buffer_delay`` steps. acausal: some input
    in the future (unusable for online learning).
    """

    kind: str
    buffer_delay: int


def validate(tapping: Tapping) -> CausalityReport:
    """Classify a tapping as causal / buffered / acausal; never rejects."""
    input_lags = [t.lag for t in tapping.taps if t.role == ROLE_INPUT]
    target_lags = [t.lag for t in tapping.taps if t.role == ROLE_TARGET]
    delay = max(0, max(target_lags))
    if any(l > 0 for l in input_lags):
        kind = ACAUSAL
    elif any(l > 0 for l in target_lags):
        kind = BUFFERED
    else:
        kind = CAUSAL
    return CausalityReport(kind, delay)


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

def temporal_predictor(space, g, name=None) -> Tapping:
    """Predict a group's state one step ahead from its own past."""
    return Tapping(name or f"temporal_{g}", space,
                   (Tap(g, -1, ROLE_INPUT), Tap(g, 0, ROLE_TARGET)))


def intermodal_predictor(space, src, dst, name=None) -> Tapping:
    """Predict one modality from another at the same time step."""
    return Tapping(name or f"intermodal_{src}_{dst}", space,
                   (Tap(src, 0, ROLE_INPUT), Tap(dst, 0, ROLE_TARGET)))


def forward(space, motor_group, sensor_group, name=None) -> Tapping:
    """Forward model: command at t-1 explains the observation at t."""
    return Tapping(name or f"forward_{motor_group}_{sensor_group}", space,
                   (Tap(motor_group, -1, ROLE_INPUT),
                    Tap(sensor_group, 0, ROLE_TARGET)))


def inverse(space, motor_group, sensor_group, name=None) -> Tapping:
    """Inverse model: infer the earlier command from the observed effect.

    Same coordinates as :func:`forward` with the roles swapped; the target
    stays at lag -1 because the cause precedes the effect.
    """
    return Tapping(name or f"inverse_{motor_group}_{sensor_group}", space,
                   (Tap(sensor_group, 0, ROLE_INPUT),
                    Tap(motor_group, -1, ROLE_TARGET)))


def multi_step(space, g, k, symmetric=False, name=None) -> Tapping:
    """Moving-window predictor: inputs g@-(k-1)..0, one-step target g@+1.

    With ``symmetric=True`` the target is widened to the k-1 future steps
    g@+1..+(k-1) (so k must be >= 2), trading emission delay for a long-term
    consistency constraint.
    """
    if k < 1:
        raise TapkitError(f"multi_step window k must be >= 1, got {k}")
    if symmetric and k < 2:
        raise TapkitError("symmetric multi_step needs k >= 2 (no future window at k=1)")
    taps = [Tap(g, lag, ROLE_INPUT) for lag in range(-(k - 1), 1)]
    target_lags = range(1, k) if symmetric else (1,)
    taps += [Tap(g, lag, ROLE_TARGET) for lag in target_lags]
    suffix = "s" if symmetric else ""
    return Tapping(name or f"multi_step_{g}_{k}{suffix}", space, tuple(taps))


def autoencoder(space, groups, name=None) -> Tapping:
    """Identity construction: input and target coincide on every group."""
    taps = []
    for g in groups:
        taps += [Tap(g, 0, ROLE_INPUT), Tap(g, 0, ROLE_TARGET)]
    return Tapping(name or "autoencoder_" + "_".join(groups), space, tuple(taps))


def ape(space, groups, name=None) -> Tapping:
    """Autoencoder with inputs pulled one step into the past per group."""
    taps = []
    for g in groups:
        taps += [Tap(g, -1, ROLE_INPUT), Tap(g, 0, ROLE_TARGET)]
    return Tapping(name or "ape_" + "_".join(groups), space, tuple(taps))


def conditioning(space, cs_group, us_group, d, name=None) -> Tapping:
    """Associate a stimulus d steps back with the current outcome stimulus."""
    if d < 1:
        raise TapkitError(f"conditioning delay d must be >= 1, got {d}")
    return Tapping(name or f"conditioning_{cs_group}_{us_group}", space,
                   (Tap(cs_group, -d, ROLE_INPUT), Tap(us_group, 0, ROLE_TARGET)))


def td0(space, state_group, reward_group, name=None) -> Tapping:
    """Value-update rows: inputs (state@-1, state@0, reward@0).

    The update writes to the value estimate of the state observed one step
    back, so that coordinate doubles as the target tap; see the rlbridge
    module for the consuming update rule.
    """
    return Tapping(name or f"td0_{state_group}_{reward_group}", space,
                   (Tap(state_group, -1, ROLE_INPUT),
                    Tap(state_group, 0, ROLE_INPUT),
                    Tap(reward_group, 0, ROLE_INPUT),
                    Tap(state_group, -1, ROLE_TARGET)))


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def format_space(space: SensorimotorSpace) -> str:
    lines = [f"space {space.name} {{"]
    lines += [f"  {g.kind} {g.name}: {g.dim}" for g in space.groups]
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_tapping(tapping: Tapping) -> str:
    """Canonical text form: one tap per line, ranges never reconstructed."""
    lines = [f"tapping {tapping.name} {{"]
    for tap in tapping.taps:
        chans = "" if tap.channels is None else "[" + ",".join(map(str, tap.channels)) + "]"
        drop = f" [drop p={float(tap.drop_p)!r}]" if tap.drop_p > 0 else ""
        lines.append(f"  {tap.role} {tap.group}{chans} @ {tap.lag}{drop}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_text(space: SensorimotorSpace | None, tappings=()) -> str:
    """Render a whole .tap file (space block first, then tappings)."""
    parts = []
    if space is not None:
        parts.append(format_space(space))
    parts += [format_tapping(t) for t in tappings]
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<float>-?\d+(?:\.\d+)?[eE][-+]?\d+|-?\d+\.\d+)
      | (?P<int>-?\d+)
      | (?P<ident>[A-Za-z_]\w*)
      | (?P<dotdot>\.\.)
      | (?P<sym>[{}\[\]:,@=])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    value: str
    pos: int  # offset of the token's first character in the text


def _position(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of offset ``pos``; only a newline starts a line."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[_Token]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", *_position(text, pos))
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", pos))
    return tokens


class ParsedFile(NamedTuple):
    space: SensorimotorSpace | None
    tappings: list[Tapping]


class _Parser:
    def __init__(self, text: str, space: SensorimotorSpace | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.space = space
        self.file_space: SensorimotorSpace | None = None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, *_position(self.text, tok.pos))

    @contextmanager
    def located(self, tok: _Token):
        """Report a data-model error raised inside as a ParseError at ``tok``."""
        try:
            yield
        except TapkitError as exc:
            self.fail(str(exc), tok)

    def at_sym(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.value == value

    def expect(self, kind: str, what: str, value: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            got = repr(tok.value) if tok.kind != "eof" else "end of input"
            self.fail(f"expected {what}, got {got}", tok)
        return self.next()

    def parse_file(self) -> ParsedFile:
        if self.peek().kind == "ident" and self.peek().value == "space":
            self.file_space = self.parse_space_block()
            self.space = self.file_space
        tappings: list[Tapping] = []
        names: set[str] = set()
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident" or tok.value != "tapping":
                self.fail(f"expected 'tapping', got {tok.value!r}", tok)
            t = self.parse_tapping_block()
            if t.name in names:
                self.fail(f"duplicate tapping name {t.name!r}", tok)
            names.add(t.name)
            tappings.append(t)
        return ParsedFile(self.file_space, tappings)

    def parse_space_block(self) -> SensorimotorSpace:
        self.expect("ident", "'space'", "space")
        name_tok = self.expect("ident", "space name")
        self.expect("sym", "'{'", "{")
        spec = []
        while not self.at_sym("}"):
            kind_tok = self.expect("ident", f"modality kind ({'/'.join(KINDS)})")
            gname_tok = self.expect("ident", "group name")
            self.expect("sym", "':'", ":")
            dim_tok = self.expect("int", "group dimension")
            spec.append((kind_tok.value, gname_tok.value, int(dim_tok.value)))
            with self.located(kind_tok):
                define_space(spec, name=name_tok.value)
        self.expect("sym", "'}'", "}")
        with self.located(name_tok):
            return define_space(spec, name=name_tok.value)

    def parse_tapping_block(self) -> Tapping:
        self.expect("ident", "'tapping'", "tapping")
        name_tok = self.expect("ident", "tapping name")
        if self.space is None:
            self.fail("no space declared before first tapping", name_tok)
        self.expect("sym", "'{'", "{")
        taps: list[Tap] = []
        seen: set[tuple[str, int, int, str]] = set()
        while not self.at_sym("}"):
            role_tok = self.peek()
            if role_tok.kind != "ident" or role_tok.value not in (ROLE_INPUT, ROLE_TARGET):
                self.fail(f"expected 'input' or 'target', got {role_tok.value!r}", role_tok)
            self.next()
            group_tok = self.expect("ident", "group name")
            channels = self.parse_channels() if self.at_sym("[") else None
            self.expect("sym", "'@'", "@")
            lags = self.parse_lag()
            drop_p = self.parse_drop() if self.at_sym("[") else 0.0
            with self.located(group_tok):
                line = [Tap(group_tok.value, lag, role_tok.value, channels, drop_p)
                        for lag in lags]
                _add_coordinates(seen, name_tok.value, self.space, line)
            taps += line
        self.expect("sym", "'}'", "}")
        with self.located(name_tok):
            return Tapping(name_tok.value, self.space, tuple(taps))

    def parse_channels(self) -> tuple[int, ...]:
        self.expect("sym", "'['", "[")
        chans = [int(self.expect("int", "channel index").value)]
        while self.at_sym(","):
            self.next()
            chans.append(int(self.expect("int", "channel index").value))
        self.expect("sym", "']'", "]")
        return tuple(chans)

    def parse_lag(self) -> list[int]:
        tok = self.expect("int", "lag")
        lo = int(tok.value)
        if self.peek().kind == "dotdot":
            self.next()
            hi_tok = self.expect("int", "lag range end")
            hi = int(hi_tok.value)
            if hi < lo:
                self.fail(f"lag range {lo}..{hi} is not ascending", hi_tok)
            return list(range(lo, hi + 1))
        return [lo]

    def parse_drop(self) -> float:
        self.expect("sym", "'['", "[")
        self.expect("ident", "'drop'", "drop")
        self.expect("ident", "'p'", "p")
        self.expect("sym", "'='", "=")
        tok = self.peek()
        if tok.kind not in ("float", "int"):
            self.fail(f"expected drop probability, got {tok.value!r}", tok)
        self.next()
        self.expect("sym", "']'", "]")
        return float(tok.value)


def parse(text: str, space: SensorimotorSpace | None = None) -> ParsedFile:
    """Parse a .tap file into (space, tappings).

    A space block in the file takes precedence; otherwise tappings resolve
    against the ``space`` argument. Raises :class:`ParseError` with a 1-based
    line/column on any syntax or semantic problem.
    """
    return _Parser(text, space).parse_file()


def parse_file(path, space: SensorimotorSpace | None = None) -> ParsedFile:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), space)
