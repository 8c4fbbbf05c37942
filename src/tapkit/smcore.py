"""Sensorimotor space declaration and episode-structured matrix storage.

A space declares ordered modality groups; the declaration order fixes the
canonical row order of every matrix recorded against it. A matrix holds one
numeric block per episode, rows = channels, columns = discrete agent time.
The CSV table format of data, dataset and mask files is read and written here.
"""

from __future__ import annotations

import csv
import re
import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import TapkitError

KINDS = ("motor", "proprio", "extero", "intero")

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")
_CHANNEL_RE = re.compile(r"(\w+):(\w+)\[(\d+)\]\Z")
_CHANNEL_REF_RE = re.compile(r"(\w+)\[(\d+)\]\Z")


@dataclass(frozen=True)
class Group:
    """One modality group: a named contiguous block of channels of one kind."""

    kind: str
    name: str
    dim: int


@dataclass(frozen=True)
class ChannelRef:
    """A single channel addressed as (group name, within-group index)."""

    group: str
    index: int

    def __str__(self) -> str:
        return f"{self.group}[{self.index}]"


def parse_channel_ref(text: str) -> ChannelRef:
    """Parse ``g[i]`` notation into a ChannelRef."""
    m = _CHANNEL_REF_RE.match(text.strip())
    if m is None:
        raise TapkitError(f"cannot parse channel reference {text!r}; expected g[i]")
    return ChannelRef(m.group(1), int(m.group(2)))


@dataclass(frozen=True)
class SensorimotorSpace:
    """Ordered declaration of modality groups.

    The concatenation of all group vectors is the agent's full measurement
    vector; its length is ``n_sm``. Group declaration order is the canonical
    row order of every matrix using this space.
    """

    name: str
    groups: tuple[Group, ...]

    @cached_property  # read on every append and stream push
    def n_sm(self) -> int:
        return sum(g.dim for g in self.groups)

    def group(self, name: str) -> Group:
        for g in self.groups:
            if g.name == name:
                return g
        raise TapkitError(f"unknown group {name!r} in space {self.name!r}")

    def offset(self, name: str) -> int:
        """Row of channel 0 of group ``name``."""
        return sum(g.dim for g in self.groups[:self.groups.index(self.group(name))])

    def resolve(self, group: str, index: int) -> int:
        """Absolute row of channel ``index`` within ``group``."""
        g = self.group(group)
        if not 0 <= index < g.dim:
            raise TapkitError(
                f"channel index {index} out of range for group {group!r} (dim {g.dim})"
            )
        return self.offset(group) + index

    def channel_refs(self) -> list[ChannelRef]:
        """All channels in canonical row order (row i -> element i)."""
        return [ChannelRef(g.name, i) for g in self.groups for i in range(g.dim)]

    def channel_names(self) -> list[str]:
        """CSV column names, ``<kind>:<group>[<index>]``, in row order."""
        return [f"{g.kind}:{g.name}[{i}]" for g in self.groups for i in range(g.dim)]

    def compatible(self, other: "SensorimotorSpace") -> bool:
        """Structural compatibility: identical group layout, names aside."""
        return self.groups == other.groups


def define_space(spec, name: str = "sm") -> SensorimotorSpace:
    """Build a space from ``[(kind, name, dim), ...]`` declarations.

    Rejects duplicate group names, unknown kinds, and non-positive dims.
    """
    groups = []
    seen = set()
    for kind, gname, dim in spec:
        if kind not in KINDS:
            raise TapkitError(f"unknown modality kind {kind!r}; expected one of {KINDS}")
        if not _IDENT_RE.match(gname):
            raise TapkitError(f"group name {gname!r} is not an identifier")
        if gname in seen:
            raise TapkitError(f"duplicate group name {gname!r}")
        if int(dim) < 1:
            raise TapkitError(f"group {gname!r} has non-positive dimension {dim}")
        seen.add(gname)
        groups.append(Group(kind, gname, int(dim)))
    space = SensorimotorSpace(name, tuple(groups))
    if space.n_sm == 0:
        raise TapkitError("space has no channels")
    return space


@dataclass
class Episode:
    """One contiguous recording: ``data`` has shape (n_sm, T_e).

    Appends fill a column-major buffer that doubles when full; ``data`` is a
    view of its filled columns. An append writes in place only while ``data``
    is the view it last handed out, and never rewrites a filled column, so an
    array taken from ``data`` earlier keeps its values.
    """

    id: int
    data: np.ndarray
    _filled: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def _append(self, vec: np.ndarray) -> None:
        data = self.data
        t = data.shape[1]
        buf = data.base
        if data is not self._filled or buf is None or buf.shape[1] == t:
            buf = np.empty((len(vec), max(2 * t, 16)), order="F")
            buf[:, :t] = data
        buf[:, t] = vec
        self.data = self._filled = buf[:, :t + 1]


@dataclass(eq=False)
class SensorimotorMatrix:
    """Per-episode channel x time storage against a fixed space; time is in
    integer steps. Equality compares the space and the episode payloads."""

    space: SensorimotorSpace
    episodes: list[Episode] = field(default_factory=list)

    def __post_init__(self):
        n_sm, last = self.space.n_sm, None
        for ep in self.episodes:
            data = ep.data = np.asarray(ep.data, dtype=float)
            if data.ndim != 2 or len(data) != n_sm:
                raise TapkitError(f"episode {ep.id}: expected {n_sm} rows, got shape {data.shape}")
            if last is not None and ep.id <= last:
                raise TapkitError(
                    f"episode ids must be strictly increasing ({ep.id} after {last})"
                )
            last = ep.id

    def __eq__(self, other) -> bool:
        if not isinstance(other, SensorimotorMatrix):
            return NotImplemented
        return (
            self.space == other.space
            and [e.id for e in self.episodes] == [e.id for e in other.episodes]
            and all(
                np.array_equal(a.data, b.data)
                for a, b in zip(self.episodes, other.episodes)
            )
        )

    def append_measurement(self, episode_id: int, sm_vector) -> "SensorimotorMatrix":
        """Append one measurement column (n_sm finite values) to an episode,
        creating it if new.

        Episodes are append-only: once a later episode exists, earlier ones
        are closed and reject appends.
        """
        vec = _as_measurement(self.space, sm_vector)
        last = self.episodes[-1].id if self.episodes else None
        if last is not None and episode_id < last:
            raise TapkitError(f"episode {episode_id} is closed (episode {last} already started)")
        if episode_id != last:
            self.episodes.append(Episode(episode_id, np.empty((len(vec), 0))))
        self.episodes[-1]._append(vec)
        return self


def _as_measurement(space: SensorimotorSpace, sm_vector) -> np.ndarray:
    """One measurement as a flat float vector: n_sm values, all finite."""
    vec = np.asarray(sm_vector, dtype=float)
    if vec.ndim != 1:
        vec = vec.reshape(-1)
    if vec.shape[0] != space.n_sm:
        raise TapkitError(f"measurement has {vec.shape[0]} values, space needs {space.n_sm}")
    if np.count_nonzero(np.isfinite(vec)) != len(vec):  # faster than .all() on short vectors
        raise TapkitError("measurement has a non-finite value")
    return vec


def append_measurement(matrix: SensorimotorMatrix, episode_id: int, sm_vector):
    """Functional alias for :meth:`SensorimotorMatrix.append_measurement`."""
    return matrix.append_measurement(episode_id, sm_vector)


def save_csv(matrix: SensorimotorMatrix, path) -> None:
    """Write a matrix as CSV: ``episode`` column, then one column per channel.

    Rows are grouped by episode; time is implicit in row order. Values are
    printed with 17 significant digits so a reload is bit-exact.
    """
    _write_table(
        path,
        ["episode"] + matrix.space.channel_names(),
        ((np.full((ep.data.shape[1], 1), ep.id), ep.data.T) for ep in matrix.episodes),
    )


def load_csv(space: SensorimotorSpace, path) -> SensorimotorMatrix:
    """Read a matrix saved by :func:`save_csv`, validating the header against
    ``space``. Episode ids must be non-decreasing and never revisit; every
    value must be finite."""
    expected = ["episode"] + space.channel_names()

    def check_header(header):
        if header is None:
            raise TapkitError(f"{path}: empty file, expected a header row")
        if [h.strip() for h in header] != expected:
            raise TapkitError(
                f"{path}: header does not match space {space.name!r}; "
                f"expected {','.join(expected)}"
            )

    _, keys, cells = _read_table(path, 1, check_header)
    ids = keys[:, 0]
    back = np.flatnonzero(ids[1:] < ids[:-1])
    if back.size:
        i = int(back[0]) + 1
        raise TapkitError(
            f"{path}: line {_find_row(path, i)[0]}: "
            f"non-monotone episode id {ids[i]} after {ids[i - 1]}"
        )
    bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
    episodes = [Episode(int(ids[a]), np.ascontiguousarray(cells[a:b].T))
                for a, b in zip(bounds, bounds[1:]) if b > a]
    return SensorimotorMatrix(space, episodes)


def infer_space_from_csv(path) -> SensorimotorSpace:
    """Reconstruct the space declaration, named ``inferred``, from a data CSV
    header.

    Convenience for CLI paths where no sidecar space file is given; the
    header columns carry kind, group, and index for every channel.
    """
    with open(path, newline="") as fh:
        _, header = next(_csv_rows(path, fh), (1, None))
    if not header or header[0].strip() != "episode":
        raise TapkitError(f"{path}: missing 'episode' header column")
    spec: list[tuple[str, str, int]] = []
    for col in header[1:]:
        m = _CHANNEL_RE.match(col.strip())
        if m is None:
            raise TapkitError(f"{path}: malformed channel column {col!r}")
        kind, gname, idx = m.group(1), m.group(2), int(m.group(3))
        if spec and spec[-1][1] == gname:
            kind0, _, dim = spec[-1]
            if kind != kind0 or idx != dim:
                raise TapkitError(f"{path}: non-contiguous channel column {col!r}")
            spec[-1] = (kind0, gname, dim + 1)
        else:
            if idx != 0:
                raise TapkitError(f"{path}: group {gname!r} does not start at index 0")
            spec.append((kind, gname, 1))
    return define_space(spec, name="inferred")


_ROWS_PER_WRITE = 1024
_KEY_NAMES = ("episode id", "t")
_BITS = frozenset("01")


def _write_table(path, header: list[str], blocks) -> None:
    """Write ``header``, then one line per row of each ``(keys, cells)`` block:
    the ``(n, k)`` int keys as ``%d``, then the ``(n, d)`` cells, floats as
    ``%.17g``, which round-trips any float64 exactly, and bools as ``0`` or
    ``1``. Fields are joined by commas and lines end in CRLF, as the csv
    module writes them.

    The bytes are those of Python's ``%`` operator. They are made by NumPy
    ops over chunks of ``_ROWS_PER_WRITE`` rows, see :func:`_text_lines`.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.flush()  # the lines are bytes: they go to the binary buffer after the header
        for keys, cells in blocks:
            for a in range(0, len(keys), _ROWS_PER_WRITE):
                b = a + _ROWS_PER_WRITE
                fh.buffer.write(_text_lines(cells[a:b], keys[a:b]))


def _text_lines(cells: np.ndarray, keys: np.ndarray | None = None,
                sep: str = ",", end: str = "\r\n") -> bytes:
    """One line per row: the ``(n, k)`` int64 ``keys`` as ``%d``, then the
    ``(n, d)`` ``cells``, floats as ``%.17g`` and bools as ``0`` or ``1``,
    joined by the one-character ``sep`` and ended by ``end``.

    Every field is laid out at a fixed width in one zero-padded ``(n, width)``
    uint8 block, a separator byte before it. NUL is never part of the text,
    so one boolean index over the block leaves the lines.
    """
    n = len(cells)
    fields = [] if keys is None else [(_int_text(keys.ravel()), keys.shape[1])]
    fields.append(((cells.view(np.uint8) + ord("0")).reshape(1, -1) if cells.dtype == bool
                   else _float_text(cells.ravel()), cells.shape[1]))
    block = np.zeros((n, sum(m * (len(text) + 1) for text, m in fields) + len(end)),
                     dtype=np.uint8)
    at = 0
    for text, m in fields:
        w = len(text) + 1
        slots = block[:, at:at + m * w].reshape(n, m, w)
        slots[:, :, 0] = ord(sep)
        slots[:, :, 1:] = text.reshape(w - 1, n, m).transpose(1, 2, 0)
        at += m * w
    block[:, 0] = 0  # no separator before a line's first field
    block[:, at:] = np.frombuffer(end.encode(), dtype=np.uint8)
    flat = block.ravel()
    return flat[flat != 0].tobytes()


# The %.17g kernel. For a finite x with decimal exponent X in [-4, 16],
# 10**(16 - X) is an exact double, and Dekker's TwoProduct gives
# |x| * 10**(16 - X) exactly as hi + lo with hi an integer in [1e16, 1e17]:
# its 17-digit rounding is exact in int64. Texts are built as
# sign, "0.00"-style lead, digits with the point.
_POW10 = 10.0 ** np.arange(21)
_POW10_INT = 10 ** np.arange(1, 19, dtype=np.uint64)
_GROUP = np.arange(10_000)
_DIGITS = (_GROUP // np.array([[1000], [100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
_TRAILING_ZEROS = sum(_GROUP % 10**k == 0 for k in range(1, 5))  # 4 for 0000
_ROW = np.arange(19)[:, None]
_LEAD = np.zeros((5, 21), dtype=np.uint8)  # column X + 4 holds the lead of exponent X
_LEAD[:, :4] = np.frombuffer(b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0", np.uint8).reshape(4, 5).T


def _veltkamp(a):
    """Split doubles into a 26-bit high part and the exact rest."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _veltkamp(_POW10)


def _scaled(a, exponent):
    """``a * 10**(16 - exponent)`` exactly, as ``(hi, lo)``: Dekker's
    TwoProduct, one rounding per ufunc call, so nothing becomes an FMA."""
    k = 16 - exponent
    hi = a * _POW10[k]
    ah, al = _veltkamp(a)
    bh, bl = _POW10_HIGH[k], _POW10_LOW[k]
    return hi, al * bl - (((hi - ah * bh) - al * bh) - ah * bl)


def _decimal(u: np.ndarray, width: int):
    """The last ``width`` decimal digits of each non-negative int, as a
    ``(width, n)`` ASCII array, and its 4-digit groups, lowest first."""
    digits = np.empty((width, len(u)), dtype=np.uint8)
    groups = []
    for stop in range(width, 0, -4):
        high = u // 10_000
        groups.append((u - high * 10_000).astype(np.intp, copy=False))
        start = max(stop - 4, 0)
        digits[start:stop] = _DIGITS[4 - stop + start:].take(groups[-1], axis=1)
        u = high
    return digits, groups


def _int_text(v: np.ndarray) -> np.ndarray:
    """``'%d' % i`` for each value of the 1-D int64 ``v``, as a ``(w + 1, n)``
    uint8 array, ``w`` the digits of the longest: column ``j`` holds the text
    of ``v[j]``, NUL-padded."""
    neg = v < 0
    mag = np.where(neg, ~v, v).astype(np.uint64) + neg  # ~v == -v - 1 fits int64's minimum
    size = np.searchsorted(_POW10_INT, mag, side="right")  # digits - 1
    width = int(size.max(initial=0)) + 1
    digits, _ = _decimal(mag, width)
    digits *= _ROW[:width] >= width - 1 - size
    text = np.empty((width + 1, len(v)), dtype=np.uint8)
    text[0] = neg * ord("-")
    text[1:] = digits
    return text


def _float_text(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % f`` for each value of the 1-D float64 ``x``, as a
    ``(24, n)`` uint8 array: column ``j`` holds the text of ``x[j]`` with
    NULs between and after its parts.

    Zeros and values with ``1e-4 <= |x| < 1e17`` are made by the kernel above.
    Every other value (subnormal, small, huge, nan, inf), and each one whose
    decade ``log10`` misses or whose rounding carries into the next decade,
    is made one at a time by ``%``.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)  # 1e-4 as a double lies above 10**-4
    a = np.where(fast, a, 1.0)  # zeros get 1.0's digits, with the 1 made a 0 below
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -4, 16, out=e)  # log10 of a value just below 1e17 may round up to 17
    hi, lo = _scaled(a, e)
    floor_lo = np.floor(lo)
    sig = hi.astype(np.int64) + floor_lo.astype(np.int64)
    rest = lo - floor_lo
    sig += (rest > 0.5) | ((rest == 0.5) & ((sig & 1) == 1))  # round half to even
    # log10 may be one off next to a power of ten: the exact product's decade
    # says so, and % writes those values and the ones that round up to 10**17
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    slow = np.flatnonzero(~fast & (x != 0) | below | above | (sig == 10**17))
    digits, groups = _decimal(sig, 17)
    digits[0] -= x == 0
    tz = _TRAILING_ZEROS[groups[0]]
    run = np.flatnonzero(groups[0] == 0)  # four or more trailing zeros: look further up
    for group in groups[1:4]:
        tz[run] += _TRAILING_ZEROS[group[run]]
        run = run[group[run] == 0]
    q = np.maximum(e, -1)  # the last digit before the point: -1 puts every digit after the lead
    keep = np.maximum(17 - tz, q + 1)
    cut = np.flatnonzero(keep < 17)
    digits[:, cut] *= _ROW[:17] < keep[cut]
    text = np.empty((24, len(x)), dtype=np.uint8)
    text[0] = np.signbit(x) * ord("-")
    text[1:6] = _LEAD.take(e + 4, axis=1)
    body = text[6:]
    left = _ROW[:17] <= q
    body[:17] = digits * left
    body[17] = 0
    body[1:] += digits * ~left
    body[1:] += (_ROW[:17] == q) * (ord(".") * (keep > q + 1)).astype(np.uint8)
    if slow.size:  # each text has at most 24 characters
        text[:, slow] = np.array(["%.17g" % f for f in x[slow].tolist()],
                                 dtype="S24").view(np.uint8).reshape(-1, 24).T
    return text


def _read_table(path, n_keys: int, check_header, mask: bool = False):
    """Read a table written by :func:`_write_table`.

    ``check_header`` gets the header row (None for an empty file) and raises
    if it is wrong; its result is returned first. Every other non-blank line
    holds as many fields as the header: ``n_keys`` int keys, then cells that
    are finite floats or, for a ``mask``, exactly ``0`` or ``1``. Returns the
    header check's result, an ``(n, n_keys)`` int array and an ``(n, d)``
    float (bool for a mask) array.

    NumPy's C reader parses the body in one pass. Any body it refuses or
    warns about (no rows, an id past int64, quotes, ...) is read again by a
    ``csv`` row loop that gives the same arrays or names the offending line;
    blank lines are skipped by both but counted by the loop.

    Warnings are turned into errors with ``warnings.catch_warnings()``,
    which changes the filters of the whole process: do not load tables
    from several threads at once.
    """
    with open(path, newline="") as fh:
        _, header = next(_csv_rows(path, fh), (1, None))
        checked = check_header(header)
        width = len(header)
        d = width - n_keys
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    # S2 cells cannot tell "1\0" from "1": give a NUL line one field, so it is refused.
                    (line if "\0" not in line else "\0" for line in fh) if mask else fh,
                    dtype=[("k", "<i8", (n_keys,)), ("c", "S2" if mask else "<f8", (d,))],
                    delimiter=",", comments=None, ndmin=1)
            keys, cells = table["k"], table["c"]
            if mask:  # the cells as little-endian byte pairs: "0" is 0x0030, "1" 0x0031
                code = cells.view("<u2")
                cells = code == ord("1")
                if np.count_nonzero(cells) + np.count_nonzero(code == ord("0")) != code.size:
                    raise ValueError("mask cell other than 0 or 1")
        except (ValueError, Warning):
            fh.seek(0)
            rows = _csv_rows(path, fh)
            next(rows)
            keys = array("q")
            cells = array("B" if mask else "d")
            parse = int if mask else float
            for lineno, row in rows:
                if not row:
                    continue
                if len(row) != width or mask and not _BITS.issuperset(row[n_keys:]):
                    expected = f"{d} mask cells of 0 or 1" if mask else f"{width} fields"
                    raise TapkitError(f"{path}: line {lineno}: expected {expected}")
                try:
                    keys.extend(map(int, row[:n_keys]))
                    cells.extend(map(parse, row[n_keys:]))
                except (ValueError, OverflowError):
                    for j, text in enumerate(row):
                        try:
                            value = (int if j < n_keys else float)(text)
                        except ValueError:
                            what = f"non-integer {_KEY_NAMES[j]}" if j < n_keys else "non-numeric value"
                            raise TapkitError(f"{path}: line {lineno}: {what} {text!r}") from None
                        if j < n_keys and not -2**63 <= value < 2**63:
                            raise TapkitError(
                                f"{path}: line {lineno}: {_KEY_NAMES[j]} out of range {text!r}")
            keys = np.frombuffer(keys, dtype=np.int64).reshape(-1, n_keys)
            cells = np.frombuffer(cells, dtype=bool if mask else float).reshape(-1, d)
    if not mask and not np.isfinite(cells).all():
        i, j = divmod(int(np.argmin(np.isfinite(cells))), d)
        lineno, row = _find_row(path, i)
        where = "" if n_keys == 1 else " in the row of episode %d, t %d:" % tuple(keys[i])
        raise TapkitError(f"{path}: line {lineno}: non-finite value{where} {row[n_keys + j]!r}")
    return checked, keys, cells


def _find_row(path, i: int) -> tuple[int, list[str]]:
    """Line number and fields of data row ``i`` of a table (blank lines are
    not rows). Error paths only: it reads the file again."""
    with open(path, newline="") as fh:
        rows = ((lineno, row) for lineno, row in _csv_rows(path, fh) if row)
        return next(islice(rows, i + 1, None))


def _csv_rows(path, fh):
    """Each row ``csv.reader`` reads from ``fh`` with the number of the line
    it starts on, from 1 (a quoted field may span lines); a blank line is an
    empty row. A row the reader refuses (a field longer than
    ``csv.field_size_limit()``, or a NUL before Python 3.11) raises a
    TapkitError that names the line it starts on."""
    reader = csv.reader(fh)
    lineno = 1
    try:
        for row in reader:
            yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise TapkitError(f"{path}: line {lineno}: {exc}") from None
