"""Sensorimotor space declaration and episode-structured matrix storage.

A space declares ordered modality groups; the declaration order fixes the
canonical row order of every matrix recorded against it. A matrix holds one
numeric block per episode, rows = channels, columns = discrete agent time.
The CSV table format of data, dataset and mask files is read and written here.
"""

from __future__ import annotations

import csv
import re
from array import array
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import TapkitError

KINDS = ("motor", "proprio", "extero", "intero")

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")
_CHANNEL_RE = re.compile(r"(\w+):(\w+)\[(\d+)\]\Z")
_CHANNEL_REF_RE = re.compile(r"(\w+)\[(\d+)\]\Z")


def _fmt(value: float) -> str:
    # 17 significant digits round-trips any float64 exactly.
    return format(float(value), ".17g")


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

    @property
    def n_sm(self) -> int:
        return sum(g.dim for g in self.groups)

    def group(self, name: str) -> Group:
        for g in self.groups:
            if g.name == name:
                return g
        raise TapkitError(f"unknown group {name!r} in space {self.name!r}")

    def offset(self, name: str) -> int:
        off = 0
        for g in self.groups:
            if g.name == name:
                return off
            off += g.dim
        raise TapkitError(f"unknown group {name!r} in space {self.name!r}")

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
    """One contiguous recording: ``data`` has shape (n_sm, T_e)."""

    id: int
    data: np.ndarray


@dataclass(eq=False)
class SensorimotorMatrix:
    """Per-episode channel x time storage against a fixed space; time is in
    integer steps. Equality compares the space and the episode payloads."""

    space: SensorimotorSpace
    episodes: list[Episode] = field(default_factory=list)

    def __post_init__(self):
        last = None
        for ep in self.episodes:
            ep.data = np.asarray(ep.data, dtype=float)
            if ep.data.ndim != 2 or ep.data.shape[0] != self.space.n_sm:
                raise TapkitError(
                    f"episode {ep.id}: expected {self.space.n_sm} rows, "
                    f"got shape {ep.data.shape}"
                )
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
        if self.episodes:
            last = self.episodes[-1]
            if episode_id == last.id:
                last.data = np.hstack([last.data, vec[:, None]])
                return self
            if episode_id < last.id:
                raise TapkitError(
                    f"episode {episode_id} is closed (episode {last.id} already started)"
                )
        self.episodes.append(Episode(episode_id, vec[:, None].copy()))
        return self


def _as_measurement(space: SensorimotorSpace, sm_vector) -> np.ndarray:
    """One measurement as a flat float vector: n_sm values, all finite."""
    vec = np.asarray(sm_vector, dtype=float).reshape(-1)
    if vec.shape[0] != space.n_sm:
        raise TapkitError(f"measurement has {vec.shape[0]} values, space needs {space.n_sm}")
    if not np.isfinite(vec).all():
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
        header = next(csv.reader(fh), None)
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


_ROWS_PER_WRITE = 4096
_KEY_NAMES = ("episode id", "t")
_BITS = frozenset("01")


def _write_table(path, header: list[str], blocks, cell: str = "%.17g") -> None:
    """Write ``header``, then one line per row of each ``(keys, cells)`` block:
    the ``(n, k)`` int keys as ``%d``, then the ``(n, d)`` cells in ``cell``
    format. ``%.17g`` round-trips any float64 exactly. Lines end in CRLF, as
    the csv module writes them."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for keys, cells in blocks:
            line = ",".join(["%d"] * keys.shape[1] + [cell] * cells.shape[1]) + "\r\n"
            for a in range(0, len(keys), _ROWS_PER_WRITE):
                b = a + _ROWS_PER_WRITE
                fh.write("".join(line % tuple(k + c) for k, c in
                                 zip(keys[a:b].tolist(), cells[a:b].tolist())))


def _read_table(path, n_keys: int, check_header, mask: bool = False):
    """Read a table written by :func:`_write_table` in one pass.

    ``check_header`` gets the header row (None for an empty file) and raises
    if it is wrong; its result is returned first. Every other non-blank line
    holds as many fields as the header: ``n_keys`` int keys, then cells that
    are finite floats or, for a ``mask``, exactly ``0`` or ``1``. Blank lines
    are skipped but counted, so each error names its line. Returns the
    header check's result, an ``(n, n_keys)`` int array and an ``(n, d)``
    float (bool for a mask) array.
    """
    keys = array("q")
    cells = array("B" if mask else "d")
    parse = int if mask else float
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        checked = check_header(header)
        width = len(header)
        d = width - n_keys
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width or mask and not _BITS.issuperset(row[n_keys:]):
                expected = f"{d} mask cells of 0 or 1" if mask else f"{width} fields"
                raise TapkitError(f"{path}: line {lineno}: expected {expected}")
            try:
                keys.extend(map(int, row[:n_keys]))
                cells.extend(map(parse, row[n_keys:]))
            except ValueError:
                for j, text in enumerate(row):
                    try:
                        (int if j < n_keys else float)(text)
                    except ValueError:
                        what = f"non-integer {_KEY_NAMES[j]}" if j < n_keys else "non-numeric value"
                        raise TapkitError(f"{path}: line {lineno}: {what} {text!r}") from None
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
        rows = ((lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1) if row)
        return next(islice(rows, i + 1, None))
