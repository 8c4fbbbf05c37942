"""Sensorimotor space declaration and episode-structured matrix storage.

A space declares ordered modality groups; the declaration order fixes the
canonical row order of every matrix recorded against it. A matrix holds one
numeric block per episode, rows = channels, columns = discrete agent time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .csvtext import header_row, line_of, read, write
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
    write(
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

    _, keys, cells = read(path, 1, check_header)
    ids = keys[:, 0]
    back = np.flatnonzero(ids[1:] < ids[:-1])
    if back.size:
        i = int(back[0]) + 1
        raise TapkitError(
            f"{path}: line {line_of(path, i)}: "
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
    header = header_row(path)
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
