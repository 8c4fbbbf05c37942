"""Sensorimotor space declaration and episode-structured matrix storage.

A space declares ordered modality groups; the declaration order fixes the
canonical row order of every matrix recorded against it. A matrix holds one
numeric block per episode, rows = channels, columns = discrete agent time.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

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

    def has_group(self, name: str) -> bool:
        return any(g.name == name for g in self.groups)

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
    """Per-episode channel x time storage against a fixed space.

    ``dt`` is sampling-interval metadata only; all semantics are in integer
    steps, so equality compares space and episode payloads and ignores ``dt``.
    """

    space: SensorimotorSpace
    episodes: list[Episode] = field(default_factory=list)
    dt: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise TapkitError(f"dt must be positive, got {self.dt}")
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

    def episode(self, episode_id: int) -> Episode:
        for ep in self.episodes:
            if ep.id == episode_id:
                return ep
        raise TapkitError(f"no episode with id {episode_id}")

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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode"] + matrix.space.channel_names())
        for ep in matrix.episodes:
            for t in range(ep.data.shape[1]):
                writer.writerow([ep.id] + [_fmt(v) for v in ep.data[:, t]])


def load_csv(space: SensorimotorSpace, path, dt: float = 1.0) -> SensorimotorMatrix:
    """Read a matrix saved by :func:`save_csv`, validating the header against
    ``space``. Episode ids must be non-decreasing and never revisit; every
    value must be finite."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TapkitError(f"{path}: empty file, expected a header row") from None
        expected = ["episode"] + space.channel_names()
        if [h.strip() for h in header] != expected:
            raise TapkitError(
                f"{path}: header does not match space {space.name!r}; "
                f"expected {','.join(expected)}"
            )
        episodes: list[Episode] = []
        cols: list[np.ndarray] = []
        cur_id = None

        def flush():
            if cur_id is not None:
                episodes.append(Episode(cur_id, np.column_stack(cols)))

        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise TapkitError(f"{path}: line {lineno}: expected {len(expected)} fields")
            try:
                eid = int(row[0])
            except ValueError:
                raise TapkitError(
                    f"{path}: line {lineno}: non-integer episode id {row[0]!r}"
                ) from None
            try:
                vec = np.array([float(v) for v in row[1:]])
            except ValueError:
                bad = next(v for v in row[1:] if not _is_number(v))
                raise TapkitError(
                    f"{path}: line {lineno}: non-numeric value {bad!r}"
                ) from None
            if not np.isfinite(vec).all():
                bad = row[1 + int(np.argmin(np.isfinite(vec)))]
                raise TapkitError(f"{path}: line {lineno}: non-finite value {bad!r}")
            if cur_id is None or eid != cur_id:
                if cur_id is not None and eid <= cur_id:
                    raise TapkitError(
                        f"{path}: line {lineno}: non-monotone episode id {eid} after {cur_id}"
                    )
                flush()
                cur_id = eid
                cols = []
            cols.append(vec)
        flush()
    return SensorimotorMatrix(space, episodes, dt=dt)


def infer_space_from_csv(path, name: str = "inferred") -> SensorimotorSpace:
    """Reconstruct the space declaration from a data CSV header.

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
    return define_space(spec, name=name)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
