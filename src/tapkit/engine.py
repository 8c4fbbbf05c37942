"""Apply a tapping to recorded data (batch) or a live stream (incremental).

One training row is emitted per valid anchor time t: every tapped cell
(channel, t + lag) must fall inside the episode, so an episode of length T
yields max(0, T - W + 1) rows for a tapping of span W. Anchors themselves may
lie outside [0, T-1] when no tap sits at lag 0; only tapped cells are bounded.
Windows never span episode boundaries.

Each entry point compiles the tapping once into a plan: the column layout (X
block, then Y block), each column's matrix row and window offset, and the
block and block-relative columns of every tap. Batch rows are gathered by row
and offset from a strided view of the length-``span`` windows of the episodes
laid end to end, one gather per X/Y block and group of episodes; blocking is
that gather plus a mask over each blocked tap's columns of its block; the
stream reads the same cells from a window of the last ``span`` measurements.
Dropout works on a finished dataset and masks each copy's drawn cells with one
flat-index write per X/Y block.

Randomized operations (dropout augmentation, blocking taps) draw from NumPy's
PCG64 generator; independent substreams are derived with
``SeedSequence(seed).spawn(...)`` in documented order (one child per copy, or
one per episode), so results are reproducible across platforms.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TapkitError
from .smcore import (ChannelRef, SensorimotorMatrix, _as_measurement, _find_row, _read_table,
                     _write_table)
from .tapdsl import ROLE_INPUT, ROLE_TARGET, Tapping, tap_channels

SCOPES = ("inputs", "targets", "both")


class Column(NamedTuple):
    """Provenance of one dataset column: which cell of the matrix it reads."""

    ref: ChannelRef
    lag: int
    role: str


@dataclass(eq=False)
class Dataset:
    """Aligned supervised arrays with activity masks and anchor provenance.

    Masks are True where a cell is active; dropout/blocking set masked cells
    to an inactive fill value and flip the mask to False. Row i's anchor
    (episode id, t) is row i of the ``(n, 2)`` int64 array ``_anchors``.
    """

    X: np.ndarray
    Y: np.ndarray
    x_mask: np.ndarray
    y_mask: np.ndarray
    _anchors: np.ndarray
    x_layout: tuple[Column, ...]
    y_layout: tuple[Column, ...]

    @property
    def anchors(self) -> list[tuple[int, int]]:
        """Each row's (episode id, anchor time t), built on every read."""
        return list(zip(*self._anchors.T.tolist()))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d_in(self) -> int:
        return self.X.shape[1]

    @property
    def d_out(self) -> int:
        return self.Y.shape[1]

    @property
    def layout(self) -> tuple[Column, ...]:
        """All columns, X block then Y block."""
        return self.x_layout + self.y_layout

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.X, other.X)
            and np.array_equal(self.Y, other.Y)
            and np.array_equal(self.x_mask, other.x_mask)
            and np.array_equal(self.y_mask, other.y_mask)
            and np.array_equal(self._anchors, other._anchors)
            and self.x_layout == other.x_layout
            and self.y_layout == other.y_layout
        )


@dataclass(frozen=True)
class DropoutConfig:
    """Augmentation settings: append ``copies`` noisy copies of the dataset,
    each with a fixed proportion of scope cells forced inactive."""

    copies: int
    proportion: float
    scope: str = "inputs"
    inactive_value: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.copies < 0:
            raise TapkitError(f"copies must be >= 0, got {self.copies}")
        if not 0.0 <= self.proportion <= 1.0:
            raise TapkitError(f"proportion must be in [0, 1], got {self.proportion}")
        if self.scope not in SCOPES:
            raise TapkitError(f"scope must be one of {SCOPES}, got {self.scope!r}")


class _Plan(NamedTuple):
    """A tapping compiled to per-column index arrays, in layout order."""

    layout: tuple[Column, ...]  # X block, then Y block
    rows: np.ndarray  # matrix row each column reads
    offs: np.ndarray  # window offset, lag - min_lag, each column reads
    d_in: int
    taps: tuple[tuple[int, slice], ...]  # each tap's block (0 X, 1 Y) and columns in it


def _compile(tapping: Tapping) -> _Plan:
    space = tapping.space
    blocks: tuple[list[Column], list[Column]] = ([], [])  # X columns, Y columns
    taps = []
    for tap in tapping.taps:
        block = 0 if tap.role == ROLE_INPUT else 1
        cols = blocks[block]
        start = len(cols)
        cols += [Column(ChannelRef(tap.group, ch), tap.lag, tap.role)
                 for ch in tap_channels(space, tap)]
        taps.append((block, slice(start, len(cols))))
    layout = tuple(blocks[0] + blocks[1])
    return _Plan(
        layout=layout,
        rows=np.array([space.resolve(c.ref.group, c.ref.index) for c in layout], dtype=np.intp),
        offs=np.array([c.lag for c in layout], dtype=np.intp) - tapping.min_lag,
        d_in=len(blocks[0]),
        taps=tuple(taps),
    )


# Episodes whose first rows fall in one range of this many rows are read by
# one gather, so many short episodes cost one NumPy call while each read
# stays small enough to be cached before it is copied into X and Y.
_BLOCK_ROWS = 4096


def _gather(matrix: SensorimotorMatrix, tapping: Tapping):
    """Compile the tapping and read every row of every episode.

    Returns the plan, the dataset with every cell active, and the first row
    of each episode followed by the row count.
    """
    if not tapping.space.compatible(matrix.space):
        raise TapkitError(
            f"tapping {tapping.name!r} and matrix use different spaces "
            f"({tapping.space.name!r} vs {matrix.space.name!r})"
        )
    plan = _compile(tapping)
    d_in, span = plan.d_in, tapping.span
    widths = [ep.data.shape[1] for ep in matrix.episodes]
    lengths = [max(0, w - span + 1) for w in widths]
    bounds = list(accumulate(lengths, initial=0))
    n = bounds[-1]
    X = np.empty((n, d_in))
    Y = np.empty((n, len(plan.layout) - d_in))
    local = np.arange(n) - np.repeat(bounds[:-1], lengths)  # row index within its episode
    anchors = np.empty((n, 2), dtype=np.int64)
    anchors[:, 0] = np.repeat([ep.id for ep in matrix.episodes], lengths)
    anchors[:, 1] = local - tapping.min_lag
    dataset = Dataset(X, Y, np.ones(X.shape, dtype=bool), np.ones(Y.shape, dtype=bool),
                      anchors, plan.layout[:d_in], plan.layout[d_in:])
    if not n:
        return plan, dataset, bounds
    # With the episodes laid end to end, row i reads the length-span window
    # that starts at column starts[i]; its cell at lag l is offset l - min_lag.
    starts = local + np.repeat(list(accumulate(widths, initial=0))[:-1], lengths)
    windows = sliding_window_view(
        np.concatenate([ep.data for ep in matrix.episodes], axis=1), span, axis=1)
    x_rows, y_rows = np.split(plan.rows, [d_in])
    x_offs, y_offs = np.split(plan.offs, [d_in])
    firsts = np.asarray(bounds[:-1])
    edges = firsts[np.diff(firsts // _BLOCK_ROWS, prepend=-1) > 0].tolist() + [n]
    for a, b in zip(edges, edges[1:]):
        if a == b:
            continue
        lo, hi = starts[a], starts[b - 1] + 1
        for out, rows, offs in ((X, x_rows, x_offs), (Y, y_rows, y_offs)):
            cells = windows[rows, lo:hi, offs].T
            if hi - lo > b - a:  # drop the windows that straddle two episodes
                cells = np.ascontiguousarray(cells)[starts[a:b] - lo]
            out[a:b] = cells
    return plan, dataset, bounds


def apply(matrix: SensorimotorMatrix, tapping: Tapping) -> Dataset:
    """Slide the tapping over every episode and collect one row per anchor.

    Cell (c, lag) of the row anchored at time t reads matrix value
    (row(c), t + lag). Episodes too short for the tapping's span contribute
    nothing; an all-short matrix yields an empty dataset, not an error.
    """
    return _gather(matrix, tapping)[1]


class StreamState:
    """Incremental counterpart of :func:`apply` for a single episode stream.

    Holds the last ``span`` measurements as a window whose last row is the
    newest; single-threaded use only.
    """

    def __init__(self, tapping: Tapping, episode_id: int = 0):
        self.tapping = tapping
        self.episode_id = episode_id
        plan = _compile(tapping)
        n_sm = tapping.space.n_sm
        self.d_in = plan.d_in
        self.max_lag = tapping.max_lag
        self.window = np.zeros((tapping.span, n_sm))
        # The row emitted by a push is anchored max_lag steps before the
        # newest time, so its cell at lag l sits in window row l - min_lag.
        self.flat = plan.offs * n_sm + plan.rows
        self.t = 0  # time index of the next push


def stream_open(tapping: Tapping, episode_id: int = 0) -> StreamState:
    return StreamState(tapping, episode_id)


def stream_push(state: StreamState, sm_vector) -> list[tuple[np.ndarray, np.ndarray, tuple[int, int]]]:
    """Feed one measurement; return the rows it completes (0 or 1).

    The row anchored at t is emitted by the push that supplies time
    t + max_lag, so future-target tappings emit with the matching delay.
    Concatenated emissions over a full episode equal :func:`apply` on it.
    """
    vec = _as_measurement(state.tapping.space, sm_vector)
    window = state.window
    window[:-1] = window[1:]
    window[-1] = vec
    s = state.t
    state.t += 1
    if s < len(window) - 1:  # the first span - 1 pushes only fill the window
        return []
    row = window.take(state.flat)
    return [(row[:state.d_in], row[state.d_in:], (state.episode_id, s - state.max_lag))]


def dropout_augment(dataset: Dataset, config: DropoutConfig) -> Dataset:
    """Append ``copies`` copies, each with floor(proportion * cells) scope
    cells forced inactive; rows 0..N-1 stay bit-identical to the original.

    Copy i draws from ``default_rng(SeedSequence(seed).spawn(copies)[i])``.
    Scope cells are numbered row-major, X block before Y block for "both".
    At high proportions a copy may lose every input of some row; no rejection
    is applied.
    """
    n, d_in, d_out = dataset.n, dataset.d_in, dataset.d_out
    reps = config.copies + 1
    X = np.tile(dataset.X, (reps, 1))
    Y = np.tile(dataset.Y, (reps, 1))
    x_mask = np.tile(dataset.x_mask, (reps, 1))
    y_mask = np.tile(dataset.y_mask, (reps, 1))
    anchors = np.tile(dataset._anchors, (reps, 1))
    children = np.random.SeedSequence(config.seed).spawn(config.copies)
    x_cells = n * d_in
    # The scope's first cell and cell count in the X-then-Y numbering.
    first, total = {"inputs": (0, x_cells), "targets": (x_cells, n * d_out),
                    "both": (0, x_cells + n * d_out)}[config.scope]
    k = int(np.floor(config.proportion * total))
    for i in range(config.copies):
        rng = np.random.default_rng(children[i])
        chosen = rng.choice(total, size=k, replace=False) + first
        in_x = chosen < x_cells
        # A cell's number within its block is its flat row-major index there.
        for values, mask, cells in ((X, x_mask, chosen[in_x] + (i + 1) * x_cells),
                                    (Y, y_mask, chosen[~in_x] + ((i + 1) * n * d_out - x_cells))):
            np.put(values, cells, config.inactive_value)
            np.put(mask, cells, False)
    return Dataset(X, Y, x_mask, y_mask, anchors, dataset.x_layout, dataset.y_layout)


def apply_blocking(matrix: SensorimotorMatrix, tapping: Tapping,
                   proportion: float, seed: int = 0) -> Dataset:
    """Like :func:`apply`, but per episode a random floor(proportion * #taps)
    subset of taps is blocked: every cell of a blocked tap is inactive
    (fill 0) for that whole episode. Episode i uses
    ``default_rng(SeedSequence(seed).spawn(n_episodes)[i])``, whether or not
    it is long enough to yield rows.
    """
    if not 0.0 <= proportion <= 1.0:
        raise TapkitError(f"proportion must be in [0, 1], got {proportion}")
    plan, dataset, bounds = _gather(matrix, tapping)
    values, masks = (dataset.X, dataset.Y), (dataset.x_mask, dataset.y_mask)
    k = int(np.floor(proportion * len(plan.taps)))
    children = np.random.SeedSequence(seed).spawn(len(matrix.episodes))
    for child, a, b in zip(children, bounds, bounds[1:]):
        blocked = np.random.default_rng(child).choice(len(plan.taps), size=k, replace=False)
        for tap in blocked:
            block, cols = plan.taps[tap]
            values[block][a:b, cols] = 0.0
            masks[block][a:b, cols] = False
    return dataset


# ---------------------------------------------------------------------------
# Dataset CSV serialization
# ---------------------------------------------------------------------------

def _column_header(col: Column) -> str:
    prefix = "x" if col.role == ROLE_INPUT else "y"
    return f"{prefix}:{col.ref.group}[{col.ref.index}]@{col.lag}"


def mask_path_for(path) -> str:
    """DS.csv -> DS.mask.csv (appends .mask.csv when there is no .csv suffix)."""
    p = str(path)
    return p[:-4] + ".mask.csv" if p.endswith(".csv") else p + ".mask.csv"


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write values to ``path`` and the 0/1 activity mask to the parallel
    mask file. Masked cells hold their fill value in the main file."""
    header = ["episode", "t"] + [_column_header(c) for c in dataset.layout]
    keys = dataset._anchors
    _write_table(path, header, [(keys, np.hstack([dataset.X, dataset.Y]))])
    _write_table(mask_path_for(path), header,
                 [(keys, np.hstack([dataset.x_mask, dataset.y_mask]))])


_HEADER_COL_RE = re.compile(r"([xy]):(\w+)\[(\d+)\]@(-?\d+)\Z")


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset_csv`. Values must be
    finite. The mask file is optional; without it every cell counts as
    active. With it, its header and episode,t columns must equal the
    dataset's and every cell must be 0 or 1."""

    def parse_header(header):
        if not header or header[:2] != ["episode", "t"]:
            raise TapkitError(f"{path}: expected dataset header starting episode,t")
        if len(header) == 2:
            raise TapkitError(f"{path}: dataset header has no columns after episode,t")
        layout: list[Column] = []
        for col in header[2:]:
            m = _HEADER_COL_RE.match(col.strip())
            if m is None:
                raise TapkitError(f"{path}: malformed dataset column {col!r}")
            role = ROLE_INPUT if m.group(1) == "x" else ROLE_TARGET
            if role == ROLE_INPUT and layout and layout[-1].role == ROLE_TARGET:
                raise TapkitError(f"{path}: x column {col!r} after the y block")
            layout.append(Column(ChannelRef(m.group(2), int(m.group(3))), int(m.group(4)), role))
        return header, tuple(layout)

    (header, layout), keys, data = _read_table(path, 2, parse_header)
    d_in = sum(c.role == ROLE_INPUT for c in layout)
    mask = np.ones(data.shape, dtype=bool)
    mpath = mask_path_for(path)
    if os.path.exists(mpath):

        def same_header(mask_header):
            if mask_header != header:
                raise TapkitError(f"{mpath}: header does not match {path}")

        _, mask_keys, mask = _read_table(mpath, 2, same_header, mask=True)
        n = min(len(keys), len(mask_keys))
        differ = np.flatnonzero((mask_keys[:n] != keys[:n]).any(axis=1)).tolist() + [n]
        if differ[0] < len(mask_keys):  # a row that differs, or one the dataset lacks
            raise TapkitError(f"{mpath}: line {_find_row(mpath, differ[0])[0]}: "
                              f"episode,t does not match {path}")
        if len(mask_keys) != len(keys):
            raise TapkitError(f"{mpath}: mask row count does not match {path}")
    return Dataset(data[:, :d_in], data[:, d_in:], mask[:, :d_in], mask[:, d_in:], keys,
                   layout[:d_in], layout[d_in:])
