"""Emit tappings as Graphviz DOT text.

The drawing is the space's full (group, lag) grid over a lag window, one rank
per lag column, with tapped cells filled by role (input, target, or both when
they coincide) and a complete bipartite edge set from input cells to target
cells. Output is byte-stable for identical inputs: nodes follow space row
order then ascending lag, edges follow (input order, target order).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import _compile
from .errors import TapkitError
from .tapdsl import ROLE_INPUT, ROLE_TARGET, Tapping

_FILL = {
    frozenset(): "white",
    frozenset({"input"}): "lightblue",
    frozenset({"target"}): "orange",
    frozenset({"input", "target"}): "lightblue;0.5:orange",
}


@dataclass(frozen=True)
class DiagramOptions:
    """Lag window to draw (must bracket 0) and whether to draw one cell per
    group or one per channel. An end left ``None`` reaches the tapping's
    farthest lag on that side, or 0 if no tap lies beyond it."""

    lag_window: tuple[int | None, int | None] = (None, None)
    collapse_groups: bool = True

    def __post_init__(self):
        lo, hi = self.lag_window
        if (lo is not None and lo > 0) or (hi is not None and hi < 0):
            raise TapkitError(f"lag window must contain 0, got [{lo}, {hi}]")


def _lag_tag(lag: int) -> str:
    if lag < 0:
        return f"m{-lag}"
    if lag > 0:
        return f"p{lag}"
    return "0"


def to_dot(tapping: Tapping, options: DiagramOptions | None = None) -> str:
    """Render one tapping; raises if the window excludes any tap."""
    options = options or DiagramOptions()
    lo, hi = options.lag_window
    if lo is None:
        lo = min(tapping.min_lag, 0)
    if hi is None:
        hi = max(tapping.max_lag, 0)
    excluded = [t for t in tapping.taps if not lo <= t.lag <= hi]
    if excluded:
        listing = ", ".join(f"{t.role} {t.group}@{t.lag}" for t in excluded)
        raise TapkitError(
            f"lag window [{lo}, {hi}] excludes taps: {listing}"
        )

    # Cells are (row key, lag); a row key is a group or a single channel.
    if options.collapse_groups:
        rows = [(g.name, None) for g in tapping.space.groups]
    else:
        rows = [(g.name, i) for g in tapping.space.groups for i in range(g.dim)]

    roles: dict[tuple, set] = {}
    for col in _compile(tapping).layout:
        ch = None if options.collapse_groups else col.ref.index
        roles.setdefault(((col.ref.group, ch), col.lag), set()).add(col.role)

    def node_id(row, lag) -> str:
        gname, ch = row
        chan = "" if ch is None else f"_{ch}"
        return f"cell_{gname}{chan}_{_lag_tag(lag)}"

    def label(row, lag) -> str:
        gname, ch = row
        chan = "" if ch is None else f"[{ch}]"
        return f"{gname}{chan}@{lag}"

    lines = [f"digraph {tapping.name} {{"]
    lines.append("  rankdir=LR;")
    lines.append('  node [shape=box, style=filled, fillcolor=white];')
    for lag in range(lo, hi + 1):
        members = []
        for row in rows:
            fill = _FILL[frozenset(roles.get((row, lag), set()))]
            members.append(f'    {node_id(row, lag)} [label="{label(row, lag)}", '
                           f'fillcolor="{fill}"];')
        lines.append(f"  subgraph lag_{_lag_tag(lag)} {{")
        lines.append("    rank=same;")
        lines += members
        lines.append("  }")
    inputs = [key for key in _cell_order(rows, lo, hi)
              if ROLE_INPUT in roles.get(key, set())]
    targets = [key for key in _cell_order(rows, lo, hi)
               if ROLE_TARGET in roles.get(key, set())]
    for src in inputs:
        for dst in targets:
            lines.append(f"  {node_id(*src)} -> {node_id(*dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cell_order(rows, lo, hi):
    """Deterministic cell enumeration: row order first, then ascending lag."""
    return [((row), lag) for row in rows for lag in range(lo, hi + 1)]
