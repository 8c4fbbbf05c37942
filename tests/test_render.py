import pathlib
import re

import pytest

from tapkit import DiagramOptions, Tap, Tapping, TapkitError, to_dot
from tapkit import tapdsl

DATA = pathlib.Path(__file__).parent / "data"


class TestGolden:
    def test_forward_grid_matches_golden(self, grid_space):
        dot = to_dot(tapdsl.forward(grid_space, "m", "vision"))
        assert dot == (DATA / "forward_grid.dot").read_text()

    def test_symmetric_multi_step_matches_golden(self, grid_space):
        dot = to_dot(tapdsl.multi_step(grid_space, "vision", 3, symmetric=True))
        assert dot == (DATA / "multi_step_sym3.dot").read_text()

    def test_byte_stable_across_runs(self, grid_space):
        t = tapdsl.td0(grid_space, "i", "q")
        assert to_dot(t) == to_dot(t)


class TestStructure:
    def test_forward_counts(self, grid_space):
        dot = to_dot(tapdsl.forward(grid_space, "m", "vision"))
        # 4 groups x 2 lags collapsed; one input-to-target edge
        assert dot.count("[label=") == 8
        assert dot.count("->") == 1

    def test_node_count_scales_with_window(self, grid_space):
        opts = DiagramOptions(lag_window=(-2, 1))
        dot = to_dot(tapdsl.forward(grid_space, "m", "vision"), opts)
        assert dot.count("[label=") == 4 * 4

    def test_edge_count_is_bipartite_product(self, grid_space):
        t = tapdsl.multi_step(grid_space, "vision", 3, symmetric=True)
        dot = to_dot(t)
        assert dot.count("->") == 3 * 2

    def test_autoencoder_cell_carries_both_markers(self, grid_space):
        dot = to_dot(tapdsl.autoencoder(grid_space, ["vision"]))
        assert 'fillcolor="lightblue;0.5:orange"' in dot

    def test_expanded_channels(self, grid_space):
        opts = DiagramOptions(collapse_groups=False)
        dot = to_dot(tapdsl.forward(grid_space, "m", "vision"), opts)
        assert dot.count("[label=") == 11 * 2  # channels x lags
        assert dot.count("->") == 4 * 2  # m channels x vision channels

    def test_input_and_target_colors(self, grid_space):
        dot = to_dot(tapdsl.forward(grid_space, "m", "vision"))
        assert 'cell_m_m1 [label="m@-1", fillcolor="lightblue"]' in dot
        assert 'cell_vision_0 [label="vision@0", fillcolor="orange"]' in dot


class TestWindow:
    def test_window_excluding_taps_errors(self, grid_space):
        fwd = tapdsl.forward(grid_space, "m", "vision")
        with pytest.raises(TapkitError, match="excludes taps: input m@-1"):
            to_dot(fwd, DiagramOptions(lag_window=(0, 0)))

    def test_window_must_contain_zero(self):
        with pytest.raises(TapkitError, match="contain 0"):
            DiagramOptions(lag_window=(-3, -1))

    @pytest.mark.parametrize("window", [(None, -1), (1, None)])
    def test_open_window_must_contain_zero(self, window):
        with pytest.raises(TapkitError, match="contain 0"):
            DiagramOptions(lag_window=window)

    @pytest.mark.parametrize("window, lags", [
        ((None, 2), [-1, 0, 1, 2]),
        ((-3, None), [-3, -2, -1, 0]),
        ((None, None), [-1, 0]),
    ])
    def test_open_end_reaches_the_farthest_tap(self, grid_space, window, lags):
        dot = to_dot(tapdsl.forward(grid_space, "m", "vision"),
                     DiagramOptions(lag_window=window))
        assert drawn_lags(dot) == lags

    def test_default_window_brackets_zero(self, grid_space):
        t = Tapping("past", grid_space, (
            Tap("m", -3, "input"), Tap("vision", -2, "target")))
        dot = to_dot(t)
        assert 'label="m@0"' in dot  # window extends to 0 even with no tap there


def drawn_lags(dot: str) -> list[int]:
    """The lag columns of a DOT drawing, in the order they are drawn."""
    tags = re.findall(r"subgraph lag_(m\d+|0|p\d+) ", dot)
    return [0 if t == "0" else (-1 if t[0] == "m" else 1) * int(t[1:]) for t in tags]
