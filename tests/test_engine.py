import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapkit import (
    DropoutConfig,
    SensorimotorMatrix,
    Tap,
    Tapping,
    TapkitError,
    apply,
    apply_blocking,
    define_space,
    dropout_augment,
    load_dataset_csv,
    save_dataset_csv,
    stream_open,
    stream_push,
)
from tapkit import tapdsl
from tapkit.engine import mask_path_for
from tapkit.smcore import Episode

from oracles import (
    brute_force_apply,
    edge_values,
    random_matrix,
    random_space,
    random_tapping,
    reference_blocking,
    reference_dropout,
    row_count_law,
)


def line_matrix(space, T, episode_id=0):
    """Channel c at time t holds 100*c + t, so provenance is readable."""
    n = space.n_sm
    data = np.add.outer(100.0 * np.arange(n), np.arange(float(T)))
    return SensorimotorMatrix(space, [Episode(episode_id, data)])


@pytest.fixture
def vspace():
    return define_space([("extero", "v", 1)], name="v1")


class TestApply:
    def test_nao_row_count(self, nao_space):
        m = line_matrix(nao_space, 5)
        ds = apply(m, tapdsl.forward(nao_space, "m", "vision"))
        assert ds.n == 4
        assert ds.anchors == [(0, 1), (0, 2), (0, 3), (0, 4)]
        # Input columns are the previous step's commands.
        assert np.array_equal(ds.X[0], m.episodes[0].data[0:4, 0])
        assert np.array_equal(ds.Y[0], m.episodes[0].data[4:6, 1])

    def test_autoencoder_x_equals_y(self, vspace):
        ds = apply(line_matrix(vspace, 7), tapdsl.autoencoder(vspace, ["v"]))
        assert np.array_equal(ds.X, ds.Y)

    def test_symmetric_multi_step_count(self, vspace):
        ds = apply(line_matrix(vspace, 10), tapdsl.multi_step(vspace, "v", 3, symmetric=True))
        assert ds.n == 6  # W = 5 for lags -2..+2

    def test_short_episode_empty(self, vspace):
        ds = apply(line_matrix(vspace, 1), tapdsl.temporal_predictor(vspace, "v"))
        assert ds.n == 0
        assert ds.X.shape == (0, 1)

    def test_space_mismatch(self, vspace, nao_space):
        with pytest.raises(TapkitError, match="spaces"):
            apply(line_matrix(vspace, 5), tapdsl.forward(nao_space, "m", "vision"))

    def test_layout_order(self, nao_space):
        t = Tapping("t", nao_space, (
            Tap("vision", 0, "input", channels=(1,)),
            Tap("m", -1, "input", channels=(2, 0)),
            Tap("vision", 0, "target"),
        ))
        ds = apply(line_matrix(nao_space, 3), t)
        assert [(c.ref.group, c.ref.index, c.lag) for c in ds.x_layout] == [
            ("vision", 1, 0), ("m", 0, -1), ("m", 2, -1)]
        assert [c.role for c in ds.layout] == ["input"] * 3 + ["target"] * 2

    def test_no_cross_episode_windows(self, vspace):
        # Episode joints carry sentinels; no row may mix both values.
        eps = [Episode(0, np.full((1, 3), 1.0)), Episode(1, np.full((1, 3), 2.0))]
        m = SensorimotorMatrix(vspace, eps)
        ds = apply(m, tapdsl.multi_step(vspace, "v", 2))
        for row_x, row_y in zip(ds.X, ds.Y):
            vals = set(row_x) | set(row_y)
            assert vals in ({1.0}, {2.0})

    def test_multi_step_is_delay_embedding(self, vspace):
        m = line_matrix(vspace, 12)
        series = m.episodes[0].data[0]
        for k in (1, 2, 4):
            ds = apply(m, tapdsl.multi_step(vspace, "v", k))
            for (eid, t), row in zip(ds.anchors, ds.X):
                assert np.array_equal(row, series[t - k + 1:t + 1])

    def test_multi_step_k1_emits_temporal_predictor_pairs(self, vspace):
        m = line_matrix(vspace, 9)
        a = apply(m, tapdsl.multi_step(vspace, "v", 1))
        b = apply(m, tapdsl.temporal_predictor(vspace, "v"))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_ape_is_ae_advanced_one_anchor(self, vspace):
        m = random_matrix(np.random.default_rng(3), vspace, max_episodes=2, max_T=9)
        ae = apply(m, tapdsl.autoencoder(vspace, ["v"]))
        ap = apply(m, tapdsl.ape(vspace, ["v"]))
        # Per episode, APE pairs the AE inputs with the AE targets one
        # anchor later; stitch the episode blocks together to compare.
        xs, ys = [], []
        for ep in m.episodes:
            idx = [i for i, (eid, _) in enumerate(ae.anchors) if eid == ep.id]
            if len(idx) > 1:
                xs.append(ae.X[idx[:-1]])
                ys.append(ae.Y[idx[1:]])
        expected_x = np.vstack(xs) if xs else np.zeros((0, 1))
        expected_y = np.vstack(ys) if ys else np.zeros((0, 1))
        assert np.array_equal(ap.X, expected_x)
        assert np.array_equal(ap.Y, expected_y)


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        tapping = random_tapping(rng, space)
        matrix = random_matrix(rng, space)
        anchors, xs, ys = brute_force_apply(matrix, tapping)
        ds = apply(matrix, tapping)
        assert ds.anchors == anchors
        assert np.array_equal(ds.X, np.array(xs).reshape(len(xs), -1) if xs else ds.X)
        assert np.array_equal(ds.Y, np.array(ys).reshape(len(ys), -1) if ys else ds.Y)
        assert ds.n == row_count_law(matrix, tapping)

    def test_episodes_across_gather_blocks(self, vspace):
        # Long, short and too-short episodes over several 4096-row gather blocks.
        rng = np.random.default_rng(8)
        eps = [Episode(i, rng.standard_normal((1, T)))
               for i, T in enumerate([3000, 1, 2500, 5000, 2, 40, 4200])]
        matrix = SensorimotorMatrix(vspace, eps)
        tapping = tapdsl.multi_step(vspace, "v", 2, symmetric=True)
        ds = apply(matrix, tapping)
        anchors, xs, ys = brute_force_apply(matrix, tapping)
        assert ds.anchors == anchors
        assert np.array_equal(ds.X, np.array(xs)) and np.array_equal(ds.Y, np.array(ys))


def assert_bit_identical(dataset, reference):
    """Dataset fields equal (X, Y, x_mask, y_mask, anchors) byte for byte."""
    arrays = (dataset.X, dataset.Y, dataset.x_mask, dataset.y_mask)
    for got, want in zip(arrays, reference[:4]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert dataset.anchors == reference[4]


proportions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestAgainstReferenceMasks:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), proportions, st.integers(0, 2**32 - 1))
    def test_blocking_matches_reference(self, case, proportion, seed):
        rng = np.random.default_rng(case)
        space = random_space(rng)
        tapping = random_tapping(rng, space)
        # Short episodes (T < span) still consume one seed child each.
        matrix = random_matrix(rng, space, max_episodes=5, max_T=12)
        assert_bit_identical(apply_blocking(matrix, tapping, proportion, seed),
                             reference_blocking(matrix, tapping, proportion, seed))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), proportions,
           st.sampled_from(["inputs", "targets", "both"]),
           st.sampled_from([0.0, -9.0]), st.integers(0, 2**32 - 1))
    def test_dropout_matches_reference(self, case, copies, proportion, scope, fill, seed):
        rng = np.random.default_rng(case)
        space = random_space(rng)
        tapping = random_tapping(rng, space)
        matrix = random_matrix(rng, space, max_episodes=4, max_T=12)
        # Blocked input already carries inactive cells for the copies to tile.
        ds = apply_blocking(matrix, tapping, 0.5, seed=case)
        cfg = DropoutConfig(copies, proportion, scope, fill, seed)
        assert_bit_identical(dropout_augment(ds, cfg), reference_dropout(ds, cfg))

    def test_short_episode_between_long_ones(self, vspace):
        eps = [Episode(0, np.arange(1.0, 9.0)[None, :]), Episode(1, np.ones((1, 2))),
               Episode(2, np.arange(1.0, 9.0)[None, :])]
        m = SensorimotorMatrix(vspace, eps)
        tapping = tapdsl.multi_step(vspace, "v", 3)
        for seed in range(5):
            out = apply_blocking(m, tapping, 0.5, seed)
            assert out.n == 2 * (8 - tapping.span + 1)
            assert_bit_identical(out, reference_blocking(m, tapping, 0.5, seed))


class TestStream:
    def test_forward_emission_times(self, nao_space):
        m = line_matrix(nao_space, 5)
        tapping = tapdsl.forward(nao_space, "m", "vision")
        state = stream_open(tapping)
        counts = [len(stream_push(state, m.episodes[0].data[:, t])) for t in range(5)]
        assert counts == [0, 1, 1, 1, 1]

    def test_buffered_first_emission(self, vspace):
        tapping = Tapping("buf", vspace, (
            Tap("v", -1, "input"), Tap("v", 2, "target")))
        state = stream_open(tapping)
        emitted = []
        first = None
        for push in range(1, 9):
            out = stream_push(state, [float(push)])
            if out and first is None:
                first = push
            emitted += out
        assert first == 1 + 2 + 1  # 1 + max target lag + |min lag|
        assert len(emitted) == 8 - tapping.span + 1

    def test_zero_pushes(self, vspace):
        state = stream_open(tapdsl.temporal_predictor(vspace, "v"))
        assert state.t == 0

    def test_wrong_vector_length(self, nao_space):
        state = stream_open(tapdsl.forward(nao_space, "m", "vision"))
        with pytest.raises(TapkitError):
            stream_push(state, np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, vspace, bad):
        state = stream_open(tapdsl.temporal_predictor(vspace, "v"))
        stream_push(state, [1.0])
        with pytest.raises(TapkitError, match="non-finite"):
            stream_push(state, [bad])
        assert state.t == 1
        assert len(stream_push(state, [2.0])) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_batch_stream_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        tapping = random_tapping(rng, space)
        matrix = random_matrix(rng, space)
        ds = apply(matrix, tapping)
        rows = []
        for ep in matrix.episodes:
            state = stream_open(tapping, episode_id=ep.id)
            for t in range(ep.data.shape[1]):
                rows += stream_push(state, ep.data[:, t])
        assert len(rows) == ds.n
        for i, (x, y, anchor) in enumerate(rows):
            assert anchor == ds.anchors[i]
            assert np.array_equal(x, ds.X[i])
            assert np.array_equal(y, ds.Y[i])


def stream_episode(tapping, ep, scribble=False):
    """Push every measurement of ``ep`` through a fresh stream; return each
    emission as ``(x bytes, y bytes, x shape, y shape, anchor)`` taken when it
    is emitted. With ``scribble``, each emitted array is then overwritten."""
    state = stream_open(tapping, episode_id=ep.id)
    out = []
    for t in range(ep.data.shape[1]):
        for x, y, anchor in stream_push(state, ep.data[:, t]):
            assert not (np.shares_memory(x, state.window) or np.shares_memory(y, state.window))
            out.append((x.tobytes(), y.tobytes(), x.shape, y.shape, anchor))
            if scribble:
                x.fill(np.nan)
                y.fill(np.nan)
    return out


def oracle_emissions(tapping, ep, space):
    anchors, xs, ys = brute_force_apply(SensorimotorMatrix(space, [ep]), tapping)
    return [(np.array(x, dtype=float).tobytes(), np.array(y, dtype=float).tobytes(),
             (len(x),), (len(y),), anchor) for x, y, anchor in zip(xs, ys, anchors)]


STREAM_SPACE = define_space([("motor", "m", 2), ("extero", "v", 3)], name="mv")
STREAM_TAPPINGS = {
    "future target": (Tap("m", -2, "input"), Tap("v", 0, "input", (1,)), Tap("v", 3, "target")),
    "all negative lags": (Tap("m", -4, "input"), Tap("v", -3, "input"),
                          Tap("v", -1, "target", (0, 2))),
    "span 1": (Tap("m", 0, "input"), Tap("v", 0, "target")),
    "span 1 in the past": (Tap("v", -2, "input", (2,)), Tap("v", -2, "target", (0, 2))),
}


class TestStreamAgainstOracle:
    """Every emission equals brute_force_apply's row. Episodes are at least
    three spans long, so the ring wraps at every phase."""

    @pytest.mark.parametrize("name", STREAM_TAPPINGS)
    def test_named_tappings(self, name):
        tapping = Tapping(name.replace(" ", "_"), STREAM_SPACE, STREAM_TAPPINGS[name])
        rng = np.random.default_rng(len(name))
        for T in range(3 * tapping.span, 3 * tapping.span + tapping.span + 2):
            ep = Episode(7, edge_values(rng, (STREAM_SPACE.n_sm, T)))
            assert stream_episode(tapping, ep) == oracle_emissions(tapping, ep, STREAM_SPACE)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_tappings(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        tapping = random_tapping(rng, space)
        T = 3 * tapping.span + int(rng.integers(0, 2 * tapping.span + 1))
        ep = Episode(int(rng.integers(0, 5)), edge_values(rng, (space.n_sm, T)))
        assert stream_episode(tapping, ep) == oracle_emissions(tapping, ep, space)

    @pytest.mark.parametrize("name", STREAM_TAPPINGS)
    def test_emissions_do_not_alias(self, name):
        """An emitted array keeps its bytes after later pushes, and writing
        into it changes no later emission."""
        tapping = Tapping(name.replace(" ", "_"), STREAM_SPACE, STREAM_TAPPINGS[name])
        ep = Episode(0, edge_values(np.random.default_rng(3), (STREAM_SPACE.n_sm,
                                                               4 * tapping.span + 1)))
        want = oracle_emissions(tapping, ep, STREAM_SPACE)
        state = stream_open(tapping)
        kept = [row for t in range(ep.data.shape[1]) for row in stream_push(state, ep.data[:, t])]
        assert [(x.tobytes(), y.tobytes(), x.shape, y.shape, a) for x, y, a in kept] == want
        assert stream_episode(tapping, ep, scribble=True) == want


class TestDropout:
    def make(self, nao_space, n=10):
        return apply(line_matrix(nao_space, n + 1), tapdsl.forward(nao_space, "m", "vision"))

    def test_zero_copies_is_identity(self, nao_space):
        ds = self.make(nao_space)
        out = dropout_augment(ds, DropoutConfig(copies=0, proportion=0.7, seed=1))
        assert out == ds

    def test_counts_and_original_block(self, nao_space):
        ds = self.make(nao_space)  # N=10, d_in=4
        cfg = DropoutConfig(copies=3, proportion=0.5, scope="inputs", seed=11)
        out = dropout_augment(ds, cfg)
        assert out.n == 40
        assert np.array_equal(out.X[:10], ds.X)
        assert np.array_equal(out.Y[:10], ds.Y)
        assert out.x_mask[:10].all()
        for c in range(3):
            block = out.x_mask[10 * (c + 1):10 * (c + 2)]
            assert (~block).sum() == 20  # floor(0.5 * 10 * 4)
            assert out.y_mask[10 * (c + 1):10 * (c + 2)].all()

    def test_masked_cells_hold_inactive_value(self, nao_space):
        ds = self.make(nao_space)
        cfg = DropoutConfig(copies=1, proportion=0.25, inactive_value=-9.0, seed=2)
        out = dropout_augment(ds, cfg)
        assert (out.X[~out.x_mask] == -9.0).all()

    def test_seed_reproducible(self, nao_space):
        ds = self.make(nao_space)
        cfg = DropoutConfig(copies=2, proportion=0.4, scope="both", seed=5)
        assert dropout_augment(ds, cfg) == dropout_augment(ds, cfg)

    def test_target_scope(self, nao_space):
        ds = self.make(nao_space)
        cfg = DropoutConfig(copies=1, proportion=0.5, scope="targets", seed=3)
        out = dropout_augment(ds, cfg)
        assert out.x_mask.all()
        assert (~out.y_mask[10:]).sum() == 10  # floor(0.5 * 10 * 2)

    def test_both_scope_pools_all_cells(self, nao_space):
        ds = self.make(nao_space)
        cfg = DropoutConfig(copies=1, proportion=0.5, scope="both", seed=3)
        out = dropout_augment(ds, cfg)
        masked = (~out.x_mask[10:]).sum() + (~out.y_mask[10:]).sum()
        assert masked == 30  # floor(0.5 * 10 * (4 + 2))

    def test_anchors_repeat_per_copy(self, nao_space):
        ds = self.make(nao_space)
        out = dropout_augment(ds, DropoutConfig(copies=2, proportion=0.1, seed=4))
        assert out.anchors == ds.anchors * 3

    @pytest.mark.parametrize("kwargs, message", [
        (dict(copies=-1, proportion=0.1), "copies must be >= 0, got -1"),
        (dict(copies=1, proportion=1.5), "proportion must be in [0, 1], got 1.5"),
        (dict(copies=1, proportion=-0.1), "proportion must be in [0, 1], got -0.1"),
        (dict(copies=1, proportion=0.1, scope="cells"),
         "scope must be one of ('inputs', 'targets', 'both'), got 'cells'"),
    ])
    def test_config_refusal_text(self, kwargs, message):
        with pytest.raises(TapkitError) as exc:
            DropoutConfig(**kwargs)
        assert str(exc.value) == message


class TestBlocking:
    def test_zero_proportion_equals_apply(self, nao_space):
        m = line_matrix(nao_space, 8)
        tapping = tapdsl.forward(nao_space, "m", "vision")
        assert apply_blocking(m, tapping, 0.0, seed=1) == apply(m, tapping)

    def test_full_proportion_masks_everything(self, nao_space):
        m = line_matrix(nao_space, 8)
        out = apply_blocking(m, tapdsl.forward(nao_space, "m", "vision"), 1.0, seed=1)
        assert not out.x_mask.any()
        assert not out.y_mask.any()
        assert (out.X == 0).all() and (out.Y == 0).all()

    def test_blocked_tap_is_episode_wide(self, vspace):
        eps = [Episode(i, np.arange(1.0, 7.0)[None, :]) for i in range(4)]
        m = SensorimotorMatrix(vspace, eps)
        tapping = tapdsl.multi_step(vspace, "v", 2)
        out = apply_blocking(m, tapping, 0.34, seed=7)  # floor(0.34*3) = 1 tap
        start = 0
        for ep in eps:
            n = 6 - tapping.span + 1
            cols = np.hstack([out.x_mask[start:start + n], out.y_mask[start:start + n]])
            all_on = cols.all(axis=0)
            all_off = (~cols).all(axis=0)
            # one tap = one column here: exactly one column fully blocked,
            # every other column fully active
            assert all_off.sum() == 1
            assert (all_on | all_off).all()
            start += n

    def test_seed_reproducible_and_episode_varied(self, vspace):
        eps = [Episode(i, np.arange(1.0, 9.0)[None, :]) for i in range(6)]
        m = SensorimotorMatrix(vspace, eps)
        tapping = tapdsl.multi_step(vspace, "v", 3)
        a = apply_blocking(m, tapping, 0.5, seed=42)
        b = apply_blocking(m, tapping, 0.5, seed=42)
        assert a == b
        c = apply_blocking(m, tapping, 0.5, seed=43)
        assert a != c  # different seed, different block sets (generic)

    @pytest.mark.parametrize("proportion", [-0.1, 1.5])
    def test_proportion_refusal_text(self, vspace, proportion):
        m = SensorimotorMatrix(vspace, [Episode(0, np.arange(1.0, 7.0)[None, :])])
        with pytest.raises(TapkitError) as exc:
            apply_blocking(m, tapdsl.multi_step(vspace, "v", 2), proportion)
        assert str(exc.value) == f"proportion must be in [0, 1], got {proportion}"


class TestAnchors:
    """``Dataset.anchors`` reads as a list of (episode id, t) int tuples."""

    @staticmethod
    def matrix(space, last_id=2**40):
        # Row counts 5, 0 (too short) and 1 under a span-3 tapping; ids past int32.
        data = [np.arange(space.n_sm * T, dtype=float).reshape(space.n_sm, T) for T in (7, 1, 3)]
        return SensorimotorMatrix(space, [Episode(i, d) for i, d in zip((0, 4, last_id), data)])

    @staticmethod
    def assert_int_tuples(anchors):
        assert type(anchors) is list
        assert all(type(a) is tuple and len(a) == 2 and all(type(v) is int for v in a)
                   for a in anchors)

    def future(self, vspace):
        return Tapping("future", vspace, (Tap("v", 1, "input"), Tap("v", 3, "target")))

    def test_list_of_builtin_int_tuples(self, vspace):
        m = self.matrix(vspace)
        ds = apply(m, self.future(vspace))
        self.assert_int_tuples(ds.anchors)
        assert ds.anchors == brute_force_apply(m, self.future(vspace))[0]
        assert ds.anchors[0] == (0, -1) and ds.anchors[-1] == (2**40, -1)
        self.assert_int_tuples(apply_blocking(m, self.future(vspace), 0.5, seed=1).anchors)
        self.assert_int_tuples(apply(SensorimotorMatrix(vspace), self.future(vspace)).anchors)

    def test_csv_round_trip_is_exact(self, vspace, tmp_path):
        ds = apply(self.matrix(vspace), self.future(vspace))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        self.assert_int_tuples(loaded.anchors)
        assert loaded.anchors == ds.anchors
        assert loaded == ds

    @pytest.mark.parametrize("copies", [0, 1, 3])
    def test_dropout_repeats_anchors(self, vspace, copies):
        ds = apply(self.matrix(vspace), self.future(vspace))
        out = dropout_augment(ds, DropoutConfig(copies=copies, proportion=0.5, seed=2))
        self.assert_int_tuples(out.anchors)
        assert out.anchors == ds.anchors * (copies + 1)

    def test_eq_sees_one_anchor_difference(self, vspace):
        a = apply(self.matrix(vspace, last_id=7), self.future(vspace))
        b = apply(self.matrix(vspace, last_id=8), self.future(vspace))
        assert sum(x != y for x, y in zip(a.anchors, b.anchors)) == 1
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        assert a != b
        assert a == apply(self.matrix(vspace, last_id=7), self.future(vspace))


class TestDatasetCsv:
    def test_round_trip_with_mask(self, nao_space, tmp_path):
        ds = apply(line_matrix(nao_space, 7), tapdsl.forward(nao_space, "m", "vision"))
        ds = dropout_augment(ds, DropoutConfig(copies=1, proportion=0.3, seed=9))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        assert (tmp_path / "ds.mask.csv").exists()
        loaded = load_dataset_csv(path)
        assert loaded == ds

    def test_header_format(self, nao_space, tmp_path):
        ds = apply(line_matrix(nao_space, 3), tapdsl.forward(nao_space, "m", "vision"))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("episode,t,x:m[0]@-1,")
        assert header.endswith("y:vision[0]@0,y:vision[1]@0")

    def test_mask_path_derivation(self):
        assert mask_path_for("out/DS.csv") == "out/DS.mask.csv"
        assert mask_path_for("DS.data") == "DS.data.mask.csv"

    def test_blocked_dataset_round_trips(self, nao_space, tmp_path):
        m = line_matrix(nao_space, 9)
        ds = apply_blocking(m, tapdsl.forward(nao_space, "m", "vision"), 0.5, seed=3)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        assert load_dataset_csv(path) == ds

    def test_negative_anchor_round_trips(self, vspace, tmp_path):
        t = Tapping("future", vspace, (Tap("v", 1, "input"), Tap("v", 2, "target")))
        ds = apply(line_matrix(vspace, 6), t)
        assert ds.anchors[0] == (0, -1)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        assert load_dataset_csv(path) == ds

    def test_non_finite_value_rejected(self, nao_space, tmp_path):
        ds = apply(line_matrix(nao_space, 4), tapdsl.forward(nao_space, "m", "vision"))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TapkitError, match="non-finite value in the row of episode 0, t 2"):
            load_dataset_csv(path)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        tapping = random_tapping(rng, space)
        eps = [Episode(i, edge_values(rng, (space.n_sm, int(rng.integers(1, 12)))))
               for i in range(int(rng.integers(0, 3)))]
        ds = apply(SensorimotorMatrix(space, eps), tapping)
        ds.x_mask = rng.random(ds.x_mask.shape) < 0.5
        ds.y_mask = rng.random(ds.y_mask.shape) < 0.5
        path = tmp_path_factory.mktemp("ds") / "ds.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert loaded == ds
        # Bytes, not values: array_equal treats -0.0 and 0.0 as equal.
        for name in ("X", "Y", "x_mask", "y_mask"):
            assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes()

    def test_wrong_field_count_names_line(self, nao_space, tmp_path):
        ds = apply(line_matrix(nao_space, 4), tapdsl.forward(nao_space, "m", "vision"))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + ",1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TapkitError, match="line 3: .*field"):
            load_dataset_csv(path)

    def test_non_numeric_value_names_line(self, nao_space, tmp_path):
        ds = apply(line_matrix(nao_space, 4), tapdsl.forward(nao_space, "m", "vision"))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",banana"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TapkitError, match="line 3: non-numeric value"):
            load_dataset_csv(path)


    # In ds.csv "1" and zeros parse as inf in NumPy's C reader and "x"s go to
    # the row loop; the mask file's reader sends any long cell to the row loop.
    @pytest.mark.parametrize("name, big", [("ds.csv", "1"), ("ds.csv", "x"), ("ds.mask.csv", "1")])
    def test_field_past_csv_limit_names_line(self, nao_space, tmp_path, name, big):
        ds = apply_blocking(line_matrix(nao_space, 6), tapdsl.forward(nao_space, "m", "vision"),
                            0.5, seed=1)
        save_dataset_csv(ds, tmp_path / "ds.csv")
        path = tmp_path / name
        lines = path.read_text().splitlines()
        cell = big.ljust(csv.field_size_limit() + 1, "0" if big == "1" else "x")
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TapkitError) as info:
            load_dataset_csv(tmp_path / "ds.csv")
        limit = csv.field_size_limit()
        assert str(info.value) == f"{path}: line 3: field larger than field limit ({limit})"

    @pytest.mark.parametrize("header, message", [
        ("", "expected dataset header starting episode,t"),
        ("t,episode,x:m[0]@-1,y:v[0]@0", "expected dataset header starting episode,t"),
        ("episode,t,x:m[0]@-1,z:v[0]@0", "malformed dataset column 'z:v[0]@0'"),
        ("episode,t,x:m[0]@-1,y:v[0]@0,x:m[1]@-1", "x column 'x:m[1]@-1' after the y block"),
    ])
    def test_header_refusal_text(self, tmp_path, header, message):
        path = tmp_path / "ds.csv"
        path.write_text(header and header + "\n0,1,1,2,3\n")
        with pytest.raises(TapkitError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_header_without_columns(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("episode,t\n0,1\n0,2\n")
        with pytest.raises(TapkitError, match="dataset header has no columns after episode,t"):
            load_dataset_csv(path)


class TestMaskFile:
    def saved(self, nao_space, tmp_path):
        ds = apply_blocking(line_matrix(nao_space, 6), tapdsl.forward(nao_space, "m", "vision"),
                            0.5, seed=1)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        return path, tmp_path / "ds.mask.csv"

    def edit_line(self, mpath, i, edit):
        lines = mpath.read_text().splitlines()
        lines[i] = edit(lines[i])
        mpath.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("cell", ["x", "2", "", " 1", "true"])
    def test_cells_must_be_zero_or_one(self, nao_space, tmp_path, cell):
        path, mpath = self.saved(nao_space, tmp_path)
        self.edit_line(mpath, 2, lambda line: line.rsplit(",", 1)[0] + "," + cell)
        with pytest.raises(TapkitError, match="line 3: expected 6 mask cells of 0 or 1"):
            load_dataset_csv(path)

    def test_field_count_checked(self, nao_space, tmp_path):
        path, mpath = self.saved(nao_space, tmp_path)
        self.edit_line(mpath, 1, lambda line: line + ",1")
        with pytest.raises(TapkitError, match="line 2: expected 6 mask cells"):
            load_dataset_csv(path)

    def test_header_must_match(self, nao_space, tmp_path):
        path, mpath = self.saved(nao_space, tmp_path)
        self.edit_line(mpath, 0, lambda line: line.replace("x:m[0]@-1", "x:m[0]@-2"))
        with pytest.raises(TapkitError, match="header does not match"):
            load_dataset_csv(path)

    def test_stale_mask_with_same_row_count(self, nao_space, tmp_path):
        # A mask written for another dataset with as many rows but other anchors.
        path, mpath = self.saved(nao_space, tmp_path)
        t = Tapping("later", nao_space, (Tap("m", 0, "input"), Tap("vision", 1, "target")))
        other = apply(line_matrix(nao_space, 6), t)
        save_dataset_csv(other, tmp_path / "other.csv")
        header = path.read_text().splitlines()[0]
        rows = (tmp_path / "other.mask.csv").read_text().splitlines()[1:]
        mpath.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(TapkitError, match="line 2: episode,t does not match"):
            load_dataset_csv(path)

    def test_mismatch_after_multiline_row_names_its_line(self, nao_space, tmp_path):
        path, mpath = self.saved(nao_space, tmp_path)
        lines = mpath.read_text().splitlines()
        lines[1] = '"%s\n",%s' % tuple(lines[1].split(",", 1))  # episode id spans lines 2-3
        episode, t, cells = lines[3].split(",", 2)
        lines[3] = f"{episode},{int(t) + 100},{cells}"
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(TapkitError) as info:
            load_dataset_csv(path)
        assert str(info.value) == f"{mpath}: line 5: episode,t does not match {path}"

    def test_row_count_must_match(self, nao_space, tmp_path):
        path, mpath = self.saved(nao_space, tmp_path)
        mpath.write_text("\n".join(mpath.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(TapkitError, match="mask row count"):
            load_dataset_csv(path)
        path, mpath = self.saved(nao_space, tmp_path)
        mpath.write_text(mpath.read_text() + "0,6,1,1,1,1,1,1\n")
        with pytest.raises(TapkitError, match="line 7: episode,t does not match"):
            load_dataset_csv(path)
