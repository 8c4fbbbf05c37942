import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapkit import (
    PlantConfig,
    TapkitError,
    apply,
    best_of_n,
    fit,
    generate,
    lms_step,
    load_model,
    plant_matrix,
    predict,
    save_model,
)
from tapkit import models, tapdsl
from tapkit.models import LinearModel, feature_dim, features, input_dim, rmse, zero_model

from oracles import (
    edge_values,
    quadratic_loss,
    reference_best_of_n,
    reference_fit,
    reference_lms_step,
)


def linear_plant_dataset(seed=3, steps=201, inverse=False):
    cfg = PlantConfig(kind="linear", dim=2, noise_std=0.0, seed=seed)
    matrix = generate(cfg, 1, steps)
    make = tapdsl.inverse if inverse else tapdsl.forward
    return plant_matrix(cfg), apply(matrix, make(matrix.space, "m", "v"))


class TestFeatures:
    def test_quadratic_dimension(self):
        assert feature_dim(3, "quadratic") == 3 + 6
        assert input_dim(9, "quadratic") == 3
        assert input_dim(4, "identity") == 4

    def test_quadratic_terms(self):
        phi = features(np.array([2.0, 3.0]), "quadratic")
        assert np.array_equal(phi, [2, 3, 4, 6, 9])

    @pytest.mark.parametrize("fmap", ["identity", "quadratic"])
    def test_maps_the_last_axis(self, fmap):
        rng = np.random.default_rng(4)
        wide = edge_values(rng, (6, 11))
        batches = [
            edge_values(rng, (2, 3, 4)),
            edge_values(rng, (16, 256, 4)),  # one block of the demo's reaching
            edge_values(rng, (5, 1, 3)),  # (goals, 1 candidate, d)
            np.asfortranarray(edge_values(rng, (7, 4))),
            np.asfortranarray(edge_values(rng, (3, 2, 4))),
            wide[:, 2:6],  # column slice: rows strided past the unused columns
            wide[::2, ::3],
        ]
        for x in batches:
            with np.errstate(over="ignore"):  # products of the extremes overflow to inf
                phi = features(x, fmap)
                rows = [features(row, fmap) for row in x.reshape(-1, x.shape[-1])]
            assert phi.shape == x.shape[:-1] + (len(rows[0]),)
            assert phi.tobytes() == np.stack(rows).tobytes()

    def test_not_a_quadratic_dim(self):
        with pytest.raises(TapkitError):
            input_dim(8, "quadratic")

    def test_unknown_feature_map_text(self):
        with pytest.raises(TapkitError) as exc:
            features(np.ones(2), "cubic")
        assert str(exc.value) == "unknown feature map 'cubic'; expected ('identity', 'quadratic')"


class TestFit:
    def test_recovers_linear_plant(self):
        A, ds = linear_plant_dataset()
        model = fit(ds, "identity", ridge=0.0)
        assert np.max(np.abs(model.W - A)) <= 1e-8
        assert np.max(np.abs(model.b)) <= 1e-8

    def test_autoencoder_fit_is_wires(self, nao_space):
        rng = np.random.default_rng(0)
        from tapkit.smcore import Episode, SensorimotorMatrix

        m = SensorimotorMatrix(nao_space, [Episode(0, rng.uniform(-1, 1, (6, 40)))])
        ds = apply(m, tapdsl.autoencoder(nao_space, ["vision"]))
        model = fit(ds, "identity", ridge=0.0)
        assert np.max(np.abs(model.W - np.eye(2))) <= 1e-8
        assert np.max(np.abs(model.b)) <= 1e-8
        assert rmse(model, ds) <= 1e-10

    def test_single_row_with_ridge(self):
        _, ds = linear_plant_dataset(steps=2)
        assert ds.n == 1
        model = fit(ds, "identity", ridge=0.5)
        assert np.isfinite(model.W).all()

    def test_singular_without_ridge_errors(self):
        _, ds = linear_plant_dataset(steps=2)
        with pytest.raises(TapkitError, match="ridge"):
            fit(ds, "identity", ridge=0.0)

    def test_empty_dataset_errors(self):
        _, ds = linear_plant_dataset(steps=2)
        ds.X = ds.X[:0]
        ds.Y = ds.Y[:0]
        with pytest.raises(TapkitError, match="empty"):
            fit(ds)

    @pytest.mark.parametrize("ridge", [0.0, 1e-6])
    @pytest.mark.parametrize("fmap", ["identity", "quadratic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["X", "Y"])
    def test_non_finite_dataset_errors(self, ridge, fmap, bad, block):
        _, ds = linear_plant_dataset(steps=40)
        getattr(ds, block)[7, 1] = bad
        with pytest.raises(TapkitError, match="non-finite"):
            fit(ds, fmap, ridge)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["identity", "quadratic"]),
           st.sampled_from([0.0, 1e-6]), st.booleans())
    def test_matches_reference(self, seed, fmap, ridge, sliced):
        rng = np.random.default_rng(seed)
        d, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        n = int(rng.integers(2, 5)) * (feature_dim(d, fmap) + 1)
        data = edge_values(rng, (n, 1 + d + d_out))
        big = np.abs(data) > 1e300
        if rng.random() < 0.75:  # most cases without the extremes, which overflow G
            data[big] = rng.standard_normal(int(big.sum()))
        X, Y = data[:, 1:d + 1], data[:, d + 1:]  # column slices: not contiguous
        if not sliced:
            X, Y = X.copy(), Y.copy()
        ds = SimpleNamespace(X=X, Y=Y)
        try:
            W, b = reference_fit(X, Y, fmap, ridge)
        except TapkitError:
            with pytest.raises(TapkitError):
                fit(ds, fmap, ridge)
            return
        model = fit(ds, fmap, ridge)
        assert model.W.tobytes() == W.tobytes()
        assert model.b.tobytes() == b.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["identity", "quadratic"]))
    def test_solution_zeroes_finite_difference_gradient(self, seed, fmap):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 4))
        d_out = int(rng.integers(1, 3))
        ridge = float(rng.choice([0.0, 0.1, 1.0]))
        X = rng.uniform(-1, 1, (n, d))
        Y = rng.uniform(-1, 1, (n, d_out))

        class _DS:
            pass

        ds = _DS()
        ds.X, ds.Y = X, Y
        try:
            model = fit(ds, fmap, ridge)
        except TapkitError:
            assert ridge == 0.0  # only admissible failure: singular system
            return
        phi = lambda x: features(x, fmap)
        loss0 = quadratic_loss(model.W, model.b, X, Y, phi, ridge)
        h = 1e-5
        max_grad = 0.0
        for idx in np.ndindex(model.W.shape):
            Wp = model.W.copy()
            Wp[idx] += h
            Wm = model.W.copy()
            Wm[idx] -= h
            g = (quadratic_loss(Wp, model.b, X, Y, phi, ridge)
                 - quadratic_loss(Wm, model.b, X, Y, phi, ridge)) / (2 * h)
            max_grad = max(max_grad, abs(g))
        for j in range(model.b.shape[0]):
            bp = model.b.copy()
            bp[j] += h
            bm = model.b.copy()
            bm[j] -= h
            g = (quadratic_loss(model.W, bp, X, Y, phi, ridge)
                 - quadratic_loss(model.W, bm, X, Y, phi, ridge)) / (2 * h)
            max_grad = max(max_grad, abs(g))
        assert max_grad <= 1e-6 * max(1.0, abs(loss0))


class TestPredictAndLms:
    def test_zero_model_predicts_zero(self):
        model = zero_model(3, 2)
        assert np.array_equal(predict(model, np.ones(3)), np.zeros(2))

    def test_single_lms_step_writes_column(self):
        model = zero_model(2, 2)
        x = np.array([1.0, 0.0])  # phi(x) = e_1
        y = np.array([3.0, -1.0])
        out = lms_step(model, x, y, rate=1.0)
        assert np.array_equal(out.W[:, 0], y)
        assert np.array_equal(out.b, y)

    def test_column_target_is_its_flat_values(self):
        rng = np.random.default_rng(2)
        model = LinearModel(rng.normal(size=(2, 3)), rng.normal(size=2))
        x, y = rng.normal(size=3), rng.normal(size=2)
        flat, column = lms_step(model, x, y, 0.1), lms_step(model, x, y.reshape(2, 1), 0.1)
        assert (column.W.tobytes(), column.b.tobytes()) == (flat.W.tobytes(), flat.b.tobytes())

    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(1)
        model = LinearModel(rng.normal(size=(2, 3)), rng.normal(size=2))
        out = lms_step(model, rng.normal(size=3), rng.normal(size=2), rate=0.0)
        assert np.array_equal(out.W, model.W)
        assert np.array_equal(out.b, model.b)

    def test_lms_converges_on_streaming_plant(self):
        cfg = PlantConfig(kind="linear", dim=2, noise_std=0.0, seed=8)
        A = plant_matrix(cfg)
        matrix = generate(cfg, 1, 2001)
        ds = apply(matrix, tapdsl.forward(matrix.space, "m", "v"))
        model = zero_model(2, 2)
        for x, y in zip(ds.X[:2000], ds.Y[:2000]):
            model = lms_step(model, x, y, rate=0.05)
        assert np.linalg.norm(model.W - A) < 1e-2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["identity", "quadratic"]))
    def test_chained_steps_match_reference(self, seed, fmap):
        rng = np.random.default_rng(seed)
        d, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        rate = float(rng.uniform(0.0, 0.01))
        model = LinearModel(rng.normal(size=(d_out, feature_dim(d, fmap))),
                            rng.normal(size=d_out), fmap)
        W, b = model.W, model.b
        for _ in range(200):
            x, y = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d_out)
            model = lms_step(model, x, y, rate)
            W, b = reference_lms_step(W, b, fmap, x, y, rate)
            assert model.W.tobytes() == W.tobytes()
            assert model.b.tobytes() == b.tobytes()
        assert model.feature_map == fmap

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["identity", "quadratic"]),
           st.sampled_from(["C", "F"]))
    def test_single_vector_product_layouts(self, seed, fmap, order):
        """The single-vector product is ``W.dot(phi)``: for a C- or F-ordered
        ``W`` it gives the bytes of ``W @ phi``. (A strided ``W`` such as
        ``A[:, ::2]`` may differ in the last bit; tapkit makes none.)"""
        rng = np.random.default_rng(seed)
        d, d_out = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        W = np.asarray(rng.normal(size=(d_out, feature_dim(d, fmap))), order=order)
        b = rng.normal(size=d_out)
        assert W.flags[f"{order}_CONTIGUOUS"]
        model = LinearModel(W, b, fmap)
        x, y = rng.uniform(-2, 2, d), rng.uniform(-2, 2, d_out)
        assert predict(model, x).tobytes() == (W @ features(x, fmap) + b).tobytes()
        rate = float(rng.uniform(0.0, 0.1))
        stepped = lms_step(model, x, y, rate)
        W_ref, b_ref = reference_lms_step(W, b, fmap, x, y, rate)
        assert stepped.W.tobytes() == W_ref.tobytes()
        assert stepped.b.tobytes() == b_ref.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(TapkitError) as exc:
            predict(zero_model(3, 2), np.ones(4))
        assert str(exc.value) == "input maps to 4 features, model expects 3"
        with pytest.raises(TapkitError) as exc:
            lms_step(zero_model(3, 2), np.ones(3), np.ones(3), 0.1)
        assert str(exc.value) == "lms_step dimension mismatch"

    @pytest.mark.parametrize("model, x, message", [
        (zero_model(3, 2), np.ones((5, 4)), "input maps to 4 features, model expects 3"),
        (zero_model(3, 2, "quadratic"), np.ones(4), "input maps to 14 features, model expects 9"),
    ])
    def test_predict_dimension_mismatch(self, model, x, message):
        with pytest.raises(TapkitError) as exc:
            predict(model, x)
        assert str(exc.value) == message

    @pytest.mark.parametrize("x, y", [
        (np.ones(4), np.ones(2)),  # x of the wrong length
        (np.ones((1, 3)), np.ones(2)),  # x a one-row batch, not a vector
    ])
    def test_lms_dimension_mismatch(self, x, y):
        with pytest.raises(TapkitError) as exc:
            lms_step(zero_model(3, 2), x, y, 0.1)
        assert str(exc.value) == "lms_step dimension mismatch"


BOX = "command box needs finite bounds and a width float64 can hold"


@pytest.mark.parametrize("call, message", [
    (lambda: fit(linear_plant_dataset(steps=11)[1], ridge=-1.0), "ridge must be >= 0, got -1.0"),
    (lambda: fit(SimpleNamespace(X=np.array([[1.0, 2], [2, 4], [3, 6]]), Y=np.ones((3, 1))),
                 ridge=1e-300),
     "singular normal equations; ridge 1e-300 is too small to regularise them"),
    (lambda: lms_step(zero_model(2, 2), np.ones(2), np.ones(2), rate=-0.5),
     "rate must be >= 0, got -0.5"),
    (lambda: lms_step(zero_model(2, 2), np.ones(2), np.ones(2), rate=np.nan),
     "rate must be finite, got nan"),
    (lambda: lms_step(zero_model(2, 2), np.ones(2), np.ones(2), rate=np.inf),
     "rate must be finite, got inf"),
    (lambda: best_of_n(zero_model(2, 2), np.zeros(2), 0, 1, -1.0, 1.0), "n must be >= 1, got 0"),
    (lambda: fit(linear_plant_dataset(steps=11)[1], ridge=np.nan), "ridge must be finite, got nan"),
    (lambda: fit(linear_plant_dataset(steps=11)[1], ridge=np.inf), "ridge must be finite, got inf"),
    (lambda: best_of_n(zero_model(2, 2), [np.nan, 0.0], 8, 1, -1.0, 1.0),
     "goal values must be finite"),
    (lambda: best_of_n(zero_model(2, 2), [0.0, np.inf], 8, 1, -1.0, 1.0),
     "goal values must be finite"),
    (lambda: best_of_n(zero_model(2, 2), np.zeros(2), 8, 1, np.nan, 1.0), BOX),
    (lambda: best_of_n(zero_model(2, 2), np.zeros(2), 8, 1, [-1.0, -np.inf], 1.0), BOX),
    (lambda: best_of_n(zero_model(2, 2), np.zeros(2), 8, 1, -1e308, 1e308), BOX),  # width overflows
    (lambda: best_of_n(zero_model(2, 2), np.zeros(2), 8, -1, -1.0, 1.0),
     "seed must be >= 0, got -1"),
    (lambda: models._reach(zero_model(2, 2), np.zeros((3, 2)), 8, [0, -5, 1], -1.0, 1.0),
     "seed must be >= 0, got -5"),
])
def test_refusal_text(call, message):
    with pytest.raises(TapkitError) as exc:
        call()
    assert str(exc.value) == message


def uniform_draws(seed, low, high, n, d):
    """The candidates best_of_n is documented to draw, made independently."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.uniform(low, high, (n, d))


class TestBestOfN:
    def test_n1_returns_the_sample(self):
        model = LinearModel(np.eye(2), np.zeros(2))
        res = best_of_n(model, [0.0, 0.0], 1, 4, -1, 1)
        assert np.array_equal(res.command, uniform_draws(4, -1, 1, 1, 2)[0])

    def test_argmin_property(self):
        model = LinearModel(np.eye(2), np.zeros(2))
        goal = np.array([0.3, 0.3])
        res = best_of_n(model, goal, 4096, 0, -1, 1)
        cands = uniform_draws(0, -1, 1, 4096, 2)
        dists = np.linalg.norm(cands - goal, axis=1)
        assert res.distance == dists.min()
        assert np.array_equal(res.command, cands[np.argmin(dists)])

    def test_tie_breaks_to_lowest_index(self):
        # A constant model makes every candidate equally good.
        model = LinearModel(np.zeros((2, 2)), np.zeros(2))
        res = best_of_n(model, [0.0, 0.0], 64, 9, -1, 1)
        assert np.array_equal(res.command, uniform_draws(9, -1, 1, 64, 2)[0])

    def test_per_channel_box(self):
        model = LinearModel(np.zeros((1, 3)), np.zeros(1))
        low, high = [-1.0, 0.0, 10.0], [1.0, 0.5, 11.0]
        res = best_of_n(model, [0.0], 16, 2, low, high)
        assert np.array_equal(res.command, uniform_draws(2, low, high, 16, 3)[0])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["identity", "quadratic"]),
           st.sampled_from(["scalar", "per-channel", "mixed"]), st.sampled_from([1, 2, 64, 256]),
           st.booleans())
    def test_matches_reference(self, seed, fmap, box, n, constant):
        rng = np.random.default_rng(seed)
        d, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        W = rng.normal(size=(d_out, feature_dim(d, fmap)))
        if constant:  # every candidate lands on b: all distances tie
            W[:] = 0.0
        model = LinearModel(W, rng.normal(size=d_out), fmap)
        goal = rng.normal(size=d_out).tolist()
        low = float(rng.uniform(-3, 1))
        high = low + float(rng.uniform(0.1, 3))
        if box != "scalar":
            high = (high + rng.uniform(0.0, 2.0, d)).tolist()
        if box == "per-channel":
            low = (low - rng.uniform(0.0, 2.0, d)).tolist()
        res = best_of_n(model, goal, n, seed, low, high)
        command, predicted, distance = reference_best_of_n(model, goal, n, seed, low, high)
        assert res.command.tobytes() == command.tobytes()
        assert res.predicted.tobytes() == predicted.tobytes()
        assert res.distance == distance

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["identity", "quadratic"]),
           st.sampled_from([1, 2, 17, 100]), st.sampled_from([1, 2, 256]),
           st.sampled_from([None, 1, 3, 600]), st.booleans(), st.booleans())
    @example(4, "quadratic", 17, 256, None, True, False)  # d_out 9: a pairwise sum
    @example(5, "identity", 100, 2, 3, False, False)  # d_out 8
    def test_blocked_reach_matches_reference_goal_by_goal(self, seed, fmap, k, n, block_rows,
                                                          per_channel, constant):
        # With the default 4096 rows a block holds 16 goals of n=256, so 17
        # and 100 goals end in a partial block; the smaller block sizes cut
        # every goal count into several blocks, one goal each when n > rows.
        rng = np.random.default_rng(seed)
        # Fewer than 8 outputs are summed in order, 8 or more pairwise.
        d, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 10))
        W = rng.normal(size=(d_out, feature_dim(d, fmap)))
        if constant:  # every candidate lands on b: all distances tie
            W[:] = 0.0
        model = LinearModel(W, rng.normal(size=d_out), fmap)
        goals = rng.normal(size=(k, d_out))
        seeds = rng.integers(0, 2**63, size=k).tolist()
        low, high = -1.5, 0.5
        if per_channel:
            low = (low - rng.uniform(0.0, 2.0, d)).tolist()
            high = (high + rng.uniform(0.0, 2.0, d)).tolist()
        rows = block_rows or models._REACH_BLOCK_ROWS
        with mock.patch.object(models, "_REACH_BLOCK_ROWS", rows):
            commands, predicted, distances = models._reach(model, goals, n, seeds, low, high)
        assert (commands.shape, predicted.shape, distances.shape) == ((k, d), (k, d_out), (k,))
        for i in range(k):
            command, pred, distance = reference_best_of_n(model, goals[i].tolist(), n, seeds[i],
                                                          low, high)
            assert commands[i].tobytes() == command.tobytes()
            assert predicted[i].tobytes() == pred.tobytes()
            assert distances[i] == distance

    @pytest.mark.parametrize("low, high", [(1, 1), (1, -1), ([-1, 1], [1, 1])])
    def test_empty_box_rejected(self, low, high):
        model = LinearModel(np.eye(2), np.zeros(2))
        with pytest.raises(TapkitError, match=r"command box is empty \(high <= low\)"):
            best_of_n(model, [0.0, 0.0], 8, 0, low, high)

    @pytest.mark.parametrize("low, high", [([-1, -1, -1], 1), (-1, [1, 1, 1]), ([[-1, -1]], 1)])
    def test_box_must_broadcast_to_inputs(self, low, high):
        model = LinearModel(np.eye(2), np.zeros(2))
        with pytest.raises(TapkitError, match="command box bounds must broadcast to 2 channels"):
            best_of_n(model, [0.0, 0.0], 8, 0, low, high)

    @pytest.mark.parametrize("goal", [[1.0], [1.0, 2.0, 3.0], []])
    def test_goal_length_must_match_model_outputs(self, goal):
        model = LinearModel(np.eye(2), np.zeros(2))
        with pytest.raises(TapkitError, match=f"goal must have 2 values, got {len(goal)}"):
            best_of_n(model, goal, 8, 0, -1, 1)


    @pytest.mark.parametrize("goal, low, high", [([1e200, 0.5], -1, 1), ([0.5, 0.5], 0, 1e200),
                                                 ([1e308, -1e308], -1, 1)])
    def test_non_finite_distance_refused(self, goal, low, high):
        # a far goal, or a box whose quadratic features overflow: no candidate is nearest
        model = LinearModel(np.ones((2, feature_dim(2, "quadratic"))), np.zeros(2), "quadratic")
        with pytest.raises(TapkitError) as exc:
            best_of_n(model, goal, 8, 0, low, high)
        assert str(exc.value) == ("predicted distance to goal is not finite; the goal or the "
                                  "command box is too large for float64")

class TestInverse:
    def test_inverse_model_hits_goal(self):
        A, inv_ds = linear_plant_dataset(inverse=True)
        inv_model = fit(inv_ds, "identity", ridge=0.0)
        goal = np.array([0.3, -0.4])
        command = predict(inv_model, goal)
        assert np.linalg.norm(A @ command - goal) <= 1e-6

    def test_recovers_recorded_command(self):
        _, inv_ds = linear_plant_dataset(inverse=True)
        inv_model = fit(inv_ds, "identity", ridge=0.0)
        effect, cause = inv_ds.X[17], inv_ds.Y[17]
        assert np.linalg.norm(predict(inv_model, effect) - cause) <= 1e-6

    def test_forward_inverse_consistency(self):
        A, fwd_ds = linear_plant_dataset()
        _, inv_ds = linear_plant_dataset(inverse=True)
        fwd_model = fit(fwd_ds, "identity")
        inv_model = fit(inv_ds, "identity")
        goal = np.array([-0.2, 0.5])
        roundtrip = predict(fwd_model, predict(inv_model, goal))
        assert np.linalg.norm(roundtrip - goal) <= 1e-5

    def test_zero_model_zero_command(self):
        assert np.array_equal(predict(zero_model(2, 2), np.ones(2)), np.zeros(2))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        model = LinearModel(rng.normal(size=(2, 5)), rng.normal(size=2),
                            "quadratic", ridge=0.25)
        path = tmp_path / "m.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.W, model.W)
        assert np.array_equal(loaded.b, model.b)
        assert loaded.feature_map == "quadratic"
        assert loaded.ridge == 0.25

    def test_header_format(self, tmp_path):
        model = zero_model(2, 1, "identity")
        path = tmp_path / "m.txt"
        save_model(model, path)
        assert path.read_text().splitlines()[0] == "1 2 0 identity"

    def test_bytes_are_percent_17g(self, tmp_path):
        """Header, W rows and b row, each value as ``'%.17g' % v``, space-separated,
        for float64, float32 and int weights and a row of edge values."""
        rng = np.random.default_rng(13)
        W = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-9, 20, (3, 4))
        W[0, :3] = -0.0, 5e-324, 0.1
        b = np.array([1e-5, -2.5, 1e17])
        edge = [0, -0.0, 1e22, 1e-7, 5e-324, 1.7976931348623157e308, 0.1, -2.5,
                1.2345678901234568e17]
        weights = [(W, b), (W.astype(np.float32), b.astype(np.float32)),
                   (rng.integers(-2**62, 2**62, (2, 6)), rng.integers(-9, 10, 2)),
                   (np.array([edge]), np.array([-0.0]))]
        path = tmp_path / "m.txt"
        for (W, b), ridge in itertools.product(weights, [0, 1e-6]):
            save_model(LinearModel(np.asfortranarray(W), b, "identity", ridge), path)
            lines = [f"{W.shape[0]} {W.shape[1]} {'%.17g' % ridge} identity"]
            lines += [" ".join("%.17g" % v for v in row) for row in W.tolist() + [b.tolist()]]
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2 0 identity\n1 2\n")
        with pytest.raises(TapkitError):
            load_model(path)

    @pytest.mark.parametrize("text, message", [
        ("\n \n", "empty model file"),
        ("1 1 0\n1\n0\n", "malformed model header '1 1 0'"),
        ("1 x 0 identity\n1\n0\n", "malformed model header '1 x 0 identity'"),
        ("1 1 0 cubic\n1\n0\n", "unknown feature map 'cubic'"),
        ("1 1 0 identity\nx\n0\n", "non-numeric model entry"),
        ("1 2 0 identity\n1\n0\n", "model shape does not match header"),
        ("1 1 nan identity\n1\n0\n", "non-finite model value (nan or inf)"),
        ("2 2 0 identity\n1 0\n0 -inf\n0 0\n", "non-finite model value (nan or inf)"),
        ("1 2 0 identity\nnan 0\n0\n", "non-finite model value (nan or inf)"),
        ("2 1 0 identity\n1\n1\n0 inf\n", "non-finite model value (nan or inf)"),
    ])
    def test_load_refusal_text(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(TapkitError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: {message}"
