"""Acceptance gate: one test per criterion, each printing a pass line with
its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values come from independent oracles (anchor enumeration, exact
linear solves, explicit kinematics, discrete MI counts) or are frozen
constants checked by hand; tolerances are pinned here, not tuned elsewhere.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import tapkit
from tapkit import (
    ChainEnv,
    ChannelRef,
    DropoutConfig,
    PlantConfig,
    SensorimotorMatrix,
    apply,
    bellman_v,
    define_space,
    dropout_augment,
    effective_tapping,
    fit,
    generate,
    lag_scan,
    mutual_information,
    planted_lag_series,
    plant_matrix,
    predict,
    stream_open,
    stream_push,
    to_dot,
    value_iteration,
)
from tapkit import tapdsl
from tapkit.analysis import _entropy_bits
from tapkit.cli import demo_nao
from tapkit.errors import ParseError
from tapkit.rlbridge import direct_td_run, greedy_policy, q_learning_run, tapped_td_run, td0_sweeps
from tapkit.smcore import Episode
from tapkit.tapdsl import parse, to_text, validate

from oracles import brute_force_apply, quadratic_loss, random_matrix, random_space, random_tapping, row_count_law

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, budget_s: float, label: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"PASS criterion {num:2d} [{elapsed:6.2f}s < {budget_s:g}s] {label}")


def test_criterion_01_nao_row_count():
    with criterion(1, 1.0, "5-step episode yields exactly 5-1 forward rows"):
        space = define_space([("motor", "m", 4), ("extero", "vision", 2)], name="nao")
        m = SensorimotorMatrix(space)
        rng = np.random.default_rng(0)
        for _ in range(5):
            m.append_measurement(0, rng.uniform(-1, 1, 6))
        ds = apply(m, tapdsl.forward(space, "m", "vision"))
        assert ds.n == 4
        assert ds.anchors == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_criterion_02_row_count_law_fuzz():
    with criterion(2, 10.0, "500 random cases match the anchor-enumeration oracle"):
        rng = np.random.default_rng(20_240_001)
        for _ in range(500):
            space = random_space(rng)
            tapping = random_tapping(rng, space)
            matrix = random_matrix(rng, space)
            anchors, xs, ys = brute_force_apply(matrix, tapping)
            ds = apply(matrix, tapping)
            assert ds.n == len(anchors) == row_count_law(matrix, tapping)
            assert ds.anchors == anchors
            if ds.n:
                assert np.array_equal(ds.X, np.array(xs))
                assert np.array_equal(ds.Y, np.array(ys))


def test_criterion_03_batch_stream_equivalence():
    with criterion(3, 10.0, "200 random cases: stream emissions == batch rows"):
        rng = np.random.default_rng(20_240_002)
        buffered_seen = 0
        for _ in range(200):
            space = random_space(rng)
            tapping = random_tapping(rng, space)
            matrix = random_matrix(rng, space)
            if validate(tapping).kind == "buffered":
                buffered_seen += 1
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
        assert buffered_seen >= 10  # the sweep genuinely covers buffered taps


def test_criterion_04_ae_identity_and_ape_shift():
    with criterion(4, 1.0, "AE dataset is X==Y; APE is the AE pairs shifted one anchor"):
        space = define_space([("extero", "v", 2)], name="v2")
        rng = np.random.default_rng(7)
        m = SensorimotorMatrix(space, [Episode(0, rng.uniform(-1, 1, (2, 40)))])
        ae = apply(m, tapdsl.autoencoder(space, ["v"]))
        ap = apply(m, tapdsl.ape(space, ["v"]))
        assert np.array_equal(ae.X, ae.Y)
        assert ap.n == ae.n - 1
        assert np.array_equal(ap.X, ae.X[:-1])
        assert np.array_equal(ap.Y, ae.Y[1:])
        assert ap.anchors == ae.anchors[1:]


def test_criterion_05_linear_plant_recovery():
    with criterion(5, 1.0, "OLS recovers A to 1e-8; inverse recovers its action to 1e-5"):
        cfg = PlantConfig(kind="linear", dim=2, noise_std=0.0, seed=3)
        A = plant_matrix(cfg)
        matrix = generate(cfg, 1, 201)  # 200 forward rows
        fwd = apply(matrix, tapdsl.forward(matrix.space, "m", "v"))
        assert fwd.n == 200
        fwd_model = fit(fwd, "identity", ridge=0.0)
        assert np.max(np.abs(fwd_model.W - A)) <= 1e-8
        inv = apply(matrix, tapdsl.inverse(matrix.space, "m", "v"))
        inv_model = fit(inv, "identity", ridge=0.0)
        for goal in (np.array([0.3, -0.4]), np.array([-0.7, 0.2])):
            command = predict(inv_model, goal)
            assert np.linalg.norm(A @ command - goal) <= 1e-5
            assert np.linalg.norm(predict(fwd_model, command) - goal) <= 1e-5


def test_criterion_06_arm_demo_beats_baseline():
    with criterion(6, 30.0, "model-guided reaching halves the random-command median"):
        report = demo_nao(seed=0, steps=500, goals=100, candidates=256)
        lines = {k.strip(): v.strip() for k, v in
                 (ln.split(":", 1) for ln in report.splitlines() if ":" in ln)}
        med_model = float(lines["model median goal distance"])
        med_base = float(lines["baseline median goal distance"])
        assert med_model < 0.5 * med_base
        assert "499 training rows" in report


def test_criterion_07_td_dual_path_and_oracles():
    with criterion(7, 10.0, "tapped TD == direct TD; TD hits Bellman; Q greedy == VI"):
        env = ChainEnv(5, 0.9)
        for seed in range(10):
            tapped = tapped_td_run(env, 10, seed=seed)
            direct = direct_td_run(env, 10, seed=seed)
            assert np.array_equal(tapped.v, direct.v)
        table = td0_sweeps(env, 2000, alpha=0.1)
        oracle = bellman_v(env)
        assert np.allclose(oracle, [0.9**3, 0.9**2, 0.9, 1.0, 0.0], atol=1e-12)
        assert np.max(np.abs(table.v - oracle)) <= 1e-2
        qt = q_learning_run(env, 5000, alpha=0.1, epsilon=0.1, seed=9)
        _, policy_star = value_iteration(env)
        assert np.array_equal(greedy_policy(qt.q), policy_star)


def test_criterion_08_effective_tapping_recovery():
    with criterion(8, 20.0, "MI analysis recovers planted and plant dependencies"):
        # planted lag d=3, 1e4 samples, noise 0.1
        m = planted_lag_series(3, 10_000, seed=5, noise_std=0.1)
        results = lag_scan(m, ChannelRef("x", 0), ChannelRef("y", 0), 6)
        assert max(results, key=lambda r: r.mi_bits).lag == -3
        eff = effective_tapping(m, ChannelRef("y", 0), 6, threshold_frac=0.5)
        coords = {(t.group, t.channels, t.lag) for t in eff.taps if t.role == "input"}
        assert ("x", (0,), -3) in coords
        # linear plant: all motor channels at lag -1
        cfg = PlantConfig(kind="linear", dim=2, noise_std=0.0, seed=0)
        plant = generate(cfg, 1, 4000)
        eff2 = effective_tapping(plant, ChannelRef("v", 0), 3, threshold_frac=0.1)
        inputs = {(t.group, t.channels, t.lag) for t in eff2.taps if t.role == "input"}
        assert {("m", (0,), -1), ("m", (1,), -1)} <= inputs
        assert all(lag == -1 for g, _, lag in inputs if g == "m")
        # MI(x, x) equals the plug-in entropy to 1e-12
        rng = np.random.default_rng(3)
        x = rng.normal(size=5000)
        counts, _ = np.histogram(x, bins=12)
        assert abs(mutual_information(x, x, 12)
                   - _entropy_bits(counts / counts.sum())) <= 1e-12
        # independent series stay under the bias bound
        a, b = rng.normal(size=10_000), rng.normal(size=10_000)
        assert mutual_information(a, b, 8) <= 0.05


def test_criterion_09_dropout_counts_and_determinism():
    with criterion(9, 1.0, "3 copies at 0.5 on 10x4 inputs: 40 rows, 20 cells each"):
        space = define_space([("motor", "m", 4), ("extero", "v", 1)], name="s")
        rng = np.random.default_rng(1)
        m = SensorimotorMatrix(space, [Episode(0, rng.uniform(-1, 1, (5, 11)))])
        ds = apply(m, tapdsl.forward(space, "m", "v"))
        assert (ds.n, ds.d_in) == (10, 4)
        cfg = DropoutConfig(copies=3, proportion=0.5, scope="inputs", seed=11)
        out = dropout_augment(ds, cfg)
        assert out.n == 40
        assert np.array_equal(out.X[:10], ds.X)
        assert out.x_mask[:10].all()
        for c in range(1, 4):
            assert (~out.x_mask[10 * c:10 * (c + 1)]).sum() == 20
        assert out.y_mask.all()
        assert dropout_augment(ds, cfg) == out


def test_criterion_10_fit_gradient_check():
    with criterion(10, 5.0, "normal-equation solutions zero the FD gradient (20 cases)"):
        from tapkit.models import features

        rng = np.random.default_rng(42)
        for case in range(20):
            n = int(rng.integers(4, 21))
            d = int(rng.integers(1, 6))
            d_out = int(rng.integers(1, 3))
            fmap = "identity" if case % 2 == 0 else "quadratic"
            ridge = float(rng.choice([0.0, 0.05, 0.5]))
            X = rng.uniform(-1, 1, (n, d))
            Y = rng.uniform(-1, 1, (n, d_out))

            class _DS:
                pass

            ds = _DS()
            ds.X, ds.Y = X, Y
            try:
                model = fit(ds, fmap, ridge)
            except tapkit.TapkitError:
                assert ridge == 0.0
                continue
            phi = lambda v: features(v, fmap)
            loss0 = quadratic_loss(model.W, model.b, X, Y, phi, ridge)
            h = 1e-5
            worst = 0.0
            for idx in np.ndindex(model.W.shape):
                Wp, Wm = model.W.copy(), model.W.copy()
                Wp[idx] += h
                Wm[idx] -= h
                g = (quadratic_loss(Wp, model.b, X, Y, phi, ridge)
                     - quadratic_loss(Wm, model.b, X, Y, phi, ridge)) / (2 * h)
                worst = max(worst, abs(g))
            for j in range(model.b.shape[0]):
                bp, bm = model.b.copy(), model.b.copy()
                bp[j] += h
                bm[j] -= h
                g = (quadratic_loss(model.W, bp, X, Y, phi, ridge)
                     - quadratic_loss(model.W, bm, X, Y, phi, ridge)) / (2 * h)
                worst = max(worst, abs(g))
            assert worst <= 1e-6 * max(1.0, abs(loss0))


def test_criterion_11_dsl_corpus_and_golden_dot(tmp_path):
    with criterion(11, 5.0, "template gallery round-trips; errors carry positions; DOT stable"):
        space = define_space(
            [("motor", "m", 4), ("proprio", "q", 4), ("extero", "vision", 2),
             ("intero", "i", 1)],
            name="nao4",
        )
        gallery = [
            tapdsl.temporal_predictor(space, "vision"),
            tapdsl.intermodal_predictor(space, "q", "vision"),
            tapdsl.forward(space, "m", "vision"),
            tapdsl.inverse(space, "m", "vision"),
            tapdsl.multi_step(space, "vision", 3),
            tapdsl.multi_step(space, "vision", 3, symmetric=True, name="multi_sym"),
            tapdsl.autoencoder(space, ["vision", "q"]),
            tapdsl.ape(space, ["vision"]),
            tapdsl.conditioning(space, "q", "vision", 2),
            tapdsl.td0(space, "i", "q"),
        ]
        text = to_text(space, gallery)
        gallery_path = tmp_path / "gallery.tap"
        gallery_path.write_text(text)
        reparsed = parse(gallery_path.read_text())
        assert reparsed.space == space
        assert reparsed.tappings == gallery
        expected_kinds = ["causal"] * 4 + ["buffered", "buffered"] + ["causal"] * 4
        assert [validate(t).kind for t in reparsed.tappings] == expected_kinds

        malformed = [
            ("tapping t { input m @ -1 }", "no target taps", 1),
            ("space s { motor m: 0 }", "non-positive", 1),
            ("space s { motor m: 2 }\ntapping t { input zz @ 0 target m @ 0 }",
             "unknown group", 2),
            ("space s { motor m: 2 }\ntapping t { input m @ 0..-1 target m @ 0 }",
             "not ascending", 2),
        ]
        for bad, fragment, line in malformed:
            with pytest.raises(ParseError, match=fragment) as exc:
                parse(bad, space)
            assert exc.value.line == line
            assert exc.value.col >= 1

        fwd = tapdsl.forward(space, "m", "vision")
        dot = to_dot(fwd)
        assert dot == (DATA / "forward_grid.dot").read_text()
        assert dot == to_dot(tapdsl.forward(space, "m", "vision"))
