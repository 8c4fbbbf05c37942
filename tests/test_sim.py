import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapkit import PlantConfig, TapkitError, generate, planted_lag_series, plant_matrix
from tapkit.sim import PLANT_KINDS, arm_hand_position, space_for

from oracles import fk_oracle, reference_generate


class TestLinearPlant:
    def test_matrix_is_invertible_and_seeded(self):
        a = plant_matrix(PlantConfig(kind="linear", dim=3, seed=4))
        b = plant_matrix(PlantConfig(kind="linear", dim=3, seed=4))
        assert np.array_equal(a, b)
        assert np.linalg.cond(a) < 1e6

    def test_every_column_satisfies_the_map(self):
        cfg = PlantConfig(kind="linear", dim=2, noise_std=0.0, seed=6)
        A = plant_matrix(cfg)
        m = generate(cfg, 1, 100)
        data = m.episodes[0].data
        for t in range(1, 100):
            assert np.array_equal(data[2:, t], A @ data[:2, t - 1])
        assert np.array_equal(data[2:, 0], np.zeros(2))  # zero-command response

    def test_explicit_matrix(self):
        cfg = PlantConfig(kind="linear", dim=2, matrix=((1.0, 0.0), (0.0, 2.0)))
        assert np.array_equal(plant_matrix(cfg), [[1, 0], [0, 2]])
        with pytest.raises(TapkitError, match="singular"):
            plant_matrix(PlantConfig(kind="linear", dim=2,
                                     matrix=((1.0, 1.0), (1.0, 1.0))))

    def test_negative_zero_noise_is_zero_noise(self):
        zero = generate(PlantConfig(kind="linear", dim=2, noise_std=0.0, seed=6), 2, 30)
        assert generate(PlantConfig(kind="linear", dim=2, noise_std=-0.0, seed=6), 2, 30) == zero

    def test_noise_is_added(self):
        cfg = PlantConfig(kind="linear", dim=2, noise_std=0.5, seed=6)
        A = plant_matrix(cfg)
        m = generate(cfg, 1, 50)
        data = m.episodes[0].data
        residual = data[2:, 1:] - A @ data[:2, :-1]
        assert residual.std() > 0.1

    def test_longer_delay_shifts_the_response(self):
        cfg = PlantConfig(kind="linear", dim=2, noise_std=0.0, delay=3, seed=6)
        A = plant_matrix(cfg)
        data = generate(cfg, 1, 40).episodes[0].data
        for t in range(3):
            assert np.array_equal(data[2:, t], np.zeros(2))
        for t in range(3, 40):
            assert np.array_equal(data[2:, t], A @ data[:2, t - 3])


class TestArmPlant:
    def test_hand_position_matches_independent_kinematics(self):
        cfg = PlantConfig(kind="arm", seed=2)
        m = generate(cfg, 1, 30)
        data = m.episodes[0].data
        for t in range(1, 30):
            expected = fk_oracle(cfg.link_lengths, data[:4, t - 1])
            assert np.allclose(data[4:, t], expected, atol=1e-12)

    def test_fk_helper_agrees_with_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            links = rng.uniform(0.2, 1.5, 4)
            angles = rng.uniform(-np.pi, np.pi, 4)
            assert np.allclose(arm_hand_position(links, angles),
                               fk_oracle(links, angles), atol=1e-12)
        batch = rng.uniform(-np.pi, np.pi, (50, 4))
        rows = np.array([arm_hand_position(links, angles) for angles in batch])
        hands = arm_hand_position(links, batch)
        assert hands.shape == (50, 2)
        assert hands.tobytes() == rows.tobytes()

    def test_single_step_gives_no_forward_rows(self):
        from tapkit import apply, tapdsl

        cfg = PlantConfig(kind="arm", seed=2)
        m = generate(cfg, 1, 1)
        ds = apply(m, tapdsl.forward(m.space, "m", "vision"))
        assert ds.n == 0


class TestPlantedLag:
    def test_dependency_is_exact_without_noise(self):
        m = planted_lag_series(3, 50, seed=1, noise_std=0.0)
        x, y = m.episodes[0].data
        for t in range(3, 50):
            assert y[t] == pytest.approx(np.tanh(x[t - 3]), abs=0)

    def test_lag_one_matches_temporal_structure(self):
        m = planted_lag_series(1, 30, seed=1)
        x, y = m.episodes[0].data
        assert np.array_equal(y[1:], np.tanh(x[:-1]))

    def test_t_not_longer_than_lag_rejected(self):
        with pytest.raises(TapkitError):
            planted_lag_series(5, 5, seed=0)


def assert_same_matrix(got, want):
    assert got.space == want.space
    assert [ep.id for ep in got.episodes] == [ep.id for ep in want.episodes]
    for a, b in zip(got.episodes, want.episodes):
        assert a.data.shape == b.data.shape
        assert a.data.tobytes() == b.data.tobytes()


class TestReferenceGenerator:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PLANT_KINDS), st.integers(1, 6), st.integers(1, 4),
           st.sampled_from([0.0, 0.1]), st.integers(0, 3), st.integers(0, 2**32 - 1),
           st.data())
    def test_bit_identical_to_per_step_loop(self, kind, dim, delay, noise, episodes,
                                            seed, data):
        steps = data.draw(st.integers(1, 3 * delay + 5))
        cfg = PlantConfig(kind=kind, dim=dim, delay=delay, noise_std=noise, seed=seed)
        assert_same_matrix(generate(cfg, episodes, steps),
                           reference_generate(cfg, episodes, steps))

    @pytest.mark.parametrize("kind", PLANT_KINDS)
    def test_episodes_around_the_delay(self, kind):
        for delay in range(1, 5):
            for steps in range(max(1, delay - 1), delay + 2):
                cfg = PlantConfig(kind=kind, dim=3, delay=delay, seed=delay)
                assert_same_matrix(generate(cfg, 2, steps),
                                   reference_generate(cfg, 2, steps))


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["linear", "arm"])
    def test_same_seed_bit_identical(self, kind):
        cfg = PlantConfig(kind=kind, seed=31, noise_std=0.1)
        assert generate(cfg, 3, 20) == generate(cfg, 3, 20)

    def test_different_seeds_differ(self):
        a = generate(PlantConfig(kind="arm", seed=1), 1, 10)
        b = generate(PlantConfig(kind="arm", seed=2), 1, 10)
        assert a != b

    def test_spaces(self):
        assert space_for(PlantConfig(kind="linear", dim=3)).n_sm == 6
        assert space_for(PlantConfig(kind="arm")).n_sm == 6
        assert space_for(PlantConfig(kind="planted_lag")).n_sm == 2

    def test_invalid_configs(self):
        with pytest.raises(TapkitError):
            PlantConfig(kind="warp")
        with pytest.raises(TapkitError):
            PlantConfig(kind="arm", link_lengths=(1.0, -1.0))
        with pytest.raises(TapkitError):
            PlantConfig(kind="linear", delay=0)
        with pytest.raises(TapkitError):
            generate(PlantConfig(), 1, 0)


BOX = "command box needs finite bounds and a width float64 can hold"
OVERFLOW = "plant response is not finite; the command box or noise_std is too large for float64"


@pytest.mark.parametrize("call, message", [
    (lambda: PlantConfig(kind="warp"),
     "unknown plant kind 'warp'; expected ('linear', 'arm', 'planted_lag')"),
    (lambda: PlantConfig(command_low=1.0, command_high=-1.0), "command box is empty (high <= low)"),
    (lambda: PlantConfig(command_low=0.5, command_high=0.5), "command box is empty (high <= low)"),
    (lambda: PlantConfig(kind="linear", dim=0), "linear plant dimension must be >= 1, got 0"),
    (lambda: PlantConfig(noise_std=-0.5), "noise_std must be >= 0, got -0.5"),
    (lambda: PlantConfig(delay=0), "delay must be >= 1, got 0"),
    (lambda: PlantConfig(kind="arm", link_lengths=(1.0, 0.0)), "arm link lengths must be positive"),
    pytest.param(lambda: PlantConfig(kind="arm", link_lengths=(np.nan, 1.0)),
                 "arm link lengths must be positive", id="nan-link-length"),
    (lambda: PlantConfig(kind="arm", link_lengths=(1.0, np.inf)), "arm link lengths must be finite"),
    (lambda: PlantConfig(command_low=np.nan), BOX),
    (lambda: PlantConfig(command_high=np.inf), BOX),
    (lambda: PlantConfig(command_low=-1e308, command_high=1e308), BOX),  # width overflows
    (lambda: PlantConfig(noise_std=np.nan), "noise_std must be finite, got nan"),
    (lambda: PlantConfig(noise_std=np.inf), "noise_std must be finite, got inf"),
    (lambda: PlantConfig(seed=-1), "seed must be >= 0, got -1"),
    (lambda: plant_matrix(PlantConfig(kind="arm")), "plant kind 'arm' has no plant matrix"),
    (lambda: plant_matrix(PlantConfig(kind="linear", dim=2, matrix=((1.0, 0.0, 0.0),
                                                                    (0.0, 1.0, 0.0)))),
     "explicit plant matrix has shape (2, 3), expected (2, 2)"),
    (lambda: plant_matrix(PlantConfig(kind="linear", dim=2, matrix=((1.0, 0.0), (0.0, 1e-7)))),
     "explicit plant matrix is near-singular (cond >= 1e6)"),
    # generate reaches the matrix checks through plant_matrix
    (lambda: generate(PlantConfig(kind="linear", dim=1, matrix=((1.0, 2.0),)), 1, 5),
     "explicit plant matrix has shape (1, 2), expected (1, 1)"),
    (lambda: generate(PlantConfig(kind="linear", dim=2, matrix=((1.0, 0.0), (np.nan, 1.0))), 1, 5),
     "explicit plant matrix must be finite"),
    (lambda: plant_matrix(PlantConfig(kind="linear", dim=1, matrix=((np.inf,),))),
     "explicit plant matrix must be finite"),
    # a finite box and noise whose response overflows float64, in the noise and in A @ c
    (lambda: generate(PlantConfig(noise_std=1e308), 1, 50), OVERFLOW),
    (lambda: generate(PlantConfig(dim=10, command_low=-8e307, command_high=8e307), 1, 50),
     OVERFLOW),
    (lambda: generate(PlantConfig(), 1, 0), "steps_per_episode must be >= 1, got 0"),
    (lambda: generate(PlantConfig(), -1, 5), "episodes must be >= 0, got -1"),
    (lambda: planted_lag_series(0, 10), "lag must be >= 1, got 0"),
    (lambda: planted_lag_series(3, 3), "need T > lag, got T=3, lag=3"),
    (lambda: planted_lag_series(3, 2), "need T > lag, got T=2, lag=3"),
])
def test_refusal_text(call, message):
    with pytest.raises(TapkitError) as exc:
        call()
    assert str(exc.value) == message
