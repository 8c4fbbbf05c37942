import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tapkit import (
    ChannelRef,
    TapkitError,
    effective_tapping,
    lag_scan,
    mutual_information,
    planted_lag_series,
    validate,
)
from tapkit import PlantConfig, generate
from tapkit.analysis import (_bin_index, _entropy_bits, _pooled_pairs, _sample_range,
                             default_bins)

from oracles import (edge_values, exact_discrete_mi_bits, random_matrix, random_space,
                     reference_mutual_information, reference_pooled_pairs)


class TestMutualInformation:
    def test_identity_on_exact_quartiles_is_two_bits(self):
        x = np.repeat([0.0, 1.0, 2.0, 3.0], 25)
        assert mutual_information(x, x, bins=4) == 2.0
        assert exact_discrete_mi_bits(x, x) == 2.0  # oracle agrees

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=10_000), rng.normal(size=10_000)
        assert mutual_information(x, y, bins=8) <= 0.05

    def test_constant_series_is_zero(self):
        assert mutual_information(np.zeros(100), np.arange(100.0), bins=8) == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=4000)
        y = x + rng.normal(size=4000)
        assert mutual_information(x, y, 16) == mutual_information(y, x, 16)

    def test_self_information_equals_plugin_entropy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5000)
        counts, _ = np.histogram(x, bins=12)
        h = _entropy_bits(counts / counts.sum())
        assert abs(mutual_information(x, x, 12) - h) <= 1e-12

    def test_shuffled_surrogate_bounds_bias(self):
        # The dependent pair carries bits; shuffling one side destroys them.
        m = planted_lag_series(1, 10_000, seed=2, noise_std=0.05)
        x, y = m.episodes[0].data
        rng = np.random.default_rng(0)
        dependent = mutual_information(x[:-1], y[1:], bins=10)
        shuffled = mutual_information(rng.permutation(x[:-1]), y[1:], bins=10)
        assert dependent > 1.0
        assert shuffled <= 0.05

    def test_noise_does_not_add_information(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=10_000)
        y = np.tanh(x)
        noisy = y + rng.normal(size=10_000)
        clean_mi = mutual_information(x, y, 10)
        noisy_mi = mutual_information(x, noisy, 10)
        assert noisy_mi <= clean_mi + 0.05

    def test_validation_errors(self):
        with pytest.raises(TapkitError):
            mutual_information([1.0], [1.0], 4)
        with pytest.raises(TapkitError):
            mutual_information([1.0, 2.0], [1.0], 4)
        with pytest.raises(TapkitError):
            mutual_information([1.0, 2.0], [1.0, 2.0], 1)

    @pytest.mark.parametrize("x, y, message", [
        ([0.0, np.nan, 1.0], [1.0, 2.0, 3.0], "mutual information needs finite samples"),
        ([1.0, 2.0, 3.0], [0.0, -np.inf, 1.0], "mutual information needs finite samples"),
        # a constant series is refused too when it is not finite
        ([np.inf] * 3, [1.0, 2.0, 3.0], "mutual information needs finite samples"),
        ([1.0, 1.0, 1.0], [np.nan] * 3, "mutual information needs finite samples"),
        ([-1e308, 1e308, 0.0], [1.0, 2.0, 3.0],
         "sample range [-1e+308, 1e+308] is too wide for float64"),
        ([1.0, 2.0, 3.0], [1.7976931348623157e308, -1.7976931348623157e308, 0.0],
         "sample range [-1.7976931348623157e+308, 1.7976931348623157e+308] is too wide "
         "for float64"),
    ])
    def test_refusal_text(self, x, y, message):
        with pytest.raises(TapkitError) as exc:
            mutual_information(x, y, 4)
        assert str(exc.value) == message

    def test_subnormal_range(self):
        x = np.array([0.0, 5e-324, 1e-323])
        assert mutual_information(x, x, 15) == 1.584962500721156
        assert mutual_information(x, x, 2) == reference_mutual_information(x, x, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16))
    def test_never_negative(self, seed, bins):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        assert mutual_information(x, y, bins) >= 0.0


def joint_counts(x, y, bins):
    """The joint histogram ``mutual_information`` counts."""
    (x_lo, x_hi), (y_lo, y_hi) = _sample_range(x), _sample_range(y)
    joint = _bin_index(x, x_lo, x_hi, bins) * bins + _bin_index(y, y_lo, y_hi, bins)
    return np.bincount(joint, minlength=bins * bins).reshape(bins, bins)


def bin_test_series(rng, kind, n, bins):
    """Samples of one ``kind``: ``edge_values`` with a range float64 can hold,
    samples on the bin edges or one ulp to either side, or a subnormal
    spread."""
    if kind == "edge":
        v = edge_values(rng, n)
        if not math.isfinite(float(v.max()) - float(v.min())):
            v[v == -1.7976931348623157e308] = 0.0
        return v
    if kind == "on edges":
        lo = rng.standard_normal() * 10.0 ** rng.integers(-5, 6)
        hi = lo + rng.random() * 10.0 ** rng.integers(-12, 6)
        edges = np.linspace(lo, hi, bins + 1)
        near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        v = np.clip(rng.choice(near, n), lo, hi)
        v[:2] = lo, hi
        return v
    return rng.integers(0, 3, n) * 5e-324 if kind == "few ulps" else rng.random(n) * 1e-310


class TestBinCounts:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bins=st.integers(2, 32),
           kinds=st.tuples(*[st.sampled_from(["edge", "on edges", "1e-310", "few ulps"])] * 2),
           n=st.integers(2, 300))
    def test_counts_and_mi_equal_histogram2d(self, seed, bins, kinds, n):
        rng = np.random.default_rng(seed)
        x = bin_test_series(rng, kinds[0], n, bins)
        y = bin_test_series(rng, kinds[1], len(x), bins)
        assume(x.min() < x.max() and y.min() < y.max())
        got = joint_counts(x, y, bins), mutual_information(x, y, bins)
        with np.errstate(over="ignore"):  # linspace's last edge before it is set to hi
            want = np.histogram2d(x, y, bins)[0], reference_mutual_information(x, y, bins)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


class TestLagScan:
    def test_planted_lag_argmax(self):
        m = planted_lag_series(3, 10_000, seed=5, noise_std=0.1)
        results = lag_scan(m, ChannelRef("x", 0), ChannelRef("y", 0), 6)
        assert [r.lag for r in results] == [0, -1, -2, -3, -4, -5, -6]
        best = max(results, key=lambda r: r.mi_bits)
        assert best.lag == -3
        assert best.mi_bits > 1.0

    def test_self_scan_maximal_at_zero(self):
        m = planted_lag_series(2, 3000, seed=6)
        results = lag_scan(m, ChannelRef("y", 0), ChannelRef("y", 0), 4)
        assert max(results, key=lambda r: r.mi_bits).lag == 0

    def test_white_noise_is_flat(self):
        m = planted_lag_series(1, 10_000, seed=8, noise_std=50.0)
        results = lag_scan(m, ChannelRef("x", 0), ChannelRef("y", 0), 4)
        assert all(r.mi_bits <= 0.05 for r in results)

    def test_sample_counts(self):
        m = planted_lag_series(2, 100, seed=1)
        results = lag_scan(m, ChannelRef("x", 0), ChannelRef("y", 0), 3)
        assert [r.samples for r in results] == [100, 99, 98, 97]

    def test_insufficient_data(self):
        m = planted_lag_series(2, 4, seed=1)
        with pytest.raises(TapkitError, match="insufficient"):
            lag_scan(m, ChannelRef("x", 0), ChannelRef("y", 0), 3)

    def test_negative_max_lag(self):
        m = planted_lag_series(2, 100, seed=1)
        with pytest.raises(TapkitError) as exc:
            lag_scan(m, ChannelRef("x", 0), ChannelRef("y", 0), -1)
        assert str(exc.value) == "max_lag must be >= 0, got -1"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_pooled_pairs_match_reference(self, seed, depth):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        m = random_matrix(rng, space, max_episodes=4, max_T=10)
        src, tgt = rng.integers(0, space.n_sm, 2).tolist()
        xs, ys = _pooled_pairs(m, src, tgt, -depth)
        want_x, want_y = reference_pooled_pairs(m, src, tgt, -depth)
        assert xs.tolist() == want_x and ys.tolist() == want_y

    def test_default_bins_rule(self):
        assert default_bins(10_000) == 10
        assert default_bins(10) == 4
        assert default_bins(10**7) == 32


class TestEffectiveTapping:
    def test_recovers_planted_lag(self):
        m = planted_lag_series(3, 10_000, seed=5, noise_std=0.1)
        tapping = effective_tapping(m, ChannelRef("y", 0), 6, threshold_frac=0.5)
        coords = {(t.group, t.channels, t.lag) for t in tapping.taps if t.role == "input"}
        assert ("x", (0,), -3) in coords
        assert validate(tapping).kind == "causal"

    def test_recovers_linear_plant_motor_taps(self):
        cfg = PlantConfig(kind="linear", dim=2, noise_std=0.0, seed=0)
        m = generate(cfg, 1, 4000)
        tapping = effective_tapping(m, ChannelRef("v", 0), 3, threshold_frac=0.1)
        inputs = {(t.group, t.channels, t.lag) for t in tapping.taps if t.role == "input"}
        assert ("m", (0,), -1) in inputs
        assert ("m", (1,), -1) in inputs
        # no motor influence is detected at any other lag
        assert all(lag == -1 for g, _, lag in inputs if g == "m")
        # the map is invertible, so a same-time cross-channel correlate of the
        # target may legitimately appear; nothing else is allowed
        assert all(g == "m" or lag == 0 for g, _, lag in inputs)

    def test_threshold_one_keeps_only_argmax(self):
        m = planted_lag_series(3, 10_000, seed=5, noise_std=0.1)
        tapping = effective_tapping(m, ChannelRef("y", 0), 6, threshold_frac=1.0)
        inputs = [t for t in tapping.taps if t.role == "input"]
        assert [(t.group, t.lag) for t in inputs] == [("x", -3)]

    def test_no_dependency_errors(self):
        from tapkit.smcore import Episode, SensorimotorMatrix, define_space

        space = define_space([("extero", "a", 1), ("extero", "b", 1)])
        data = np.vstack([np.zeros(50), np.zeros(50)])
        m = SensorimotorMatrix(space, [Episode(0, data)])
        with pytest.raises(TapkitError, match="no dependency"):
            effective_tapping(m, ChannelRef("b", 0), 3)

    def test_threshold_validation(self):
        m = planted_lag_series(2, 100, seed=1)
        with pytest.raises(TapkitError):
            effective_tapping(m, ChannelRef("y", 0), 2, threshold_frac=0.0)

    def test_no_candidates_at_all(self):
        from tapkit.smcore import Episode, SensorimotorMatrix, define_space

        space = define_space([("extero", "a", 1)])
        m = SensorimotorMatrix(space, [Episode(0, np.arange(20.0)[None, :])])
        with pytest.raises(TapkitError, match="nothing to scan"):
            effective_tapping(m, ChannelRef("a", 0), 0)
