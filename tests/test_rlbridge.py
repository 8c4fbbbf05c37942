from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapkit import ChainEnv, TapkitError, bellman_v, value_iteration
from tapkit import rlbridge
from tapkit.rlbridge import (
    LEFT,
    RIGHT,
    direct_td_run,
    greedy_policy,
    q_learning_run,
    sarsa_run,
    tapped_td_run,
    td0_sweeps,
)
from tapkit import engine, models, tapdsl
from tapkit.engine import apply
from tapkit.smcore import Episode, SensorimotorMatrix, define_space

import oracles
from oracles import (
    reference_direct_td_run,
    reference_q_learning_run,
    reference_rollout_episodes,
    reference_sarsa_run,
    reference_td0_sweeps,
)


@pytest.fixture
def env():
    return ChainEnv(5, 0.9)


class TestEnv:
    def test_step_semantics(self, env):
        assert env.step(3, RIGHT) == (4, 1.0, True)
        assert env.step(0, LEFT) == (0, 0.0, False)
        assert env.step(4, RIGHT) == (4, 0.0, True)  # absorbing

    def test_validation(self):
        with pytest.raises(TapkitError):
            ChainEnv(1, 0.9)
        with pytest.raises(TapkitError):
            ChainEnv(5, 0.0)


def td_matrix(*datas):
    """The rollouts' two channels (intero s, intero r), episode i holding datas[i]."""
    return SensorimotorMatrix(rlbridge._TD0.space, [Episode(i, d) for i, d in enumerate(datas)])


def split_rollouts(packed, bounds):
    """Packed rollouts cut at their bounds into ``(states, rewards)`` views."""
    return [tuple(packed[:, a:b]) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def td0_rows(packed, bounds):
    """The packed core's td0 dataset, episode i numbered i."""
    widths = np.diff(bounds)
    return engine._gather_packed(packed, widths, np.arange(len(widths)), rlbridge._TD0)[1]


@pytest.mark.parametrize("call, message", [
    (lambda: ChainEnv(5, 0.9).step(0, 2), "unknown action 2"),
    (lambda: ChainEnv(5, 0.9).step(5, RIGHT), "state 5 out of range [0, 5)"),
    (lambda: ChainEnv(5, 0.9).step(-1, LEFT), "state -1 out of range [0, 5)"),
    (lambda: rlbridge.ValueTable(0.0, 0.9, v=np.zeros(3)), "alpha must be in (0, 1], got 0.0"),
    (lambda: rlbridge.ValueTable(1.5, 0.9, v=np.zeros(3)), "alpha must be in (0, 1], got 1.5"),
    (lambda: rlbridge.ValueTable(0.1, 0.9), "exactly one of v and q must be set"),
    (lambda: rlbridge.ValueTable(0.1, 0.9, v=np.zeros(3), q=np.zeros((3, 2))),
     "exactly one of v and q must be set"),
    # the state is checked before the action
    (lambda: ChainEnv(5, 0.9).step(5, 2), "state 5 out of range [0, 5)"),
    (lambda: ChainEnv(4, 0.9).step(-1, RIGHT), "state -1 out of range [0, 4)"),
    (lambda: ChainEnv(4, 0.9).step(4, LEFT), "state 4 out of range [0, 4)"),
    (lambda: q_learning_run(ChainEnv(5, 0.9), 1, 0.1, 5.0, seed=0),
     "epsilon must be in [0, 1], got 5.0"),
    (lambda: sarsa_run(ChainEnv(5, 0.9), 1, 0.1, -0.1, seed=0),
     "epsilon must be in [0, 1], got -0.1"),
    (lambda: q_learning_run(ChainEnv(5, 0.9), 1, 0.1, float("nan"), seed=0),
     "epsilon must be in [0, 1], got nan"),
    # the zero table is made, and alpha checked, before the first step
    (lambda: q_learning_run(ChainEnv(5, 0.9), 1, -0.5, 0.1, seed=0),
     "alpha must be in (0, 1], got -0.5"),
    (lambda: sarsa_run(ChainEnv(5, 0.9), 1, 2.0, 0.1, seed=0),
     "alpha must be in (0, 1], got 2.0"),
    (lambda: q_learning_run(ChainEnv(5, 0.9), 1, 0.1, 0.1, seed=-1), "seed must be >= 0, got -1"),
    (lambda: sarsa_run(ChainEnv(5, 0.9), 1, 0.1, 0.1, seed=-2), "seed must be >= 0, got -2"),
    (lambda: rlbridge._packed_rollouts(ChainEnv(5, 0.9), 1, seed=-1), "seed must be >= 0, got -1"),
    (lambda: tapped_td_run(ChainEnv(5, 0.9), 1, seed=-1), "seed must be >= 0, got -1"),
    (lambda: direct_td_run(ChainEnv(5, 0.9), 1, seed=-1), "seed must be >= 0, got -1"),
    # a hand-built trajectory episode that is not two rows: the matrix constructor's words
    (lambda: td_matrix(np.zeros((2, 2)), np.zeros((3, 4))),
     "episode 1: expected 2 rows, got shape (3, 4)"),
    (lambda: td_matrix(np.zeros(4)), "episode 0: expected 2 rows, got shape (4,)"),
    (lambda: td_matrix(np.zeros((2, 3, 1))), "episode 0: expected 2 rows, got shape (2, 3, 1)"),
])
def test_refusal_text(call, message):
    with pytest.raises(TapkitError) as exc:
        call()
    assert str(exc.value) == message


class TestConvergence:
    def test_td0_reaches_bellman_values(self, env):
        table = td0_sweeps(env, 2000, alpha=0.1)
        oracle = bellman_v(env)
        # the exact solve agrees with the closed form gamma^(steps to the
        # transition that pays out)
        assert np.allclose(oracle, [0.9**3, 0.9**2, 0.9, 1.0, 0.0], atol=1e-12)
        assert np.max(np.abs(table.v - oracle)) <= 1e-2

    def test_q_learning_matches_value_iteration_policy(self, env):
        table = q_learning_run(env, 5000, alpha=0.1, epsilon=0.1, seed=9)
        q_star, policy_star = value_iteration(env)
        assert np.array_equal(greedy_policy(table.q), policy_star)
        assert np.max(np.abs(table.q - q_star)) <= 1e-2
        # SARSA learns the values of its epsilon-greedy policy, not q*, so
        # only its greedy policy is compared (its q sits ~0.056 from q* here).
        sarsa = sarsa_run(env, 5000, alpha=0.1, epsilon=0.1, seed=9)
        assert np.array_equal(greedy_policy(sarsa.q), policy_star)

class TestTappedRun:
    def test_dual_path_identical(self, env):
        for seed in (0, 123, 999):
            tapped = tapped_td_run(env, 10, seed=seed)
            direct = direct_td_run(env, 10, seed=seed)
            assert np.array_equal(tapped.v, direct.v)

    def test_zero_episodes_zero_table(self, env):
        assert (tapped_td_run(env, 0, seed=1).v == 0).all()

    @pytest.mark.parametrize("runner", [
        lambda env: tapped_td_run(env, -1, seed=1),
        lambda env: direct_td_run(env, -1, seed=1),
        lambda env: rlbridge.q_learning_run(env, -1, 0.1, 0.1, seed=1),
        lambda env: rlbridge.sarsa_run(env, -1, 0.1, 0.1, seed=1),
    ])
    def test_negative_episodes_rejected(self, env, runner):
        with pytest.raises(TapkitError, match="episodes must be >= 0, got -1"):
            runner(env)

    def test_negative_sweeps_rejected(self, env):
        with pytest.raises(TapkitError, match="sweeps must be >= 0, got -1"):
            td0_sweeps(env, -1, alpha=0.1)

    def test_terminal_start_has_no_rows(self, env):
        # A single-column episode is shorter than the td0 span (W=2).
        space = define_space([("intero", "s", 1), ("intero", "r", 1)], name="td")
        m = SensorimotorMatrix(space, [Episode(0, np.array([[4.0], [0.0]]))])
        ds = apply(m, tapdsl.td0(space, "s", "r"))
        assert ds.n == 0

    def test_rollout_layout(self, env):
        packed, bounds = rlbridge._packed_rollouts(env, 5, seed=3)
        assert bounds[0] == 0 and bounds[-1] == packed.shape[1]
        starts, ends = bounds[:-1], bounds[1:] - 1
        assert (packed[1, starts] == 0.0).all()  # no reward on the first step
        assert (packed[0, ends] == env.terminal).all()
        # td0 reads (s@-1, s@0, r@0) inside each episode: one row per transition
        ds = td0_rows(packed, bounds)
        t = np.delete(np.arange(packed.shape[1]), starts)
        assert ds.X.tobytes() == np.stack([packed[0, t - 1], packed[0, t], packed[1, t]], 1).tobytes()
        assert ds.Y.tobytes() == packed[0, t - 1, None].tobytes()

    def test_td_fixed_point_along_trajectory(self, env):
        table = td0_sweeps(env, 5000, alpha=0.1)
        s = 0
        done = False
        while not done:
            s2, r, done = env.step(s, RIGHT)
            target = r + (0.0 if s2 == env.terminal else env.gamma * table.v[s2])
            assert abs(table.v[s] - target) <= 1e-2
            s = s2

    def test_value_ranks_match_forward_model_fit(self, env):
        # The value function is a forward-model prediction of the one-step
        # bootstrapped return: fit the forward template on rows pairing the
        # previous state with r + gamma * v(s'), then check the fit orders
        # states exactly as the TD values do.
        table = td0_sweeps(env, 3000, alpha=0.1)
        states, targets = [0], [0.0]
        s, done = 0, False
        while not done:
            s2, r, done = env.step(s, RIGHT)
            targets.append(r + (0.0 if s2 == env.terminal else env.gamma * table.v[s2]))
            states.append(s2)
            s = s2
        space = define_space([("intero", "s", 1), ("intero", "val", 1)], name="rank")
        data = np.vstack([np.array(states, dtype=float), np.array(targets)])
        m = SensorimotorMatrix(space, [Episode(0, data)])
        ds = apply(m, tapdsl.forward(space, "s", "val"))
        model = models.fit(ds, "identity", ridge=1e-9)
        grid = np.arange(env.n_states - 1, dtype=float)
        preds = [float(models.predict(model, np.array([v]))[0]) for v in grid]
        assert np.array_equal(np.argsort(preds), np.argsort(table.v[:-1]))


UNIT = st.floats(0.0, 1.0, exclude_min=True)  # alpha and gamma: (0, 1]


class TestAgainstReference:
    """Every TD rule gives the table bytes of its written-out reference in
    ``tests/oracles.py``."""

    @settings(max_examples=100, deadline=None)
    @given(n_states=st.integers(2, 6), alpha=UNIT, gamma=UNIT, count=st.integers(0, 20),
           seed=st.integers(0, 2**32 - 1))
    def test_td0_runners(self, n_states, alpha, gamma, count, seed):
        env = ChainEnv(n_states, gamma)
        rollouts = split_rollouts(*rlbridge._packed_rollouts(env, count, seed))
        want = reference_rollout_episodes(env, count, seed)
        assert [(s.tobytes(), r.tobytes()) for s, r in rollouts] == \
            [(s.tobytes(), r.tobytes()) for s, r in want]
        direct = reference_direct_td_run(env, count, seed, alpha).v.tobytes()
        assert tapped_td_run(env, count, seed, alpha).v.tobytes() == direct
        assert direct_td_run(env, count, seed, alpha).v.tobytes() == direct
        sweeps = reference_td0_sweeps(env, count, alpha).v.tobytes()
        assert td0_sweeps(env, count, alpha).v.tobytes() == sweeps

    @settings(max_examples=100, deadline=None)
    @given(n_states=st.integers(2, 6), alpha=UNIT, gamma=UNIT, count=st.integers(0, 20),
           epsilon=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1),
           max_steps=st.integers(1, 40))
    @example(n_states=3, alpha=0.1, gamma=0.9, count=20, epsilon=0.5, seed=7,
             max_steps=rlbridge.MAX_STEPS)
    def test_control_runners(self, n_states, alpha, gamma, count, epsilon, seed, max_steps):
        # A low epsilon leaves the walker at state 0 until the step cap, so
        # the cap is lowered in both to keep an example to a few ms.
        env = ChainEnv(n_states, gamma)
        with mock.patch.object(rlbridge, "MAX_STEPS", max_steps), \
                mock.patch.object(oracles, "REFERENCE_MAX_STEPS", max_steps):
            for run, reference in ((q_learning_run, reference_q_learning_run),
                                   (sarsa_run, reference_sarsa_run)):
                got = run(env, count, alpha, epsilon, seed).q.tobytes()
                assert got == reference(env, count, alpha, epsilon, seed).q.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n_states=st.integers(2, 64), count=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    @example(n_states=64, count=300, seed=1)
    def test_rollouts_up_to_64_states(self, n_states, count, seed):
        # One batched start draw must give the per-episode scalar draws, and
        # episodes from the same start repeat one walk's columns.
        env = ChainEnv(n_states, 0.9)
        packed, bounds = rlbridge._packed_rollouts(env, count, seed)
        want = reference_rollout_episodes(env, count, seed)
        assert [(s.tobytes(), r.tobytes()) for s, r in split_rollouts(packed, bounds)] == \
            [(s.tobytes(), r.tobytes()) for s, r in want]
        # One (2, N) float array, states over rewards, and the first column
        # of each episode followed by N.
        assert packed.dtype == float
        assert packed.shape == (2, sum(len(states) for states, _ in want))
        assert bounds.tolist() == np.cumsum([0] + [len(states) for states, _ in want]).tolist()

    @settings(max_examples=50, deadline=None)
    @given(n_states=st.integers(2, 64), count=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    def test_td0_rows_read_the_packed_columns(self, n_states, count, seed):
        # The packed core reads the same rows as apply on a matrix whose
        # episodes are copies of the packed columns, and anchors them there.
        packed, bounds = rlbridge._packed_rollouts(ChainEnv(n_states, 0.9), count, seed)
        ds = td0_rows(packed, bounds)
        episodes = [np.vstack(rollout) for rollout in split_rollouts(packed, bounds)]
        assert ds == apply(td_matrix(*episodes), rlbridge._TD0)
        t = np.delete(np.arange(packed.shape[1]), bounds[:-1])
        assert ds.X.tobytes() == np.stack([packed[0, t - 1], packed[0, t], packed[1, t]], 1).tobytes()
        assert ds.anchors == [(i, int(c) - int(a)) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
                              for c in range(a + 1, b)]
