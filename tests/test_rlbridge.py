from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapkit import ChainEnv, TapkitError, bellman_v, q_update, sarsa_update, td0_update, value_iteration
from tapkit import rlbridge
from tapkit.rlbridge import (
    LEFT,
    RIGHT,
    action_values,
    direct_td_run,
    greedy_policy,
    q_learning_run,
    rollout_episodes,
    sarsa_run,
    state_values,
    tapped_td_run,
    td0_sweeps,
    trajectory_matrix,
)
from tapkit import models, tapdsl
from tapkit.engine import apply
from tapkit.smcore import Episode, SensorimotorMatrix, define_space

import oracles
from oracles import (
    edge_values,
    reference_direct_td_run,
    reference_q_learning_run,
    reference_q_update,
    reference_rollout_episodes,
    reference_sarsa_run,
    reference_sarsa_update,
    reference_td0_sweeps,
    reference_td0_update,
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


class TestUpdates:
    def test_td0_single_step_algebra(self, env):
        table = state_values(5, alpha=1.0, gamma=0.9)
        out = td0_update(table, 2, 1.0, 3)
        assert out.v[2] == 1.0
        assert (np.delete(out.v, 2) == 0).all()

    def test_alpha_damps(self, env):
        table = state_values(5, alpha=0.1, gamma=0.9)
        assert td0_update(table, 2, 1.0, 3).v[2] == pytest.approx(0.1)

    def test_q_single_step(self):
        table = action_values(5, alpha=1.0, gamma=0.9)
        assert q_update(table, 2, RIGHT, 1.0, 3).q[2, RIGHT] == 1.0

    def test_index_errors(self):
        table = state_values(5, 0.1, 0.9)
        with pytest.raises(TapkitError):
            td0_update(table, 9, 0.0, 0)

    def test_tables_are_values(self):
        table = state_values(5, 0.5, 0.9)
        td0_update(table, 0, 1.0, 1)
        assert (table.v == 0).all()


@pytest.mark.parametrize("call, message", [
    (lambda: ChainEnv(5, 0.9).step(0, 2), "unknown action 2"),
    (lambda: ChainEnv(5, 0.9).step(5, RIGHT), "state 5 out of range [0, 5)"),
    (lambda: ChainEnv(5, 0.9).step(-1, LEFT), "state -1 out of range [0, 5)"),
    (lambda: rlbridge.ValueTable(0.0, 0.9, v=np.zeros(3)), "alpha must be in (0, 1], got 0.0"),
    (lambda: rlbridge.ValueTable(1.5, 0.9, v=np.zeros(3)), "alpha must be in (0, 1], got 1.5"),
    (lambda: rlbridge.ValueTable(0.1, 0.9), "exactly one of v and q must be set"),
    (lambda: rlbridge.ValueTable(0.1, 0.9, v=np.zeros(3), q=np.zeros((3, 2))),
     "exactly one of v and q must be set"),
    (lambda: td0_update(action_values(5, 0.1, 0.9), 0, 0.0, 1),
     "td0_update needs a state-value table"),
    (lambda: sarsa_update(state_values(5, 0.1, 0.9), 0, RIGHT, 0.0, 1, RIGHT),
     "sarsa_update needs an action-value table"),
    (lambda: q_update(state_values(5, 0.1, 0.9), 0, RIGHT, 0.0, 1),
     "q_update needs an action-value table"),
    # the table kind is checked before the states
    (lambda: q_update(state_values(5, 0.1, 0.9), 7, RIGHT, 0.0, 1),
     "q_update needs an action-value table"),
    (lambda: td0_update(state_values(5, 0.1, 0.9), 0, 0.0, 5), "state 5 out of range [0, 5)"),
    (lambda: sarsa_update(action_values(4, 0.1, 0.9), -1, RIGHT, 0.0, 9, RIGHT),
     "state -1 out of range [0, 4)"),
    (lambda: q_update(action_values(4, 0.1, 0.9), 0, RIGHT, 0.0, 4), "state 4 out of range [0, 4)"),
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

    def test_greedy_sarsa_equals_q_learning_and_bellman(self, env):
        # epsilon=0 comparison needs exploring starts plus a rightward tie
        # break, otherwise the all-zero table parks the walker at state 0.
        def greedy_right(q, s):
            return 1 - int(np.argmax(q[s][::-1]))

        def run(kind, episodes, seed):
            rng = np.random.default_rng(seed)
            table = action_values(env.n_states, 0.1, env.gamma)
            for _ in range(episodes):
                s = int(rng.integers(0, env.terminal))
                a = int(rng.integers(0, 2))
                done = False
                while not done:
                    s2, r, done = env.step(s, a)
                    a2 = greedy_right(table.q, s2)
                    if kind == "sarsa":
                        table = sarsa_update(table, s, a, r, s2, a2)
                    else:
                        table = q_update(table, s, a, r, s2)
                    s, a = s2, a2
            return table

        q_star, _ = value_iteration(env)
        sarsa = run("sarsa", 2000, seed=77)
        qlearn = run("q", 2000, seed=77)
        assert np.max(np.abs(sarsa.q - qlearn.q)) <= 1e-3
        assert np.max(np.abs(sarsa.q - q_star)) <= 1e-3
        assert np.max(np.abs(qlearn.q - q_star)) <= 1e-3


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
        rollouts = rollout_episodes(env, 5, seed=3)
        matrix = trajectory_matrix(rollouts)
        for (states, rewards), ep in zip(rollouts, matrix.episodes):
            assert np.array_equal(ep.data[0], states)
            assert np.array_equal(ep.data[1], rewards)
            assert rewards[0] == 0.0
            assert states[-1] == env.terminal

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

    @settings(max_examples=200, deadline=None)
    @given(n_states=st.integers(2, 6), alpha=UNIT, gamma=UNIT, seed=st.integers(0, 2**32 - 1))
    def test_single_updates(self, n_states, alpha, gamma, seed):
        # Edge values (subnormals, +-max float) make any reordering of the
        # float expression show; overflow to inf and inf - inf are expected.
        rng = np.random.default_rng(seed)
        v = rlbridge.ValueTable(alpha, gamma, v=edge_values(rng, n_states))
        q = rlbridge.ValueTable(alpha, gamma, q=edge_values(rng, (n_states, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(10):
                s, s2 = rng.integers(0, n_states, 2).tolist()
                a, a2 = rng.integers(0, 2, 2).tolist()
                r = float(edge_values(rng, 1)[0])
                v_next = td0_update(v, s, r, s2)
                assert v_next.v.tobytes() == reference_td0_update(v, s, r, s2).v.tobytes()
                want = reference_sarsa_update(q, s, a, r, s2, a2).q.tobytes()
                assert sarsa_update(q, s, a, r, s2, a2).q.tobytes() == want
                q_next = q_update(q, s, a, r, s2)
                assert q_next.q.tobytes() == reference_q_update(q, s, a, r, s2).q.tobytes()
                v, q = v_next, q_next

    @settings(max_examples=100, deadline=None)
    @given(n_states=st.integers(2, 6), alpha=UNIT, gamma=UNIT, count=st.integers(0, 20),
           seed=st.integers(0, 2**32 - 1))
    def test_td0_runners(self, n_states, alpha, gamma, count, seed):
        env = ChainEnv(n_states, gamma)
        rollouts = rollout_episodes(env, count, seed)
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
        # episodes from the same start share one walk but not its arrays.
        env = ChainEnv(n_states, 0.9)
        rollouts = rollout_episodes(env, count, seed)
        want = reference_rollout_episodes(env, count, seed)
        assert [(s.tobytes(), r.tobytes()) for s, r in rollouts] == \
            [(s.tobytes(), r.tobytes()) for s, r in want]
        for i, (states, rewards) in enumerate(rollouts):
            states[:] = i
            rewards[:] = -i
        assert all((states == i).all() and (rewards == -i).all()
                   for i, (states, rewards) in enumerate(rollouts))

    @settings(max_examples=50, deadline=None)
    @given(n_states=st.integers(2, 64), count=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    def test_trajectory_matrix_stacks_like_vstack(self, n_states, count, seed):
        rollouts = rollout_episodes(ChainEnv(n_states, 0.9), count, seed)
        matrix = trajectory_matrix(rollouts)
        assert [ep.id for ep in matrix.episodes] == list(range(count))
        for ep, (states, rewards) in zip(matrix.episodes, rollouts, strict=True):
            want = np.vstack([states, rewards])
            assert (ep.data.shape, ep.data.dtype) == (want.shape, want.dtype)
            assert ep.data.tobytes() == want.tobytes()
