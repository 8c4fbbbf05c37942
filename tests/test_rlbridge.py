import numpy as np
import pytest

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
    state_values,
    tapped_td_run,
    td0_sweeps,
    trajectory_matrix,
)
from tapkit import models, tapdsl
from tapkit.engine import apply
from tapkit.smcore import Episode, SensorimotorMatrix, define_space


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
