"""Tabular temporal-difference learning driven by tapped trajectory data.

The td0 tapping template extracts (state@-1, state@0, reward@0) rows from a
recorded trajectory matrix; feeding those rows to the TD(0) rule must equal
running the rule directly on the trajectory, transition for transition. The
standard error form v(s) += alpha * (r + gamma * v(s') - v(s)) is used
throughout (the variant without the -v(s) term appears in some summaries but
does not converge to the fixed point, so it is documented, not executed).

Exact desk-scale oracles live here too: the policy-evaluation linear solve
and value iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import apply
from .errors import TapkitError
from .smcore import Episode, SensorimotorMatrix, define_space
from .tapdsl import td0

LEFT, RIGHT = 0, 1
ACTIONS = (LEFT, RIGHT)


@dataclass(frozen=True)
class ChainEnv:
    """Deterministic 1-D corridor: reward 1 on entering the right terminal.

    States 0..n_states-1; only the right end is terminal and absorbing; the
    left action at state 0 stays put.
    """

    n_states: int
    gamma: float

    def __post_init__(self):
        if self.n_states < 2:
            raise TapkitError(f"need at least 2 states, got {self.n_states}")
        if not 0.0 < self.gamma <= 1.0:
            raise TapkitError(f"gamma must be in (0, 1], got {self.gamma}")

    @property
    def terminal(self) -> int:
        return self.n_states - 1

    def step(self, s: int, a: int) -> tuple[int, float, bool]:
        """(next state, reward, done); stepping from the terminal is a no-op."""
        self._check_state(s)
        if a not in ACTIONS:
            raise TapkitError(f"unknown action {a}")
        if s == self.terminal:
            return s, 0.0, True
        s2 = min(s + 1, self.terminal) if a == RIGHT else max(s - 1, 0)
        r = 1.0 if s2 == self.terminal else 0.0
        return s2, r, s2 == self.terminal

    def _check_state(self, s: int) -> None:
        if not 0 <= s < self.n_states:
            raise TapkitError(f"state {s} out of range [0, {self.n_states})")


@dataclass(frozen=True)
class ValueTable:
    """State values v or action values q (exactly one), plus the step size
    and discount they were learned with."""

    alpha: float
    gamma: float
    v: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise TapkitError(f"alpha must be in (0, 1], got {self.alpha}")
        if (self.v is None) == (self.q is None):
            raise TapkitError("exactly one of v and q must be set")


def state_values(n_states: int, alpha: float, gamma: float) -> ValueTable:
    return ValueTable(alpha, gamma, v=np.zeros(n_states))


def action_values(n_states: int, alpha: float, gamma: float) -> ValueTable:
    return ValueTable(alpha, gamma, q=np.zeros((n_states, len(ACTIONS))))


def _check_index(table: ValueTable, s: int) -> None:
    n = len(table.v) if table.v is not None else table.q.shape[0]
    if not 0 <= s < n:
        raise TapkitError(f"state {s} out of range [0, {n})")


def td0_update(table: ValueTable, s: int, r: float, s_next: int) -> ValueTable:
    """v(s) += alpha * (r + gamma * v(s') - v(s)); only v(s) changes."""
    if table.v is None:
        raise TapkitError("td0_update needs a state-value table")
    _check_index(table, s)
    _check_index(table, s_next)
    v = table.v.copy()
    v[s] += table.alpha * (r + table.gamma * v[s_next] - v[s])
    return replace(table, v=v)


def sarsa_update(table: ValueTable, s: int, a: int, r: float,
                 s_next: int, a_next: int) -> ValueTable:
    """On-policy update: bootstrap from the action actually taken next."""
    if table.q is None:
        raise TapkitError("sarsa_update needs an action-value table")
    _check_index(table, s)
    _check_index(table, s_next)
    q = table.q.copy()
    q[s, a] += table.alpha * (r + table.gamma * q[s_next, a_next] - q[s, a])
    return replace(table, q=q)


def q_update(table: ValueTable, s: int, a: int, r: float, s_next: int) -> ValueTable:
    """Off-policy update: bootstrap from the best next action."""
    if table.q is None:
        raise TapkitError("q_update needs an action-value table")
    _check_index(table, s)
    _check_index(table, s_next)
    q = table.q.copy()
    q[s, a] += table.alpha * (r + table.gamma * np.max(q[s_next]) - q[s, a])
    return replace(table, q=q)


def greedy_policy(q: np.ndarray) -> np.ndarray:
    return np.argmax(q, axis=1)


# ---------------------------------------------------------------------------
# Rollouts and runners
# ---------------------------------------------------------------------------

def _check_episodes(episodes: int) -> None:
    if episodes < 0:
        raise TapkitError(f"episodes must be >= 0, got {episodes}")


def rollout_episodes(env: ChainEnv, episodes: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Right-policy episodes from uniformly random start states.

    Each episode is (states, rewards) with states[t] the state occupied at
    step t and rewards[t] the reward received on arriving there (rewards[0]
    is 0). A terminal start yields a single-step episode with no transition.
    """
    _check_episodes(episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for _ in range(episodes):
        s = int(rng.integers(0, env.n_states))
        states, rewards = [s], [0.0]
        done = s == env.terminal
        while not done:
            s, r, done = env.step(s, RIGHT)
            states.append(s)
            rewards.append(r)
        out.append((np.array(states, dtype=float), np.array(rewards)))
    return out


def trajectory_matrix(rollouts) -> SensorimotorMatrix:
    """Pack rollouts into a two-channel matrix (intero s, intero r)."""
    space = define_space([("intero", "s", 1), ("intero", "r", 1)], name="td")
    eps = [
        Episode(i, np.vstack([states, rewards]))
        for i, (states, rewards) in enumerate(rollouts)
    ]
    return SensorimotorMatrix(space, eps)


def tapped_td_run(env: ChainEnv, episodes: int, seed: int,
                  alpha: float = 0.1) -> ValueTable:
    """TD(0) fed exclusively through the td0 tapping.

    Rollouts are recorded into a sensorimotor matrix, the td0 template turns
    it into (s@-1, s@0, r@0) rows, and each row drives one update. The result
    is bit-identical to running td0_update directly on the transitions.
    """
    matrix = trajectory_matrix(rollout_episodes(env, episodes, seed))
    tapping = td0(matrix.space, "s", "r")
    dataset = apply(matrix, tapping)
    table = state_values(env.n_states, alpha, env.gamma)
    for x in dataset.X:
        s_prev, s_now, r = int(x[0]), int(x[1]), float(x[2])
        table = td0_update(table, s_prev, r, s_now)
    return table


def direct_td_run(env: ChainEnv, episodes: int, seed: int,
                  alpha: float = 0.1) -> ValueTable:
    """The same rollouts updated without any tapping machinery."""
    table = state_values(env.n_states, alpha, env.gamma)
    for states, rewards in rollout_episodes(env, episodes, seed):
        for t in range(1, len(states)):
            table = td0_update(table, int(states[t - 1]), float(rewards[t]),
                               int(states[t]))
    return table


def td0_sweeps(env: ChainEnv, sweeps: int, alpha: float, start: int = 0) -> ValueTable:
    """Policy evaluation of the always-right policy: one episode per sweep."""
    table = state_values(env.n_states, alpha, env.gamma)
    for _ in range(sweeps):
        s = start
        done = s == env.terminal
        while not done:
            s2, r, done = env.step(s, RIGHT)
            table = td0_update(table, s, r, s2)
            s = s2
    return table


def _epsilon_greedy(rng, q, s, epsilon) -> int:
    if rng.random() < epsilon:
        return int(rng.integers(0, len(ACTIONS)))
    return int(np.argmax(q[s]))


def q_learning_run(env: ChainEnv, episodes: int, alpha: float, epsilon: float,
                   seed: int, start: int = 0, max_steps: int = 10_000) -> ValueTable:
    """Epsilon-greedy Q-learning from a fixed start state."""
    _check_episodes(episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    table = action_values(env.n_states, alpha, env.gamma)
    for _ in range(episodes):
        s = start
        for _ in range(max_steps):
            if s == env.terminal:
                break
            a = _epsilon_greedy(rng, table.q, s, epsilon)
            s2, r, done = env.step(s, a)
            table = q_update(table, s, a, r, s2)
            s = s2
            if done:
                break
    return table


def sarsa_run(env: ChainEnv, episodes: int, alpha: float, epsilon: float,
              seed: int, start: int = 0, max_steps: int = 10_000) -> ValueTable:
    """Epsilon-greedy SARSA from a fixed start state."""
    _check_episodes(episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    table = action_values(env.n_states, alpha, env.gamma)
    for _ in range(episodes):
        s = start
        if s == env.terminal:
            continue
        a = _epsilon_greedy(rng, table.q, s, epsilon)
        for _ in range(max_steps):
            s2, r, done = env.step(s, a)
            a2 = _epsilon_greedy(rng, table.q, s2, epsilon)
            table = sarsa_update(table, s, a, r, s2, a2)
            s, a = s2, a2
            if done:
                break
    return table


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------

def bellman_v(env: ChainEnv) -> np.ndarray:
    """Exact always-right-policy values: linear solve over non-terminal
    states, v(terminal) = 0. Safe for gamma = 1 (nilpotent transition)."""
    n = env.n_states - 1  # non-terminal block
    P = np.zeros((n, n))
    r = np.zeros(n)
    for s in range(n):
        s2, rew, _ = env.step(s, RIGHT)
        r[s] = rew
        if s2 != env.terminal:
            P[s, s2] = 1.0
    v = np.zeros(env.n_states)
    v[:n] = np.linalg.solve(np.eye(n) - env.gamma * P, r)
    return v


def value_iteration(env: ChainEnv, tol: float = 1e-12,
                    max_iter: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """Optimal action values and greedy policy by exact iteration."""
    q = np.zeros((env.n_states, len(ACTIONS)))
    for _ in range(max_iter):
        q_new = np.zeros_like(q)
        for s in range(env.n_states):
            if s == env.terminal:
                continue
            for a in ACTIONS:
                s2, r, done = env.step(s, a)
                q_new[s, a] = r + (0.0 if done else env.gamma * np.max(q[s2]))
        if np.max(np.abs(q_new - q)) < tol:
            q = q_new
            break
        q = q_new
    return q, greedy_policy(q)
