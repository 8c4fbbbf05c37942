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

from dataclasses import dataclass

import numpy as np

from . import engine, smcore, tapdsl
from .errors import TapkitError
from .smcore import Episode, SensorimotorMatrix

LEFT, RIGHT = 0, 1
ACTIONS = (LEFT, RIGHT)
MAX_STEPS = 10_000  # per control episode of q_learning_run and sarsa_run


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
        _check_state(s, self.n_states)
        if a not in ACTIONS:
            raise TapkitError(f"unknown action {a}")
        if s == self.terminal:
            return s, 0.0, True
        s2 = min(s + 1, self.terminal) if a == RIGHT else max(s - 1, 0)
        r = 1.0 if s2 == self.terminal else 0.0
        return s2, r, s2 == self.terminal


def _check_state(s: int, n_states: int) -> None:
    if not 0 <= s < n_states:
        raise TapkitError(f"state {s} out of range [0, {n_states})")


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


def _checked(table: ValueTable, field: str, update: str, s: int, s_next: int) -> np.ndarray:
    """The ``v`` or ``q`` array ``update`` reads, once both states index it."""
    values = getattr(table, field)
    if values is None:
        raise TapkitError(f"{update} needs {'a state' if field == 'v' else 'an action'}-value table")
    _check_state(s, len(values))
    _check_state(s_next, len(values))
    return values


def _moved(table: ValueTable, field: str, cell, target) -> ValueTable:
    """A new table whose ``cell`` moved ``alpha`` of the way to ``target``, in
    the float order ``cell += alpha * (target - cell)``."""
    values = getattr(table, field).copy()
    values[cell] += table.alpha * (target - values[cell])
    return ValueTable(table.alpha, table.gamma, **{field: values})


def td0_update(table: ValueTable, s: int, r: float, s_next: int) -> ValueTable:
    """v(s) += alpha * (r + gamma * v(s') - v(s)); only v(s) changes."""
    v = _checked(table, "v", "td0_update", s, s_next)
    return _moved(table, "v", s, r + table.gamma * v[s_next])


def sarsa_update(table: ValueTable, s: int, a: int, r: float,
                 s_next: int, a_next: int) -> ValueTable:
    """On-policy update: bootstrap from the action actually taken next."""
    q = _checked(table, "q", "sarsa_update", s, s_next)
    return _moved(table, "q", (s, a), r + table.gamma * q[s_next, a_next])


def q_update(table: ValueTable, s: int, a: int, r: float, s_next: int) -> ValueTable:
    """Off-policy update: bootstrap from the best next action."""
    q = _checked(table, "q", "q_update", s, s_next)
    return _moved(table, "q", (s, a), r + table.gamma * np.max(q[s_next]))


def greedy_policy(q: np.ndarray) -> np.ndarray:
    return np.argmax(q, axis=1)


# ---------------------------------------------------------------------------
# Rollouts and runners
# ---------------------------------------------------------------------------

def _check_count(what: str, count: int) -> None:
    if count < 0:
        raise TapkitError(f"{what} must be >= 0, got {count}")


def _walk_right(env: ChainEnv, s: int):
    """The always-right policy's ``(s, r, s')`` transitions from ``s`` to the terminal."""
    done = s == env.terminal
    while not done:
        s_next, r, done = env.step(s, RIGHT)
        yield s, r, s_next
        s = s_next


def rollout_episodes(env: ChainEnv, episodes: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Right-policy episodes from uniformly random start states.

    Each episode is (states, rewards) with states[t] the state occupied at
    step t and rewards[t] the reward received on arriving there (rewards[0]
    is 0). A terminal start yields a single-step episode with no transition.
    """
    _check_count("episodes", episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    starts = rng.integers(0, env.n_states, size=episodes).tolist()
    steps = {s: [(s, 0.0)] + [(s2, r) for _, r, s2 in _walk_right(env, s)] for s in set(starts)}
    walks = {s: tuple(np.array(steps[s]).T.copy()) for s in steps}
    return [(states.copy(), rewards.copy()) for states, rewards in map(walks.get, starts)]


def trajectory_matrix(rollouts) -> SensorimotorMatrix:
    """Pack rollouts into a two-channel matrix (intero s, intero r).

    Each rollout is a pair of equal-length 1-D arrays ``(states, rewards)``,
    as :func:`rollout_episodes` returns them.
    """
    space = smcore.define_space([("intero", "s", 1), ("intero", "r", 1)], name="td")
    return SensorimotorMatrix(space, [Episode(i, np.array([states, rewards]))
                                      for i, (states, rewards) in enumerate(rollouts)])


def _td0_run(table: ValueTable, transitions) -> ValueTable:
    """TD(0) over ``(s, r, s')`` transitions made by ``ChainEnv.step``, which
    range-checks ``s`` and returns in-range states, so none is checked again;
    updates a private list in place in ``td0_update``'s float order."""
    v, alpha, gamma = table.v.tolist(), table.alpha, table.gamma
    for s, r, s_next in transitions:
        v[s] += alpha * ((r + gamma * v[s_next]) - v[s])
    return ValueTable(alpha, gamma, v=np.array(v))


def tapped_td_run(env: ChainEnv, episodes: int, seed: int,
                  alpha: float = 0.1) -> ValueTable:
    """TD(0) fed exclusively through the td0 tapping.

    Rollouts are recorded into a sensorimotor matrix, the td0 template turns
    it into (s@-1, s@0, r@0) rows, and each row drives one update. The result
    is bit-identical to running td0_update directly on the transitions.
    """
    return _tapped_td0(env, trajectory_matrix(rollout_episodes(env, episodes, seed)), alpha)


def direct_td_run(env: ChainEnv, episodes: int, seed: int,
                  alpha: float = 0.1) -> ValueTable:
    """The same rollouts updated without any tapping machinery."""
    return _direct_td0(env, rollout_episodes(env, episodes, seed), alpha)


def _tapped_td0(env: ChainEnv, matrix: SensorimotorMatrix, alpha: float) -> ValueTable:
    """:func:`tapped_td_run`'s body, over the rollouts' trajectory matrix."""
    rows = engine.apply(matrix, tapdsl.td0(matrix.space, "s", "r")).X.tolist()
    return _td0_run(state_values(env.n_states, alpha, env.gamma),
                    ((int(s), r, int(s_next)) for s, s_next, r in rows))


def _direct_td0(env: ChainEnv, rollouts, alpha: float) -> ValueTable:
    """:func:`direct_td_run`'s body, over rollouts already made."""
    return _td0_run(state_values(env.n_states, alpha, env.gamma), (
        (int(s), r, int(s_next))
        for states, rewards in rollouts
        for s, s_next, r in zip(states.tolist(), states[1:].tolist(), rewards[1:].tolist())))


def td0_sweeps(env: ChainEnv, sweeps: int, alpha: float) -> ValueTable:
    """Policy evaluation of the always-right policy: one episode from state 0
    per sweep."""
    _check_count("sweeps", sweeps)
    return _td0_run(state_values(env.n_states, alpha, env.gamma),
                    (step for _ in range(sweeps) for step in _walk_right(env, 0)))


def _epsilon_greedy(rng, q, s, epsilon) -> int:
    if rng.random() < epsilon:
        return int(rng.integers(0, len(ACTIONS)))
    return RIGHT if q[s][RIGHT] > q[s][LEFT] else LEFT  # a tie goes LEFT, as in np.argmax


def q_learning_run(env: ChainEnv, episodes: int, alpha: float, epsilon: float,
                   seed: int) -> ValueTable:
    """Epsilon-greedy Q-learning from state 0, in ``q_update``'s float order."""
    _check_count("episodes", episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    q = action_values(env.n_states, alpha, env.gamma).q.tolist()
    for _ in range(episodes):
        s = 0
        for _ in range(MAX_STEPS):
            a = _epsilon_greedy(rng, q, s, epsilon)
            s2, r, done = env.step(s, a)
            q[s][a] += alpha * ((r + env.gamma * max(q[s2])) - q[s][a])
            s = s2
            if done:
                break
    return ValueTable(alpha, env.gamma, q=np.array(q))


def sarsa_run(env: ChainEnv, episodes: int, alpha: float, epsilon: float,
              seed: int) -> ValueTable:
    """Epsilon-greedy SARSA from state 0, in ``sarsa_update``'s float order."""
    _check_count("episodes", episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    q = action_values(env.n_states, alpha, env.gamma).q.tolist()
    for _ in range(episodes):
        s = 0
        a = _epsilon_greedy(rng, q, s, epsilon)
        for _ in range(MAX_STEPS):
            s2, r, done = env.step(s, a)
            a2 = _epsilon_greedy(rng, q, s2, epsilon)
            q[s][a] += alpha * ((r + env.gamma * q[s2][a2]) - q[s][a])
            s, a = s2, a2
            if done:
                break
    return ValueTable(alpha, env.gamma, q=np.array(q))


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


def value_iteration(env: ChainEnv) -> tuple[np.ndarray, np.ndarray]:
    """Optimal action values and greedy policy by exact iteration, stopped
    once no value moves by 1e-12 (or after 100 000 sweeps)."""
    q = np.zeros((env.n_states, len(ACTIONS)))
    for _ in range(100_000):
        q_new = np.zeros_like(q)
        for s in range(env.n_states):
            if s == env.terminal:
                continue
            for a in ACTIONS:
                s2, r, done = env.step(s, a)
                q_new[s, a] = r + (0.0 if done else env.gamma * np.max(q[s2]))
        if np.max(np.abs(q_new - q)) < 1e-12:
            q = q_new
            break
        q = q_new
    return q, greedy_policy(q)
