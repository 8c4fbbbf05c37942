"""Tabular temporal-difference learning driven by tapped trajectory data.

The td0 tapping template extracts (state@-1, state@0, reward@0) rows from
recorded trajectories; feeding those rows to the TD(0) rule must equal
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
from .errors import TapkitError, check_seed

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
        if not 0 <= s < self.n_states:
            raise TapkitError(f"state {s} out of range [0, {self.n_states})")
        if a not in ACTIONS:
            raise TapkitError(f"unknown action {a}")
        if s == self.terminal:
            return s, 0.0, True
        s2 = min(s + 1, self.terminal) if a == RIGHT else max(s - 1, 0)
        r = 1.0 if s2 == self.terminal else 0.0
        return s2, r, s2 == self.terminal


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


def _packed_rollouts(env: ChainEnv, episodes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-policy episodes from uniformly random start states, laid end to
    end: one ``(2, N)`` float array, states over rewards, and the episode
    bounds, the first column of each episode followed by N.

    In episode columns ``a:b``, states[t] is the state occupied at step t and
    rewards[t] the reward received on arriving there (rewards[a] is 0). A
    terminal start yields a single-column episode with no transition.
    """
    _check_count("episodes", episodes)
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # Episode e walks from distinct[slot[e]]; each distinct walk is built once.
    distinct, slot = np.unique(rng.integers(0, env.n_states, size=episodes), return_inverse=True)
    walks = [np.array([(s, 0.0)] + [(s2, r) for _, r, s2 in _walk_right(env, s)]).T
             for s in distinct.tolist()]
    bounds = np.zeros(episodes + 1, dtype=np.intp)
    np.cumsum(np.array([walk.shape[1] for walk in walks], dtype=np.intp)[slot], out=bounds[1:])
    if not episodes:
        return np.empty((2, 0)), bounds
    return np.concatenate([walks[i] for i in slot.tolist()], axis=1), bounds


# The td0 tapping over the rollouts' two channels (intero s, intero r): its
# (s@-1, s@0, r@0) input rows are read straight from the packed rollouts.
_TD0 = tapdsl.td0(smcore.define_space([("intero", "s", 1), ("intero", "r", 1)], name="td"),
                  "s", "r")


def _td0_run(env: ChainEnv, alpha: float, transitions) -> ValueTable:
    """TD(0), ``v(s) += alpha * ((r + gamma * v(s')) - v(s))`` in that float
    order on a private list, over ``(s, r, s')`` transitions made by ``ChainEnv.step``,
    which range-checks ``s`` and returns in-range states, so none is checked again."""
    v, gamma = ValueTable(alpha, env.gamma, v=np.zeros(env.n_states)).v.tolist(), env.gamma
    for s, r, s_next in transitions:
        v[s] += alpha * ((r + gamma * v[s_next]) - v[s])
    return ValueTable(alpha, gamma, v=np.array(v))


def tapped_td_run(env: ChainEnv, episodes: int, seed: int,
                  alpha: float = 0.1) -> ValueTable:
    """TD(0) fed exclusively through the td0 tapping.

    The td0 template turns the packed rollouts' (s, r) channels into
    (s@-1, s@0, r@0) rows, and each row drives one update, bit-identical to
    :func:`direct_td_run`'s TD(0) on the same transitions."""
    return _tapped_td0(env, *_packed_rollouts(env, episodes, seed), alpha)


def direct_td_run(env: ChainEnv, episodes: int, seed: int,
                  alpha: float = 0.1) -> ValueTable:
    """The same rollouts updated without any tapping machinery."""
    return _direct_td0(env, *_packed_rollouts(env, episodes, seed), alpha)


def _tapped_td0(env: ChainEnv, packed: np.ndarray, bounds: np.ndarray,
                alpha: float) -> ValueTable:
    """:func:`tapped_td_run`'s body, over the packed rollouts of
    :func:`_packed_rollouts`, episode i numbered i."""
    widths = np.diff(bounds)
    X = engine._gather_packed(packed, widths, np.arange(len(widths)), _TD0)[1].X
    s, s_next = X[:, :2].astype(np.intp).T.tolist()
    return _td0_run(env, alpha, zip(s, X[:, 2].tolist(), s_next))


def _direct_td0(env: ChainEnv, packed: np.ndarray, bounds: np.ndarray,
                alpha: float) -> ValueTable:
    """:func:`direct_td_run`'s body, over the packed rollouts of
    :func:`_packed_rollouts`: each step but an episode's first arrives from
    the step before it."""
    states, rewards = packed
    t = np.delete(np.arange(states.size), bounds[:-1])
    s = states.astype(np.intp)
    return _td0_run(env, alpha, zip(s[t - 1].tolist(), rewards[t].tolist(), s[t].tolist()))


def td0_sweeps(env: ChainEnv, sweeps: int, alpha: float) -> ValueTable:
    """Policy evaluation of the always-right policy: one episode from state 0
    per sweep."""
    _check_count("sweeps", sweeps)
    return _td0_run(env, alpha, (step for _ in range(sweeps) for step in _walk_right(env, 0)))


def _epsilon_greedy(rng, q, s, epsilon) -> int:
    if rng.random() < epsilon:
        return int(rng.integers(0, len(ACTIONS)))
    return RIGHT if q[s][RIGHT] > q[s][LEFT] else LEFT  # a tie goes LEFT, as in np.argmax


def _control_start(env: ChainEnv, episodes: int, alpha: float, epsilon: float, seed: int):
    """The control runners' checks, then their generator and zero q table as lists."""
    _check_count("episodes", episodes)
    if not 0.0 <= epsilon <= 1.0:
        raise TapkitError(f"epsilon must be in [0, 1], got {epsilon}")
    check_seed(seed)
    q = ValueTable(alpha, env.gamma, q=np.zeros((env.n_states, len(ACTIONS)))).q.tolist()
    return np.random.default_rng(np.random.SeedSequence(seed)), q


def q_learning_run(env: ChainEnv, episodes: int, alpha: float, epsilon: float,
                   seed: int) -> ValueTable:
    """Epsilon-greedy Q-learning from state 0, in the float order
    ``q(s, a) += alpha * ((r + gamma * max(q(s', .))) - q(s, a))``."""
    rng, q = _control_start(env, episodes, alpha, epsilon, seed)
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
    """Epsilon-greedy SARSA from state 0, a' the next action taken, in the
    float order ``q(s, a) += alpha * ((r + gamma * q(s', a')) - q(s, a))``."""
    rng, q = _control_start(env, episodes, alpha, epsilon, seed)
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
