"""Data generators standing in for a physical exploration experiment.

Three plants: an invertible linear map, a kinematic planar arm whose hand
position answers the previous command, and a planted-lag source for the
analysis tests. All generation is seeded through NumPy SeedSequence children
(child 0 reserved for plant parameters, then one child per episode), so the
same config and seed always produce bit-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TapkitError
from .smcore import Episode, SensorimotorMatrix, SensorimotorSpace, define_space

PLANT_KINDS = ("linear", "arm", "planted_lag")


@dataclass(frozen=True)
class PlantConfig:
    """Plant selection plus the exploration command box.

    ``delay`` is the number of steps between committing a command and seeing
    its effect; the first ``delay`` observations answer a zero command so
    every column is defined.
    """

    kind: str = "linear"
    dim: int = 2                      # linear plant: motor and sensor dimension
    matrix: tuple[tuple[float, ...], ...] | None = None  # explicit linear map
    link_lengths: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4)
    noise_std: float = 0.0
    delay: int = 1                    # planted_lag: the dependency depth
    seed: int = 0
    command_low: float = -1.0
    command_high: float = 1.0

    def __post_init__(self):
        if self.kind not in PLANT_KINDS:
            raise TapkitError(f"unknown plant kind {self.kind!r}; expected {PLANT_KINDS}")
        if self.command_high <= self.command_low:
            raise TapkitError("command box is empty (high <= low)")
        if self.dim < 1:
            raise TapkitError(f"linear plant dimension must be >= 1, got {self.dim}")
        if self.noise_std < 0:
            raise TapkitError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.delay < 1:
            raise TapkitError(f"delay must be >= 1, got {self.delay}")
        if any(l <= 0 for l in self.link_lengths):
            raise TapkitError("arm link lengths must be positive")


def space_for(config: PlantConfig) -> SensorimotorSpace:
    """The sensorimotor space a plant records into."""
    if config.kind == "linear":
        return define_space(
            [("motor", "m", config.dim), ("extero", "v", config.dim)], name="linear"
        )
    if config.kind == "arm":
        return define_space(
            [("motor", "m", len(config.link_lengths)), ("extero", "vision", 2)],
            name="arm",
        )
    return define_space([("motor", "x", 1), ("extero", "y", 1)], name="planted")


def plant_matrix(config: PlantConfig) -> np.ndarray:
    """The linear plant's map A (explicit, or seed-derived with cond < 1e6)."""
    if config.kind != "linear":
        raise TapkitError(f"plant kind {config.kind!r} has no plant matrix")
    if config.matrix is not None:
        A = np.asarray(config.matrix, dtype=float)
        if A.shape != (config.dim, config.dim):
            raise TapkitError(
                f"explicit plant matrix has shape {A.shape}, expected "
                f"({config.dim}, {config.dim})"
            )
        if np.linalg.cond(A) >= 1e6:
            raise TapkitError("explicit plant matrix is near-singular (cond >= 1e6)")
        return A
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    while True:
        A = rng.uniform(-1.0, 1.0, (config.dim, config.dim))
        if np.linalg.cond(A) < 1e6:
            return A


def arm_hand_position(link_lengths, angles) -> np.ndarray:
    """Planar forward kinematics: joint angles are relative to the previous
    link; the hand is the chain tip. ``angles`` is one command or a
    ``(..., n_links)`` batch; the result has shape ``(..., 2)``."""
    absolute = np.cumsum(np.asarray(angles, dtype=float), axis=-1)
    ls = np.asarray(link_lengths, dtype=float)
    return np.stack([np.sum(ls * np.cos(absolute), axis=-1),
                     np.sum(ls * np.sin(absolute), axis=-1)], axis=-1)


def _respond(config: PlantConfig, A: np.ndarray | None, commands: np.ndarray) -> np.ndarray:
    """Responses to a ``(T, d_m)`` block of commands, one row per step."""
    if config.kind == "linear":
        # Bit-identical to A @ c per step; commands @ A.T changes last bits.
        return np.matmul(A, commands[:, :, None])[:, :, 0]
    if config.kind == "arm":
        return arm_hand_position(config.link_lengths, commands)
    return np.tanh(commands)


def generate(config: PlantConfig, episodes: int, steps_per_episode: int) -> SensorimotorMatrix:
    """Explore with uniform random commands and record command + response.

    Observation at t answers the command at t - delay (zero command before
    that), plus Gaussian noise of ``noise_std`` at every step.
    """
    if steps_per_episode < 1:
        raise TapkitError(f"steps_per_episode must be >= 1, got {steps_per_episode}")
    if episodes < 0:
        raise TapkitError(f"episodes must be >= 0, got {episodes}")
    space = space_for(config)
    d_m = space.groups[0].dim
    d_s = space.groups[1].dim
    children = np.random.SeedSequence(config.seed).spawn(1 + episodes)
    A = plant_matrix(config) if config.kind == "linear" else None
    eps = []
    for e in range(episodes):
        rng = np.random.default_rng(children[1 + e])
        cmds = rng.uniform(config.command_low, config.command_high,
                           (steps_per_episode, d_m))
        noise = rng.normal(0.0, config.noise_std, (steps_per_episode, d_s))
        delayed = np.zeros_like(cmds)
        delayed[config.delay:] = cmds[:max(0, steps_per_episode - config.delay)]
        response = _respond(config, A, delayed) + noise
        eps.append(Episode(e, np.vstack([cmds.T, response.T])))
    return SensorimotorMatrix(space, eps)


def planted_lag_series(lag: int, T: int, seed: int = 0,
                       noise_std: float = 0.0) -> SensorimotorMatrix:
    """One episode with y_t = tanh(x_{t-lag}) + noise over a uniform driver x.

    Fixture for dependency-recovery tests: the only structure in the data is
    at exactly the planted lag.
    """
    if lag < 1:
        raise TapkitError(f"lag must be >= 1, got {lag}")
    if T <= lag:
        raise TapkitError(f"need T > lag, got T={T}, lag={lag}")
    config = PlantConfig(kind="planted_lag", noise_std=noise_std, delay=lag, seed=seed)
    return generate(config, 1, T)
