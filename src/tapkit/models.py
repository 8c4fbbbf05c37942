"""Linear adaptive models over tapped datasets.

Batch fitting solves the ridge-regularized normal equations (bias
unpenalized); the online variant is a plain LMS step. An optional quadratic
feature expansion appends all pairwise products x_i * x_j with i <= j, in
row-major upper-triangle order, after the linear terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TapkitError
from .smcore import _fmt


# The (i, j) pairs depend only on d, and np.triu_indices takes ~20 us a call:
# twice the products of a 256 x 2 batch, which best_of_n maps once per goal.
_triu_indices = functools.lru_cache(maxsize=None)(np.triu_indices)


def _quadratic(X: np.ndarray) -> np.ndarray:
    i, j = _triu_indices(X.shape[-1])
    pairs = X[..., i]
    pairs *= X[..., j]  # in place: one (..., pairs) temporary fewer at the peak
    return np.concatenate([X, pairs], axis=-1)


# name -> (feature dimension for d inputs, map of the last axis of a (..., d) array)
_FEATURE_MAPS = {
    "identity": (lambda d: d, lambda X: X),
    "quadratic": (lambda d: d + d * (d + 1) // 2, _quadratic),
}
FEATURE_MAPS = tuple(_FEATURE_MAPS)


def _feature_map(name: str):
    try:
        return _FEATURE_MAPS[name]
    except KeyError:
        raise TapkitError(f"unknown feature map {name!r}; expected {FEATURE_MAPS}") from None


def feature_dim(d_in: int, feature_map: str) -> int:
    return _feature_map(feature_map)[0](d_in)


def input_dim(d_feat: int, feature_map: str) -> int:
    """Invert :func:`feature_dim`."""
    dim = _feature_map(feature_map)[0]
    for d in range(d_feat + 1):
        if dim(d) == d_feat:
            return d
    raise TapkitError(f"{d_feat} is not a {feature_map} feature dimension")


def features(x: np.ndarray, feature_map: str) -> np.ndarray:
    """Map raw inputs of shape (..., d), one input per last-axis vector, to
    the model's feature space."""
    return _feature_map(feature_map)[1](np.asarray(x, dtype=float))


@dataclass(frozen=True)
class LinearModel:
    """Affine map y = W phi(x) + b in a fixed feature space."""

    W: np.ndarray
    b: np.ndarray
    feature_map: str = "identity"
    ridge: float = 0.0

    @property
    def d_out(self) -> int:
        return self.W.shape[0]

    @property
    def d_feat(self) -> int:
        return self.W.shape[1]

    @property
    def d_in(self) -> int:
        return input_dim(self.d_feat, self.feature_map)


def zero_model(d_in: int, d_out: int, feature_map: str = "identity") -> LinearModel:
    df = feature_dim(d_in, feature_map)
    return LinearModel(np.zeros((d_out, df)), np.zeros(d_out), feature_map, 0.0)


def fit(dataset, feature_map: str = "identity", ridge: float = 0.0) -> LinearModel:
    """Least-squares fit of Y on phi(X) via the normal equations.

    Minimizes sum ||y - W phi(x) - b||^2 + ridge * ||W||_F^2 (bias free).
    Masked dataset cells already carry their fill value, which is what the
    fit sees. A dataset with a non-finite value is rejected. With ridge=0 a
    rank-deficient system is rejected instead of silently pseudo-inverted.
    """
    X, Y = np.asarray(dataset.X, dtype=float), np.asarray(dataset.Y, dtype=float)
    if X.shape[0] < 1:
        raise TapkitError("cannot fit on an empty dataset")
    if ridge < 0:
        raise TapkitError(f"ridge must be >= 0, got {ridge}")
    # A nan or inf in X or Y, or an overflowing feature, reaches G or rhs;
    # the finiteness check below reports it, so NumPy's warnings are noise.
    with np.errstate(invalid="ignore", over="ignore"):
        phi = features(X, feature_map)
        n, df = phi.shape
        G = np.empty((df + 1, df + 1))
        rhs = np.empty((df + 1, Y.shape[1]))
        G[:df, :df] = phi.T @ phi + ridge * np.eye(df)
        G[:df, df] = G[df, :df] = phi.sum(axis=0)
        G[df, df] = n
        rhs[:df] = phi.T @ Y
        rhs[df] = Y.sum(axis=0)
    if not (np.isfinite(G).all() and np.isfinite(rhs).all()):
        raise TapkitError("dataset has a non-finite value (nan, inf or overflow); "
                          "the normal equations are not finite")
    if ridge == 0.0 and np.linalg.matrix_rank(G) < df + 1:
        raise TapkitError(
            "singular normal equations (collinear or insufficient data); "
            "set ridge > 0"
        )
    try:
        theta = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        raise TapkitError(f"singular normal equations; ridge {ridge:g} is too small "
                          "to regularise them") from None
    return LinearModel(theta[:df].T.copy(), theta[df].copy(), feature_map, ridge)


def predict(model: LinearModel, x) -> np.ndarray:
    """Evaluate the model on one input vector or a batch of shape (..., d)."""
    W = model.W
    phi = features(x, model.feature_map)
    if phi.shape[-1] != W.shape[1]:
        raise TapkitError(f"input maps to {phi.shape[-1]} features, model expects {W.shape[1]}")
    if phi.ndim == 1:
        return W @ phi + model.b
    return phi @ W.T + model.b


def lms_step(model: LinearModel, x, y, rate: float) -> LinearModel:
    """One gradient step on the squared error of a single example."""
    if rate < 0:
        raise TapkitError(f"rate must be >= 0, got {rate}")
    W, b = model.W, model.b
    phi = features(x, model.feature_map)
    y = np.asarray(y, dtype=float).reshape(-1)
    if phi.shape != (W.shape[1],) or y.shape != (W.shape[0],):
        raise TapkitError("lms_step dimension mismatch")
    err = y - (W @ phi + b)
    step = err[:, None] * phi
    step *= rate  # W + rate * (err_i * phi_j), the float order the README states
    return LinearModel(W + step, b + rate * err, model.feature_map, model.ridge)


def rmse(model: LinearModel, dataset) -> float:
    residual = predict(model, dataset.X) - dataset.Y
    return float(np.sqrt(np.mean(residual**2)))


class ReachResult(NamedTuple):
    command: np.ndarray
    predicted: np.ndarray
    distance: float


def best_of_n(model: LinearModel, goal, n: int, seed: int, low, high) -> ReachResult:
    """Sample n candidate commands uniformly from the box [low, high) (scalar
    or per-channel bounds) and keep the one whose prediction lands closest
    (Euclidean) to the goal; ties go to the lowest sample index."""
    if n < 1:
        raise TapkitError(f"n must be >= 1, got {n}")
    goal = np.asarray(goal, dtype=float).reshape(-1)
    if goal.size != model.d_out:
        raise TapkitError(f"goal must have {model.d_out} values, got {goal.size}")
    d = model.d_in
    try:
        lo = np.broadcast_to(np.asarray(low, dtype=float), (d,))
        hi = np.broadcast_to(np.asarray(high, dtype=float), (d,))
    except ValueError:
        raise TapkitError(f"command box bounds must broadcast to {d} channels") from None
    if np.any(hi <= lo):
        raise TapkitError("command box is empty (high <= low)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    candidates = rng.uniform(lo, hi, (n, d))
    preds = predict(model, candidates)
    dists = np.linalg.norm(preds - goal, axis=1)
    i = int(np.argmin(dists))
    return ReachResult(candidates[i].copy(), preds[i].copy(), float(dists[i]))


def invert_direct(inverse_model: LinearModel, goal) -> np.ndarray:
    """Read the command straight off a model fit on cause-from-effect rows."""
    return predict(inverse_model, goal)


# ---------------------------------------------------------------------------
# Flat text serialization
# ---------------------------------------------------------------------------

def save_model(model: LinearModel, path) -> None:
    """Header ``d_out d_feat ridge feature_map``, then W row-major, then b."""
    with open(path, "w") as fh:
        fh.write(f"{model.d_out} {model.d_feat} {_fmt(model.ridge)} {model.feature_map}\n")
        for row in model.W:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")
        fh.write(" ".join(_fmt(v) for v in model.b) + "\n")


def load_model(path) -> LinearModel:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise TapkitError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 4:
        raise TapkitError(f"{path}: malformed model header {lines[0]!r}")
    try:
        d_out, d_feat, ridge = int(head[0]), int(head[1]), float(head[2])
    except ValueError:
        raise TapkitError(f"{path}: malformed model header {lines[0]!r}") from None
    feature_map = head[3]
    if feature_map not in FEATURE_MAPS:
        raise TapkitError(f"{path}: unknown feature map {feature_map!r}")
    if len(lines) != 1 + d_out + 1:
        raise TapkitError(f"{path}: expected {d_out} weight rows plus a bias row")
    try:
        W = np.array([[float(v) for v in lines[1 + i].split()] for i in range(d_out)])
        b = np.array([float(v) for v in lines[1 + d_out].split()])
    except ValueError:
        raise TapkitError(f"{path}: non-numeric model entry") from None
    if W.shape != (d_out, d_feat) or b.shape != (d_out,):
        raise TapkitError(f"{path}: model shape does not match header")
    return LinearModel(W, b, feature_map, ridge)
