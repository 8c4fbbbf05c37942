"""Linear adaptive models over tapped datasets.

Batch fitting solves the ridge-regularized normal equations (bias
unpenalized); the online variant is a plain LMS step. An optional quadratic
feature expansion appends all pairwise products x_i * x_j with i <= j, in
row-major upper-triangle order, after the linear terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TapkitError, check_positive, check_seed
from .smcore import _text_lines


def _quadratic(X: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(X.shape[-1])
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
    if not np.isfinite(ridge):
        raise TapkitError(f"ridge must be finite, got {ridge}")
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
    if phi.ndim == 1:  # dot skips matmul's gufunc dispatch; same bytes for C/F-ordered W
        return W.dot(phi) + model.b
    return phi @ W.T + model.b


def lms_step(model: LinearModel, x, y, rate: float) -> LinearModel:
    """One gradient step on the squared error of a single example."""
    if rate < 0:
        raise TapkitError(f"rate must be >= 0, got {rate}")
    W, b = model.W, model.b
    phi = features(x, model.feature_map)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        y = y.reshape(-1)
    if phi.shape != (W.shape[1],) or y.shape != (W.shape[0],):
        raise TapkitError("lms_step dimension mismatch")
    err = y - (W.dot(phi) + b)
    # W + rate * (err_i * phi_j) and b + rate * err, the float order the
    # README states, built in place: IEEE + and * commute bit for bit.
    step = err[:, None] * phi
    step *= rate
    step += W
    err *= rate
    err += b
    return LinearModel(step, err, model.feature_map, model.ridge)


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
    goal = np.asarray(goal, dtype=float).reshape(-1)
    if goal.size != model.d_out:
        raise TapkitError(f"goal must have {model.d_out} values, got {goal.size}")
    commands, predicted, distances = _reach(model, goal[None], n, [seed], low, high)
    return ReachResult(commands[0], predicted[0], float(distances[0]))


def _row_sums(values: np.ndarray) -> np.ndarray:
    """``np.add.reduce(values, axis=-1)``, bit for bit. NumPy (as of 2.4)
    adds fewer than 8 values in order, which column adds repeat without its
    slow reduce over a short axis; longer rows keep its pairwise sum. The
    blocked-reach oracle test pins the bytes on both sides of 8."""
    if values.shape[-1] >= 8:
        return np.add.reduce(values, axis=-1)
    total = values[..., 0].copy()
    for c in range(1, values.shape[-1]):
        total += values[..., c]
    return total


# Candidate rows per _reach block: large enough that NumPy's per-call costs
# are shared by many goals, small enough that memory stays flat for any count.
_REACH_BLOCK_ROWS = 4096


def _reach(model: LinearModel, goals: np.ndarray, n: int, seeds, low, high):
    """:func:`best_of_n` for each row of the ``(k, d_out)`` goals, goal i
    with its own ``seeds[i]``, as ``(commands, predicted, distances)`` arrays
    with one row per goal. Goals are reached in blocks of whole goals: each
    block's candidates are one ``(goals, n, d)`` array, so its predictions
    make the same per-goal BLAS calls as one goal's ``(n, d)`` batch."""
    check_positive("n", n)
    for seed in seeds:
        check_seed(seed)
    if not np.isfinite(goals).all():
        raise TapkitError("goal values must be finite")
    d = model.d_in
    try:
        lo, hi = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        if lo.ndim or hi.ndim:
            lo, hi = np.broadcast_to(lo, (d,)), np.broadcast_to(hi, (d,))
    except ValueError:
        raise TapkitError(f"command box bounds must broadcast to {d} channels") from None
    if lo.ndim:
        with np.errstate(over="ignore", invalid="ignore"):  # nan or inf bound, or overflow
            empty, finite = np.any(hi <= lo), np.isfinite(hi - lo).all()
    else:
        # Scalar bounds stay scalar, checked with float math: uniform draws the
        # same low + (high - low) * U from them as from per-channel arrays.
        lo, hi = float(lo), float(hi)
        empty, finite = hi <= lo, math.isfinite(hi - lo)
    if empty:
        raise TapkitError("command box is empty (high <= low)")
    if not finite:
        raise TapkitError("command box needs finite bounds and a width float64 can hold")
    k, width = len(goals), hi - lo
    commands, predicted, distances = np.empty((k, d)), np.empty((k, model.d_out)), np.empty(k)
    per_block = max(1, _REACH_BLOCK_ROWS // n)
    for a in range(0, k, per_block):
        b = min(a + per_block, k)
        candidates = np.empty((b - a, n, d))
        for goal_candidates, seed in zip(candidates, seeds[a:b]):
            np.random.default_rng(np.random.SeedSequence(seed)).random(out=goal_candidates)
        # Generator.uniform's low + (high - low) * U, once for the block; IEEE
        # + and * commute bit for bit.
        candidates *= width
        candidates += lo
        preds = predict(model, candidates)
        diff = preds - goals[a:b, None]
        diff *= diff
        dists = np.sqrt(_row_sums(diff))  # what np.linalg.norm(axis=2) computes
        rows, best = np.arange(b - a), np.argmin(dists, axis=1)
        commands[a:b] = candidates[rows, best]
        predicted[a:b] = preds[rows, best]
        distances[a:b] = dists[rows, best]
    return commands, predicted, distances


def invert_direct(inverse_model: LinearModel, goal) -> np.ndarray:
    """Read the command straight off a model fit on cause-from-effect rows."""
    return predict(inverse_model, goal)


# ---------------------------------------------------------------------------
# Flat text serialization
# ---------------------------------------------------------------------------

def save_model(model: LinearModel, path) -> None:
    """Header ``d_out d_feat ridge feature_map``, then W row-major, then b."""
    d_out, d_feat = model.d_out, model.d_feat
    # one formatter call for every number: its fixed cost outweighs a small model's cells
    values = np.concatenate([[model.ridge], np.ravel(model.W), model.b]).astype(float)
    ridge, *cells = _text_lines(values[None], sep=" ", end="").decode().split(" ")
    lines = [f"{d_out} {d_feat} {ridge} {model.feature_map}"]
    lines += [" ".join(cells[i * d_feat:(i + 1) * d_feat]) for i in range(d_out)]
    lines.append(" ".join(cells[d_out * d_feat:]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    if not (math.isfinite(ridge) and np.isfinite(W).all() and np.isfinite(b).all()):
        raise TapkitError(f"{path}: non-finite model value (nan or inf)")
    return LinearModel(W, b, feature_map, ridge)
