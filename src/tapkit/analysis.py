"""Histogram mutual information between lagged channels, and extraction of
the tapping a dataset itself suggests.

Estimator: plug-in MI over an equal-width bins x bins joint histogram spanning
the observed ranges, in bits, clamped at 0. Entropies are summed over sorted
probability terms, which makes MI(x, y) == MI(y, x) exact and MI(x, x) equal
to the plug-in entropy of x. Estimator bias is bounded empirically in the
test suite with shuffled surrogates rather than corrected here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import TapkitError
from .smcore import ChannelRef, SensorimotorMatrix, SensorimotorSpace
from .tapdsl import ROLE_INPUT, ROLE_TARGET, Tap, Tapping


@dataclass(frozen=True)
class MIResult:
    """Shared information between source at ``lag`` and target at 0."""

    source: ChannelRef
    lag: int
    target: ChannelRef
    mi_bits: float
    bins: int
    samples: int


def default_bins(n_samples: int) -> int:
    """Rule of thumb: fourth root of the sample count, clamped to [4, 32]."""
    return int(np.clip(math.ceil(n_samples ** 0.25), 4, 32))


def _entropy_bits(p: np.ndarray) -> float:
    """Plug-in entropy; terms are sorted before summation so any two
    arrangements of the same cell masses give bit-identical results."""
    q = p[p > 0]
    terms = q * np.log2(q)
    terms.sort()
    return float(-terms.sum())


def mutual_information(x, y, bins: int) -> float:
    """Plug-in MI of two equally long sample series, in bits (>= 0).

    A constant series carries no information, so zero-range input gives 0.
    The joint counts equal ``np.histogram2d(x, y, bins)``'s. Samples must be
    finite, and each series' range (max - min) must be finite in float64.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise TapkitError(f"sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise TapkitError(f"need at least 2 samples, got {x.shape[0]}")
    try:
        bins = operator.index(bins)
    except TypeError:
        raise TapkitError(f"bins must be an integer, got {bins!r}") from None
    if bins < 2:
        raise TapkitError(f"need at least 2 bins, got {bins}")
    x_lo, x_hi = _sample_range(x)
    y_lo, y_hi = _sample_range(y)
    if x_lo == x_hi or y_lo == y_hi:
        return 0.0
    joint = _bin_index(x, x_lo, x_hi, bins) * bins + _bin_index(y, y_lo, y_hi, bins)
    p = np.bincount(joint, minlength=bins * bins).reshape(bins, bins) / x.shape[0]
    h_x = _entropy_bits(p.sum(axis=1))
    h_y = _entropy_bits(p.sum(axis=0))
    h_xy = _entropy_bits(p.ravel())
    return max(0.0, h_x + h_y - h_xy)


def _sample_range(v: np.ndarray) -> tuple[float, float]:
    """The smallest and largest sample; refuses a non-finite sample and a
    range too wide for float64, where equal-width bin edges cannot be
    computed."""
    lo, hi = float(v.min()), float(v.max())
    if not math.isfinite(hi - lo):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise TapkitError("mutual information needs finite samples")
        raise TapkitError(f"sample range [{lo!r}, {hi!r}] is too wide for float64")
    return lo, hi


def _bin_index(v: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    """The bin of each sample among ``bins`` equal-width bins over
    [lo, hi], lo < hi, as ``np.histogram2d`` assigns it: bin i holds
    ``edges[i] <= v < edges[i + 1]`` for the edges ``np.linspace(lo, hi,
    bins + 1)``, and the last bin also holds ``hi``.

    The index is guessed arithmetically and checked against the edges; a
    sample the guess misses (near an edge, or where rounding makes edges
    coincide, as over subnormal ranges) is placed by ``np.searchsorted``, as
    ``histogram2d`` places every sample.
    """
    with np.errstate(over="ignore"):  # only the last edge can overflow; linspace sets it to hi
        edges = np.linspace(lo, hi, bins + 1)
    # (v - lo) <= (hi - lo), so the quotient is in [0, 1] and cannot overflow.
    index = ((v - lo) / (hi - lo) * bins).astype(np.intp)
    np.minimum(index, bins - 1, out=index)
    upper = np.append(edges[1:-1], np.inf)
    missed = np.flatnonzero((edges[index] > v) | (v >= upper[index]))
    if missed.size:
        index[missed] = np.searchsorted(upper, v[missed], side="right")
    return index


def _pooled_pairs(matrix: SensorimotorMatrix, src_row: int, tgt_row: int,
                  lag: int) -> tuple[np.ndarray, np.ndarray]:
    """(source[t + lag], target[t]) pairs pooled across episodes, lag <= 0."""
    xs, ys = [], []
    for ep in matrix.episodes:
        T = ep.data.shape[1]
        if T + lag < 1:
            continue
        xs.append(ep.data[src_row, :T + lag])
        ys.append(ep.data[tgt_row, -lag:])
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ys)


def lag_scan(matrix: SensorimotorMatrix, source: ChannelRef, target: ChannelRef,
             max_lag: int, bins: int | None = None) -> list[MIResult]:
    """MI between source and target for every lag 0, -1, ..., -max_lag.

    The bin count (when not given) is fixed from the deepest lag's sample
    count so the scan is comparable across lags.
    """
    if max_lag < 0:
        raise TapkitError(f"max_lag must be >= 0, got {max_lag}")
    src_row = matrix.space.resolve(source.group, source.index)
    tgt_row = matrix.space.resolve(target.group, target.index)
    deepest = sum(max(0, ep.data.shape[1] - max_lag) for ep in matrix.episodes)
    if deepest < 2:
        raise TapkitError(
            f"insufficient data: {deepest} sample(s) at lag {-max_lag}, need >= 2"
        )
    if bins is None:
        bins = default_bins(deepest)
    results = []
    for lag in range(0, -max_lag - 1, -1):
        xs, ys = _pooled_pairs(matrix, src_row, tgt_row, lag)
        results.append(MIResult(
            source=source,
            lag=lag,
            target=target,
            mi_bits=mutual_information(xs, ys, bins),
            bins=bins,
            samples=int(xs.shape[0]),
        ))
    return results


def effective_tapping(matrix: SensorimotorMatrix, target: ChannelRef,
                      max_lag: int, bins: int | None = None,
                      threshold_frac: float = 0.5) -> Tapping:
    """Build the tapping the data itself supports.

    Scans every channel at every lag 0..-max_lag against the target and
    passes the scans to :func:`tapping_from_scans`. The result is always
    causal.
    """
    _check_threshold(threshold_frac)
    # Validates the target reference before any scanning.
    matrix.space.resolve(target.group, target.index)
    scans = [lag_scan(matrix, ref, target, max_lag, bins)
             for ref in matrix.space.channel_refs()]
    return tapping_from_scans(matrix.space, target, scans, threshold_frac)


def tapping_from_scans(space: SensorimotorSpace, target: ChannelRef,
                       scans: list[list[MIResult]],
                       threshold_frac: float = 0.5) -> Tapping:
    """Turn lag scans against ``target`` into input taps feeding target@0,
    as the tapping named ``effective``.

    Skips the target's own lag-0 cell and keeps the cells whose MI reaches
    ``threshold_frac`` of the maximum found, in scan order.
    """
    _check_threshold(threshold_frac)
    candidates = [res for scan in scans for res in scan
                  if not (res.source == target and res.lag == 0)]
    if not candidates:
        raise TapkitError(
            "nothing to scan: the target's own lag-0 cell is the only candidate"
        )
    max_mi = max(res.mi_bits for res in candidates)
    if max_mi == 0.0:
        raise TapkitError("no dependency detected: all scanned MI estimates are 0")
    taps = [
        Tap(res.source.group, res.lag, ROLE_INPUT, channels=(res.source.index,))
        for res in candidates
        if res.mi_bits >= threshold_frac * max_mi
    ]
    taps.append(Tap(target.group, 0, ROLE_TARGET, channels=(target.index,)))
    return Tapping("effective", space, tuple(taps))


def _check_threshold(threshold_frac: float) -> None:
    if not 0.0 < threshold_frac <= 1.0:
        raise TapkitError(f"threshold_frac must be in (0, 1], got {threshold_frac}")
