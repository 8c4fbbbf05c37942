"""Span recording for the traced benchmark run.

A :class:`Tracer` rebinds the public functions of each tapkit module to
wrappers that record one span per call (name, start, end, parent) and read
counts from arguments, return values and file sizes at the same boundary.
Only module-attribute calls are seen: a name bound with ``from .engine import
apply`` inside another tapkit module keeps pointing at the original, so such
calls are charged to the caller's self time.

Spans are kept in flat in-memory arrays and written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np


def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span self time: duration minus the part of the span's interval
    that its direct children cover (the union of the child intervals, each
    clipped to the parent)."""
    starts, ends, parents = (np.asarray(a, dtype=np.int64).tolist()
                             for a in (starts, ends, parents))
    covered = [0] * len(starts)
    reach: dict[int, int] = {}  # parent -> furthest child end seen so far
    for i in sorted(range(len(starts)), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, starts[p]), ends[i])
    return np.array(ends, dtype=np.int64) - np.array(starts, dtype=np.int64) - covered


def covered_ns(starts, ends, lo: int, hi: int) -> int:
    """Length of the union of intervals [starts[i], ends[i]) within [lo, hi)."""
    total, reach = 0, lo
    for s, e in sorted(zip(starts, ends)):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _masked_cells(dataset) -> int:
    return int(dataset.x_mask.size - np.count_nonzero(dataset.x_mask)
               + dataset.y_mask.size - np.count_nonzero(dataset.y_mask))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counts read at a layer boundary: qualified name -> f(tracer, args, kwargs,
# result). Keys of tracer.counts are the count metric names.
def _count_generate(tr, a, k, r):
    tr.counts["sim.generate.steps"] += sum(ep.data.shape[1] for ep in r.episodes)


def _count_save_csv(tr, a, k, r):
    tr.counts["smcore.save_csv.bytes"] += _file_bytes(_arg(a, k, 1, "path"))


def _count_load_csv(tr, a, k, r):
    tr.counts["smcore.load_csv.bytes"] += _file_bytes(_arg(a, k, 1, "path"))


def _count_apply(tr, a, k, r):
    tr.counts["engine.apply.rows"] += r.n


def _count_dropout(tr, a, k, r):
    tr.counts["engine.dropout_augment.cells_masked"] += (
        _masked_cells(r) - _masked_cells(_arg(a, k, 0, "dataset")))


def _count_stream_push(tr, a, k, r):
    tr.counts["engine.stream_push.emitted"] += len(r)


def _dataset_bytes(tr, path) -> int:
    return _file_bytes(path, tr.originals["engine.mask_path_for"](path))


def _count_save_dataset(tr, a, k, r):
    tr.counts["engine.save_dataset_csv.bytes"] += _dataset_bytes(tr, _arg(a, k, 1, "path"))


def _count_load_dataset(tr, a, k, r):
    tr.counts["engine.load_dataset_csv.bytes"] += _dataset_bytes(tr, _arg(a, k, 0, "path"))


def _count_lag_scan(tr, a, k, r):
    tr.counts["analysis.lag_scan.calls"] += 1
    bins = a[4] if len(a) > 4 else k.get("bins")
    tr.scan_keys.add((id(_arg(a, k, 0, "matrix")), str(_arg(a, k, 1, "source")),
                      str(_arg(a, k, 2, "target")), _arg(a, k, 3, "max_lag"), bins))


COUNTERS = {
    "sim.generate": _count_generate,
    "smcore.save_csv": _count_save_csv,
    "smcore.load_csv": _count_load_csv,
    "engine.apply": _count_apply,
    "engine.dropout_augment": _count_dropout,
    "engine.stream_push": _count_stream_push,
    "engine.save_dataset_csv": _count_save_dataset,
    "engine.load_dataset_csv": _count_load_dataset,
    "analysis.lag_scan": _count_lag_scan,
}


class Tracer:
    """Records spans for calls into the given ``{layer: module}`` map.

    Single-threaded: the parent of a span is the innermost open span.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.counts: Counter = Counter()
        self.scan_keys: set = set()

    def _name_id(self, layer: str, qualname: str) -> int:
        if qualname not in self.name_ids:
            self.name_ids[qualname] = len(self.names)
            self.names.append(qualname)
            self.layer_of.append(layer)
        return self.name_ids[qualname]

    def _wrap(self, layer: str, attr: str, fn):
        qualname = f"{layer}.{attr}"
        nid = self._name_id(layer, qualname)
        counter = COUNTERS.get(qualname)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every public function defined in each module."""
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._saved.append((module, attr, obj))
                self.originals[f"{layer}.{attr}"] = obj
                setattr(module, attr, self._wrap(layer, attr, obj))

    def restore(self) -> list[str]:
        """Put every original back; return the names that did not come back."""
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        return [f"{module.__name__}.{attr}" for module, attr, original in self._saved
                if getattr(module, attr) is not original]

    def mark(self) -> int:
        """Index of the next span, for cutting the trace into phases."""
        return len(self.span_start)

    def take_counts(self) -> dict[str, int]:
        """Counts since the last call, then reset them."""
        counts = dict(self.counts)
        counts["analysis.lag_scan.distinct"] = len(self.scan_keys)
        self.counts = Counter()
        self.scan_keys = set()
        return counts

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layer_of),
                 **self.arrays())


def phase_summary(tracer: Tracer, arrays: dict, self_ns: np.ndarray, lo: int, hi: int,
                  t0: int, t1: int) -> dict:
    """Aggregate the spans [lo, hi) of ``tracer.arrays()``, recorded between
    clock readings t0 and t1.

    Returns inclusive time per function, self time per layer, the duration of
    every call per function, and ``bench`` time: the part of [t0, t1) that no
    top-level span covers.
    """
    name = arrays["name"][lo:hi]
    start, end = arrays["start_ns"][lo:hi], arrays["end_ns"][lo:hi]
    dur = end - start
    n_names = len(tracer.names)
    incl = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=self_ns[lo:hi], minlength=n_names)
    layer_self: dict[str, float] = defaultdict(float)
    for nid, layer in enumerate(tracer.layer_of):
        layer_self[layer] += own[nid]
    roots = arrays["parent"][lo:hi] < 0
    bench = (t1 - t0) - covered_ns(start[roots].tolist(), end[roots].tolist(), t0, t1)
    return {
        "incl_ns": {q: float(incl[i]) for i, q in enumerate(tracer.names)},
        "self_ns": dict(layer_self),
        "durations_ns": {q: dur[name == i] for i, q in enumerate(tracer.names)},
        "bench_ns": float(bench),
    }
