"""The benchmark's three workloads.

Each is a closed loop: one caller makes a request into tapkit, waits for the
result, then makes the next. Inputs come only from the seed. A workload
exposes:

- ``iteration()``: one timed pass, returning an :class:`Iteration`;
- ``observe(output)``: the pass's results read back into plain arrays and
  text, without tapkit (files are parsed with NumPy and ``re``);
- ``verify(observed)``: named pass/fail checks against laws and direct
  indexing of the input data, never against tapkit itself (except the
  batch == stream check, which compares two tapkit paths by design);
- ``corrupt(observed)``: a copy with one output row changed, which
  ``verify`` must reject;
- ``digest(output)``: sha256 of the pass's outputs, equal on every pass.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import math
import os
import re
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

from tapkit import cli, engine, models, sim, smcore, tapdsl

# The README's forward tapping: command one step back predicts vision now.
FWD_TAPPING = """
tapping fwd {
  input m @ -1
  target vision @ 0
}
"""

# multi_step(v, k=8, symmetric) written out in the DSL.
MULTI_STEP_TAPPING = """
tapping multi_step_v_8s {
  input v @ -7..0
  target v @ 1..7
}
"""


class Iteration(NamedTuple):
    steps_ns: list[int] | np.ndarray  # latency of each request in the pass
    rows: int                         # supervised rows delivered
    ops: int                          # requests made
    failures: list[str]               # requests that failed
    output: object                    # what observe() and digest() read


def _sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk))
    return h.hexdigest()


def _episode_lengths(episode_ids: np.ndarray) -> list[int]:
    """Run lengths of consecutive equal ids."""
    if len(episode_ids) == 0:
        return []
    cuts = np.flatnonzero(np.diff(episode_ids)) + 1
    return np.diff(np.concatenate([[0], cuts, [len(episode_ids)]])).tolist()


def _rows_law(lengths, span: int) -> int:
    return sum(max(0, T - span + 1) for T in lengths)


def _expected_cells(episodes, rows, lags, anchors_from: int):
    """Direct indexing: for each episode (channels x T), the value of channel
    rows[j] at anchor + lags[j], for every anchor t with all cells inside."""
    blocks, anchors = [], []
    span = max(lags) - min(lags) + 1
    for e, data in enumerate(episodes):
        n = max(0, data.shape[1] - span + 1)
        ts = np.arange(anchors_from, anchors_from + n)
        blocks.append(np.stack([data[r, ts + lag] for r, lag in zip(rows, lags)], axis=1)
                      if n else np.zeros((0, len(rows))))
        anchors += [(e, int(t)) for t in ts]
    return np.concatenate(blocks), np.array(anchors, dtype=np.int64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# pipeline_cli: the offline user path through the command line
# ---------------------------------------------------------------------------

class PipelineCli:
    """gen -> analyze -> apply -> train -> reach, then validate, render, td
    and demo, each run in-process through ``cli.main``. One step is one
    command."""

    EPISODES, STEPS = 5, 2_000
    M_DIM, V_DIM = 4, 2

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        p, s = self.path, str(seed)
        self.commands = [
            ["gen", "--plant", "arm", "--episodes", str(self.EPISODES),
             "--steps", str(self.STEPS), "--seed", s, "--out", p("data.csv")],
            ["analyze", "--data", p("data.csv"), "--target", "vision[0]",
             "--max-lag", "5", "--emit-tapping", p("effective.tap")],
            ["apply", "--space", p("data.tap"), "--tapping", "fwd",
             "--data", p("data.csv"), "--out", p("ds.csv")],
            ["train", "--data", p("ds.csv"), "--features", "quadratic",
             "--ridge", "1e-6", "--out", p("model.txt")],
            ["reach", "--model", p("model.txt"), "--goal", "1.5,0.5",
             "--n", "256", "--seed", s],
            ["validate", p("effective.tap")],
            ["render", "--spec", p("data.tap"), "--tapping", "fwd", "--out", p("fwd.dot")],
            ["td", "--states", "5", "--gamma", "0.9", "--alpha", "0.1",
             "--episodes", "2000", "--seed", s],
            ["demo", "nao", "--seed", s],
        ]
        self.files = ["data.csv", "data.tap", "effective.tap", "ds.csv",
                      "ds.mask.csv", "model.txt", "fwd.dot"]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def iteration(self) -> Iteration:
        steps, failures, texts = [], [], {}
        for argv in self.commands:
            if argv[0] == "apply":
                # The user adds the forward tapping to the space file gen wrote.
                with open(self.path("data.tap"), "a", encoding="utf-8") as fh:
                    fh.write(FWD_TAPPING)
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter_ns()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a crash is one failed command
                    code = f"{type(exc).__name__}: {exc}"
            steps.append(perf_counter_ns() - t0)
            texts[argv[0]] = out.getvalue()
            if code != 0:
                failures.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        written = re.search(r": (\d+) rows,", texts["apply"])
        rows = int(written.group(1)) if written else 0
        return Iteration(steps, rows, len(self.commands), failures, texts)

    def digest(self, texts) -> str:
        chunks = []
        for name in self.files:
            with open(self.path(name), "rb") as fh:
                chunks.append(fh.read())
        chunks += [texts[k].encode() for k in sorted(texts)]
        return _sha256(*chunks)

    def observe(self, texts) -> dict:
        def table(name):
            with open(self.path(name), encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
            return header, np.loadtxt(self.path(name), delimiter=",", skiprows=1, ndmin=2)

        obs = {"texts": dict(texts)}
        obs["data_header"], obs["data"] = table("data.csv")
        obs["ds_header"], obs["ds"] = table("ds.csv")
        obs["mask_header"], obs["mask"] = table("ds.mask.csv")
        with open(self.path("model.txt"), encoding="utf-8") as fh:
            obs["model"] = fh.read().split()
        return obs

    def verify(self, obs) -> list[tuple[str, bool]]:
        m, v = self.M_DIM, self.V_DIM
        data, ds, mask, texts = obs["data"], obs["ds"], obs["mask"], obs["texts"]
        checks = []
        checks.append(("gen: header", obs["data_header"] == ["episode"]
                       + [f"motor:m[{i}]" for i in range(m)]
                       + [f"extero:vision[{i}]" for i in range(v)]))
        lengths = _episode_lengths(data[:, 0])
        checks.append(("gen: episodes x steps", lengths == [self.STEPS] * self.EPISODES
                       and data.shape[1] == 1 + m + v and bool(np.isfinite(data).all())))
        ds_header = (["episode", "t"] + [f"x:m[{i}]@-1" for i in range(m)]
                     + [f"y:vision[{i}]@0" for i in range(v)])
        checks.append(("apply: header", obs["ds_header"] == ds_header))
        checks.append(("apply: row-count law", ds.shape[0] == _rows_law(lengths, 2)))
        cells_ok = False
        if lengths and ds.shape == (_rows_law(lengths, 2), 2 + m + v):
            # Row (e, t) reads m at t-1 and vision at t of episode e.
            ids = np.unique(data[:, 0]).astype(np.int64)
            want_e = np.repeat(ids, [T - 1 for T in lengths])
            want_t = np.concatenate([np.arange(1, T) for T in lengths])
            eps, ts = ds[:, 0].astype(np.int64), ds[:, 1].astype(np.int64)
            if np.array_equal(eps, want_e) and np.array_equal(ts, want_t):
                first = np.concatenate([[0], np.cumsum(lengths)[:-1]])
                idx = first[np.searchsorted(ids, eps)] + ts
                cells_ok = (np.array_equal(ds[:, 2:2 + m], data[idx - 1, 1:1 + m])
                            and np.array_equal(ds[:, 2 + m:], data[idx, 1 + m:]))
        checks.append(("apply: cells equal direct indexing", cells_ok))
        checks.append(("apply: mask all active", obs["mask_header"] == ds_header
                       and mask.shape == ds.shape
                       and bool((mask[:, 2:] == 1).all())))
        weights = obs["model"][4:]
        checks.append(("train: weights finite",
                       obs["model"][:2] == ["2", str(m + m * (m + 1) // 2)]
                       and len(weights) == 2 * (m + m * (m + 1) // 2) + 2
                       and all(math.isfinite(float(w)) for w in weights)))
        reach = re.search(r"predicted distance to goal: (\S+)", texts.get("reach", ""))
        checks.append(("reach: finite distance",
                       reach is not None and math.isfinite(float(reach.group(1)))))
        lines = [ln for ln in texts.get("validate", "").splitlines() if ln.strip()]
        checks.append(("analyze: emitted tapping validates as causal",
                       bool(lines) and all(": causal (" in ln for ln in lines)))
        checks.append(("td: tapped == direct",
                       "(tapped == direct): True" in texts.get("td", "")))
        ratio = re.search(r"ratio \(model / baseline\): (\S+)", texts.get("demo", ""))
        checks.append(("demo: ratio < 1", ratio is not None and float(ratio.group(1)) < 1))
        checks.append(("render: DOT text", texts.get("render", "").startswith("wrote ")
                       and os.path.getsize(self.path("fwd.dot")) > 0))
        return checks

    def corrupt(self, obs, rng) -> dict:
        bad = dict(obs, ds=obs["ds"].copy())
        bad["ds"][rng.integers(len(bad["ds"])), 2] += 1.0
        return bad


# ---------------------------------------------------------------------------
# augment_batch: the in-memory training-set factory
# ---------------------------------------------------------------------------

class AugmentBatch:
    """Parse a k=8 symmetric multi_step tapping, apply it, apply it with
    blocking, dropout-augment the plain result, and fit each result. One step
    is one library call."""

    DIM, EPISODES, STEPS = 4, 20, 5_000
    LAGS_IN, LAGS_OUT = range(-7, 1), range(1, 8)
    BLOCKING, COPIES, PROPORTION, RIDGE = 0.25, 2, 0.1, 1e-6

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.matrix = sim.generate(sim.PlantConfig(kind="linear", dim=self.DIM, seed=seed),
                                   self.EPISODES, self.STEPS)
        # Checks index a private copy, so an input changed in place shows.
        self.episodes = [ep.data.copy() for ep in self.matrix.episodes]

    def iteration(self) -> Iteration:
        steps, failures, out = [], [], {}
        dropout = engine.DropoutConfig(self.COPIES, self.PROPORTION, "inputs", 0.0, self.seed)
        stages = [
            ("parse", lambda: tapdsl.parse(MULTI_STEP_TAPPING, self.matrix.space).tappings[0]),
            ("apply", lambda: engine.apply(self.matrix, out["parse"])),
            ("apply_blocking", lambda: engine.apply_blocking(
                self.matrix, out["parse"], self.BLOCKING, self.seed)),
            ("dropout_augment", lambda: engine.dropout_augment(out["apply"], dropout)),
            ("fit:apply", lambda: models.fit(out["apply"], "identity", self.RIDGE)),
            ("fit:apply_blocking", lambda: models.fit(out["apply_blocking"], "identity",
                                                      self.RIDGE)),
            ("fit:dropout_augment", lambda: models.fit(out["dropout_augment"], "identity",
                                                       self.RIDGE)),
        ]
        for name, call in stages:
            t0 = perf_counter_ns()
            try:
                out[name] = call()
            except Exception as exc:  # later stages need this result
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                steps.append(perf_counter_ns() - t0)
                break
            steps.append(perf_counter_ns() - t0)
        rows = sum(out[k].n for k in ("apply", "apply_blocking", "dropout_augment") if k in out)
        return Iteration(steps, rows, len(steps), failures, out)

    def digest(self, out) -> str:
        chunks = []
        for k in ("apply", "apply_blocking", "dropout_augment"):
            ds = out[k]
            chunks += [ds.X, ds.Y, ds.x_mask, ds.y_mask, np.array(ds.anchors)]
        for k in ("fit:apply", "fit:apply_blocking", "fit:dropout_augment"):
            chunks += [out[k].W, out[k].b]
        return _sha256(*chunks)

    def observe(self, out) -> dict:
        def plain(ds):
            return {"X": ds.X, "Y": ds.Y, "xm": ds.x_mask, "ym": ds.y_mask,
                    "anchors": np.array(ds.anchors, dtype=np.int64).reshape(-1, 2),
                    "layout": [(c.ref.group, c.ref.index, c.lag, c.role) for c in ds.layout]}

        obs = {k: plain(out[k]) for k in ("apply", "apply_blocking", "dropout_augment")}
        obs["models"] = [(out[k].W, out[k].b) for k in
                         ("fit:apply", "fit:apply_blocking", "fit:dropout_augment")]
        return obs

    def verify(self, obs) -> list[tuple[str, bool]]:
        d = self.DIM
        lags = list(self.LAGS_IN) + list(self.LAGS_OUT)
        n_in, n_out = len(self.LAGS_IN) * d, len(self.LAGS_OUT) * d
        # The linear plant records m (d rows) then v (d rows).
        rows = [d + ch for _ in lags for ch in range(d)]
        cell_lags = [lag for lag in lags for _ in range(d)]
        want, want_anchors = _expected_cells(self.episodes, rows, cell_lags, -min(lags))
        span = max(lags) - min(lags) + 1
        n = _rows_law([e.shape[1] for e in self.episodes], span)
        ds, blk, aug = obs["apply"], obs["apply_blocking"], obs["dropout_augment"]
        checks = []
        layout = ([("v", ch, lag, "input") for lag in self.LAGS_IN for ch in range(d)]
                  + [("v", ch, lag, "target") for lag in self.LAGS_OUT for ch in range(d)])
        checks.append(("parse: column layout", ds["layout"] == layout))
        checks.append(("apply: row-count law", ds["X"].shape == (n, n_in)
                       and ds["Y"].shape == (n, n_out)))
        checks.append(("apply: anchors", np.array_equal(ds["anchors"], want_anchors)))
        cells_ok = ds["X"].shape == (n, n_in) and ds["Y"].shape == (n, n_out) and (
            np.array_equal(ds["X"], want[:, :n_in]) and np.array_equal(ds["Y"], want[:, n_in:]))
        checks.append(("apply: cells equal direct indexing", cells_ok))
        checks.append(("apply: masks all active", bool(ds["xm"].all() and ds["ym"].all())))
        checks.append(("apply_blocking: whole taps blocked, filled with 0",
                       self._blocking_ok(blk, want, want_anchors, n_in, span)))
        checks.append(("dropout_augment: masked cells", self._dropout_ok(aug, ds, n)))
        checks.append(("fit: weights finite", all(
            W.shape == (n_out, n_in) and np.isfinite(W).all() and np.isfinite(b).all()
            for W, b in obs["models"])))
        return checks

    def _blocking_ok(self, blk, want, want_anchors, n_in, span) -> bool:
        d = self.DIM
        k = math.floor(self.BLOCKING * (len(self.LAGS_IN) + len(self.LAGS_OUT)))
        values = np.hstack([blk["X"], blk["Y"]])
        mask = np.hstack([blk["xm"], blk["ym"]])
        if values.shape != want.shape or not np.array_equal(blk["anchors"], want_anchors):
            return False
        start = 0
        for T in (e.shape[1] for e in self.episodes):
            stop = start + max(0, T - span + 1)
            m = mask[start:stop]
            if stop > start:
                # Every row of an episode carries the same mask, and each tap
                # (d consecutive columns) is either whole or blocked.
                if not (m == m[0]).all():
                    return False
                taps = m[0].reshape(-1, d)
                if not ((taps.all(axis=1)) | (~taps.any(axis=1))).all():
                    return False
                if int((~taps.any(axis=1)).sum()) != k:
                    return False
            start = stop
        return (bool((values[~mask] == 0.0).all())
                and np.array_equal(values[mask], want[mask]))

    def _dropout_ok(self, aug, ds, n) -> bool:
        reps = self.COPIES + 1
        if aug["X"].shape != (reps * n, ds["X"].shape[1]):
            return False
        per_copy = math.floor(self.PROPORTION * ds["X"].size)
        if not (np.array_equal(aug["X"][:n], ds["X"]) and np.array_equal(aug["Y"][:n], ds["Y"])
                and aug["xm"][:n].all() and aug["ym"].all()
                and np.array_equal(aug["anchors"], np.tile(ds["anchors"], (reps, 1)))
                and np.array_equal(aug["Y"], np.tile(ds["Y"], (reps, 1)))):
            return False
        for c in range(1, reps):
            X, xm = aug["X"][c * n:(c + 1) * n], aug["xm"][c * n:(c + 1) * n]
            if int((~xm).sum()) != per_copy:
                return False
            if not ((X[~xm] == 0.0).all() and np.array_equal(X[xm], ds["X"][xm])):
                return False
        return True

    def corrupt(self, obs, rng) -> dict:
        bad = copy.deepcopy(obs["apply"])
        bad["X"][rng.integers(len(bad["X"])), 0] += 1.0
        return dict(obs, apply=bad)


# ---------------------------------------------------------------------------
# stream_control: one agent's control loop, one step at a time
# ---------------------------------------------------------------------------

class StreamControl:
    """Per step: record the measurement, push it through the forward tapping,
    take an LMS step on each completed row and predict the next observation
    from the command just issued. One step is one control step."""

    STEPS, RATE = 20_000, 0.05

    def __init__(self, seed: int, workdir: str):
        recording = sim.generate(sim.PlantConfig(kind="arm", seed=seed), 1, self.STEPS)
        self.space = recording.space
        self.data = recording.episodes[0].data.copy()
        self.d_m = self.space.groups[0].dim
        self.d_s = self.space.n_sm - self.d_m
        self.measurements = [self.data[:, t].copy() for t in range(self.STEPS)]
        self.tapping = tapdsl.parse(FWD_TAPPING, self.space).tappings[0]

    def iteration(self) -> Iteration:
        # Results go to buffers allocated up front: the harness adds no heap
        # traffic of its own to the loop it times, which would shift where
        # the allocator places the episode's growing array.
        T, d_m, d_s, rate = self.STEPS, self.d_m, self.d_s, self.RATE
        matrix = smcore.SensorimotorMatrix(self.space)
        state = engine.stream_open(self.tapping)
        model = models.zero_model(d_m, d_s)
        steps = np.zeros(T, dtype=np.int64)
        X, Y, preds = np.empty((T, d_m)), np.empty((T, d_s)), np.empty((T, d_s))
        anchors = np.empty((T, 2), dtype=np.int64)
        n, done, failures = 0, 0, []
        for t, vec in enumerate(self.measurements):
            t0 = perf_counter_ns()
            try:
                smcore.append_measurement(matrix, 0, vec)
                rows = engine.stream_push(state, vec)
                for x, y, _ in rows:
                    model = models.lms_step(model, x, y, rate)
                pred = models.predict(model, vec[:d_m])
                steps[t] = perf_counter_ns() - t0
                for x, y, anchor in rows:
                    X[n], Y[n], anchors[n] = x, y, anchor
                    n += 1
                preds[t] = pred
            except Exception as exc:  # a missing or malformed result stops the loop
                steps[t] = steps[t] or perf_counter_ns() - t0
                failures.append(f"step {t}: {type(exc).__name__}: {exc}")
                break
            done = t + 1
        out = {"matrix": matrix, "X": X[:n], "Y": Y[:n], "anchors": anchors[:n],
               "preds": preds[:done], "model": model}
        return Iteration(steps[:done + len(failures)], n, done + len(failures), failures, out)

    def digest(self, out) -> str:
        return _sha256(out["X"], out["Y"], out["anchors"], out["preds"],
                       out["model"].W, out["model"].b)

    def observe(self, out) -> dict:
        batch = engine.apply(out["matrix"], self.tapping)
        episodes = out["matrix"].episodes
        return {
            "X": out["X"], "Y": out["Y"], "anchors": out["anchors"],
            "batch": (batch.X, batch.Y, np.array(batch.anchors, dtype=np.int64).reshape(-1, 2)),
            "recorded": episodes[0].data if episodes else np.zeros((self.space.n_sm, 0)),
            "preds": out["preds"], "W": out["model"].W, "b": out["model"].b,
        }

    def verify(self, obs) -> list[tuple[str, bool]]:
        d_m = self.d_m
        rows = list(range(self.space.n_sm))
        lags = [-1] * d_m + [0] * self.d_s
        want, want_anchors = _expected_cells([self.data], rows, lags, 1)
        n = _rows_law([self.STEPS], 2)
        X, Y = obs["X"], obs["Y"]
        bX, bY, b_anchors = obs["batch"]
        return [
            ("append_measurement: recording equals the measurements",
             np.array_equal(obs["recorded"], self.data)),
            ("stream_push: row-count law", X.shape[0] == n and Y.shape[0] == n),
            ("stream_push: anchors", np.array_equal(obs["anchors"], want_anchors)),
            ("stream_push: cells equal direct indexing",
             X.shape == (n, d_m) and np.array_equal(np.hstack([X, Y]), want)),
            ("batch == stream", np.array_equal(bX, X) and np.array_equal(bY, Y)
             and np.array_equal(b_anchors, obs["anchors"])),
            ("lms_step: weights finite",
             bool(np.isfinite(obs["W"]).all() and np.isfinite(obs["b"]).all())),
            ("predict: finite, one per step", obs["preds"].shape == (self.STEPS, self.d_s)
             and bool(np.isfinite(obs["preds"]).all())),
        ]

    def corrupt(self, obs, rng) -> dict:
        bad = dict(obs, X=obs["X"].copy())
        bad["X"][rng.integers(len(bad["X"])), 0] += 1.0
        return bad


WORKLOADS = {
    "pipeline_cli": PipelineCli,
    "augment_batch": AugmentBatch,
    "stream_control": StreamControl,
}
