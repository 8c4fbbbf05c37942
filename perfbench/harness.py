"""Measurement loop, checks, tracing and output of the tapkit benchmark.

Imported by run.py once tapkit has been found in the checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

LAYERS = ("cli", "sim", "smcore", "tapdsl", "engine", "models", "analysis",
          "rlbridge", "render")
SETUP_REPEATS = 5    # the workload's set-up runs this often; setup_s takes the median
IMPORT_REPEATS = 7   # fresh interpreters timed importing tapkit
MIN_ITERATIONS = 2   # determinism needs two passes to compare

# The host's speed drifts (other tenants share its cores): it switches
# between a usual speed and one up to 40% faster for seconds at a time, so
# the raw median of one run says as much about the host as about tapkit. A
# fixed probe, timed before the first iteration and after every iteration,
# samples that state. The run's end-to-end times are divided by its
# slowness, the mean probe time over PROBE_REFERENCE_S: they are reported at
# the host speed at which the probe takes PROBE_REFERENCE_S (about its usual
# time on the 2-vCPU Xeon host the benchmark was written on). The mean, not
# the median, because the probe times are bimodal and the mean follows the
# share of the run spent in each mode. One factor per run, not per
# iteration, so the probe's own jitter does not reach the step percentiles.
# Raw times are printed too; per-layer times are raw.
PROBE_REFERENCE_S = 0.018
PROBE_REPEATS = 4    # a probe times this many runs of the kernel in a row
_PROBE_VECTOR = np.arange(6.0)
_PROBE_TABLE = np.random.default_rng(0).standard_normal((100, 500))

# Inclusive time per pass, in seconds.
FUNCTION_SECONDS = (
    "sim.generate", "smcore.save_csv", "smcore.load_csv", "tapdsl.parse_file",
    "tapdsl.parse", "engine.apply", "engine.apply_blocking", "engine.dropout_augment",
    "engine.save_dataset_csv", "engine.load_dataset_csv", "models.fit",
    "models.best_of_n", "analysis.lag_scan", "analysis.effective_tapping",
    "render.to_dot", "rlbridge.tapped_td_run",
)
# Per-call latency percentiles, in microseconds.
FUNCTION_LATENCY = {
    "smcore.append_measurement": (50, 99), "engine.stream_push": (50, 99),
    "models.lms_step": (50,), "models.predict": (50,),
}
COUNTS = {
    "sim.generate.steps": "count", "smcore.save_csv.bytes": "bytes",
    "smcore.load_csv.bytes": "bytes", "engine.apply.rows": "count",
    "engine.dropout_augment.cells_masked": "count", "engine.stream_push.emitted": "count",
    "engine.save_dataset_csv.bytes": "bytes", "engine.load_dataset_csv.bytes": "bytes",
    "analysis.lag_scan.calls": "count",
}


class Tally:
    """Operations attempted and failed: requests, checks and self-tests."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failures += list(failures)

    def check(self, name: str, ok: bool) -> None:
        self.add(1, [] if ok else [name])


def main(args, root: Path, settings: dict, import_s: float) -> None:
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        record = run(args, root, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    record["import_s_inprocess"] = import_s
    record["env"] = environment(root, settings, args.seed)
    emit(args, root, record)


def run(args, root: Path, workdir: str) -> dict:
    tally = Tally()
    cls = workloads.WORKLOADS[args.workload]
    tally.check("self-test: self time on a synthetic nested trace", self_test_spans())

    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous inputs go before making new ones
        t0 = time.perf_counter()
        workload = cls(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    import_times = [] if args.trace else time_fresh_imports(root / "src", IMPORT_REPEATS)

    budget = args.seconds / 2 if args.trace else args.seconds
    first_checks = make_first_checks(workload, tally, args.seed)
    host_probe()  # first use of the probe's arrays is not timed
    loop = run_loop(workload, budget, tally, first_checks)
    walls, steps, rows = loop["walls"], loop["steps"], loop["rows"]
    reference = loop["digests"][0] if loop["digests"] else None
    check_digests(loop["digests"], reference, tally, "untraced")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_inputs_s": setup_times, "import_s": import_times,
        "wall_s_samples": walls, "raw_wall_s_samples": loop["raw_walls"],
        "probe_s_samples": loop["probes"], "slowness": loop["slowness"],
        "digest": reference,
    }
    wall = statistics.median(walls)
    if args.trace:
        workload = None
        record.update(traced_run(args, root, cls, workdir, budget, wall, tally, reference))
    else:
        record["metrics"] = {
            "setup_s": ((statistics.median(import_times) + statistics.median(setup_times))
                        / loop["slowness"], "s"),
            "wall_s": (wall, "s"),
            "rows_per_s": (statistics.median(rows) / wall, "1/s"),
            "step_us_p50": (percentile(steps, 50), "us"),
            "step_us_p99": (percentile(steps, 99), "us"),
            "peak_rss_mb": (loop["peak_rss_kb"] / 1024, "MB"),
        }
        record["samples"] = {"iterations": len(walls), "steps": len(steps)}
    record["attempted"] = tally.attempted
    record["failures"] = tally.failures
    return record


def run_loop(workload, seconds: float, tally: Tally, first_checks, tracer=None):
    """Run iterations for ``seconds``: at least MIN_ITERATIONS, and no new one
    that the median iteration so far says would end after the deadline.
    ``walls`` (s) and ``steps`` (us) are divided by the run's ``slowness``.
    Step times are kept as float32 and peak RSS is read before they are
    joined, so the samples add little to it however many iterations ran."""
    raw_walls, probes, steps, rows, digests, marks = [], [host_probe()], [], [], [], []
    deadline = time.perf_counter() + seconds
    while (len(raw_walls) < MIN_ITERATIONS
           or time.perf_counter() + statistics.median(raw_walls) <= deadline):
        if tracer is not None:
            tracer.take_counts()
            lo = tracer.mark()
        t0 = time.perf_counter_ns()
        it = workload.iteration()
        t1 = time.perf_counter_ns()
        if tracer is not None:
            marks.append((lo, tracer.mark(), t0, t1, tracer.take_counts()))
        probes.append(host_probe())
        raw_walls.append((t1 - t0) / 1e9)
        steps.append((np.asarray(it.steps_ns, dtype=np.int64) / 1e3).astype(np.float32))
        rows.append(it.rows)
        tally.add(it.ops, it.failures)
        if not it.failures:
            digests.append(workload.digest(it.output))
            if first_checks:
                first_checks(it.output)
                first_checks = None
        it = None  # free this pass's outputs before the next pass allocates its own
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    slowness = statistics.fmean(probes) / PROBE_REFERENCE_S
    return {"walls": [w / slowness for w in raw_walls], "raw_walls": raw_walls,
            "slowness": slowness, "probes": probes,
            "steps": np.concatenate(steps).astype(np.float64) / slowness, "rows": rows,
            "digests": digests, "marks": marks, "peak_rss_kb": peak_rss_kb}


def _probe_kernel():
    """A fixed mix of what tapkit's workloads spend time on: per-row Python
    with number formatting and splitting, small array arithmetic, and a
    strided copy of a table larger than L1."""
    out = []
    for i in range(800):
        row = _PROBE_VECTOR * 1.5 + i
        out.append(float(row[1]))
        out.append(len(("%d,%.17g,%.17g" % (i, row[0], row[2])).split(",")))
    table = _PROBE_TABLE[:, ::-1].copy()
    table *= 1.0001
    return out, table


def host_probe() -> float:
    """Seconds that PROBE_REPEATS runs of the probe kernel take now."""
    t0 = time.perf_counter_ns()
    for _ in range(PROBE_REPEATS):
        _probe_kernel()
    return (time.perf_counter_ns() - t0) / 1e9


def make_first_checks(workload, tally: Tally, seed: int):
    """Checks on the first passing iteration, plus the corrupted-row self-test."""

    def first_checks(output):
        try:
            observed = workload.observe(output)
            results = workload.verify(observed)
        except Exception as exc:  # output too broken to check counts as one failure
            tally.check(f"checks: {type(exc).__name__}: {exc}", False)
            return
        for name, ok in results:
            tally.check(name, bool(ok))
        try:
            bad = workload.corrupt(observed, np.random.default_rng(seed))
            caught = not all(ok for _, ok in workload.verify(bad))
        except Exception:  # a check that raises on the corrupted row rejects it too
            caught = True
        tally.check("self-test: a corrupted output row is detected", caught)

    return first_checks


def check_digests(digests, reference, tally: Tally, label: str) -> None:
    for i, digest in enumerate(digests):
        tally.check(f"determinism: {label} pass {i} digest", digest == reference)


def self_test_spans() -> bool:
    """Self time on a synthetic nested trace with overlapping children."""
    # 0 [0,100) has children 1 [10,30) and 2 [20,50): covered 40, self 60.
    # 2 has child 3 [45,60), clipped to [45,50): self 25. Leaves keep their length.
    got = spans.self_times([0, 10, 20, 45], [100, 30, 50, 60], [-1, 0, 0, 2]).tolist()
    return got == [60, 20, 25, 15] and spans.covered_ns([0, 10, 90], [20, 30, 120], 0, 100) == 40


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced_run(args, root, cls, workdir, budget, untraced_wall, tally, reference) -> dict:
    tracer = spans.Tracer({layer: sys.modules[f"tapkit.{layer}"] for layer in LAYERS})
    tracer.install()
    try:
        tracer.take_counts()
        t0 = time.perf_counter_ns()
        workload = cls(args.seed, workdir)
        t1 = time.perf_counter_ns()
        setup_mark = (0, tracer.mark(), t0, t1, tracer.take_counts())
        loop = run_loop(workload, budget, tally, None, tracer)
    finally:
        not_restored = tracer.restore()
    walls, marks = loop["walls"], loop["marks"]
    tally.check("self-test: every wrapped function is restored", not not_restored)
    check_digests(loop["digests"], reference, tally, "traced")

    arrays = tracer.arrays()
    self_ns = spans.self_times(arrays["start_ns"], arrays["end_ns"], arrays["parent"])
    setup = spans.phase_summary(tracer, arrays, self_ns, *setup_mark[:4])
    passes = [spans.phase_summary(tracer, arrays, self_ns, *m[:4]) for m in marks]
    layers = per_pass_metrics(tracer, setup, setup_mark[4], passes, [m[4] for m in marks])
    layers["trace_overhead_frac"] = (statistics.median(walls) / untraced_wall - 1, "frac")
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"{args.workload}-spans.npz")
    return {"layers": layers, "traced_wall_s_samples": walls,
            "spans": len(arrays["name"]), "not_restored": not_restored}


def per_pass_metrics(tracer, setup, setup_counts, passes, pass_counts) -> dict:
    """Layer metrics for one pass: set-up counted once plus the mean iteration."""

    def per_pass(get):
        return get(setup) + statistics.fmean(get(p) for p in passes)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_pass(lambda s: s["self_ns"].get(layer, 0.0)) / 1e9, "s")
    out["bench.self_s"] = (per_pass(lambda s: s["bench_ns"]) / 1e9, "s")
    for name in FUNCTION_SECONDS:
        out[f"{name}.s"] = (per_pass(lambda s: s["incl_ns"].get(name, 0.0)) / 1e9, "s")
    for name in tracer.names:
        if name.startswith("cli.cmd_"):
            out[f"cli.{name[8:]}.s"] = (per_pass(lambda s: s["incl_ns"][name]) / 1e9, "s")
    for name, qs in FUNCTION_LATENCY.items():
        durations = np.concatenate([p["durations_ns"].get(name, np.zeros(0)) for p in passes])
        for q in qs:
            out[f"{name}.us_p{q}"] = (percentile(durations, q) / 1e3, "us")
        out[f"{name}.calls"] = (len(durations) / len(passes), "count")
    for name, unit in COUNTS.items():
        out[name] = (setup_counts.get(name, 0)
                     + statistics.fmean(c.get(name, 0) for c in pass_counts), unit)
    calls = statistics.fmean(c.get("analysis.lag_scan.calls", 0) for c in pass_counts)
    distinct = statistics.fmean(c.get("analysis.lag_scan.distinct", 0) for c in pass_counts)
    # 1.0 when nothing was scanned: no scan was wasted.
    out["analysis.scan_useful_ratio"] = (distinct / calls if calls else 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def time_fresh_imports(src: Path, repeats: int) -> list[float]:
    """Wall time of a fresh interpreter that imports tapkit."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tapkit"], env=env, check=True,
                       cwd=src.parent, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment(root: Path, settings: dict, seed: int) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):  # the config layout differs across NumPy releases
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **settings,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src" / "tapkit"),
        "seed": seed,
    }


def git_commit(root: Path):
    """HEAD of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_metrics(root: Path, trace: int) -> list[dict]:
    """The end_to_end or per_layer entries of BENCHMARK.json."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def emit(args, root: Path, record) -> None:
    failed = len(record["failures"])
    attempted = max(record["attempted"], 1)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"digest sha256:{record['digest']}")
    print(f"import_s in-process {record['import_s_inprocess']:.4f}; fresh interpreters "
          + " ".join(f"{t:.4f}" for t in record["import_s"]))
    print("setup_inputs_s " + " ".join(f"{t:.4f}" for t in record["setup_inputs_s"]))
    print(f"wall_s samples ({len(record['wall_s_samples'])}), at reference speed: "
          + " ".join(f"{t:.4f}" for t in record["wall_s_samples"]))
    print("raw wall_s samples: " + " ".join(f"{t:.4f}" for t in record["raw_wall_s_samples"]))
    print(f"host slowness {record['slowness']:.4f} (mean probe time over "
          f"{PROBE_REFERENCE_S:g} s); probe_s samples: "
          + " ".join(f"{t:.4f}" for t in record["probe_s_samples"]))
    if args.trace:
        print(f"traced wall_s samples ({len(record['traced_wall_s_samples'])}): "
              + " ".join(f"{t:.4f}" for t in record["traced_wall_s_samples"]))
        print(f"spans recorded: {record['spans']}; per pass = set-up once plus the mean "
              "iteration. Calls through names bound by 'from .x import y' inside tapkit "
              "are not seen: rlbridge's inner apply counts as rlbridge self time.")
        measured = record["layers"]
    else:
        print(f"samples: {record['samples']['iterations']} iterations, "
              f"{record['samples']['steps']} steps")
        measured = record["metrics"]
    for name, (value, unit) in sorted(measured.items()):
        print(f"  {name:<44} {value:.6g} {unit}")

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    metrics = {}
    for spec in declared_metrics(root, args.trace):
        value, unit = measured[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: measured in {unit}, declared in {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
