"""tapkit benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream_control --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The lines before it print every measured figure and the
environment. Exits with code 2, printing no result, when tapkit cannot be
imported from ``src/`` of the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads: every workload is single-threaded.
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# glibc's malloc adapts its mmap threshold to past frees and returns the top
# of the heap to the system past a trim threshold. Whether stream_control's
# growing ~1 MB episode array then reuses heap memory or faults in fresh
# pages on every step depends on where unrelated small objects happen to sit,
# and it moved that workload's wall_s by 30% and its step_us_p99 by 2.5x
# between identical runs. Fixed thresholds (the mmap one at the top of glibc's
# own adaptive range) keep freed memory in the process, so every run measures
# the same allocator behaviour.
MALLOC_OPTIONS = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 512 << 20)}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pipeline_cli", "augment_batch", "stream_control")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def fix_malloc() -> dict:
    """Apply MALLOC_OPTIONS through glibc's mallopt; report what was set."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc: nothing to fix
        return {"applied": False}
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    done = {name: value for name, (param, value) in MALLOC_OPTIONS.items()
            if mallopt(param, value) == 1}
    return {"applied": len(done) == len(MALLOC_OPTIONS), **done}


def import_tapkit() -> None:
    """Import tapkit from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tapkit
    if Path(tapkit.__file__).resolve().parent != SRC / "tapkit":
        raise ImportError(f"tapkit resolved to {tapkit.__file__}, not {SRC / 'tapkit'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    malloc = fix_malloc()
    t0 = time.perf_counter()
    try:
        import_tapkit()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import harness
    harness.main(args, ROOT, {"blas_pin": BLAS_PIN, "malloc": malloc}, import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
