"""The stdout of every ``tapkit td`` run and ``scripts/td_correspondence.py``
run listed below, byte for byte.

``tests/data/golden.json`` holds the sha256 of each run's stdout, with the
NumPy version and BLAS they were recorded on. A change that alters one of
these outputs on purpose rewrites the file with ``python tests/test_golden.py``
and names each changed output, and why, in ``CHANGES.md``.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import runpy
import sys
from unittest import mock

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden.json"
SCRIPT = "scripts/td_correspondence.py"

RUNS = [
    "td --seed 0",
    "td --seed 1",
    "td --seed 2",
    "td --seed 3",
    "td --episodes 2000 --seed 1",
    "td --episodes 0",
    "td --algo q --seed 0",
    "td --algo sarsa --seed 0",
    SCRIPT,
    SCRIPT + " --episodes 10 --sweeps 100",
]


def stdout_of(run: str) -> bytes:
    """One run's stdout, made in this process; a non-zero exit fails it."""
    argv = run.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if argv[0] == SCRIPT:
            with mock.patch.object(sys, "argv", argv), pytest.raises(SystemExit) as exc:
                runpy.run_path(str(ROOT / SCRIPT), run_name="__main__")
            code = exc.value.code
        else:
            from tapkit.cli import main
            code = main(argv)
    assert code in (0, None), f"{run}: exit status {code}"
    return out.getvalue().encode()


def _blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # NumPy before 1.25 has no mode argument
        return "unknown"


@pytest.mark.parametrize("run", RUNS)
def test_stdout_digest(run):
    recorded = json.loads(GOLDEN.read_text())["sha256"]
    assert hashlib.sha256(stdout_of(run)).hexdigest() == recorded[run]


def test_every_recorded_run_is_checked():
    assert sorted(json.loads(GOLDEN.read_text())["sha256"]) == sorted(RUNS)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.write_text(json.dumps({
        "numpy": np.__version__,
        "blas": _blas(),
        "sha256": {run: hashlib.sha256(stdout_of(run)).hexdigest() for run in RUNS},
    }, indent=2) + "\n")
