"""The stdout of every run listed below, and every file and stdout of one
offline CLI pipeline, byte for byte.

``tests/data/golden.json`` holds the sha256 of each output, with the NumPy
version and BLAS they were recorded on. A change that alters one of these
outputs on purpose rewrites the file with ``python tests/test_golden.py``
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

RUNS = [
    "td --seed 0",
    "td --seed 1",
    "td --seed 2",
    "td --seed 3",
    "td --episodes 2000 --seed 1",
    "td --episodes 0",
    "td --algo q --seed 0",
    "td --algo sarsa --seed 0",
    "demo nao --seed 0",
    "demo nao --seed 1",
    "demo nao --seed 2",
    "demo nao --seed 3",
    "scripts/td_correspondence.py",
    "scripts/td_correspondence.py --episodes 10 --sweeps 100",
    "scripts/nao_reaching.py",
]

TAPPINGS = """
tapping fwd {
  input m @ -1
  target vision @ 0
}

tapping wide {
  input m @ -3..-1
  input vision @ -2..-1
  target vision @ 0
}
"""

# The benchmark's pipeline at seed 1, then an apply that blocks one of six
# taps per episode (0.0 fills) and two gen boxes whose cells need the
# exponent form. {dir} is the work directory; before the first `apply` the
# tappings are added to the space file gen wrote.
PIPELINE = [
    "gen --plant arm --episodes 5 --steps 2000 --seed 1 --out {dir}/data.csv",
    "analyze --data {dir}/data.csv --target vision[0] --max-lag 5"
    " --emit-tapping {dir}/effective.tap",
    "apply --space {dir}/data.tap --tapping fwd --data {dir}/data.csv --out {dir}/ds.csv",
    "train --data {dir}/ds.csv --features quadratic --ridge 1e-6 --out {dir}/model.txt",
    "reach --model {dir}/model.txt --goal 1.5,0.5 --n 256 --seed 1",
    "validate {dir}/effective.tap",
    "render --spec {dir}/data.tap --tapping fwd --out {dir}/fwd.dot",
    "td --states 5 --gamma 0.9 --alpha 0.1 --episodes 2000 --seed 1",
    "demo nao --seed 1",
    "apply --space {dir}/data.tap --tapping wide --data {dir}/data.csv"
    " --out {dir}/blocked.csv --blocking 0.25 --seed 4",
    "gen --plant arm --episodes 2 --steps 300 --seed 2 --out {dir}/tiny.csv --box=-1e-9:1e-9",
    "gen --plant arm --episodes 2 --steps 300 --seed 3 --out {dir}/huge.csv --box=-1e20:1e20",
]
FILES = ["blocked.csv", "blocked.mask.csv", "data.csv", "data.tap", "ds.csv", "ds.mask.csv",
         "effective.tap", "fwd.dot", "huge.csv", "huge.tap", "model.txt", "tiny.csv", "tiny.tap"]


def stdout_of(run: str) -> bytes:
    """One run's stdout, made in this process; a non-zero exit fails it."""
    argv = run.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if argv[0].startswith("scripts/"):
            with mock.patch.object(sys, "argv", argv), pytest.raises(SystemExit) as exc:
                runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
            code = exc.value.code
        else:
            from tapkit.cli import main
            code = main(argv)
    assert code in (0, None), f"{run}: exit status {code}"
    return out.getvalue().encode()


def pipeline_outputs(workdir: pathlib.Path) -> dict[str, bytes]:
    """Run PIPELINE in ``workdir``: each command's stdout, with the directory
    written as ``{dir}``, and each file in FILES, keyed as in golden.json."""
    outputs = {}
    for command in PIPELINE:
        if command == PIPELINE[2]:  # the first apply
            with open(workdir / "data.tap", "a", encoding="utf-8") as fh:
                fh.write(TAPPINGS)
        text = stdout_of(command.format(dir=workdir))
        outputs["pipeline stdout: " + command] = text.replace(str(workdir).encode(), b"{dir}")
    for name in FILES:
        outputs["pipeline file: " + name] = (workdir / name).read_bytes()
    return outputs


def _blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # NumPy before 1.25 has no mode argument
        return "unknown"


def _recorded() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["sha256"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("pipeline")


@pytest.fixture(scope="module")
def pipeline(workdir):
    return pipeline_outputs(workdir)


@pytest.mark.parametrize("run", RUNS)
def test_stdout_digest(run):
    assert _sha256(stdout_of(run)) == _recorded()[run]


@pytest.mark.parametrize("name", [f"pipeline stdout: {c}" for c in PIPELINE]
                         + [f"pipeline file: {f}" for f in FILES])
def test_pipeline_digest(pipeline, name):
    assert _sha256(pipeline[name]) == _recorded()[name]


def test_pipeline_writes_only_the_listed_files(pipeline, workdir):
    assert sorted(p.name for p in workdir.iterdir()) == FILES


def test_every_recorded_run_is_checked(pipeline):
    assert sorted(_recorded()) == sorted(RUNS + list(pipeline))


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    digests = {run: _sha256(stdout_of(run)) for run in RUNS}
    with tempfile.TemporaryDirectory() as workdir:
        digests.update((k, _sha256(v)) for k, v in pipeline_outputs(pathlib.Path(workdir)).items())
    GOLDEN.write_text(json.dumps(
        {"numpy": np.__version__, "blas": _blas(), "sha256": digests}, indent=2) + "\n")
