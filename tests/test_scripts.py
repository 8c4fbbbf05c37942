"""Smoke runs of the experiment scripts with small arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(ROOT / "scripts" / script)]
    cmd += [a.format(tmp=tmp_path) for a in args]
    return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize(
    "script, args",
    [
        ("lag_recovery.py", ["--samples", "2000"]),
        ("make_gallery.py", ["--out-dir", "{tmp}"]),
        ("nao_reaching.py", ["--steps", "200", "--goals", "10", "--candidates", "32"]),
        ("td_correspondence.py", ["--episodes", "10", "--sweeps", "100"]),
    ],
)
def test_script_exits_zero(tmp_path, script, args):
    proc = _run(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("td_correspondence.py", ["--episodes", "10", "--sweeps", "-1"],
         "error: sweeps must be >= 0, got -1"),
        ("lag_recovery.py", ["--samples", "5"], "error: insufficient data"),
        ("nao_reaching.py", ["--steps", "1", "--goals", "2"],
         "error: cannot fit on an empty dataset"),
        ("lag_recovery.py", ["--samples", "2000", "--threshold", "2"],
         "error: threshold_frac must be in (0, 1], got 2.0"),
        ("make_gallery.py", ["--out-dir", "{tmp}/file/sub"], "error: [Errno 20] Not a directory"),
    ],
)
def test_script_error_is_one_line(tmp_path, script, args, message):
    """Bad input, or an output path that cannot be written, exits 2 with one
    ``error:`` line on stderr and nothing on stdout, as the CLI does."""
    (tmp_path / "file").write_text("")
    proc = _run(tmp_path, script, args)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), proc.stderr
