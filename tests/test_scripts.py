"""Smoke runs of the experiment scripts with small arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(ROOT / "scripts" / script)]
    cmd += [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
