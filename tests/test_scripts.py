"""Smoke tests: every demo script runs to completion on small settings."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("make_fixtures.py", ["--out", "{tmp}/fixtures"]),
    ("pooling_sweep.py", ["--runs", "1"]),
    ("projection_demo.py", ["--pairs", "50", "--epochs", "2"]),
])
def test_script_exits_0(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
