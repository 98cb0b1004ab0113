"""Smoke tests: every demo script runs to completion on small settings, and the
README's API sketch imports exactly what the package exports."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmean

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("make_fixtures.py", ["--out", "{tmp}/fixtures"]),
    ("pooling_sweep.py", ["--runs", "1"]),
    ("projection_demo.py", ["--pairs", "50", "--epochs", "2", "--model-out", "{tmp}/model.json"]),
])
def test_script_exits_0(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_exports_the_readme_sketch_names():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API sketch", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = [alias.name for node in ast.walk(ast.parse(sketch))
                if isinstance(node, ast.ImportFrom) and node.module == "pmean"
                for alias in node.names]
    assert sorted(pmean.__all__) == sorted(imported)
