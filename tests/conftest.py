import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def parse_cache_home(tmp_path_factory, monkeypatch):
    """Point the embedding parse cache at a fresh directory for every test.

    No test writes to the user's cache, and each test starts cold: a test that
    loads a file twice sees a parse and then a cache hit. Subprocesses inherit
    the variable.
    """
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home / "pmean"


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    """The demo workspace that scripts/make_fixtures.py writes."""
    root = tmp_path_factory.mktemp("fx")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(REPO / "scripts" / "make_fixtures.py"), "--out", str(root)],
                   env=env, check=True, capture_output=True)
    return root
