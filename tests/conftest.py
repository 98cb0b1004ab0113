import pytest


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
