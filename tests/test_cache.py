"""The embedding parse cache, and the streaming file hash that keys it."""
import hashlib
import logging
import shutil

import numpy as np
import pytest

import pmean.embeddings
from pmean.cli import main
from pmean.embeddings import CACHE_VERSION, load_text_embeddings
from pmean.manifest import sha256_file
from test_acceptance import build_cli_fixture


@pytest.mark.parametrize("size", [0, 1, 2**20 - 1, 2**20, 2**20 + 1])
def test_sha256_file_matches_hashlib_on_the_whole_bytes(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    (tmp_path / "f.bin").write_bytes(data)
    assert sha256_file(tmp_path / "f.bin") == hashlib.sha256(data).hexdigest()


def entry_of(cache, path):
    return cache / f"{sha256_file(path)}-v{CACHE_VERSION}.npy"


def write_entry(entry, duplicates, tokens, matrix):
    """An entry in the cache's layout: three .npy arrays in one file."""
    with open(entry, "wb") as fh:
        np.save(fh, np.array([duplicates], dtype=np.int64))
        np.save(fh, np.frombuffer("\n".join(tokens).encode(), dtype=np.uint8))
        np.save(fh, matrix)


def no_parse(monkeypatch):
    """Make any parse fail the test, so a load that succeeds was a cache hit."""
    def fail(path):
        raise AssertionError(f"{path} was parsed, not read from the cache")
    monkeypatch.setattr(pmean.embeddings, "_parse_with_loadtxt", fail)
    monkeypatch.setattr(pmean.embeddings, "_parse_with_float", fail)


# a header, a duplicate, repr doubles, and a value only the float() loop reads
TEXT = ("4 3\nalpha 0.1 -2.5e-300 1e308\nbeta 1_0 0.30000000000000004 -0.0\n"
        "alpha 9 9 9\ngamma 5e-324 2 3\n")


class TestHit:
    @pytest.mark.parametrize("text", [TEXT, TEXT.replace("1_0", "10")])
    def test_equals_a_fresh_parse_bit_for_bit(self, tmp_path, parse_cache_home, monkeypatch,
                                              caplog, text):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            fresh = load_text_embeddings(path, name="n", language_tag="xx")
        assert "skipped 1 duplicate tokens" in caplog.text
        assert sorted(parse_cache_home.iterdir()) == [entry_of(parse_cache_home, path)]

        caplog.clear()
        no_parse(monkeypatch)
        with caplog.at_level(logging.WARNING):
            hit = load_text_embeddings(path, name="n", language_tag="xx")
        assert "skipped 1 duplicate tokens" in caplog.text
        assert hit.matrix.tobytes() == fresh.matrix.tobytes()
        assert list(hit.vocab.items()) == list(fresh.vocab.items())
        assert (hit.name, hit.dim, hit.language_tag) == ("n", 3, "xx")

    def test_a_copy_hits_under_its_own_name(self, tmp_path, parse_cache_home, monkeypatch):
        (tmp_path / "a.txt").write_text(TEXT, encoding="utf-8")
        shutil.copy(tmp_path / "a.txt", tmp_path / "b.txt")
        first = load_text_embeddings(tmp_path / "a.txt")
        no_parse(monkeypatch)
        copy = load_text_embeddings(tmp_path / "b.txt")
        assert (first.name, copy.name) == ("a", "b")
        assert copy.matrix.tobytes() == first.matrix.tobytes()
        assert len(list(parse_cache_home.iterdir())) == 1

    @pytest.mark.parametrize("xdg", [None, "", "relative"])
    def test_without_an_absolute_xdg_cache_home_entries_go_to_home(self, tmp_path,
                                                                   monkeypatch, xdg):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        if xdg is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "emb.txt"
        path.write_text(TEXT, encoding="utf-8")
        load_text_embeddings(path)
        cache = tmp_path / "home" / ".cache" / "pmean"
        assert list(cache.iterdir()) == [entry_of(cache, path)]
        assert not (tmp_path / "relative").exists()

    def test_a_file_changed_while_loading_is_not_stored(self, tmp_path, parse_cache_home,
                                                        monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text(TEXT, encoding="utf-8")
        real = pmean.embeddings._parse_with_loadtxt

        def parse_then_edit(p):
            parsed = real(p)
            path.write_text(TEXT + "delta 1 2 3\n", encoding="utf-8")
            return parsed

        monkeypatch.setattr(pmean.embeddings, "_parse_with_loadtxt", parse_then_edit)
        load_text_embeddings(path)
        assert not parse_cache_home.exists() or not any(parse_cache_home.iterdir())

    def test_a_one_byte_edit_misses(self, tmp_path, parse_cache_home):
        path = tmp_path / "emb.txt"
        path.write_text(TEXT, encoding="utf-8")
        load_text_embeddings(path)
        path.write_text(TEXT.replace("gamma 5e-324 2 3", "gamma 5e-324 2 4"), encoding="utf-8")
        space = load_text_embeddings(path)
        assert space.matrix[space.vocab["gamma"]][2] == 4.0
        assert len(list(parse_cache_home.iterdir())) == 2


def embed(workdir, out="emb.tsv"):
    """Run embed on the fixture workspace; returns its exit code and output bytes."""
    rc = main(["embed", "--config", str(workdir / "cfg.txt"),
               "--input", str(workdir / "sentences.txt"), "--output", str(workdir / out)])
    return rc, [(workdir / name).read_bytes() for name in (out, out + ".manifest.json")]


@pytest.fixture
def workdir(tmp_path):
    build_cli_fixture(tmp_path)
    return tmp_path


def corrupt(kind: str, entry) -> None:
    """Spoil one aspect of a good entry and keep the rest of its contents."""
    raw = entry.read_bytes()
    with open(entry, "rb") as fh:
        duplicates, tokens, matrix = (np.load(fh) for _ in range(3))
    duplicates, tokens = int(duplicates[0]), tokens.tobytes().decode().split("\n")
    if kind == "empty":
        entry.write_bytes(b"")
    elif kind == "truncated":
        entry.write_bytes(raw[: len(raw) - 9])
    elif kind == "garbage":
        entry.write_bytes(b"PK\x03\x04 not an entry\n" * 20)
    elif kind == "pickled":
        with open(entry, "wb") as fh:
            np.save(fh, np.array([0, None], dtype=object), allow_pickle=True)
    elif kind == "rows_short":
        write_entry(entry, duplicates, tokens, matrix[:-1])
    elif kind == "one_dim":
        write_entry(entry, duplicates, tokens, matrix.ravel())
    elif kind == "float32":
        write_entry(entry, duplicates, tokens, matrix.astype(np.float32))
    elif kind == "wide_tokens":
        with open(entry, "wb") as fh:
            np.save(fh, np.array([duplicates], dtype=np.int64))
            text = "\n".join(tokens).encode()
            np.save(fh, np.frombuffer(text, dtype=np.uint8).astype(np.int64))
            np.save(fh, matrix)
    elif kind == "repeated_token":
        write_entry(entry, duplicates, [tokens[0], *tokens[:-1]], matrix)
    elif kind == "empty_token":
        write_entry(entry, duplicates, ["", *tokens[1:]], matrix)
    elif kind == "non_finite":
        matrix[2, 1] = np.nan
        write_entry(entry, duplicates, tokens, matrix)
    elif kind == "negative_duplicates":
        write_entry(entry, -1, tokens, matrix)


class TestBadEntries:
    @pytest.mark.parametrize("kind", [
        "empty", "truncated", "garbage", "pickled", "rows_short", "one_dim", "float32",
        "wide_tokens", "repeated_token", "empty_token", "non_finite", "negative_duplicates",
    ])
    def test_are_parsed_again_and_rewritten(self, workdir, parse_cache_home, capsys, caplog,
                                            kind):
        rc, cold = embed(workdir)
        assert rc == 0
        entry = entry_of(parse_cache_home, workdir / "one.txt")
        raw = entry.read_bytes()
        corrupt(kind, entry)
        capsys.readouterr()
        with caplog.at_level(logging.WARNING):
            assert embed(workdir) == (0, cold)
        assert capsys.readouterr().err == "" and caplog.text == ""
        assert entry.read_bytes() == raw

    @pytest.mark.parametrize("blocked", ["pmean_is_a_file", "cache_home_is_a_file"])
    def test_an_unwritable_cache_is_skipped(self, workdir, tmp_path_factory, monkeypatch,
                                            capsys, blocked):
        rc, cold = embed(workdir)
        assert rc == 0
        home = tmp_path_factory.mktemp("blocked")
        if blocked == "pmean_is_a_file":
            (home / "pmean").write_text("")
        else:
            home = home / "file"
            home.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        capsys.readouterr()
        assert embed(workdir) == (0, cold)
        assert capsys.readouterr().err == ""


class TestFailedParses:
    @pytest.mark.parametrize("data", [
        b"alpha 1 2\nbeta 3\n",  # ragged
        b"alpha 1 2\nbeta 3 nan\n",  # non-finite
        b"alpha 1 \xff\n",  # not UTF-8
        b"4 2\n",  # no rows
    ])
    def test_store_nothing_and_fail_the_same_way_again(self, workdir, parse_cache_home,
                                                       capsys, data):
        (workdir / "bad.txt").write_bytes(data)
        (workdir / "bad.cfg").write_text("space=bad p=1 path=bad.txt\n")
        argv = ["embed", "--config", str(workdir / "bad.cfg"),
                "--input", str(workdir / "sentences.txt"), "--output", str(workdir / "o.tsv")]
        errors = []
        for _ in range(2):
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"pmean: {workdir / 'bad.txt'}")
        assert not parse_cache_home.exists() or not any(parse_cache_home.iterdir())
        assert not (workdir / "o.tsv").exists()
