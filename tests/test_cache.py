"""The embedding parse cache, and the one read of a file that keys it."""
import hashlib
import json
import logging
import os
import shutil
import stat
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import pmean.cli
import pmean.embeddings
import pmean.evaluation
import pmean.projection
import pmean.textio
from pmean.cli import main
from pmean.embeddings import CACHE_VERSION, _parse_with_float, load_text_embeddings
from test_acceptance import build_cli_fixture
from test_cli import run_module
from test_imports import command


def entry_of(cache, path):
    return cache / f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()}-v{CACHE_VERSION}.npy"


def write_entry(entry, duplicates, tokens, matrix):
    """An entry in the cache's layout: three .npy arrays in one file."""
    with open(entry, "wb") as fh:
        np.save(fh, np.array([duplicates], dtype=np.int64))
        np.save(fh, np.frombuffer("\n".join(tokens).encode(), dtype=np.uint8))
        np.save(fh, matrix)


def no_parse(monkeypatch):
    """Make any parse fail the test, so a load that succeeds was a cache hit."""
    def fail(data, path):
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

    def test_an_empty_home_means_no_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text(TEXT, encoding="utf-8")
        cached = load_text_embeddings(path)
        monkeypatch.setenv("HOME", "")
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert pmean.embeddings._cache_dir() is None

        def write_entry(*args):
            raise AssertionError("an entry was written without a cache directory")
        monkeypatch.setattr(pmean.embeddings, "_write_entry", write_entry)
        space = load_text_embeddings(path)
        assert space.matrix.tobytes() == cached.matrix.tobytes()
        assert list(space.vocab.items()) == list(cached.vocab.items())

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


class TestEntryOfTheBytesRead:
    def test_a_file_changed_after_its_read_is_cached_and_recorded_as_read(
            self, workdir, parse_cache_home, monkeypatch):
        path = workdir / "one.txt"
        read = path.read_bytes()

        def read_then_edit(p):
            got = pmean.textio.read_input(p)
            if Path(p) == path:
                path.write_bytes(read.replace(b"alpha", b"omega"))
            return got

        monkeypatch.setattr(pmean.embeddings, "read_input", read_then_edit)
        assert embed(workdir)[0] == 0
        assert path.read_bytes() != read
        digest = hashlib.sha256(read).hexdigest()
        entry = parse_cache_home / f"{digest}-v{CACHE_VERSION}.npy"
        assert sorted(parse_cache_home.iterdir()) == sorted([entry, entry_of(parse_cache_home,
                                                                             workdir / "two.txt")])
        inputs = json.loads((workdir / "emb.tsv.manifest.json").read_text())["inputs"]
        assert inputs["one.txt"] == f"sha256:{digest}"
        with open(entry, "rb") as fh:
            _, tokens, matrix = (np.load(fh) for _ in range(3))
        vocab, parsed, _ = _parse_with_float(read, path)
        assert tokens.tobytes().decode().split("\n") == list(vocab)
        assert matrix.tobytes() == parsed.tobytes()

    def test_writing_an_entry_removes_the_files_entries_of_other_versions(
            self, workdir, parse_cache_home):
        rc, cold = embed(workdir)
        assert rc == 0
        shutil.rmtree(parse_cache_home)
        parse_cache_home.mkdir()
        digest = hashlib.sha256((workdir / "one.txt").read_bytes()).hexdigest()
        own, other = (parse_cache_home / f"{name}-v1.npy" for name in (digest, "0" * 64))
        for old in (own, other):
            old.write_bytes(b"an entry an older CACHE_VERSION wrote")
        assert embed(workdir) == (0, cold)
        assert not own.exists() and other.exists()
        assert entry_of(parse_cache_home, workdir / "one.txt").exists()


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


class TestFixturesWorkspace:
    """Each command that loads embeddings, on the workspace scripts/make_fixtures.py
    writes, gives the same outputs with a cold, a warm and an unwritable cache."""

    @pytest.mark.parametrize("name, files", [
        ("embed --znorm", ["space_a.txt", "space_b.txt"]),
        ("eval-transfer", ["bilingual.txt"]),
        ("train-projection", ["bilingual.txt"]),
    ], ids=["embed", "eval-transfer", "train-projection"])
    def test_a_cache_leaves_outputs_unchanged(self, fx, tmp_path, parse_cache_home, monkeypatch,
                                              name, files):
        def run(out):
            (tmp_path / out).mkdir()
            assert main([str(arg) for arg in command(fx, name, tmp_path / out)]) == 0
            return {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}

        cold = run("cold")
        assert sorted(parse_cache_home.iterdir()) == sorted(entry_of(parse_cache_home, fx / f)
                                                            for f in files)
        with monkeypatch.context() as patch:
            no_parse(patch)
            assert run("warm") == cold
        # a read-only cache directory, which only root can still write, and a file
        # where the cache directory would be, which no one can
        read_only = tmp_path / "read-only"
        read_only.mkdir()
        (tmp_path / "blocked").mkdir()
        (tmp_path / "blocked" / "pmean").write_text("")
        read_only.chmod(0o555)
        try:
            for home in ("read-only", "blocked"):
                monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / home))
                assert run(f"under-{home}") == cold
        finally:
            read_only.chmod(0o755)


class TestEntryNotARegularFile:
    @pytest.mark.parametrize("link", [False, True], ids=["fifo", "link-to-fifo"])
    def test_is_a_miss_that_neither_blocks_nor_is_replaced(self, fx, tmp_path, parse_cache_home,
                                                            link):
        def outputs(out):
            return {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}

        (tmp_path / "cold").mkdir()
        assert main([str(arg) for arg in command(fx, "embed", tmp_path / "cold")]) == 0
        entry = entry_of(parse_cache_home, fx / "space_a.txt")
        entry.unlink()
        fifo = tmp_path / "fifo" if link else entry
        os.mkfifo(fifo)
        if link:
            entry.symlink_to(fifo)
        # a read that waited for the FIFO's writer would wait forever; the child is
        # killed at the timeout, and the call raises
        (tmp_path / "child").mkdir()
        code, err = run_module(*command(fx, "embed", tmp_path / "child"), timeout=60)
        assert (code, err) == (0, "")
        assert outputs("child") == outputs("cold")
        assert stat.S_ISFIFO(os.stat(entry).st_mode) and entry.is_symlink() == link


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


# other paths to a workspace file: through a directory and back; through the link
# d to real/deep, so d/../.. is the workspace, though as text it is its parent;
# and through a link to the file itself
SPELLINGS = {"dot-dot": "sub/../{}", "linked directory": "d/../../{}", "linked file": "alias-{}"}


class TestReadOnce:
    """Each input is read once per command, and the digest the manifest records
    for it is of the bytes that read returned, the ones the command parsed."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The SHA-256 of the bytes each ``read_input`` call returned, by the resolved path."""
        calls = defaultdict(list)

        def spying(path):
            data, sha256 = pmean.textio.read_input(path)
            calls[Path(path).resolve()].append(hashlib.sha256(data).hexdigest())
            return data, sha256

        for module in (pmean.cli, pmean.embeddings, pmean.evaluation, pmean.projection):
            monkeypatch.setattr(module, "read_input", spying)
        return calls

    @staticmethod
    def check(workdir, reads, manifest, spaces=("one.txt", "two.txt")):
        """Every file ``manifest`` records, the embedding files ``spaces`` among
        them, was read once, and each name it is recorded under carries the
        digest of the bytes that read returned."""
        inputs = json.loads((workdir / manifest).read_text())["inputs"]
        assert set(spaces) <= set(inputs)
        assert sorted(reads) == sorted({(workdir / name).resolve() for name in inputs})
        for name, digest in inputs.items():
            assert [f"sha256:{d}" for d in reads[(workdir / name).resolve()]] == [digest]
        reads.clear()

    def test_embed_cold_and_warm(self, workdir, reads):
        for _ in ("cold", "warm"):
            assert embed(workdir)[0] == 0
            self.check(workdir, reads, "emb.tsv.manifest.json")

    @staticmethod
    def transfer(workdir, target_config):
        """eval-transfer from cfg.txt to ``target_config``; returns its exit code."""
        return main(["eval-transfer", "--source-config", str(workdir / "cfg.txt"),
                     "--target-config", str(workdir / target_config),
                     "--train-task", str(workdir / "task.tsv"),
                     "--test-task", str(workdir / "task.tsv"),
                     "--out", str(workdir / "r"), "--runs", "2"])

    def test_eval_transfer_with_configs_sharing_files(self, workdir, reads):
        shutil.copy(workdir / "cfg.txt", workdir / "target.cfg")
        for _ in ("cold", "warm"):
            assert self.transfer(workdir, "target.cfg") == 0
            self.check(workdir, reads, "r.manifest.json")

    def test_train_projection(self, workdir, reads):
        for _ in ("cold", "warm"):
            assert main(["train-projection", "--source-embeddings", str(workdir / "one.txt"),
                         "--target-embeddings", str(workdir / "two.txt"),
                         "--pairs", str(workdir / "pairs.tsv"),
                         "--model-out", str(workdir / "m.json"),
                         "--history-out", str(workdir / "h.csv"),
                         "--shared-dim", "3", "--epochs", "2"]) == 0
            self.check(workdir, reads, "m.json.manifest.json")

    @pytest.fixture
    def spell(self, workdir):
        """``spell(how, name)``: another path to the workspace's file ``name``."""
        (workdir / "sub").mkdir()
        (workdir / "real" / "deep").mkdir(parents=True)
        (workdir / "d").symlink_to(workdir / "real" / "deep")

        def spell(how, name):
            if how == "linked file":
                (workdir / f"alias-{name}").symlink_to(name)
            return str(workdir / SPELLINGS[how].format(name))
        return spell

    @pytest.mark.parametrize("how", SPELLINGS)
    def test_eval_transfer_with_a_config_and_a_task_spelled_two_ways(self, workdir, reads,
                                                                       spell, how):
        argv = ["eval-transfer", "--source-config", str(workdir / "cfg.txt"),
                "--target-config", spell(how, "cfg.txt"),
                "--train-task", str(workdir / "task.tsv"),
                "--test-task", spell(how, "task.tsv"),
                "--out", str(workdir / "r"), "--runs", "2"]
        for _ in ("cold", "warm"):
            assert main(argv) == 0
            self.check(workdir, reads, "r.manifest.json")

    @pytest.mark.parametrize("how", SPELLINGS)
    def test_train_projection_with_a_space_spelled_two_ways(self, workdir, reads, spell, how):
        argv = ["train-projection", "--source-embeddings", str(workdir / "one.txt"),
                "--target-embeddings", spell(how, "one.txt"),
                "--pairs", str(workdir / "pairs.tsv"),
                "--model-out", str(workdir / "m.json"), "--history-out", str(workdir / "h.csv"),
                "--shared-dim", "3", "--epochs", "2"]
        for _ in ("cold", "warm"):
            assert main(argv) == 0
            self.check(workdir, reads, "m.json.manifest.json", spaces=["one.txt"])

    def test_without_a_cache_directory(self, workdir, reads, parse_cache_home, monkeypatch):
        monkeypatch.setattr(pmean.embeddings, "_cache_dir", lambda: None)
        assert embed(workdir)[0] == 0
        self.check(workdir, reads, "emb.tsv.manifest.json")
        assert self.transfer(workdir, "cfg.txt") == 0
        self.check(workdir, reads, "r.manifest.json")
        assert not parse_cache_home.exists()
