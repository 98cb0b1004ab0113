import ast
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmean.cli
import pmean.projection
from pmean.classifier import TrainProtocol
from pmean.cli import main
from pmean.embeddings import load_text_embeddings, save_text_embeddings
from pmean.errors import InputError
from pmean.evaluation import emit_report, load_task, parse_report, save_task
from pmean.manifest import RunManifest
from pmean.pooling import PooledConfig, PooledPart, embed_corpus
from pmean.projection import ProjectionTrainConfig, init_projection, load_projection
from test_acceptance import build_cli_fixture
from test_imports import command as fx_command


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def assert_names_bad_file(err: str, path: Path) -> None:
    assert err.startswith(f"pmean: {path}: ") and "UTF-8" in err
    assert "Traceback" not in err


@pytest.fixture
def workdir(tmp_path):
    """Two 4-d spaces, a config over both, sentences, a task, and a pairs file."""
    build_cli_fixture(tmp_path)
    return tmp_path


class TestEmbed:
    def test_dimension_arithmetic(self, workdir):
        out = workdir / "out.tsv"
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "sentences.txt"), "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert all(len(r.split("\t")) == 16 for r in rows)  # 2 spaces x 2 p x 4 dims
        assert (workdir / "out.tsv.manifest.json").exists()

    def test_empty_input(self, workdir):
        write(workdir / "empty.txt", "")
        out = workdir / "empty_out.tsv"
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "empty.txt"), "--output", str(out)])
        assert rc == 0
        assert out.read_text() == ""
        manifest = json.loads((workdir / "empty_out.tsv.manifest.json").read_text())
        assert manifest["inputs"]["empty.txt"] == "sha256:" + hashlib.sha256(b"").hexdigest()

    def test_one_row_per_newline(self, workdir):
        # form feed, NEL and LINE SEPARATOR are not line breaks; blank lines are rows
        write(workdir / "odd.txt", "alpha beta\x0cgamma\ndelta\x85alpha\n\ngamma\u2028beta\n")
        out = workdir / "odd.tsv"
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "odd.txt"), "--output", str(out)])
        assert rc == 0
        assert out.read_text().count("\n") == 4

    def test_lone_cr_stays_in_its_sentence_and_crlf_reads_as_lf(self, workdir):
        def embed(name, data):
            (workdir / name).write_bytes(data)
            assert main(["embed", "--config", str(workdir / "cfg.txt"), "--input",
                         str(workdir / name), "--output", str(workdir / "o.tsv")]) == 0
            return (workdir / "o.tsv").read_bytes()

        lf = embed("lf.txt", b"alpha\rbeta\ngamma\n")
        assert lf.count(b"\n") == 2
        assert lf == embed("cr.txt", b"alpha beta\ngamma\n")  # CR is whitespace to the tokenizer
        assert lf == embed("crlf.txt", b"alpha\rbeta\r\ngamma\r\n")

    def test_strict_pole_exits_3(self, workdir):
        # zero entry meets p=-1 under --strict
        write(workdir / "zero.txt", "alpha 0.0 1.0 1.0 1.0\n")
        write(workdir / "zcfg.txt", "space=z p=-1 path=zero.txt\n")
        write(workdir / "zsent.txt", "alpha\n")
        rc = main(["embed", "--config", str(workdir / "zcfg.txt"),
                   "--input", str(workdir / "zsent.txt"),
                   "--output", str(workdir / "z.tsv"), "--strict"])
        assert rc == 3
        assert not (workdir / "z.tsv").exists()

    def test_strict_overflow_exits_3(self, workdir):
        # 1e160 squared overflows the float range under --strict
        write(workdir / "huge.txt", "alpha 1.0 1e160 1.0 1.0\n")
        write(workdir / "hcfg.txt", "space=h p=2 path=huge.txt\n")
        write(workdir / "hsent.txt", "alpha alpha\n")
        rc = main(["embed", "--config", str(workdir / "hcfg.txt"),
                   "--input", str(workdir / "hsent.txt"),
                   "--output", str(workdir / "h.tsv"), "--strict"])
        assert rc == 3
        assert not (workdir / "h.tsv").exists()
        assert not (workdir / "h.tsv.manifest.json").exists()

    def test_non_strict_pole_zeroes_and_counts(self, workdir):
        write(workdir / "zero.txt", "alpha 0.0 1.0 1.0 1.0\n")
        write(workdir / "zcfg.txt", "space=z p=-1 path=zero.txt\n")
        write(workdir / "zsent.txt", "alpha\n")
        out = workdir / "z.tsv"
        rc = main(["embed", "--config", str(workdir / "zcfg.txt"),
                   "--input", str(workdir / "zsent.txt"), "--output", str(out)])
        assert rc == 0
        manifest = json.loads((workdir / "z.tsv.manifest.json").read_text())
        assert manifest["undefined_pool_entries"] == 1

    def test_strict_computes_a_tiny_nonzero_base(self, workdir):
        # only 0.0 is a zero base: two 1e-13 entries have a mean of 1e-13 at every p <= 0
        write(workdir / "tiny.txt", "alpha 1e-13 1e-13\n")
        write(workdir / "tcfg.txt", "space=t p=-1,-2,0 path=tiny.txt\n")
        write(workdir / "tsent.txt", "alpha alpha\n")
        outputs = []
        for name, strict in (("t", []), ("strict", ["--strict"])):
            out = workdir / f"{name}.tsv"
            rc = main(["embed", "--config", str(workdir / "tcfg.txt"),
                       "--input", str(workdir / "tsent.txt"), "--output", str(out), *strict])
            assert rc == 0
            manifest = json.loads((workdir / f"{name}.tsv.manifest.json").read_text())
            assert manifest["undefined_pool_entries"] == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        values = [float(v) for v in outputs[0].split("\t")]
        assert outputs[0].startswith("1e-13\t1e-13\t") and len(values) == 6
        assert all(math.isclose(v, 1e-13, rel_tol=1e-12, abs_tol=0) for v in values), values

    def test_a_mean_of_huge_entries_is_written(self, workdir):
        # the sum 2e308 is past the float range, the mean 1e308 is not
        write(workdir / "u.txt", "u 1e308 1e308\n")
        write(workdir / "ucfg.txt", "space=u p=1,3 path=u.txt\n")
        write(workdir / "usent.txt", "u u\n")
        out = workdir / "u.tsv"
        assert main(["embed", "--config", str(workdir / "ucfg.txt"),
                     "--input", str(workdir / "usent.txt"), "--output", str(out)]) == 0
        assert out.read_text() == "1e+308\t1e+308\t0.0\t0.0\n"  # 1e308 ** 3 overflows
        manifest = json.loads((workdir / "u.tsv.manifest.json").read_text())
        assert manifest["undefined_pool_entries"] == 2
        write(workdir / "ucfg.txt", "space=u p=1 path=u.txt\n")
        assert main(["embed", "--config", str(workdir / "ucfg.txt"), "--input",
                     str(workdir / "usent.txt"), "--output", str(out), "--strict"]) == 0
        assert out.read_text() == "1e+308\t1e+308\n"

    def test_znorm_params_recorded(self, workdir):
        out = workdir / "zn.tsv"
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "sentences.txt"),
                   "--output", str(out), "--znorm"])
        assert rc == 0
        manifest = json.loads((out.parent / "zn.tsv.manifest.json").read_text())
        assert len(manifest["znorm_params"]["mean"]) == 16

    def test_to_json_is_json_dumps_with_each_array_as_its_list(self, tmp_path):
        # config values are user text: a value spelled like the manifest's own JSON
        # stays a string, and a path is named relative to the manifest's directory
        config = {"config": tmp_path / "in" / "a.cfg", "text": '"mean": [\n  1.0\n]',
                  "unicode": "caf\u00e9\t\u2028", "nested": {"b": [1, None, True], "a": {}},
                  "lr": 0.001, "empty": {}, "list": [[], {}, "x"]}
        mean, std = np.array([1e-05, -0.0, 5e-324, 1e16, 0.5]), np.array([1.0, 2.5e-07])
        manifest = RunManifest("embed", config, {"seed": 7}, tmp_path,
                               extra={"znorm_params": {"mean": mean, "std": std},
                                      "undefined_pool_entries": 3})
        manifest.add_input(tmp_path / "in" / "s.txt", "ab" * 32)
        doc = {"command": "embed", "config": config, "seeds": {"seed": 7},
               "inputs": manifest.inputs, "tool_version": pmean.__version__,
               "znorm_params": {"mean": mean.tolist(), "std": std.tolist()},
               "undefined_pool_entries": 3}
        want = json.dumps(doc, indent=2, sort_keys=True, default=manifest.relative) + "\n"
        assert manifest.to_json() == want
        assert '"config": "in/a.cfg"' in want

    def test_values_outside_reprs_positional_band_are_written_as_repr(self, workdir):
        write(workdir / "wide.txt", "alpha 1e-05 1e17 -3e-07 0.5\nbeta 2e-05 -1e17 0.0 1e16\n")
        write(workdir / "wcfg.txt", "space=w p=1,inf,3 path=wide.txt\n")
        write(workdir / "wsent.txt", "alpha\nalpha beta\nbeta\n")
        out = workdir / "w.tsv"
        rc = main(["embed", "--config", str(workdir / "wcfg.txt"),
                   "--input", str(workdir / "wsent.txt"), "--output", str(out)])
        assert rc == 0
        cfg = PooledConfig([PooledPart(load_text_embeddings(workdir / "wide.txt"),
                                       [1.0, math.inf, 3.0])])
        X, _ = embed_corpus(cfg, ["alpha", "alpha beta", "beta"])
        magnitudes = np.abs(X[X != 0])
        assert (magnitudes < 1e-4).any() and (magnitudes >= 1e16).any()
        reference = "".join("\t".join(map(repr, row.tolist())) + "\n" for row in X)
        assert out.read_bytes() == reference.encode()

    def test_missing_input_exits_2(self, workdir):
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "nope.txt"),
                   "--output", str(workdir / "x.tsv")])
        assert rc == 2
        assert not (workdir / "x.tsv").exists()

    def test_non_utf8_input_exits_2(self, workdir, capsys):
        (workdir / "latin.txt").write_bytes(b"alpha \xff beta\n")
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "latin.txt"),
                   "--output", str(workdir / "x.tsv")])
        assert rc == 2
        assert_names_bad_file(capsys.readouterr().err, workdir / "latin.txt")
        assert not (workdir / "x.tsv").exists()

    def test_non_utf8_config_exits_2(self, workdir, capsys):
        (workdir / "latin.cfg").write_bytes(b"space=one p=1 path=one.txt # \xff\n")
        rc = main(["embed", "--config", str(workdir / "latin.cfg"),
                   "--input", str(workdir / "sentences.txt"),
                   "--output", str(workdir / "x.tsv")])
        assert rc == 2
        assert_names_bad_file(capsys.readouterr().err, workdir / "latin.cfg")
        assert not (workdir / "x.tsv").exists()

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_embeddings_without_rows_exit_2_without_a_warning(self, workdir, capsys, text):
        write(workdir / "none.txt", text)
        write(workdir / "ncfg.txt", "space=one p=1 path=none.txt\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["embed", "--config", str(workdir / "ncfg.txt"),
                       "--input", str(workdir / "sentences.txt"),
                       "--output", str(workdir / "x.tsv")])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err == f"pmean: {workdir / 'none.txt'}: no embedding rows found\n"

    def test_bad_row_no_sentence_uses_exits_2(self, workdir, capsys):
        # every row is checked, used or not
        with open(workdir / "one.txt", "a", encoding="utf-8") as fh:
            fh.write("unused 1.0 nan 1.0 1.0\n")
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "sentences.txt"),
                   "--output", str(workdir / "x.tsv")])
        assert rc == 2
        assert capsys.readouterr().err == f"pmean: {workdir / 'one.txt'}:5: non-finite value\n"
        assert not (workdir / "x.tsv").exists()

    def test_non_utf8_embeddings_exit_2(self, workdir, capsys):
        # the bad byte sits past the first decoded chunk of the file
        rows = "".join(f"w{i} 1.0 2.0 3.0 4.0\n" for i in range(3000))
        (workdir / "latin_emb.txt").write_bytes(rows.encode() + b"caf\xe9 1.0 2.0 3.0 4.0\n")
        write(workdir / "lcfg.txt", "space=one p=1 path=latin_emb.txt\n")
        rc = main(["embed", "--config", str(workdir / "lcfg.txt"),
                   "--input", str(workdir / "sentences.txt"),
                   "--output", str(workdir / "x.tsv")])
        assert rc == 2
        assert_names_bad_file(capsys.readouterr().err, workdir / "latin_emb.txt")
        assert not (workdir / "x.tsv").exists()


class TestTrainProjection:
    def run(self, workdir, *extra):
        args = ["train-projection",
                "--source-embeddings", str(workdir / "one.txt"),
                "--target-embeddings", str(workdir / "two.txt"),
                "--pairs", str(workdir / "pairs.tsv"),
                "--model-out", str(workdir / "model.json"),
                "--history-out", str(workdir / "hist.csv"),
                "--shared-dim", "3", "--epochs", "2", "--seed", "5", *extra]
        return main(args)

    def test_defaults_match_reference_hyperparameters(self, workdir):
        assert self.run(workdir) == 0
        manifest = json.loads((workdir / "model.json.manifest.json").read_text())
        assert manifest["config"]["margin"] == 0.5
        assert manifest["config"]["dropout"] == 0.5
        assert manifest["config"]["strict"] is False
        model = load_projection(workdir / "model.json")
        assert model.margin == 0.5
        assert self.run(workdir, "--strict") == 0
        manifest = json.loads((workdir / "model.json.manifest.json").read_text())
        assert manifest["config"]["strict"] is True

    def test_history_has_one_row_per_epoch(self, workdir):
        assert self.run(workdir) == 0
        lines = (workdir / "hist.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3  # header + 2 epochs

    def test_zero_epochs_writes_serialized_init(self, workdir):
        assert self.run(workdir, "--epochs", "0") == 0
        model = load_projection(workdir / "model.json")
        init = init_projection(4, 4, 3, seed=5)
        assert np.array_equal(model.W_l, init.W_l)
        assert (workdir / "hist.csv").read_text().splitlines() == ["epoch,mean_loss"]

    def test_same_seed_identical_files(self, workdir):
        assert self.run(workdir) == 0
        first = (workdir / "model.json").read_bytes()
        assert self.run(workdir) == 0
        assert (workdir / "model.json").read_bytes() == first

    @pytest.mark.parametrize("oov", ["skip", "zero"])
    def test_each_side_is_its_average_word_vector(self, workdir, monkeypatch, oov):
        write(workdir / "pairs.tsv",
              "alpha beta\tgamma delta\n\nGamma zzz\tqqq\nzzz\tdelta DELTA alpha\n")
        corpora = []
        real = pmean.cli.train_projection

        def spy(corpus, cfg):
            corpora.append(corpus)
            return real(corpus, cfg)

        monkeypatch.setattr(pmean.cli, "train_projection", spy)
        assert self.run(workdir, "--oov", oov) == 0
        (corpus,) = corpora

        def average(space, sentence):
            known = [space.matrix[space.vocab[t]] for t in sentence.lower().split()
                     if t in space.vocab]
            n_rows = len(sentence.split()) if oov == "zero" else len(known)
            return sum(known, np.zeros(4)) / max(n_rows, 1)

        one = load_text_embeddings(workdir / "one.txt")
        two = load_text_embeddings(workdir / "two.txt")
        pairs = [("alpha beta", "gamma delta"), ("Gamma zzz", "qqq"),
                 ("zzz", "delta DELTA alpha")]
        assert corpus.source.shape == corpus.target.shape == (3, 4)
        for i, (src, tgt) in enumerate(pairs):
            assert corpus.source[i] == pytest.approx(average(one, src), rel=1e-12)
            assert corpus.target[i] == pytest.approx(average(two, tgt), rel=1e-12)
        assert not corpus.target[1].any() and not corpus.source[2].any()  # all-OOV sides

    @pytest.mark.parametrize("flag, value", [
        ("--margin", "nan"), ("--margin", "inf"), ("--step-size", "nan"),
        ("--step-size", "inf"), ("--step-size", "0"), ("--step-size", "-1"),
        ("--step-size", "-1e-3"),
    ])
    def test_bad_training_setting_exits_2(self, workdir, capsys, flag, value):
        assert self.run(workdir, flag, value) == 2
        err = capsys.readouterr().err
        # named by the config check, before any input is read or training starts
        assert err.startswith(f"pmean: {flag[2:].replace('-', '_')} must be ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (workdir / "model.json").exists()
        assert not (workdir / "hist.csv").exists()

    def test_negative_margin_in_exponent_form_trains(self, workdir):
        # argparse alone takes "-1e-3" for an option, not for --margin's value
        assert self.run(workdir, "--margin", "-1e-3") == 0
        manifest = json.loads((workdir / "model.json.manifest.json").read_text())
        assert manifest["config"]["margin"] == -1e-3

    def test_non_finite_training_exits_3(self, workdir, capsys):
        # Adam's first steps are about the step size, so the weights overflow
        assert self.run(workdir, "--step-size", "1.7e308") == 3
        assert capsys.readouterr().err == (
            "pmean: numerical policy error: projection training with margin 0.5 and step "
            "size 1.7e+308 gave non-finite parameters or losses\n")
        assert not (workdir / "model.json").exists()
        assert not (workdir / "hist.csv").exists()

    def test_margin_near_float_max_trains(self, workdir):
        # each triple's loss is about 1e308: their sum overflows, their mean does not
        assert self.run(workdir, "--margin", "1e308") == 0
        rows = (workdir / "hist.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [1e308, 1e308]

    def test_lone_cr_does_not_end_a_pair_and_crlf_reads_as_lf(self, workdir):
        (workdir / "pairs.tsv").write_bytes(b"alpha\rbeta\tgamma delta\n" * 8)
        assert self.run(workdir) == 0
        lf = (workdir / "model.json").read_bytes()
        (workdir / "pairs.tsv").write_bytes(b"alpha\rbeta\tgamma delta\r\n" * 8)
        assert self.run(workdir) == 0
        assert (workdir / "model.json").read_bytes() == lf

    def test_non_utf8_pairs_exit_2(self, workdir, capsys):
        (workdir / "pairs.tsv").write_bytes(b"alpha\tbeta\ngamma\t\xff\n")
        assert self.run(workdir) == 2
        assert_names_bad_file(capsys.readouterr().err, workdir / "pairs.tsv")
        assert not (workdir / "model.json").exists()


EDGE_NUMBERS = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-0.0",
                "0.9999999999999999", "1.5", "x", ""]
# typical values, so that most draws train; --shared-dim <= 64 and --epochs <= 3
# keep every draw small and quick
TYPICAL_TRAINING = {
    "--margin": st.floats(-2.0, 2.0), "--step-size": st.floats(1e-6, 1.0),
    "--dropout": st.floats(0.0, 0.99), "--batch-size": st.integers(1, 20),
    "--epochs": st.integers(0, 3), "--seed": st.integers(0, 2**64),
    "--shared-dim": st.integers(1, 64),
}
INT_CAPS = {"--epochs": 3, "--shared-dim": 64}


@st.composite
def training_settings(draw):
    """Typical values for every flag, with up to three of them replaced by anything."""
    values = {flag: repr(draw(typical)) for flag, typical in TYPICAL_TRAINING.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True)):
        values[flag] = draw(st.sampled_from(EDGE_NUMBERS) | st.floats().map(repr)
                            | st.integers(-2**80, INT_CAPS.get(flag, 2**80)).map(str))
    return values


@pytest.fixture(scope="module")
def tiny_workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("train-projection")
    build_cli_fixture(root)
    return root


class TestTrainProjectionExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(values=training_settings())
    def test_any_setting_exits_cleanly(self, tiny_workdir, values):
        argv = ["train-projection",
                f"--source-embeddings={tiny_workdir / 'one.txt'}",
                f"--target-embeddings={tiny_workdir / 'two.txt'}",
                f"--pairs={tiny_workdir / 'pairs.tsv'}",
                f"--model-out={tiny_workdir / 'model.json'}",
                f"--history-out={tiny_workdir / 'hist.csv'}",
                *(f"{flag}={value}" for flag, value in values.items())]
        code, err = run_quietly(argv)
        assert code in (0, 2, 3, 64), err
        assert "Traceback" not in err


def run_quietly(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, with stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# huge magnitudes, signed zeros, negatives and tiny values, which overflow or
# are undefined at some p
EMBED_VALUES = st.sampled_from([1e308, -1e308, 1.7e308, 1e154, 0.0, -0.0, -1.0, -2.5,
                                1e-300, 5e-324]) | st.floats(-1e3, 1e3)
EMBED_P = ["1", "inf", "-inf", "0", "-1", "-2", "0.5", "2", "3", "-30", "400"]


@st.composite
def embed_cases(draw):
    """A 1-4 word embedding file's rows, a p-set, up to four sentences and embed's flags."""
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(EMBED_VALUES, min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    words = [f"w{i}" for i in range(len(rows))] + ["oov"]
    return (rows, draw(st.lists(st.sampled_from(EMBED_P), min_size=1, max_size=4)),
            draw(st.lists(st.lists(st.sampled_from(words), max_size=5).map(" ".join),
                          min_size=1, max_size=4)),
            draw(st.lists(st.sampled_from(["--strict", "--znorm", "--oov=zero"]), unique=True)))


OVERFLOWING_MEAN = [[1e308, 1.0], [1e308, 2.0]], ["1", "inf"], ["w0 w1"]


class TestEmbedExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(case=embed_cases())
    @example(case=(*OVERFLOWING_MEAN, []))
    @example(case=(*OVERFLOWING_MEAN, ["--strict"]))
    @example(case=(*OVERFLOWING_MEAN, ["--znorm"]))
    def test_any_input_exits_cleanly(self, tmp_path_factory, case):
        rows, p_set, sentences, flags = case
        root = tmp_path_factory.mktemp("embed")
        write(root / "emb.txt", "".join(f"w{i} " + " ".join(map(repr, row)) + "\n"
                                        for i, row in enumerate(rows)))
        write(root / "cfg.txt", f"space=S p={','.join(p_set)} path=emb.txt\n")
        write(root / "in.txt", "".join(sentence + "\n" for sentence in sentences))
        out = root / "out.tsv"
        code, err = run_quietly(["embed", f"--config={root / 'cfg.txt'}",
                                 f"--input={root / 'in.txt'}", f"--output={out}", *flags])
        assert code in (0, 2, 3, 64), err
        assert "Traceback" not in err
        if code == 0:
            values = [float(v) for line in out.read_text().splitlines() for v in line.split("\t")]
            assert len(values) == len(sentences) * len(p_set) * len(rows[0])
            assert all(map(math.isfinite, values))
            json.loads((root / "out.tsv.manifest.json").read_text(),
                       parse_constant=lambda name: pytest.fail(f"manifest holds {name}"))


# small values, so that many draws train, and huge ones that overflow powers,
# z-norm or logits
EVAL_VALUES = st.floats(-3.0, 3.0).map(repr) | st.sampled_from(
    ["1e308", "-1e308", "1e154", "0", "-0.0", "5e-324"])
EVAL_WORDS = ["alpha", "beta", "gamma"]
# (file, how) of the one damaged input, if any
EVAL_DAMAGE = st.sampled_from([None] * 4 + [
    ("emb.txt", "non_utf8"), ("train.tsv", "non_utf8"), ("test.tsv", "non_utf8"),
    ("emb.txt", "ragged"), ("train.tsv", "ragged"), ("emb.txt", "nan"), ("emb.txt", "inf")])


@st.composite
def eval_cases(draw):
    """Input files of the evaluation commands (``{name: bytes}``, at most one damaged),
    one to three p-sets and the command's flags."""
    dim = draw(st.integers(1, 3))
    rows = [[draw(EVAL_VALUES) for _ in range(dim)] for _ in EVAL_WORDS]
    classes = draw(st.sampled_from([["x", "y"], ["x", "y", "z"]]))

    def task(damaged):
        n = draw(st.integers(2, 4)) * len(classes)  # every class at least twice
        words = st.lists(st.sampled_from([*EVAL_WORDS, "oov"]), max_size=4).map(" ".join)
        lines = [f"{classes[i % len(classes)]}\t{draw(words)}" for i in range(n)]
        if damaged:
            lines.insert(draw(st.integers(0, n)), "x")  # no tab
        return "#name=t\n#metric=accuracy\n" + "".join(line + "\n" for line in lines)

    damage = draw(EVAL_DAMAGE)
    damaged, how = damage if damage else (None, None)
    if damaged == "emb.txt" and how != "non_utf8":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if how == "ragged":
            row.append("1.0")
        else:
            row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([how, f"-{how}"]))
    files = {"emb.txt": "".join(f"{word} {' '.join(row)}\n" for word, row in zip(EVAL_WORDS, rows)),
             "train.tsv": task(damaged == "train.tsv" and how == "ragged"),
             "test.tsv": task(damaged == "test.tsv" and how == "ragged")}
    files = {name: text.encode() for name, text in files.items()}
    if how == "non_utf8":
        data = files[damaged]
        at = draw(st.integers(0, len(data)))
        files[damaged] = data[:at] + b"\xff" + data[at:]
    p_sets = draw(st.lists(st.lists(st.sampled_from(EMBED_P), min_size=1, max_size=3)
                           .map(",".join), min_size=1, max_size=3))
    flags = draw(st.lists(st.sampled_from(["--strict", "--znorm", "--oov=zero"]), unique=True))
    flags.append(f"--lr-grid={draw(st.sampled_from(['0.1', '0.01,1', '1e308']))}")
    return files, p_sets, flags


def eval_argv(command, root, p_sets):
    """``command``'s arguments over the files under ``root``; --out is ``root / "out"``."""
    cfg, train, test = root / "cfg.txt", root / "train.tsv", root / "test.tsv"
    if command == "eval":
        inputs = [f"--config={cfg}", f"--task={train}"]
    elif command == "eval-transfer":
        inputs = [f"--source-config={cfg}", f"--target-config={cfg}",
                  f"--train-task={train}", f"--test-task={test}"]
    else:
        inputs = [f"--config={cfg}", f"--task={train}", f"--task={test}",
                  *(f"--p-set={p_set}" for p_set in p_sets)]
    return [command, *inputs, f"--out={root / 'out'}", "--runs=2", "--epochs=2",
            "--batch-size=4"]


def assert_report_is_finite(root):
    """Every number in the report's JSON, markdown and manifest is finite."""
    for name in ("out.json", "out.manifest.json"):
        json.loads((root / name).read_text(),
                   parse_constant=lambda constant: pytest.fail(f"{name} holds {constant}"))
    for line in (root / "out.md").read_text().splitlines()[2:]:
        for cell in line.strip("| ").split(" | ")[1:]:  # the first cell names the model
            for number in cell.replace("(", "").replace(")", "").split():
                assert math.isfinite(float(number)), line


# only the test task holds 'alpha', which is huge in every column: it overflows
# the z-norm fit on the train side, or, without z-norm, the classifier's logits
HUGE_TEST_ROW = {
    "emb.txt": b"alpha 1e308 1e308 1e308\nbeta 1.0 0.0 -1.0\ngamma 0.0 1.0 0.5\n",
    "train.tsv": b"#name=t\n#metric=accuracy\n" + b"x\tbeta\ny\tgamma\n" * 3,
    "test.tsv": b"#name=t\n#metric=accuracy\n" + b"x\talpha\ny\tgamma\n" * 3}


@pytest.mark.parametrize("command", ["eval", "eval-transfer", "sweep"])
class TestEvalExitCodes:
    @settings(max_examples=100, deadline=None)
    @given(case=eval_cases())
    @example(case=(HUGE_TEST_ROW, ["1"], ["--znorm", "--lr-grid=0.1"]))
    @example(case=(HUGE_TEST_ROW, ["1"], ["--lr-grid=1"]))
    def test_any_input_exits_cleanly(self, tmp_path_factory, command, case):
        files, p_sets, flags = case
        root = tmp_path_factory.mktemp(command)
        for name, data in files.items():
            (root / name).write_bytes(data)
        write(root / "cfg.txt", f"space=S p={p_sets[0]} path=emb.txt\n")
        code, err = run_quietly([*eval_argv(command, root, p_sets), *flags])
        assert code in (0, 2, 3, 64), err
        assert "Traceback" not in err
        if code == 0:
            assert_report_is_finite(root)


PROTOCOL_ARGS = ["--runs", "3", "--epochs", "8", "--seed", "11"]


class TestEvalCommands:
    def test_eval_writes_json_and_markdown(self, workdir):
        rc = main(["eval", "--config", str(workdir / "cfg.txt"),
                   "--task", str(workdir / "task.tsv"),
                   "--out", str(workdir / "report"), *PROTOCOL_ARGS])
        assert rc == 0
        doc = json.loads((workdir / "report.json").read_text())
        assert doc["version"] == 1
        assert len(doc["rows"]) == 1
        assert (workdir / "report.md").read_text().startswith("| Model |")
        assert (workdir / "report.manifest.json").exists()

    def test_non_finite_classifier_exits_3(self, workdir, capsys):
        rc = main(["eval", "--config", str(workdir / "cfg.txt"),
                   "--task", str(workdir / "task.tsv"),
                   "--out", str(workdir / "report"), *PROTOCOL_ARGS, "--lr-grid", "1e308"])
        assert rc == 3
        assert capsys.readouterr().err == ("pmean: numerical policy error: classifier training "
                                           "with learning rate 1e+308 ended non-finite\n")
        assert not (workdir / "report.json").exists()

    def test_single_item_class_exits_2_naming_it(self, workdir, capsys):
        write(workdir / "lonely.tsv", (workdir / "task.tsv").read_text() + "lonely\talpha\n")
        rc = main(["eval", "--config", str(workdir / "cfg.txt"),
                   "--task", str(workdir / "lonely.tsv"),
                   "--out", str(workdir / "never"), *PROTOCOL_ARGS])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "pmean: class 'lonely' has only 1 samples; cannot stratify"]
        assert not list(workdir.glob("never*"))

    def test_transfer_emits_drop_in_parentheses(self, workdir):
        rc = main(["eval-transfer",
                   "--source-config", str(workdir / "cfg.txt"),
                   "--target-config", str(workdir / "cfg.txt"),
                   "--train-task", str(workdir / "task.tsv"),
                   "--test-task", str(workdir / "task.tsv"),
                   "--out", str(workdir / "xfer"), *PROTOCOL_ARGS])
        assert rc == 0
        md = (workdir / "xfer.md").read_text()
        assert "(" in md.splitlines()[2] and ")" in md.splitlines()[2]
        doc = json.loads((workdir / "xfer.json").read_text())
        cell = doc["rows"][0]["tasks"][0]
        assert cell["drop"] == pytest.approx(cell["in_language"] - cell["score"])

    def transfer(self, workdir, src_cfg, tgt_cfg, train, test, out):
        return main(["eval-transfer", "--source-config", str(workdir / src_cfg),
                     "--target-config", str(workdir / tgt_cfg),
                     "--train-task", str(workdir / train), "--test-task", str(workdir / test),
                     "--out", str(workdir / out), *PROTOCOL_ARGS])

    @staticmethod
    def tag_task(workdir, lang):
        return write(workdir / f"task_{lang}.tsv",
                     f"#lang={lang}\n" + (workdir / "task.tsv").read_text()).name

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_transfer_language_mismatch_exits_2(self, workdir, capsys, side):
        write(workdir / "en.cfg", "space=one p=1,inf path=one.txt lang=en\n")
        write(workdir / "de.cfg", "space=one p=1,inf path=one.txt lang=de\n")
        en, fr = self.tag_task(workdir, "en"), self.tag_task(workdir, "fr")
        if side == "source":
            rc = self.transfer(workdir, "de.cfg", "de.cfg", en, en, "never")
            want = "pmean: space 'one' is tagged 'de' but task 'toy' is 'en'\n"
        else:
            rc = self.transfer(workdir, "en.cfg", "de.cfg", en, fr, "never")
            want = "pmean: space 'one' is tagged 'de' but task 'toy' is 'fr'\n"
        assert rc == 2
        assert capsys.readouterr().err == want
        assert not (workdir / "never.json").exists()

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_transfer_metric_mismatch_exits_2(self, workdir, capsys, side):
        text = (workdir / "task.tsv").read_text()
        assert "#metric=accuracy\n" in text
        write(workdir / "f1.tsv", text.replace("#metric=accuracy\n", "#metric=macro_f1\n"))
        tasks = ("f1.tsv", "task.tsv") if side == "train" else ("task.tsv", "f1.tsv")
        assert self.transfer(workdir, "cfg.txt", "cfg.txt", *tasks, "never") == 2
        err = capsys.readouterr().err
        assert err.startswith("pmean: transfer pair ") and err.count("\n") == 1
        assert "metrics must be identical" in err
        # neither an output nor a staged one: those are hidden, .never.json.*.tmp
        assert not list(workdir.glob("never*")) and not list(workdir.glob(".*.tmp"))

    def test_transfer_test_task_line_order_leaves_reports_unchanged(self, workdir):
        lines = (workdir / "task.tsv").read_text().splitlines(keepends=True)
        heads = [line for line in lines if line.startswith("#")]
        items = sorted(line for line in lines if not line.startswith("#"))
        assert items[0].split("\t")[0] != lines[len(heads)].split("\t")[0]  # another class first
        write(workdir / "sorted.tsv", "".join(heads + items))
        assert self.transfer(workdir, "cfg.txt", "cfg.txt", "task.tsv", "task.tsv", "plain") == 0
        assert self.transfer(workdir, "cfg.txt", "cfg.txt", "task.tsv", "sorted.tsv", "sorted") == 0
        for suffix in (".json", ".md"):
            assert ((workdir / "plain").with_suffix(suffix).read_bytes()
                    == (workdir / "sorted").with_suffix(suffix).read_bytes())

    def test_transfer_parses_a_shared_embedding_file_once(self, workdir, monkeypatch):
        loads = []
        real_load = pmean.cli.load_text_embeddings
        monkeypatch.setattr(pmean.cli, "load_text_embeddings",
                            lambda *a, **kw: loads.append(a) or real_load(*a, **kw))
        write(workdir / "copy.txt", (workdir / "one.txt").read_text())
        write(workdir / "en.cfg", "space=one p=1,inf path=one.txt lang=en\n")
        write(workdir / "de.cfg", "space=one p=1,inf path=one.txt lang=de\n")
        write(workdir / "de_copy.cfg", "space=one p=1,inf path=copy.txt lang=de\n")
        en, de = self.tag_task(workdir, "en"), self.tag_task(workdir, "de")
        # each side passes its language check only if it keeps its own lang= tag
        assert self.transfer(workdir, "en.cfg", "de.cfg", en, de, "shared") == 0
        assert len(loads) == 1
        assert self.transfer(workdir, "en.cfg", "de_copy.cfg", en, de, "copied") == 0
        assert len(loads) == 3
        for suffix in (".json", ".md"):
            assert ((workdir / "shared").with_suffix(suffix).read_bytes()
                    == (workdir / "copied").with_suffix(suffix).read_bytes())
        shared, copied = (json.loads((workdir / f"{name}.manifest.json").read_text())
                          for name in ("shared", "copied"))
        assert sorted(shared.pop("inputs")) == sorted(["en.cfg", "de.cfg", "one.txt", en, de])
        assert sorted(copied.pop("inputs")) == sorted(["en.cfg", "de_copy.cfg", "one.txt",
                                                       "copy.txt", en, de])
        # the runs differ only in the target config they name, and so do the manifests
        assert shared["config"].pop("target_config") == "de.cfg"
        assert copied["config"].pop("target_config") == "de_copy.cfg"
        assert shared == copied

    def test_sweep_two_rows(self, workdir):
        rc = main(["sweep", "--config", str(workdir / "cfg.txt"),
                   "--p-set", "1,inf,-inf", "--p-set", "1,inf,-inf,3",
                   "--task", str(workdir / "task.tsv"),
                   "--out", str(workdir / "sweep"), *PROTOCOL_ARGS])
        assert rc == 0
        doc = json.loads((workdir / "sweep.json").read_text())
        assert len(doc["rows"]) == 2
        assert "[1,inf,-inf]" in doc["rows"][0]["model"]
        assert "[1,inf,-inf,3]" in doc["rows"][1]["model"]

    @pytest.mark.parametrize("second", ["task.tsv", "copy.tsv"])
    def test_sweep_over_two_tasks_of_one_name_exits_2(self, workdir, capsys, second):
        # each task names a report column, so a second one of the name is ambiguous
        write(workdir / "copy.tsv", (workdir / "task.tsv").read_text())
        rc = main(["sweep", "--config", str(workdir / "cfg.txt"), "--p-set", "1",
                   "--task", str(workdir / "task.tsv"), "--task", str(workdir / second),
                   "--out", str(workdir / "never"), *PROTOCOL_ARGS])
        assert rc == 2
        assert capsys.readouterr().err == (
            "pmean: sweep: each task needs a name of its own, got ['toy', 'toy']\n")
        assert not list(workdir.glob("never*"))

    def test_p_set_may_start_with_a_dash(self, workdir):
        def sweep(out, *p_set):
            return main(["sweep", "--config", str(workdir / "cfg.txt"), *p_set,
                         "--task", str(workdir / "task.tsv"), "--out", str(workdir / out),
                         *PROTOCOL_ARGS])

        assert sweep("spaced", "--p-set", "-inf,1", "--p-set", "-1,1") == 0
        assert sweep("joined", "--p-set=-inf,1", "--p-set=-1,1") == 0
        for suffix in (".json", ".md", ".manifest.json"):
            assert ((workdir / "spaced").with_suffix(suffix).read_bytes()
                    == (workdir / "joined").with_suffix(suffix).read_bytes())

    def test_eval_and_one_row_sweep_write_identical_reports(self, workdir):
        cfg, task = str(workdir / "cfg.txt"), str(workdir / "task.tsv")
        assert main(["eval", "--config", cfg, "--task", task,
                     "--out", str(workdir / "report"), *PROTOCOL_ARGS]) == 0
        assert main(["sweep", "--config", cfg, "--p-set", "1,inf", "--task", task,
                     "--out", str(workdir / "sweep"), *PROTOCOL_ARGS]) == 0
        for suffix in (".json", ".md"):
            assert ((workdir / "report").with_suffix(suffix).read_bytes()
                    == (workdir / "sweep").with_suffix(suffix).read_bytes())

    def test_bad_lr_grid_exits_2(self, workdir):
        rc = main(["eval", "--config", str(workdir / "cfg.txt"),
                   "--task", str(workdir / "task.tsv"),
                   "--out", str(workdir / "r"), "--lr-grid", "0.1,banana"])
        assert rc == 2

    def test_bad_task_file_leaves_no_outputs(self, workdir):
        write(workdir / "bad.tsv", "#name=x\n#metric=accuracy\nonly one token line\n")
        rc = main(["eval", "--config", str(workdir / "cfg.txt"),
                   "--task", str(workdir / "bad.tsv"),
                   "--out", str(workdir / "never"), *PROTOCOL_ARGS])
        assert rc == 2
        assert not (workdir / "never.json").exists()
        assert not (workdir / "never.md").exists()

    def test_a_repeated_metric_header_exits_2(self, workdir, capsys):
        # the second #metric= would otherwise win, and the task be scored with macro-F1
        text = (workdir / "task.tsv").read_text()
        write(workdir / "twice.tsv", text.replace("#metric=accuracy\n",
                                                  "#metric=accuracy\n#metric=macro_f1\n"))
        rc = main(["eval", "--config", str(workdir / "cfg.txt"),
                   "--task", str(workdir / "twice.tsv"),
                   "--out", str(workdir / "never"), *PROTOCOL_ARGS])
        assert rc == 2
        lineno = text.splitlines().index("#metric=accuracy") + 2
        assert capsys.readouterr().err == (
            f"pmean: {workdir / 'twice.tsv'}:{lineno}: duplicate header key 'metric'\n")
        assert not list(workdir.glob("never*"))

    def test_non_utf8_task_exits_2(self, workdir, capsys):
        (workdir / "latin.tsv").write_bytes(b"#name=x\n#metric=accuracy\nup\talpha \xff\n")
        rc = main(["eval", "--config", str(workdir / "cfg.txt"),
                   "--task", str(workdir / "latin.tsv"),
                   "--out", str(workdir / "never"), *PROTOCOL_ARGS])
        assert rc == 2
        assert_names_bad_file(capsys.readouterr().err, workdir / "latin.tsv")
        assert not (workdir / "never.json").exists()

    @pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--epochs", "-1"),
                                             ("--lr-grid", "nan"), ("--lr-grid", "0.1,inf")])
    def test_bad_protocol_size_exits_2(self, workdir, capsys, flag, value):
        rc = main(["eval", "--config", str(workdir / "cfg.txt"),
                   "--task", str(workdir / "task.tsv"),
                   "--out", str(workdir / "never"), *PROTOCOL_ARGS, flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("pmean: ") and "Traceback" not in err
        assert not (workdir / "never.json").exists()

    def test_empty_p_set_exits_2(self, workdir, capsys):
        rc = main(["sweep", "--config", str(workdir / "cfg.txt"), "--p-set", ",",
                   "--task", str(workdir / "task.tsv"),
                   "--out", str(workdir / "never"), *PROTOCOL_ARGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("pmean: ") and "p_values must be non-empty" in err
        assert "Traceback" not in err
        assert not (workdir / "never.json").exists()


def command_argv(workdir: Path, command: str, out: Path | None = None) -> list[str]:
    """A valid invocation of each command whose outputs all start with ``out``
    (default: workdir/never)."""
    cfg, task = str(workdir / "cfg.txt"), str(workdir / "task.tsv")
    out = str(out or workdir / "never")
    return {
        "embed": ["embed", "--config", cfg, "--input", str(workdir / "sentences.txt"),
                  "--output", out + ".tsv"],
        "train-projection": ["train-projection",
                             "--source-embeddings", str(workdir / "one.txt"),
                             "--target-embeddings", str(workdir / "two.txt"),
                             "--pairs", str(workdir / "pairs.tsv"),
                             "--model-out", out + ".json", "--history-out", out + ".csv",
                             "--shared-dim", "3", "--epochs", "2"],
        "eval": ["eval", "--config", cfg, "--task", task, "--out", out, "--runs", "2"],
        "eval-transfer": ["eval-transfer", "--source-config", cfg, "--target-config", cfg,
                          "--train-task", task, "--test-task", task, "--out", out,
                          "--runs", "2"],
        "sweep": ["sweep", "--config", cfg, "--p-set", "1,inf", "--task", task,
                  "--out", out, "--runs", "2"],
    }[command]


COMMANDS = ["embed", "train-projection", "eval", "eval-transfer", "sweep"]
# what each command of command_argv writes after its ``out``, in writing order
REPORT_SUFFIXES = [".json", ".md", ".manifest.json"]
OUTPUT_SUFFIXES = {"embed": [".tsv", ".tsv.manifest.json"],
                   "train-projection": [".json", ".csv", ".json.manifest.json"],
                   "eval": REPORT_SUFFIXES, "eval-transfer": REPORT_SUFFIXES,
                   "sweep": REPORT_SUFFIXES}


def flags_task(path: Path, sentences: list[str]) -> str:
    """A two-class task over these sentences, eight times each; returns its path."""
    items = [("up" if i % 2 else "down", text) for i, text in enumerate(sentences * 8)]
    write(path, "#name=flags\n#metric=accuracy\n" + "".join(f"{a}\t{b}\n" for a, b in items))
    return str(path)


@pytest.mark.parametrize("command", ["eval", "eval-transfer", "sweep"])
class TestEvalFlags:
    """eval, eval-transfer and sweep pool their tasks with --oov, --no-lowercase and
    --strict, and fit them with --znorm.

    The task holds capitalized known words and all-OOV sentences, and the
    config pools p = -1, which the zero row of an all-OOV sentence makes
    undefined.
    """

    @pytest.fixture
    def run(self, workdir, monkeypatch):
        write(workdir / "cfg.txt", "space=one p=1,-1 path=one.txt\n")
        flags_task(workdir / "task.tsv", ["Alpha beta", "gamma Delta", "zzz", "beta qqq"])
        returned = {}

        def spy(name):
            real = getattr(pmean.evaluation, name)

            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                returned[name].append(out)
                return out

            monkeypatch.setattr(pmean.evaluation, name, call)

        spy("embed_corpus")
        spy("fit_runs")

        def run(command, *flags):
            """The exit code, every embed_corpus call's PoolStats and every fit_runs result."""
            returned.update(embed_corpus=[], fit_runs=[])
            extra = ["--p-set", "1,-1"] if command == "sweep" else []
            code = main([*command_argv(workdir, command), *extra, *flags])
            return code, [stats for _, stats in returned["embed_corpus"]], returned["fit_runs"]

        return run

    def test_oov_zero(self, run, command):
        code, skip, _ = run(command)
        assert code == 0 and skip and all(s.fallback_sentences == (8,) for s in skip)
        code, zero, _ = run(command, "--oov", "zero")
        assert code == 0 and len(zero) == len(skip)
        assert all(s.fallback_sentences == (0,) for s in zero)

    def test_no_lowercase(self, run, command):
        code, lower, _ = run(command)
        assert code == 0 and lower and all(s.oov_tokens == (16,) for s in lower)
        code, kept, _ = run(command, "--no-lowercase")
        assert code == 0 and len(kept) == len(lower)
        assert all(s.oov_tokens == (32,) for s in kept)

    def test_strict(self, run, command, workdir, capsys):
        code, lenient, _ = run(command)
        assert code == 0 and lenient[-1].undefined_total > 0
        assert run(command, "--strict")[0] == 3
        err = capsys.readouterr().err
        assert err.startswith("pmean: numerical policy error: power mean undefined for p=-1 ")
        if command == "eval-transfer":  # each side is strict: a pole on one side exits 3
            clean = flags_task(workdir / "clean.tsv",
                               ["Alpha beta", "gamma Delta", "delta", "beta qqq"])
            for side in ("--train-task", "--test-task"):
                assert run(command, side, clean)[0] == 0
                assert run(command, side, clean, "--strict")[0] == 3

    def test_znorm(self, run, command):
        code, _, plain = run(command)
        assert code == 0 and plain and all(zn is None for runs in plain for _, zn, _ in runs)
        code, _, scaled = run(command, "--znorm")
        assert code == 0 and len(scaled) == len(plain)
        assert all(zn is not None for runs in scaled for _, zn, _ in runs)


class TestConfig:
    @pytest.mark.parametrize("second, key", [
        ("space=one p=inf path=two.txt", "path"),
        ("space=one p=inf path=one.txt lang=de", "lang"),
    ])
    @pytest.mark.parametrize("command", ["embed", "eval", "sweep"])
    def test_repeated_space_with_conflicting_field_exits_2(self, workdir, capsys,
                                                          command, second, key):
        write(workdir / "cfg.txt", f"space=one p=1 path=one.txt\n{second}\n")
        assert main(command_argv(workdir, command)) == 2
        err = capsys.readouterr().err
        assert err == f"pmean: {workdir / 'cfg.txt'}: space 'one' has conflicting {key}= values\n"
        assert not list(workdir.glob("never*"))

    @pytest.mark.parametrize("line, key", [("space= p=1 path=one.txt", "space"),
                                           ("space=one p=1 path=one.txt lang=", "lang"),
                                           ("space=one p=1 path=", "path"),  # a space's first
                                           ("space=two p=inf path=", "path")])  # a repeat
    @pytest.mark.parametrize("command", ["embed", "eval-transfer"])
    def test_an_empty_label_exits_2_naming_its_line(self, workdir, capsys, command, line, key):
        write(workdir / "cfg.txt", f"space=two p=1 path=two.txt\n{line}\n")
        assert main(command_argv(workdir, command)) == 2
        assert capsys.readouterr().err == f"pmean: {workdir / 'cfg.txt'}:2: empty {key}= value\n"
        assert not list(workdir.glob("never*"))

    def test_repeated_space_may_restate_or_omit_its_fields(self, workdir):
        write(workdir / "cfg.txt", "space=one p=1 path=one.txt\n"
                                   f"space=one p=inf path={workdir / 'one.txt'}\n"
                                   "space=one p=-inf\n")
        assert main(command_argv(workdir, "embed")) == 0
        manifest = json.loads((workdir / "never.tsv.manifest.json").read_text())
        assert manifest["config"]["pooling"] == [
            {"space": "one", "p": ["1"]}, {"space": "one", "p": ["inf"]},
            {"space": "one", "p": ["-inf"]}]
        assert sorted(manifest["inputs"]) == ["cfg.txt", "one.txt", "sentences.txt"]


    def test_lone_cr_does_not_end_a_config_line(self, workdir, capsys):
        (workdir / "cfg.txt").write_bytes(b"space=one p=1 path=one.txt\rspace=two p=1\n")
        assert main(command_argv(workdir, "embed")) == 2
        assert capsys.readouterr().err == f"pmean: {workdir / 'cfg.txt'}:1: duplicate key 'space'\n"

    def test_crlf_config_reads_as_lf(self, workdir):
        lf = (workdir / "cfg.txt").read_bytes()
        assert main(command_argv(workdir, "embed")) == 0
        want = (workdir / "never.tsv").read_bytes()
        (workdir / "cfg.txt").write_bytes(lf.replace(b"\n", b"\r\n"))
        assert main(command_argv(workdir, "embed")) == 0
        assert (workdir / "never.tsv").read_bytes() == want


# the options of command_argv's runs that name outputs, which no manifest records
OUTPUT_DESTS = {"embed": ["output"], "train-projection": ["model_out", "history_out"],
                "eval": ["out"], "eval-transfer": ["out"], "sweep": ["out"]}

# Runs on the fixtures workspace, each after the options whose two values the
# test swaps: two files' roles, or the order of --task; {out} is the output directory.
TRANSFER = ["eval-transfer", "--out", "{out}/r", "--runs", "2", "--epochs", "5",
            "--source-config", "{fx}/bi.cfg"]
ROLE_SWAPS = {
    "tasks": (("--train-task", "--test-task"), [
        *TRANSFER, "--target-config", "{fx}/bi.cfg",
        "--train-task", "{fx}/blobs_en.tsv", "--test-task", "{fx}/blobs_xx.tsv"]),
    "configs": (("--source-config", "--target-config"), [
        *TRANSFER, "--target-config", "{fx}/rolled.cfg",
        "--train-task", "{fx}/blobs_en.tsv", "--test-task", "{fx}/blobs_xx.tsv"]),
    "embedding files": (("--source-embeddings", "--target-embeddings"), [
        "train-projection", "--source-embeddings", "{fx}/bilingual.txt",
        "--target-embeddings", "{fx}/rolled.txt", "--pairs", "{fx}/pairs.tsv",
        "--model-out", "{out}/m.json", "--history-out", "{out}/h.csv",
        "--shared-dim", "8", "--epochs", "2"]),
    "task order": (("--task",), [
        "sweep", "--config", "{fx}/ab.cfg", "--p-set", "1,inf", "--out", "{out}/r",
        "--task", "{fx}/mixed.tsv", "--task", "{fx}/blobs_en.tsv", "--runs", "2", "--epochs", "5"]),
}


@contextlib.contextmanager
def fed_fifo(path: Path, data: bytes):
    """A FIFO at ``path`` that a thread writes ``data`` into, once, when a reader opens it."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader closed the FIFO before reading it all
            pass

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    try:
        yield path
    finally:
        while thread.is_alive():  # a writer whose FIFO no reader opened waits in open()
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            thread.join(0.05)


class TestManifest:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_option_but_the_outputs_is_recorded(self, workdir, command):
        argv = command_argv(workdir, command)
        assert main(argv) == 0
        (path,) = workdir.glob("never*.manifest.json")
        manifest = json.loads(path.read_text())
        parsed = vars(pmean.cli.build_parser().parse_args(argv))
        for dest in ("command", "func", "seed", *OUTPUT_DESTS[command]):
            assert dest not in manifest["config"]
            del parsed[dest]

        def named(value):  # an input file by its path from the manifest's directory
            return os.path.relpath(value, workdir) if isinstance(value, Path) else value

        for dest, value in parsed.items():
            want = [named(v) for v in value] if isinstance(value, list) else named(value)
            assert manifest["config"][dest] == want, dest
            if isinstance(value, Path):
                assert want in manifest["inputs"]
        assert set(manifest["config"]) - set(parsed) <= {"pooling"}  # embed's parsed config

    @pytest.fixture
    def swap_fx(self, fx):
        """The fixtures workspace plus a config over bilingual.txt's vectors, each
        moved to the next word."""
        write(fx / "rolled.cfg", "space=bi p=1,inf path=rolled.txt\n")
        space = load_text_embeddings(fx / "bilingual.txt")
        save_text_embeddings(dataclasses.replace(space, matrix=np.roll(space.matrix, 1, axis=0)),
                             fx / "rolled.txt")
        return fx

    @pytest.mark.parametrize("swap", ROLE_SWAPS)
    def test_a_swap_of_roles_that_moves_an_output_moves_the_manifest(self, tmp_path, swap_fx,
                                                                       swap):
        flags, argv = ROLE_SWAPS[swap]
        i, j = (k + 1 for k, arg in enumerate(argv) if arg in flags)
        swapped = list(argv)
        swapped[i], swapped[j] = argv[j], argv[i]

        def run(argv, out):
            (tmp_path / out).mkdir()
            assert main([arg.format(fx=swap_fx, out=tmp_path / out) for arg in argv]) == 0
            files = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
            (manifest,) = (name for name in files if name.endswith(".manifest.json"))
            return files.pop(manifest), files

        manifest, outputs = run(argv, "a")
        swapped_manifest, swapped_outputs = run(swapped, "b")
        assert outputs != swapped_outputs
        assert manifest != swapped_manifest
        # equal options in another directory: equal outputs and an equal manifest
        assert run(argv, "c") == (manifest, outputs)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_same_run_in_two_directories_writes_identical_manifests(self, tmp_path, command):
        manifests = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            build_cli_fixture(root)
            assert main(command_argv(root, command)) == 0
            (path,) = root.glob("*.manifest.json")
            manifests.append(path.read_bytes())
        assert manifests[0] == manifests[1]
        assert str(tmp_path) not in manifests[0].decode()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_inputs_are_named_from_the_directory_the_manifest_is_in(self, workdir, command):
        # a base ending in a slash puts every output, the manifest too, in that directory
        assert main(command_argv(workdir, command, f"{workdir / 'reports'}/")) == 0
        (path,) = (workdir / "reports").glob("*.manifest.json")
        inputs = json.loads(path.read_text())["inputs"]
        assert inputs and all(name.startswith("../") for name in inputs)

    def test_dotted_report_bases_keep_their_own_outputs(self, workdir):
        for seed in ("1", "2"):
            assert main([*command_argv(workdir, "eval", workdir / f"r.{seed}"),
                         "--seed", seed]) == 0
        assert sorted(p.name for p in workdir.glob("r.*")) == [
            f"r.{seed}.{suffix}" for seed in "12" for suffix in ("json", "manifest.json", "md")]
        for seed in (1, 2):
            manifest = json.loads((workdir / f"r.{seed}.manifest.json").read_text())
            assert manifest["seeds"] == {"seed": seed}

    @pytest.mark.parametrize("command, flag, name, pipe", [
        ("eval", "--task", "task.tsv", False),
        ("train-projection", "--source-embeddings", "one.txt", False),
        ("eval", "--task", "task.tsv", True),
    ], ids=["eval---task-task.tsv", "train-projection---source-embeddings-one.txt",
            "eval---task-anonymous-pipe"])
    def test_an_input_that_is_not_a_regular_file_exits_2_and_writes_nothing(
            self, workdir, command, flag, name, pipe):
        # a manifest records each input's digest, which a FIFO or a pipe cannot give after
        # it is read; in a process of its own, so a run that waits for a second writer
        # times out
        argv = command_argv(workdir, command)
        data = (workdir / name).read_bytes()
        if pipe:  # what a shell's --task <(cat task.tsv) passes: the read end of a pipe
            read_end, write_end = os.pipe()
            os.write(write_end, data)  # a few hundred bytes: the pipe's buffer holds them
            os.close(write_end)
            source = f"/dev/fd/{read_end}"
            argv[argv.index(flag) + 1] = source
            try:
                code, err = run_module(*argv, pass_fds=(read_end,))
                # the run shared the pipe and no writer is left: it read no byte
                assert b"".join(iter(lambda: os.read(read_end, 1 << 16), b"")) == data
            finally:
                os.close(read_end)
        else:
            source = workdir / f"fifo_{name}"
            argv[argv.index(flag) + 1] = str(source)
            with fed_fifo(source, data):
                code, err = run_module(*argv)
        assert code == 2
        assert err.startswith(f"pmean: {source}: not a regular file;")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not list(workdir.glob("never*")) and not list(workdir.glob(".*.tmp"))

    @pytest.mark.parametrize("option, manifest, name", [
        ("--input", "never.tsv.manifest.json", "real/sentences.txt"),
        ("--output", "real/never.tsv.manifest.json", "../sentences.txt"),
    ])
    def test_a_name_through_a_linked_directory_is_the_file_it_reaches(self, workdir, option,
                                                                      manifest, name):
        # d links to real/deep, so d/.. is real, not the workspace that d/.. is as text
        (workdir / "real" / "deep").mkdir(parents=True)
        (workdir / "d").symlink_to(workdir / "real" / "deep")
        write(workdir / "real" / "sentences.txt", "gamma\n")
        argv = command_argv(workdir, "embed")
        i = argv.index(option) + 1
        argv[i] = str(workdir / "d" / ".." / Path(argv[i]).name)
        assert main(argv) == 0
        recorded = json.loads((workdir / manifest).read_text())
        read = ((workdir / manifest).parent / name).read_bytes()
        assert recorded["config"]["input"] == name
        assert recorded["inputs"][name] == f"sha256:{hashlib.sha256(read).hexdigest()}"


def test_load_is_the_one_way_in_for_an_input():
    """Only cli._load records an input, and no code compares two options' paths
    to decide whether a file was read: _load keys that by the resolved file."""
    def options(node):  # the args.<dest> a comparison reads
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"]

    recorders, compares = set(), set()
    for path in sorted(Path(pmean.cli.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.name, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_input":
                    recorders.add(where)
                if isinstance(node, ast.Compare) and len(options(node)) > 1:
                    compares.add(where)
    assert recorders == {("cli.py", "_load")}
    assert not compares


def run_on(fx: Path, name: str, out: Path) -> int:
    """``main`` over test_imports' run ``name`` on the workspace ``fx``, writing into ``out``."""
    return main([str(arg) for arg in fx_command(fx, name, out)])


ALL_P = "1,inf,-inf,3,0,-1,0.5,2,-2,4,-3,5"
# a file of the workspace given a byte-order mark, and a run that reads it
BOM_READERS = {"space_a.txt": "embed", "ab.cfg": "embed", "sentences.txt": "embed",
               "mixed.tsv": "eval", "pairs.tsv": "train-projection",
               "bilingual.txt": "train-projection"}


class TestFixturesWorkspace:
    """The commands on the workspace scripts/make_fixtures.py writes."""

    @pytest.mark.parametrize("oov", ["skip", "zero"])
    def test_every_kind_of_p(self, fx, tmp_path, oov):
        # the fixtures hold negative entries, so p = 0 and p = 0.5 are undefined somewhere;
        # --oov zero pools zero rows, so the kernel's zero-row path runs too
        write(tmp_path / "all_p.cfg", "".join(f"space={s} p={ALL_P} path={fx}/space_{s}.txt\n"
                                              for s in "ab"))
        argv = ["embed", "--config", tmp_path / "all_p.cfg", "--input", fx / "sentences.txt",
                "--oov", oov]
        assert main([*map(str, argv), "--output", str(tmp_path / "all_p.tsv")]) == 0
        manifest = json.loads((tmp_path / "all_p.tsv.manifest.json").read_text())
        assert manifest["undefined_pool_entries"] > 0
        # in a process of its own, so that stderr holds all the run prints
        code, err = run_module(*argv, "--output", tmp_path / "strict.tsv", "--strict")
        assert code == 3
        assert err.startswith("pmean: numerical policy error: power mean undefined for p=")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not list(tmp_path.glob("strict*")) and not list(tmp_path.glob(".*.tmp"))

    def test_projection_learns_and_writes_the_model_as_json_dumps_does(self, fx, tmp_path):
        # pairs.tsv holds bilingual.txt's words, so the loss falls
        assert run_on(fx, "train-projection", tmp_path) == 0
        rows = (tmp_path / "h.csv").read_text().splitlines()[1:]
        losses = [float(row.split(",")[1]) for row in rows]
        assert len(losses) == 3 and losses[-1] < losses[0]
        text = (tmp_path / "m.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1) + "\n"

    def test_a_znorm_manifest_is_written_as_json_dumps_does(self, fx, tmp_path):
        assert main([str(arg) for arg in fx_command(fx, "embed --znorm", tmp_path)]) == 0
        text = (tmp_path / "e.tsv.manifest.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        assert len(doc["znorm_params"]["mean"]) == len(doc["znorm_params"]["std"]) == 64
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command, report", [("eval", "r.json"), ("eval-transfer", "t.json")])
    def test_a_report_reads_back_unchanged_and_a_moved_sigma_is_rejected(self, fx, tmp_path,
                                                                         command, report):
        assert run_on(fx, command, tmp_path) == 0
        text = (tmp_path / report).read_text(encoding="utf-8")
        assert emit_report(parse_report(text), "json") == text
        doc = json.loads(text)
        doc["rows"][0]["sigma"] += 0.01
        with pytest.raises(InputError, match=r"^row .*: stored sigma"):
            parse_report(json.dumps(doc))

    @pytest.mark.parametrize("name", BOM_READERS)
    def test_a_byte_order_mark_moves_only_the_inputs_digest(self, fx, tmp_path, name):
        outputs, manifests = {}, {}
        for kind in ("plain", "bom"):
            root = tmp_path / kind
            shutil.copytree(fx, root)
            if kind == "bom":
                (root / name).write_bytes("\ufeff".encode() + (fx / name).read_bytes())
            (root / "out").mkdir()
            assert run_on(root, BOM_READERS[name], root / "out") == 0
            files = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
            (manifest,) = (n for n in files if n.endswith(".manifest.json"))
            manifests[kind] = json.loads(files.pop(manifest))
            outputs[kind] = files
        assert outputs["plain"] == outputs["bom"]
        for kind, manifest in manifests.items():
            digest = hashlib.sha256((tmp_path / kind / name).read_bytes()).hexdigest()
            assert manifest["inputs"].pop(f"../{name}") == f"sha256:{digest}"
        assert manifests["plain"] == manifests["bom"]


class TestOutputs:
    @pytest.fixture
    def unread_inputs(self, monkeypatch):
        """Fails the test at any call that reads an input file or trains."""
        def read(*args, **kwargs):
            raise AssertionError("the command ran before its outputs were checked")

        for name in ("read_input", "read_text", "read_lines", "load_text_embeddings",
                     "load_task", "train_projection"):
            monkeypatch.setattr(pmean.cli, name, read)

    @pytest.mark.parametrize("model, history", [
        ("X", "X"), ("X", "X.manifest.json"), ("d/../X", "X"),
    ])
    def test_two_outputs_naming_one_file_exit_2_and_write_nothing(self, workdir, capsys,
                                                                  unread_inputs, model, history):
        before = sorted(workdir.rglob("*"))
        argv = [*command_argv(workdir, "train-projection"),
                "--model-out", str(workdir / model), "--history-out", str(workdir / history)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(": two outputs would write this file\n") and err.count("\n") == 1
        assert sorted(workdir.rglob("*")) == before  # no output, no temp file, no directory

    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_output_that_is_a_directory_exits_2_before_any_input_is_read(
            self, workdir, capsys, unread_inputs, command):
        first = workdir / f"never{OUTPUT_SUFFIXES[command][0]}"
        first.mkdir()
        before = sorted(workdir.rglob("*"))
        assert main(command_argv(workdir, command)) == 2
        assert capsys.readouterr().err == f"pmean: {first}: output path is a directory\n"
        assert sorted(workdir.rglob("*")) == before  # no output, no temp file, no directory

    @pytest.mark.parametrize("link", [False, True], ids=["fifo", "link to a fifo"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_output_that_is_a_fifo_exits_2_before_any_input_is_read(
            self, workdir, capsys, unread_inputs, command, link):
        # a rename would put a regular file where the FIFO (or a device) was
        *_, last = (workdir / f"never{suffix}" for suffix in OUTPUT_SUFFIXES[command])
        os.mkfifo(workdir / "pipe")
        if link:
            last.symlink_to(workdir / "pipe")
        else:
            os.mkfifo(last)
        before = sorted(workdir.rglob("*"))
        assert main(command_argv(workdir, command)) == 2
        assert capsys.readouterr().err == f"pmean: {last}: output path is not a regular file\n"
        assert sorted(workdir.rglob("*")) == before
        assert stat.S_ISFIFO(last.stat().st_mode) and last.is_symlink() == link

    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_output_that_is_a_link_is_replaced_not_followed(self, workdir, command):
        # the manifest's path is a dangling link to the first output's, and the
        # rename into place replaces the link, so no file is written twice
        first, *_, last = (workdir / f"never{suffix}" for suffix in OUTPUT_SUFFIXES[command])
        last.symlink_to(first)
        assert main(command_argv(workdir, command)) == 0
        assert not first.is_symlink() and not last.is_symlink()
        assert json.loads(last.read_text())["command"] == command
        assert first.read_bytes() != last.read_bytes()

    def test_an_output_link_to_a_directory_staging_makes_is_replaced(self, workdir):
        (workdir / "link").symlink_to(workdir / "d")
        argv = [*command_argv(workdir, "train-projection"),
                "--model-out", str(workdir / "link"), "--history-out", str(workdir / "d/h.csv")]
        assert main(argv) == 0
        assert (workdir / "link").is_file() and not (workdir / "link").is_symlink()
        assert (workdir / "d/h.csv").read_text().startswith("epoch,mean_loss\n")

    @pytest.mark.parametrize("model", ["d/m.json", "d/../m.json"])
    def test_an_output_staging_would_make_a_directory_exits_2_before_any_input_is_read(
            self, workdir, capsys, unread_inputs, model):
        # staging the model makes its parent d, as spelled, where the history would go
        before = sorted(workdir.rglob("*"))
        argv = [*command_argv(workdir, "train-projection"),
                "--model-out", str(workdir / model), "--history-out", str(workdir / "d")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"pmean: {workdir / 'd'}: output path is a directory\n"
        assert sorted(workdir.rglob("*")) == before

    def test_an_output_may_replace_an_input_it_has_read(self, workdir):
        argv = command_argv(workdir, "embed")
        assert main(argv) == 0
        sentences = workdir / "sentences.txt"
        digest = json.loads((workdir / "never.tsv.manifest.json").read_text())["inputs"][
            "sentences.txt"]
        argv[argv.index("--output") + 1] = str(sentences)
        assert main(argv) == 0
        assert sentences.read_bytes() == (workdir / "never.tsv").read_bytes()
        replaced = json.loads((workdir / "sentences.txt.manifest.json").read_text())
        assert replaced["inputs"]["sentences.txt"] == digest  # the text it read, not its output

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_output_exits_2_and_leaves_nothing(self, workdir, capsys, command):
        blocker = write(workdir / "blocker", "a regular file, not a directory\n")
        assert main(command_argv(workdir, command, blocker / "never")) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmean: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(workdir.rglob("never*")) and not list(workdir.rglob("*.tmp"))
        assert blocker.read_text() == "a regular file, not a directory\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_outputs_are_written_in_order(self, workdir, monkeypatch, command):
        texts = []
        real_write = pmean.cli.write_atomic

        def spy(path, text):
            if not isinstance(text, str):  # a chunked output, such as embed's TSV
                text = list(text)
                texts.append("".join(text))
            else:
                texts.append(text)
            real_write(path, text)

        monkeypatch.setattr(pmean.cli, "write_atomic", spy)
        assert main(command_argv(workdir, command)) == 0
        paths = [workdir / f"never{suffix}" for suffix in OUTPUT_SUFFIXES[command]]
        assert texts == [path.read_text() for path in paths]  # one write per output
        assert sorted(workdir.glob("never*")) == sorted(paths)
        assert not list(workdir.rglob("*.tmp"))

    @pytest.mark.parametrize("command, k", [(command, k) for command in COMMANDS
                                            for k in range(len(OUTPUT_SUFFIXES[command]))])
    def test_blocking_any_one_output_leaves_no_output(self, workdir, capsys, command, k):
        blocker = workdir / f"never{OUTPUT_SUFFIXES[command][k]}"
        blocker.mkdir()  # a directory where output k would go
        assert main(command_argv(workdir, command)) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmean: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(workdir.rglob("never*")) == [blocker]
        assert not list(workdir.rglob("*.tmp"))

    def test_a_failed_rename_still_unlinks_every_staged_file(self, workdir, capsys, monkeypatch):
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".md"):  # the second of eval's three outputs
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(pmean.cli.os, "replace", replace)
        assert main(command_argv(workdir, "eval")) == 2
        assert capsys.readouterr().err == "pmean: rename refused\n"
        # the window between two renames: the first output is in place, no temp file stays
        assert [p.name for p in workdir.rglob("never*")] == ["never.json"]
        assert not list(workdir.rglob("*.tmp"))

    @pytest.mark.parametrize("where", ["init", "staging"])
    def test_out_of_memory_exits_2_and_leaves_nothing(self, workdir, capsys, monkeypatch, where):
        message = ("Unable to allocate 7.28 TiB for an array with shape (100000000000, 10) "
                   "and data type float64")
        argv = command_argv(workdir, "train-projection")
        staged = []
        if where == "init":  # what numpy raises for --shared-dim 100000000000
            def init_projection(*args):
                raise MemoryError(message)

            monkeypatch.setattr(pmean.projection, "init_projection", init_projection)
            argv += ["--shared-dim", "100000000000"]
        else:  # while the history is staged, after the model's temp file is written
            real_write = pmean.cli.write_atomic

            def write_atomic(path, text):
                if Path(path).name.startswith(".never.csv."):
                    raise MemoryError(message)
                real_write(path, text)
                staged.append(path)

            monkeypatch.setattr(pmean.cli, "write_atomic", write_atomic)
        assert main(argv) == 2
        assert len(staged) == (where == "staging")
        err = capsys.readouterr().err
        assert err == f"pmean: out of memory: {message}\n"
        assert "Traceback" not in err
        assert not list(workdir.rglob("never*")) and not list(workdir.rglob("*.tmp"))

    def test_history_under_a_regular_file_leaves_no_model(self, workdir, capsys):
        blocker = write(workdir / "blocker", "a regular file, not a directory\n")
        argv = command_argv(workdir, "train-projection")
        argv[argv.index("--history-out") + 1] = str(blocker / "h.csv")
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("pmean: ")
        assert not list(workdir.rglob("never*")) and not list(workdir.rglob("*.tmp"))


class TestFileModes:
    def test_every_file_written_gets_the_mode_the_umask_gives(self, workdir, parse_cache_home):
        # as open(path, "w") makes a file: 0o666 less the umask, not a temp file's 0o600
        saved = workdir / "saved"  # made by the savers
        old = os.umask(0o027)
        try:
            for command in COMMANDS:
                assert main(command_argv(workdir, command, workdir / command)) == 0
            save_text_embeddings(load_text_embeddings(workdir / "one.txt"), saved / "one.txt")
            save_task(load_task(workdir / "task.tsv"), saved / "task.tsv")
        finally:
            os.umask(old)
        written = [Path(f"{workdir / command}{suffix}")
                   for command in COMMANDS for suffix in OUTPUT_SUFFIXES[command]]
        written += [*parse_cache_home.glob("*.npy"), saved / "one.txt", saved / "task.tsv"]
        assert len(written) == 18  # 14 outputs, 2 cache entries, 2 saved files
        assert {path.name: oct(stat.S_IMODE(path.stat().st_mode)) for path in written} == {
            path.name: "0o640" for path in written}


# a user error no other test raises in-process: the command, the files written
# over the workdir's, the options added, and the one line after "pmean: " with
# {dir} the workdir
USER_ERRORS = {
    "config entry without path=": (
        "embed", {"cfg.txt": "space=one p=1\n"}, [],
        "config entry 'one' needs a path= to load from"),
    "bad p-value": (
        "embed", {"cfg.txt": "space=one p=1 path=one.txt\nspace=one p=abc\n"}, [],
        "{dir}/cfg.txt:2: bad p-value 'abc'"),
    "empty p list": (
        "embed", {"cfg.txt": "space=one p=, path=one.txt\n"}, [], "{dir}/cfg.txt:1: empty p list"),
    "pairs line without a TAB": (
        "train-projection", {"pairs.tsv": "alpha\tbeta\ngamma delta\n"}, [],
        "{dir}/pairs.tsv:2: expected 'source TAB target'"),
    "no pairs": ("train-projection", {"pairs.tsv": "\n\n"}, [], "{dir}/pairs.tsv: no sentence pairs"),
    "task header after data": (
        "eval", {"task.tsv": "#name=t\n#metric=accuracy\nup\talpha\n#lang=en\n"}, [],
        "{dir}/task.tsv:4: header after data lines"),
    "configs with different part counts": (
        "eval-transfer", {"src.cfg": "space=one p=1,inf path=one.txt\n"},
        ["--source-config", "{dir}/src.cfg"],
        "source and target configs have different part counts"),
    "val fraction out of range": (
        "eval", {}, ["--val-fraction", "1.5"], "val_fraction must be in (0, 1), got 1.5"),
    "no runs": ("sweep", {}, ["--runs", "0"], "runs must be positive"),
}


class TestUserErrors:
    @pytest.mark.parametrize("case", USER_ERRORS)
    def test_exits_2_with_its_message_and_no_outputs(self, workdir, capsys, case):
        command, files, options, message = USER_ERRORS[case]
        for name, text in files.items():
            write(workdir / name, text)
        argv = [*command_argv(workdir, command), *(o.format(dir=workdir) for o in options)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"pmean: {message.format(dir=workdir)}\n"
        assert not list(workdir.glob("never*"))

    def test_double_dash_ends_the_joining_of_option_values(self, workdir):
        # after "--", "--seed -1" is two stray arguments, not "--seed=-1"
        code, err = run_quietly([*command_argv(workdir, "embed"), "--", "--seed", "-1"])
        assert code == 64
        assert err.endswith("error: unrecognized arguments: -- --seed -1\n")
        assert not list(workdir.glob("never*"))


class TestEmbedStream:
    """embed formats its TSV row by row while main writes it into the staged file."""

    WORDS = ["alpha", "beta", "gamma", "delta"]

    def embed(self, workdir, n, config="cfg.txt"):
        """Embed ``n`` sentences of 2 to 5 words; returns (exit code, sentences)."""
        sentences = [" ".join(self.WORDS[(i + j) % 4] for j in range(i % 4 + 2))
                     for i in range(n)]
        write(workdir / "in.txt", "".join(s + "\n" for s in sentences))
        rc = main(["embed", "--config", str(workdir / config), "--input",
                   str(workdir / "in.txt"), "--output", str(workdir / "never.tsv")])
        return rc, sentences

    @pytest.mark.parametrize("n", [0, 1, 257])
    def test_tsv_is_the_rows_joined(self, workdir, n):
        rc, sentences = self.embed(workdir, n)
        assert rc == 0
        cfg = PooledConfig([PooledPart(load_text_embeddings(workdir / f"{name}.txt"),
                                       [1.0, math.inf]) for name in ("one", "two")])
        rows = ["\t".join(map(repr, row.tolist())) for row in embed_corpus(cfg, sentences)[0]]
        want = "\n".join(rows) + "\n" if rows else ""
        assert (workdir / "never.tsv").read_text() == want

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_an_error_part_way_through_the_rows_leaves_nothing(self, workdir, capsys,
                                                               monkeypatch, k):
        real = pmean.cli.float_row_text
        rows = []

        def fail_on_row_k(row, sep):
            rows.append(row)
            if len(rows) > k:
                raise OSError("No space left on device")
            return real(row, sep)

        monkeypatch.setattr(pmean.cli, "float_row_text", fail_on_row_k)
        assert self.embed(workdir, 5)[0] == 2
        assert capsys.readouterr().err == "pmean: No space left on device\n"
        assert len(rows) == k + 1
        assert not list(workdir.rglob("never*")) and not list(workdir.rglob("*.tmp"))

    def test_peak_memory_stays_below_the_tsv(self, workdir):
        # 128 columns; each value takes about 8 bytes pooled and 18 as text, so
        # the TSV outweighs the pooled matrix and the pooling temporaries
        p_values = ",".join(map(str, range(1, 17)))
        write(workdir / "wide.cfg", f"space=one p={p_values} path=one.txt\n"
                                    f"space=two p={p_values} path=two.txt\n")
        tracemalloc.start()
        try:
            rc, _ = self.embed(workdir, 1000, "wide.cfg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < (workdir / "never.tsv").stat().st_size


class TestUsage:
    def test_unknown_flag_exits_64(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--bogus-flag", "1"])
        assert exc.value.code == 64

    def test_missing_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_version_ignores_a_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("PMEAN_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"pmean {pmean.__version__}\n"

    def test_top_level_help_names_the_commands_and_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        text = " ".join(out.split())  # argparse wraps to the terminal's width
        for command in COMMANDS:
            assert command in text
        for code in ("0 ok", "2 input or format error", "3 numerical policy error",
                     "64 usage error"):
            assert code in text
        # the module docstring, notes for whoever reads cli.py, is not the help
        assert "RunManifest" not in out and "staged" not in out

    def test_env_seed_fallback(self, workdir, monkeypatch):
        monkeypatch.setenv("PMEAN_SEED", "123")
        out = workdir / "env.tsv"
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "sentences.txt"), "--output", str(out)])
        assert rc == 0
        manifest = json.loads((workdir / "env.tsv.manifest.json").read_text())
        assert manifest["seeds"]["seed"] == 123

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_exits_2(self, workdir, capsys, command):
        assert main([*command_argv(workdir, command), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "pmean: seed must be non-negative, got -1\n"
        assert not list(workdir.glob("never*"))

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("value, message", [
        ("abc", "PMEAN_SEED must be an integer, got 'abc'"),
        ("1.5", "PMEAN_SEED must be an integer, got '1.5'"),
        ("-2", "seed must be non-negative, got -2"),
    ])
    def test_bad_env_seed_exits_2(self, workdir, monkeypatch, capsys, command, value, message):
        monkeypatch.setenv("PMEAN_SEED", value)
        assert main(command_argv(workdir, command)) == 2
        assert capsys.readouterr().err == f"pmean: {message}\n"
        assert not list(workdir.glob("never*"))

    @pytest.mark.parametrize("argv", [
        ["eval", "--config", "c", "--task", "t", "--out", "o"],
        ["eval-transfer", "--source-config", "c", "--target-config", "c",
         "--train-task", "t", "--test-task", "t", "--out", "o"],
        ["sweep", "--config", "c", "--p-set", "1", "--task", "t", "--out", "o"],
    ], ids=lambda argv: argv[0])
    def test_protocol_defaults_are_the_dataclass_defaults(self, argv):
        args = pmean.cli.build_parser().parse_args(argv)
        assert pmean.cli._protocol_of(args, 7) == TrainProtocol(seed=7)
        assert args.lr_grid == "0.1,0.01,0.001,0.0001"  # as manifests record it

    def test_projection_defaults_are_the_dataclass_defaults(self):
        args = pmean.cli.build_parser().parse_args([
            "train-projection", "--source-embeddings", "s", "--target-embeddings", "t",
            "--pairs", "p", "--model-out", "m", "--history-out", "h"])
        assert pmean.cli._projection_config_of(args, 7) == ProjectionTrainConfig(seed=7)

    @pytest.mark.parametrize("argv", [
        ["train-projection", "--source-embeddings", "s", "--target-embeddings", "t",
         "--pairs", "p", "--model-out", "m", "--history-out", "h"],
        ["eval", "--config", "c", "--task", "t", "--out", "o"],
        ["eval-transfer", "--source-config", "c", "--target-config", "c",
         "--train-task", "t", "--test-task", "t", "--out", "o"],
        ["sweep", "--config", "c", "--p-set", "1", "--task", "t", "--out", "o"],
    ], ids=lambda argv: argv[0])
    def test_every_parsed_default_is_a_field_default(self, argv):
        owner, dests = ((ProjectionTrainConfig, {
            "shared_dim": "shared_dim", "margin": "margin", "dropout": "dropout_rate",
            "epochs": "max_epochs", "batch_size": "batch_size", "step_size": "step_size",
        }) if argv[0] == "train-projection" else (TrainProtocol, {
            "runs": "runs", "epochs": "max_epochs", "batch_size": "batch_size",
            "lr_grid": "lr_grid", "val_fraction": "val_fraction",
            "test_fraction": "test_fraction",
        }))
        defaults = {f.name: f.default for f in dataclasses.fields(owner)}
        parsed = vars(pmean.cli.build_parser().parse_args(argv))
        if "lr_grid" in parsed:  # comma-separated text, as manifests record it
            parsed["lr_grid"] = tuple(map(float, parsed["lr_grid"].split(",")))
        for dest, field in dests.items():
            assert parsed[dest] == defaults[field], dest

    def test_module_entry_point(self, workdir):
        out = workdir / "sub.tsv"
        code, err = run_module("embed", "--config", workdir / "cfg.txt",
                               "--input", workdir / "sentences.txt", "--output", out)
        assert code == 0, err
        assert len(out.read_text().splitlines()) == 3


def run_module(*argv, pass_fds=(), timeout=120) -> tuple[int, str]:
    """``python -m pmean argv`` in a new interpreter, which inherits the file
    descriptors ``pass_fds``: its exit code and stderr. A child still running
    after ``timeout`` seconds is killed, and the call raises TimeoutExpired."""
    env = dict(os.environ)
    src = str(Path(pmean.cli.__file__).parents[1])  # the child imports this same package
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pmean", *map(str, argv)], pass_fds=pass_fds,
                          env=env, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stderr


class TestProcessExit:
    """A process exits through cli.run, which freezes the collector once main is done."""

    def test_usage_error_exits_64_after_the_usage(self):
        code, err = run_module("embed", "--config")
        assert code == 64
        assert err.startswith("usage: pmean embed ")
        assert err.endswith("\npmean embed: error: argument --config: expected one argument\n")
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_missing_input_exits_2_with_one_line(self, workdir):
        missing = workdir / "missing.txt"
        code, err = run_module("embed", "--config", workdir / "cfg.txt", "--input", missing,
                               "--output", workdir / "o.tsv")
        assert code == 2
        assert err.startswith("pmean: ") and str(missing) in err
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_strict_embed_exits_3_with_one_line(self, workdir):
        write(workdir / "signed.txt", "alpha -1.0 2.0\n")  # p = 0.5 of -1.0 is undefined
        write(workdir / "signed.cfg", "space=s p=0.5 path=signed.txt\n")
        code, err = run_module("embed", "--config", workdir / "signed.cfg",
                               "--input", workdir / "sentences.txt",
                               "--output", workdir / "o.tsv", "--strict")
        assert code == 3
        assert err.startswith("pmean: numerical policy error: power mean undefined for p=0.5")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not list(workdir.glob("o.tsv*"))

    @pytest.mark.parametrize("returns", [0, 2, 3, SystemExit(64)], ids=str)
    def test_run_exits_with_mains_code_and_freezes_after_it(self, monkeypatch, returns):
        calls = []

        def fake_main():
            calls.append("main")
            if isinstance(returns, SystemExit):
                raise returns
            return returns

        monkeypatch.setattr(pmean.cli, "main", fake_main)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            pmean.cli.run()
        assert exc.value.code == (returns.code if isinstance(returns, SystemExit) else returns)
        assert calls == ["main", "freeze"]

    def test_main_in_process_freezes_nothing(self, workdir):
        before = gc.get_freeze_count()
        assert main(["embed", "--config", str(workdir / "cfg.txt"),
                     "--input", str(workdir / "sentences.txt"),
                     "--output", str(workdir / "o.tsv")]) == 0
        assert run_quietly(["embed", "--config"])[0] == 64
        assert gc.get_freeze_count() == before
