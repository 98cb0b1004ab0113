import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmean.cli
from pmean.classifier import TrainProtocol
from pmean.cli import main
from pmean.embeddings import load_text_embeddings
from pmean.pooling import PooledConfig, PooledPart, embed_corpus
from pmean.projection import ProjectionTrainConfig, init_projection, load_projection
from test_acceptance import build_cli_fixture


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

    def test_znorm_params_recorded(self, workdir):
        out = workdir / "zn.tsv"
        rc = main(["embed", "--config", str(workdir / "cfg.txt"),
                   "--input", str(workdir / "sentences.txt"),
                   "--output", str(out), "--znorm"])
        assert rc == 0
        manifest = json.loads((out.parent / "zn.tsv.manifest.json").read_text())
        assert len(manifest["znorm_params"]["mean"]) == 16

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


class TestManifest:
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

    def test_dotted_report_bases_keep_their_own_outputs(self, workdir):
        for seed in ("1", "2"):
            assert main([*command_argv(workdir, "eval", workdir / f"r.{seed}"),
                         "--seed", seed]) == 0
        assert sorted(p.name for p in workdir.glob("r.*")) == [
            f"r.{seed}.{suffix}" for seed in "12" for suffix in ("json", "manifest.json", "md")]
        for seed in (1, 2):
            manifest = json.loads((workdir / f"r.{seed}.manifest.json").read_text())
            assert manifest["seeds"] == {"seed": seed}


class TestOutputs:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_output_exits_2_and_leaves_nothing(self, workdir, capsys, command):
        blocker = write(workdir / "blocker", "a regular file, not a directory\n")
        assert main(command_argv(workdir, command, blocker / "never")) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmean: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(workdir.rglob("never*")) and not list(workdir.rglob("*.tmp"))
        assert blocker.read_text() == "a regular file, not a directory\n"



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

    def test_module_entry_point(self, workdir):
        out = workdir / "sub.tsv"
        env = dict(os.environ)
        src = str(Path(pmean.cli.__file__).parents[1])  # the child imports this same package
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pmean", "embed",
             "--config", str(workdir / "cfg.txt"),
             "--input", str(workdir / "sentences.txt"), "--output", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 3
