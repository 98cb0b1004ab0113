import json
import math
import os
import re
import stat
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pmean.classifier
import pmean.evaluation
from pmean.classifier import TrainProtocol, fit_runs, score_runs
from pmean.embeddings import EmbeddingSpace
from pmean.errors import DimensionError, FormatError, InputError
from pmean.evaluation import (
    EvalReport,
    ReportRow,
    TaskDataset,
    TaskResult,
    TransferPair,
    emit_report,
    evaluate_monolingual,
    evaluate_transfer,
    load_task,
    parse_report,
    save_task,
    sweep_pmeans,
)
from pmean.pooling import PooledConfig, PooledPart, embed_corpus
from pmean.projection import init_projection, project_space
from pmean.synthetic import (
    SENT_LEN,
    make_blobs_task,
    make_quad_blobs_task,
    merge_spaces,
    swap_dictionary,
    twin_space,
)

INF = math.inf
FAST = TrainProtocol(runs=4, max_epochs=15, seed=0)


def spaces_config(*spaces):
    """A config naming these spaces, for sweep_pmeans, which ignores its p-values."""
    return PooledConfig([PooledPart(space, [1.0]) for space in spaces])


class TestLoadTask:
    def test_small_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#name=small\n#metric=accuracy\npos\tgood one\nneg\tbad one\n"
                        "pos\tfine\nneg\tawful\n")
        ds = load_task(path)
        assert ds.name == "small"
        assert ds.classes == ["neg", "pos"]  # sorted, not first-appearance order
        assert len(ds.items) == 4

    def test_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#name=x\n#metric=accuracy\npos\tok\nbroken line\n")
        with pytest.raises(FormatError, match=":4"):
            load_task(path)

    def test_metric_header_respected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#name=x\n#metric=macro_f1\na\ts1\nb\ts2\n")
        assert load_task(path).metric_kind == "macro_f1"

    def test_headers_required_before_data(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("pos\tno headers\n")
        with pytest.raises(FormatError, match="#name"):
            load_task(path)

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#name=x\n#metric=accuracy\na\ts1\na\ts2\n")
        with pytest.raises(FormatError, match="classes"):
            load_task(path)

    def test_unknown_metric_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#name=x\n#metric=rmse\na\ts1\nb\ts2\n")
        with pytest.raises(FormatError):
            load_task(path)

    @pytest.mark.parametrize("repeat", ["#name=y", "#metric=macro_f1", "#lang=de", "#lang=en"])
    def test_a_repeated_header_names_its_line(self, tmp_path, repeat):
        path = tmp_path / "t.tsv"
        path.write_text(f"#name=x\n#metric=accuracy\n#lang=en\n{repeat}\na\ts1\nb\ts2\n")
        key = repeat[1:].partition("=")[0]
        with pytest.raises(FormatError) as exc:
            load_task(path)
        assert str(exc.value) == f"{path}:4: duplicate header key {key!r}"

    def test_an_empty_name_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#metric=accuracy\n#name=\na\ts1\nb\ts2\n")
        with pytest.raises(FormatError) as exc:
            load_task(path)
        assert str(exc.value) == f"{path}:2: empty task name"

    def test_an_empty_language_tag_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#name=x\n#metric=accuracy\n#lang=\na\ts1\nb\ts2\n")
        with pytest.raises(FormatError) as exc:
            load_task(path)
        assert str(exc.value) == f"{path}:3: empty task lang"

    def test_an_unknown_header_key_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#name=x\n#metric=accuracy\n#language=en\na\ts1\nb\ts2\n")
        with pytest.raises(FormatError) as exc:
            load_task(path)
        assert str(exc.value) == f"{path}:3: unknown header key 'language'"

    def test_only_lf_ends_a_line(self, tmp_path):
        lf = tmp_path / "lf.tsv"
        lf.write_bytes(b"#name=x\n#metric=accuracy\npos\tgood\rneg\tbad\nneg\tawful\n")
        ds = load_task(lf)
        # the lone CR stays inside the first sentence
        assert ds.items == [("pos", "good\rneg\tbad"), ("neg", "awful")]
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_task(crlf) == ds

    def test_save_load_round_trip(self, tmp_path):
        _, ds = make_blobs_task(seed=1, n_sentences=20)
        path = tmp_path / "rt.tsv"
        save_task(ds, path)
        back = load_task(path)
        assert back.name == ds.name
        assert back.items == ds.items
        assert back.metric_kind == ds.metric_kind


# characters the task format gives a meaning to, and any other that UTF-8 can encode
TASK_CHAR = st.sampled_from(["a", "b", "#", "=", " ", "\t", "\r", "\x85", "\u2028"]) | (
    st.characters(exclude_categories=("Cs",), exclude_characters="\n"))
TASK_TEXT = st.text(TASK_CHAR, max_size=5)
TASK_LABEL = st.text(TASK_CHAR.filter(lambda c: c != "\t"), min_size=1, max_size=4).filter(
    lambda label: not label.startswith("#"))
# one way for a dataset to be beyond the format, or None for a writable one
DEFECTS = [None] * 6 + ["empty label", "label TAB", "label #", "label newline",
                        "text newline", "empty name", "name newline", "empty lang",
                        "lang newline",
                        "surrogate"]


@st.composite
def task_datasets(draw):
    """A writable TaskDataset, or one with a single drawn defect; returns (ds, defect)."""
    items = draw(st.lists(st.tuples(TASK_LABEL, TASK_TEXT), min_size=2, max_size=6))
    assume(len({label for label, _ in items}) >= 2)
    name, lang = draw(TASK_TEXT.filter(bool)), draw(st.none() | TASK_TEXT.filter(bool))
    defect = draw(st.sampled_from(DEFECTS))
    i = draw(st.integers(0, len(items) - 1))
    label, text = items[i]
    if defect == "empty label":
        label = ""
    elif defect == "label TAB":
        label = label[:1] + "\t" + label[1:]
    elif defect == "label #":
        label = "#" + label
    elif defect == "label newline":
        label += "\n"
    elif defect == "text newline":
        text = "\n" + text
    elif defect == "surrogate":
        text += "\ud800"
    elif defect == "empty name":
        name = ""
    elif defect == "name newline":
        name += "\n"
    elif defect == "empty lang":
        lang = ""
    elif defect == "lang newline":
        lang = (lang or "") + "\n"
    items[i] = (label, text)
    metric = draw(st.sampled_from(["accuracy", "macro_f1"]))
    return TaskDataset(name, items, metric, language_tag=lang), defect


class TestSaveTask:
    def test_plain_task_bytes(self, tmp_path):
        ds = TaskDataset("t", [("pos", "good film"), ("neg", "bad\tfilm")], "macro_f1",
                         language_tag="en")
        save_task(ds, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == (
            b"#name=t\n#metric=macro_f1\n#lang=en\npos\tgood film\nneg\tbad\tfilm\n")

    def test_text_ending_in_cr_round_trips(self, tmp_path):
        (tmp_path / "in.tsv").write_bytes(b"#name=x\n#metric=accuracy\npos\tgood\r\r\nneg\tbad\n")
        ds = load_task(tmp_path / "in.tsv")
        assert ds.items[0] == ("pos", "good\r")
        save_task(ds, tmp_path / "out.tsv")
        assert (tmp_path / "out.tsv").read_bytes() == (tmp_path / "in.tsv").read_bytes()
        assert load_task(tmp_path / "out.tsv") == ds

    @pytest.mark.parametrize("items, match", [
        ([("#h", "a"), ("b", "c")], "label '#h'"),
        ([("a", "one\ntwo"), ("b", "c")], r"text 'one\ntwo'"),
        ([("", "a"), ("b", "c")], "label ''"),
        ([("a\tb", "a"), ("b", "c")], r"label 'a\tb'"),
        ([("a\nb", "a"), ("b", "c")], r"label 'a\nb'"),
        ([("a", "\ud800"), ("b", "c")], "UTF-8"),
    ])
    def test_unwritable_item_raises(self, tmp_path, items, match):
        ds = TaskDataset("t", items)
        with pytest.raises(InputError, match=re.escape(match)):
            save_task(ds, tmp_path / "t.tsv")
        assert not (tmp_path / "t.tsv").exists()

    def test_save_makes_missing_directories(self, tmp_path):
        ds = TaskDataset("t", [("pos", "good"), ("neg", "bad")])
        save_task(ds, tmp_path / "a" / "b" / "t.tsv")
        assert load_task(tmp_path / "a" / "b" / "t.tsv") == ds
        assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["t.tsv"]

    def test_a_save_onto_a_fifo_raises_and_leaves_it(self, tmp_path):
        os.mkfifo(tmp_path / "t.tsv")
        reader = os.open(tmp_path / "t.tsv", os.O_RDONLY | os.O_NONBLOCK)  # a writer never blocks
        try:
            with pytest.raises(InputError, match="output path is not a regular file"):
                save_task(TaskDataset("t", [("pos", "good"), ("neg", "bad")]), tmp_path / "t.tsv")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO((tmp_path / "t.tsv").stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]

    @settings(max_examples=200, deadline=None)
    @given(drawn=task_datasets())
    def test_round_trip_or_input_error(self, tmp_path_factory, drawn):
        ds, defect = drawn
        path = tmp_path_factory.getbasetemp() / "round-trip.tsv"
        path.unlink(missing_ok=True)
        if defect is not None:
            with pytest.raises(InputError):
                save_task(ds, path)
            assert not path.exists()
            return
        save_task(ds, path)
        assert load_task(path) == ds


def make_max_signal_task(
    seed: int = 0,
    n_sentences: int = 300,
    dim: int = 16,
    max_dim: int = 3,
) -> tuple[EmbeddingSpace, TaskDataset]:
    """Binary task detectable by max pooling but mean-blind by construction.

    Every sentence has 3 marker tokens and 7 fills. One class marks with a
    single 3.0 spike in column ``max_dim`` plus two 0.0 pads; the other with
    three 1.0 bumps, so the column sums match exactly. All pools are centered
    to exact zero mean in the noise dimensions, leaving arithmetic-mean
    embeddings with no systematic class difference.
    """
    rng = np.random.default_rng(seed)
    pools = {"peak": 20, "pad": 20, "bump": 20, "fill": 60}
    signal = {"peak": 3.0, "pad": 0.0, "bump": 1.0}
    vocab: dict[str, int] = {}
    rows = []
    for pool, count in pools.items():
        noise = rng.uniform(-1, 1, size=(count, dim))
        noise -= noise.mean(axis=0)
        if pool in signal:
            noise[:, max_dim] = signal[pool]
        for i in range(count):
            vocab[f"{pool}{i}"] = len(rows)
            rows.append(noise[i])

    def draw(pool: str, k: int) -> list[str]:
        return [f"{pool}{j}" for j in rng.integers(0, pools[pool], size=k)]

    items = []
    for idx in range(n_sentences):
        spiked = idx % 2 == 0
        if spiked:
            tokens = draw("peak", 1) + draw("pad", 2)
        else:
            tokens = draw("bump", 3)
        tokens += draw("fill", SENT_LEN - 3)
        rng.shuffle(tokens)
        items.append(("hi" if spiked else "lo", " ".join(tokens)))

    space = EmbeddingSpace("spikes", vocab, np.stack(rows))
    task = TaskDataset(name="spikes", items=items, metric_kind="accuracy")
    return space, task


class TestMonolingual:
    def test_max_signal_needs_max_pooling(self):
        space, task = make_max_signal_task(seed=9)
        proto = TrainProtocol(runs=6, max_epochs=20, seed=1)
        mean_only = evaluate_monolingual(PooledConfig([PooledPart(space, [1.0])]), task, proto)
        with_max = evaluate_monolingual(PooledConfig([PooledPart(space, [1.0, INF])]), task, proto)
        assert abs(mean_only.mean - 0.5) < 0.15  # mean pooling is blind here
        assert with_max.mean >= 0.95

    def test_label_shuffle_goes_to_chance(self):
        space, task = make_blobs_task(seed=4, n_sentences=200)
        rng = np.random.default_rng(0)
        labels = [lab for lab, _ in task.items]
        rng.shuffle(labels)
        shuffled = TaskDataset(task.name,
                               [(lab, text) for lab, (_, text) in zip(labels, task.items)],
                               task.metric_kind)
        score = evaluate_monolingual(PooledConfig([PooledPart(space, [1.0])]), shuffled, FAST)
        n_test = int(0.2 * len(shuffled.items))
        assert abs(score.mean - 0.5) <= 3 * math.sqrt(0.25 / n_test) + 0.05

    def test_identical_invocations_identical_scores(self):
        space, task = make_blobs_task(seed=4, n_sentences=80)
        cfg = PooledConfig([PooledPart(space, [1.0])])
        assert evaluate_monolingual(cfg, task, FAST) == evaluate_monolingual(cfg, task, FAST)

    def test_language_tag_mismatch_rejected(self):
        space, task = make_blobs_task(seed=4, n_sentences=40, language_tag="de")
        task_en = replace(task, language_tag="en")
        with pytest.raises(InputError, match="tagged"):
            evaluate_monolingual(PooledConfig([PooledPart(space, [1.0])]), task_en, FAST)

    def test_item_order_does_not_change_scores(self):
        space, task = make_blobs_task(seed=4, n_sentences=80)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(task.items))
        shuffled = TaskDataset(task.name, [task.items[i] for i in perm], task.metric_kind)
        cfg = PooledConfig([PooledPart(space, [1.0])])
        assert evaluate_monolingual(cfg, task, FAST) == evaluate_monolingual(cfg, shuffled, FAST)


@pytest.fixture(scope="module")
def swap_setup():
    space, task = make_blobs_task(seed=5)
    bilingual = merge_spaces(space, twin_space(space, "_f"), "bi")
    pair = TransferPair(train=task, test=swap_dictionary(task, "_f"))
    return space, bilingual, pair


class TestTransfer:
    def test_dictionary_swap_has_tiny_drop(self, swap_setup):
        _, bilingual, pair = swap_setup
        cfg = PooledConfig([PooledPart(bilingual, [1.0, INF])])
        res = evaluate_transfer(cfg, cfg, pair, FAST)
        assert res.drop <= 0.02
        assert res.drop == res.in_language.mean - res.cross.mean  # definitional

    def test_untrained_projection_near_chance_source_signal_intact(self):
        space, task = make_quad_blobs_task(seed=5)
        tgt_space = twin_space(space, "_f", language_tag="xx")
        pair = TransferPair(train=task, test=swap_dictionary(task, "_f", language_tag="xx"))
        model = init_projection(space.dim, space.dim, space.dim, seed=13)
        cfg_s = PooledConfig([PooledPart(project_space(model, "source", space), [1.0, INF])])
        cfg_t = PooledConfig([PooledPart(project_space(model, "target", tgt_space), [1.0, INF])])
        res = evaluate_transfer(cfg_s, cfg_t, pair, FAST)
        band = 3 * math.sqrt(0.25 * 0.75 / len(pair.test.items))
        assert res.in_language.mean >= 0.9
        assert abs(res.cross.mean - 0.25) <= band

    def test_fitted_models_ignore_target_data(self, swap_setup):
        # leakage guard: the fit stage takes source data only, and the cross
        # score is exactly those source-only fits scored on the target task
        _, bilingual, pair = swap_setup
        cfg = PooledConfig([PooledPart(bilingual, [1.0])])
        src = sorted(pair.train.items)
        X, _ = embed_corpus(cfg, [text for _, text in src])
        classes = pair.train.classes
        y = [classes.index(label) for label, _ in src]
        znorm = replace(FAST, znorm=True)
        runs = fit_runs(X, y, classes, znorm)
        runs_again = fit_runs(X, y, classes, znorm)
        for (m1, z1, t1), (m2, z2, t2) in zip(runs, runs_again):
            assert np.array_equal(m1.weights, m2.weights)
            assert np.array_equal(z1.mean, z2.mean)
            assert np.array_equal(t1, t2)
        tgt = sorted(pair.test.items)
        X_tgt, _ = embed_corpus(cfg, [text for _, text in tgt])
        cross = score_runs(runs, X_tgt, [classes.index(label) for label, _ in tgt],
                           pair.test.metric_kind)
        assert evaluate_transfer(cfg, cfg, pair, znorm).cross == cross

    @pytest.mark.parametrize("znorm", [False, True])
    def test_in_language_equals_monolingual_source_score(self, swap_setup, znorm):
        _, bilingual, pair = swap_setup
        cfg = PooledConfig([PooledPart(bilingual, [1.0, INF])])
        protocol = replace(FAST, znorm=znorm)
        res = evaluate_transfer(cfg, cfg, pair, protocol)
        mono = evaluate_monolingual(cfg, pair.train, protocol)
        assert res.in_language == mono
        assert res.in_language.per_run == mono.per_run

    def test_each_run_is_fit_once(self, swap_setup, monkeypatch):
        _, bilingual, pair = swap_setup
        cfg = PooledConfig([PooledPart(bilingual, [1.0])])
        calls = []
        original = pmean.classifier.fit

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pmean.classifier, "fit", counting_fit)
        evaluate_transfer(cfg, cfg, pair, FAST)
        assert len(calls) == FAST.runs

    def test_source_language_tag_mismatch_rejected_before_training(self, monkeypatch):
        space, task = make_blobs_task(seed=4, n_sentences=40, language_tag="de")
        task_en = replace(task, language_tag="en")
        cfg = PooledConfig([PooledPart(space, [1.0])])
        monkeypatch.setattr(pmean.classifier, "fit", None)  # training would raise TypeError
        with pytest.raises(InputError, match="tagged"):
            evaluate_transfer(cfg, cfg, TransferPair(train=task_en, test=task), FAST)

    def test_mismatched_configs_rejected(self, swap_setup):
        space, bilingual, pair = swap_setup
        cfg_a = PooledConfig([PooledPart(bilingual, [1.0, INF])])
        cfg_b = PooledConfig([PooledPart(bilingual, [1.0])])
        with pytest.raises(DimensionError):
            evaluate_transfer(cfg_a, cfg_b, pair, FAST)

    def test_class_sets_must_align(self, swap_setup):
        _, _, pair = swap_setup
        other = TaskDataset("other", [("x", "a"), ("y", "b")], "accuracy")
        with pytest.raises(InputError):
            TransferPair(train=pair.train, test=other)

    def test_metrics_must_match(self, swap_setup):
        _, _, pair = swap_setup
        other = replace(pair.test, metric_kind="macro_f1")
        with pytest.raises(InputError, match="metrics must be identical"):
            TransferPair(train=pair.train, test=other)
        with pytest.raises(InputError, match="metrics must be identical"):
            TransferPair(train=other, test=pair.train)


class TestSweep:
    def test_row_structure_and_order(self):
        space, task = make_blobs_task(seed=6, n_sentences=60)
        report = sweep_pmeans(spaces_config(space), [[1.0, INF, -INF], [1.0, INF, -INF, 3.0]],
                              [task], FAST)
        assert len(report.rows) == 2
        assert "[1,inf,-inf]" in report.rows[0].model
        assert "[1,inf,-inf,3]" in report.rows[1].model
        for row in report.rows:
            assert row.sigma == pytest.approx(np.mean([r.score for r in row.results]))

    def test_harmonic_pole_degrades_score(self):
        from pmean.synthetic import make_complementarity_task

        a, b, task = make_complementarity_task(seed=42)
        proto = TrainProtocol(runs=6, max_epochs=20, seed=7)
        report = sweep_pmeans(spaces_config(a, b), [[1.0, INF, -INF], [1.0, INF, -INF, -1.0]],
                              [task], proto)
        assert report.rows[1].sigma < report.rows[0].sigma

    def test_empty_task_list_rejected(self):
        space, _ = make_blobs_task(seed=6, n_sentences=40)
        with pytest.raises(InputError):
            sweep_pmeans(spaces_config(space), [[1.0]], [], FAST)

    def test_transfer_pair_rows_get_drop(self, swap_setup):
        _, bilingual, pair = swap_setup
        report = sweep_pmeans(spaces_config(bilingual), [[1.0]], [pair], FAST)
        cell = report.rows[0].results[0]
        assert cell.drop is not None
        assert cell.drop == pytest.approx(cell.in_language - cell.score, abs=1e-15)

    def test_rows_keep_each_space_once_and_the_pooling_options(self, monkeypatch):
        space, task = make_blobs_task(seed=6, n_sentences=40)
        cfg = PooledConfig([PooledPart(space, [1.0]), PooledPart(space, [INF])],
                           lowercase=False, oov="zero", strict=True)
        seen = []
        real = pmean.evaluation.embed_corpus
        monkeypatch.setattr(pmean.evaluation, "embed_corpus",
                            lambda c, texts: seen.append(c) or real(c, texts))
        report = sweep_pmeans(cfg, [[1.0, -INF], [3.0]], [task], FAST)
        assert [row.model for row in report.rows] == [f"{space.name}[1,-inf]",
                                                      f"{space.name}[3]"]
        assert [(c.lowercase, c.oov, c.strict) for c in seen] == [(False, "zero", True)] * 2


REPORT_SCORE = st.floats(0.0, 1.0)


@st.composite
def report_texts(draw):
    """``emit_report``'s JSON for 1-3 rows of the same 1-3 tasks, each a transfer cell or not."""
    n_tasks = draw(st.integers(1, 3))
    metrics = draw(st.lists(st.sampled_from(["accuracy", "macro_f1"]),
                            min_size=n_tasks, max_size=n_tasks))
    transfer = draw(st.lists(st.booleans(), min_size=n_tasks, max_size=n_tasks))
    rows = [ReportRow(f"m{i}", [
        TaskResult(f"t{j}", metrics[j], draw(REPORT_SCORE), draw(REPORT_SCORE),
                   in_language=draw(REPORT_SCORE) if transfer[j] else None)
        for j in range(n_tasks)]) for i in range(draw(st.integers(1, 3)))]
    return emit_report(EvalReport(rows), "json")


class TestReports:
    def make_report(self):
        return EvalReport(rows=[
            ReportRow("m1", [
                TaskResult("t1", "accuracy", 0.732, 0.05, in_language=0.782),
                TaskResult("t2", "macro_f1", 0.5, 0.01),
            ]),
            ReportRow("m2", [
                TaskResult("t1", "accuracy", 0.9, 0.0, in_language=0.95),
                TaskResult("t2", "macro_f1", 0.7, 0.02),
            ]),
        ])

    def test_json_round_trip(self):
        report = self.make_report()
        assert parse_report(emit_report(report, "json")) == report

    def test_markdown_shape(self):
        text = emit_report(self.make_report(), "markdown")
        lines = text.strip().splitlines()
        assert lines[0] == "| Model | Σ | t1 | t2 |"
        assert "73.2 (5.0)" in lines[2]
        assert "50.0" in lines[2]

    def test_sigma_is_mean_of_row_scores(self):
        report = self.make_report()
        assert report.rows[0].sigma == pytest.approx((0.732 + 0.5) / 2, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(text=report_texts(), data=st.data())
    def test_round_trip_and_stored_sigma_and_drop_checked(self, text, data):
        assert emit_report(parse_report(text), "json") == text
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        pick = lambda values: data.draw(st.sampled_from(values))

        doc = json.loads(text)
        pick(doc["rows"])["sigma"] += sign * 0.5e-12  # within the tolerance
        parse_report(json.dumps(doc))

        doc = json.loads(text)
        pick(doc["rows"])["sigma"] += sign * 2e-12
        with pytest.raises(InputError, match="sigma"):
            parse_report(json.dumps(doc))

        doc = json.loads(text)
        transfer_cells = [t for row in doc["rows"] for t in row["tasks"] if t["drop"] is not None]
        if transfer_cells:
            pick(transfer_cells)["drop"] += sign * 2e-12
            with pytest.raises(InputError, match="drop"):
                parse_report(json.dumps(doc))

        doc = json.loads(text)
        cell = pick([t for row in doc["rows"] for t in row["tasks"]])
        cell["in_language"], cell["drop"] = None, data.draw(REPORT_SCORE)
        with pytest.raises(InputError, match="drop"):
            parse_report(json.dumps(doc))

    def test_unknown_version_rejected(self):
        text = emit_report(self.make_report(), "json").replace('"version": 1', '"version": 2')
        with pytest.raises(FormatError, match="version"):
            parse_report(text)

    @pytest.mark.parametrize("mangle, message", [
        (lambda doc: [doc], "report: expected a JSON object, got list"),
        (lambda doc: {**doc, "rows": [{k: v for k, v in doc["rows"][0].items() if k != "tasks"}]},
         "report has no 'tasks' key"),
        (lambda doc: {**doc, "rows": [["m1"]]}, "report has a malformed entry: "),
        (lambda doc: {**doc, "rows": []}, "report has no rows"),
    ], ids=["list", "row-without-tasks", "row-is-a-list", "no-rows"])
    def test_malformed_report_raises_format_error(self, mangle, message):
        doc = json.loads(emit_report(self.make_report(), "json"))
        with pytest.raises(FormatError) as exc:
            parse_report(json.dumps(mangle(doc)))
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("where, key, value", [
        ("task", "score", math.nan),
        ("task", "score", math.inf),
        ("task", "std", -math.inf),
        ("task", "score", True),
        ("task", "score", "0.5"),
        ("task", "score", None),
        ("task", "score", 10**400),
        ("task", "in_language", False),
        ("task", "drop", "0"),
        ("row", "sigma", True),
        ("row", "sigma", None),
        ("row", "sigma", math.nan),
        ("task", "metric", "bogus"),
        ("task", "metric", None),
        ("row", "model", 5),
        ("task", "task", ["x"]),
        ("task", "task", None),
    ])
    def test_field_emit_report_never_writes_raises_format_error_naming_it(self, where, key,
                                                                          value):
        doc = json.loads(emit_report(self.make_report(), "json"))
        row = doc["rows"][0]
        (row if where == "row" else row["tasks"][0])[key] = value
        with pytest.raises(FormatError, match=f"report field '{key}'"):
            parse_report(json.dumps(doc))

    def test_unknown_format_rejected(self):
        with pytest.raises(InputError):
            emit_report(self.make_report(), "yaml")

    def test_a_parsed_report_with_another_task_in_a_column_is_rejected(self):
        # row m2 scoring task u where m1 scores t1 would print u's score under t1
        doc = json.loads(emit_report(self.make_report(), "json"))
        doc["rows"][1]["tasks"][0]["task"] = "u"
        with pytest.raises(InputError, match="report row 'm2' has task cells"):
            parse_report(json.dumps(doc))

    @pytest.mark.parametrize("keep, message", [
        (lambda rows: [rows[0], ReportRow("m2", rows[1].results[:1])], "has task cells"),
        (lambda rows: [rows[0], ReportRow("m2", rows[1].results[::-1])], "has task cells"),
        (lambda rows: [rows[0], ReportRow("m2", [replace(rows[1].results[0], metric="macro_f1"),
                                                 rows[1].results[1]])], "has task cells"),
        (lambda rows: [], "report has no rows"),
    ], ids=["fewer-tasks", "other-order", "other-metric", "no-rows"])
    def test_a_report_is_one_table(self, keep, message):
        with pytest.raises(InputError, match=message):
            EvalReport(keep(self.make_report().rows))

    def test_markdown_escapes_a_pipe_in_model_and_task_names(self):
        report = EvalReport([ReportRow("a|b[1]", [TaskResult("x|y", "accuracy", 0.5, 0.0)])])
        lines = emit_report(report, "markdown").splitlines()
        assert lines[0] == r"| Model | Σ | x\|y |"
        assert lines[2] == r"| a\|b[1] | 50.0 | 50.0 |"


TWO_ITEMS = [("a", "s1"), ("b", "s2")]


@pytest.mark.parametrize("build, message", [
    (lambda: TaskDataset("t", []), "task 't': no items"),
    (lambda: TaskDataset("t", [("a", "s1"), ("a", "s2")]), "task 't': needs at least 2 classes"),
    (lambda: TaskDataset("t", TWO_ITEMS, metric_kind="rmse"), "task 't': unknown metric 'rmse'"),
    (lambda: ReportRow("m", []), "report row has no task results"),
    (lambda: sweep_pmeans(spaces_config(EmbeddingSpace("s", {"s1": 0}, np.ones((1, 2)))), [],
                          [TaskDataset("t", TWO_ITEMS)], FAST),
     "sweep needs at least one p-value set"),
], ids=["no-items", "one-class", "unknown-metric", "row-without-results", "no-p-sets"])
def test_what_evaluation_cannot_score_raises_input_error(build, message):
    with pytest.raises(InputError, match=re.escape(message)):
        build()


def test_merge_spaces_rejects_overlapping_tokens():
    a = EmbeddingSpace("a", {"x": 0, "y": 1}, np.ones((2, 2)))
    b = EmbeddingSpace("b", {"y": 0}, np.ones((1, 2)))
    with pytest.raises(ValueError, match=re.escape("overlapping tokens: ['y']")):
        merge_spaces(a, b, "ab")
