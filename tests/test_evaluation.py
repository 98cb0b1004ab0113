import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pmean.classifier
import pmean.evaluation
from pmean.classifier import TrainProtocol, fit_runs, score_runs
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
    make_blobs_task,
    make_max_signal_task,
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
        assert ds.classes == ["pos", "neg"]
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
                        "text newline", "name newline", "lang newline", "surrogate",
                        "class without items"]


@st.composite
def task_datasets(draw):
    """A writable TaskDataset, or one with a single drawn defect; returns (ds, defect)."""
    items = draw(st.lists(st.tuples(TASK_LABEL, TASK_TEXT), min_size=2, max_size=6))
    assume(len({label for label, _ in items}) >= 2)
    name, lang = draw(TASK_TEXT), draw(st.none() | TASK_TEXT)
    extra = []
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
    elif defect == "name newline":
        name += "\n"
    elif defect == "lang newline":
        lang = (lang or "") + "\n"
    elif defect == "class without items":
        extra = [label + "!"]
        assume(all(lab != extra[0] for lab, _ in items))
    items[i] = (label, text)
    classes = list(dict.fromkeys([lab for lab, _ in items] + extra))
    metric = draw(st.sampled_from(["accuracy", "macro_f1"]))
    return TaskDataset(name, classes, items, metric, language_tag=lang), defect


class TestSaveTask:
    def test_plain_task_bytes(self, tmp_path):
        ds = TaskDataset("t", ["pos", "neg"], [("pos", "good film"), ("neg", "bad\tfilm")],
                         "macro_f1", language_tag="en")
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
        ds = TaskDataset("t", list(dict.fromkeys(label for label, _ in items)), items)
        with pytest.raises(InputError, match=re.escape(match)):
            save_task(ds, tmp_path / "t.tsv")
        assert not (tmp_path / "t.tsv").exists()

    def test_class_without_items_raises(self, tmp_path):
        ds = TaskDataset("t", ["a", "b", "c"], [("a", "x"), ("b", "y")])
        with pytest.raises(InputError, match="class 'c' has no items"):
            save_task(ds, tmp_path / "t.tsv")

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
        # the file records no class order; load_task infers first appearance
        first_seen = list(dict.fromkeys(label for label, _ in ds.items))
        assert load_task(path) == TaskDataset(ds.name, first_seen, ds.items, ds.metric_kind,
                                              language_tag=ds.language_tag)


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
        shuffled = TaskDataset(task.name, task.classes,
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
        task_en = TaskDataset(task.name, task.classes, task.items,
                              task.metric_kind, language_tag="en")
        with pytest.raises(InputError, match="tagged"):
            evaluate_monolingual(PooledConfig([PooledPart(space, [1.0])]), task_en, FAST)

    def test_item_order_does_not_change_scores(self):
        space, task = make_blobs_task(seed=4, n_sentences=80)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(task.items))
        shuffled = TaskDataset(task.name, list(reversed(task.classes)),
                               [task.items[i] for i in perm], task.metric_kind)
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
        classes = sorted(pair.train.classes)
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
        task_en = TaskDataset(task.name, task.classes, task.items,
                              task.metric_kind, language_tag="en")
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
        other = TaskDataset("other", ["x", "y"], [("x", "a"), ("y", "b")], "accuracy")
        with pytest.raises(InputError):
            TransferPair(train=pair.train, test=other)


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


class TestReports:
    def make_report(self):
        return EvalReport(rows=[
            ReportRow.from_results("m1", [
                TaskResult("t1", "accuracy", 0.732, 0.05, in_language=0.782, drop=0.05),
                TaskResult("t2", "macro_f1", 0.5, 0.01),
            ]),
            ReportRow.from_results("m2", [
                TaskResult("t1", "accuracy", 0.9, 0.0, in_language=0.95, drop=0.05),
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

    def test_inconsistent_drop_rejected(self):
        with pytest.raises(InputError, match="drop"):
            TaskResult("t", "accuracy", 0.7, 0.0, in_language=0.8, drop=0.2)

    def test_inconsistent_sigma_rejected(self):
        with pytest.raises(InputError, match="sigma"):
            ReportRow(model="m", results=[TaskResult("t", "accuracy", 0.5, 0.0)], sigma=0.9)

    def test_unknown_version_rejected(self):
        text = emit_report(self.make_report(), "json").replace('"version": 1', '"version": 2')
        with pytest.raises(FormatError, match="version"):
            parse_report(text)

    @pytest.mark.parametrize("mangle, message", [
        (lambda doc: [doc], "report must be a JSON object, got list"),
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

    def test_unknown_format_rejected(self):
        with pytest.raises(InputError):
            emit_report(self.make_report(), "yaml")
