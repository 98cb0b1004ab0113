"""Task loading, monolingual and train-source/test-target evaluation, p-value
sweeps, and report emission.

Task file grammar (UTF-8, one item per line after the headers):

    #name=<task name>
    #metric=accuracy|macro_f1
    #lang=<tag>            (optional)
    <label>TAB<sentence text>

Before any seeded subsampling, items are canonicalized by lexicographic sort
and each label becomes its index in the sorted class set, so reshuffling a
task file never changes reported scores. The classifier sees only indices.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifier import (
    ACCURACY,
    METRICS,
    EvalScore,
    fit_runs,
    score_runs,
)
from .errors import DimensionError, FormatError, InputError
from .manifest import write_atomic
from .pooling import PooledConfig, PooledPart, embed_corpus
from .settings import TrainProtocol
from .textio import json_document, json_numbers, json_text, read_input, read_lines

REPORT_FORMAT_VERSION = 1

logger = logging.getLogger(__name__)


@dataclass
class TaskDataset:
    """Labeled sentences and their scoring metric; the classes are the sorted distinct labels."""

    name: str
    items: list[tuple]  # (label, sentence text)
    metric_kind: str = ACCURACY
    language_tag: str | None = None
    sha256: str | None = field(default=None, compare=False)  # of the bytes load_task parsed

    def __post_init__(self):
        if not self.items:
            raise InputError(f"task {self.name!r}: no items")
        if len(self.classes) < 2:
            raise InputError(f"task {self.name!r}: needs at least 2 classes")
        if self.metric_kind not in METRICS:
            raise InputError(f"task {self.name!r}: unknown metric {self.metric_kind!r}")

    @property
    def classes(self) -> list:
        return sorted({label for label, _ in self.items})


@dataclass
class TransferPair:
    """A training task and its other-language counterpart with aligned classes and one metric."""

    train: TaskDataset
    test: TaskDataset

    def __post_init__(self):
        pair = f"transfer pair {self.train.name!r}/{self.test.name!r}"
        if self.train.classes != self.test.classes:
            raise InputError(f"{pair}: class sets must be identical")
        if self.train.metric_kind != self.test.metric_kind:  # the drop subtracts one from the other
            raise InputError(f"{pair}: metrics must be identical, got "
                             f"{self.train.metric_kind!r} and {self.test.metric_kind!r}")


def load_task(path) -> TaskDataset:
    """Parse one task file; its classes are the sorted distinct labels.

    A repeated header key, or an empty ``#name=`` or ``#lang=``, raises
    FormatError naming its line.
    """
    path = Path(path)
    data, sha256 = read_input(path)
    headers: dict[str, str] = {}
    items: list[tuple] = []
    for lineno, line in read_lines(data, path):
        if line.startswith("#"):
            if items:
                raise FormatError(f"{path}:{lineno}: header after data lines")
            key, _, value = line[1:].partition("=")
            if key not in ("name", "metric", "lang"):
                raise FormatError(f"{path}:{lineno}: unknown header key {key!r}")
            if key in headers:
                raise FormatError(f"{path}:{lineno}: duplicate header key {key!r}")
            if key == "metric" and value not in METRICS:
                raise FormatError(f"{path}:{lineno}: metric must be one of {METRICS}")
            if key in ("name", "lang") and not value:
                raise FormatError(f"{path}:{lineno}: empty task {key}")
            headers[key] = value
            continue
        if "name" not in headers or "metric" not in headers:
            raise FormatError(f"{path}:{lineno}: #name= and #metric= must precede data")
        label, tab, text = line.partition("\t")
        if not tab or not label:
            raise FormatError(f"{path}:{lineno}: expected 'label<TAB>sentence'")
        items.append((label, text))
    if not items:
        raise FormatError(f"{path}: no data lines")
    counts = Counter(label for label, _ in items)
    if len(counts) < 2:
        raise FormatError(f"{path}: fewer than 2 classes")
    logger.info("%s: task %r, %d items, per-class counts %s", path, headers["name"],
                len(items), dict(counts))
    return TaskDataset(name=headers["name"], items=items, metric_kind=headers["metric"],
                       language_tag=headers.get("lang"), sha256=sha256)


def save_task(ds: TaskDataset, path) -> None:
    """Write a task file that ``load_task`` reads back as ``ds``, atomically.

    Name, metric, language tag and items come back equal, and so do the
    classes, which both derive from the items. A line that ends in ``\r``
    gets one more, because the reader drops one before ``\n``. Raises
    InputError for what the format cannot hold: a field that is not a string
    or holds ``\n``, an empty name or language tag, a label that is empty,
    holds a TAB or starts with ``#``, or text that is not encodable as UTF-8.
    """
    def writable(what, value, may_be_empty=False):
        if not isinstance(value, str) or "\n" in value or not (value or may_be_empty):
            raise InputError(f"task {ds.name!r}: {what} {value!r} cannot be written to a "
                             "task file: not a string, empty or holds a newline")
        return value

    lines = [f"#name={writable('name', ds.name)}", f"#metric={ds.metric_kind}"]
    if ds.language_tag is not None:
        lines.append(f"#lang={writable('language tag', ds.language_tag)}")
    for label, text in ds.items:
        if "\t" in writable("label", label) or label.startswith("#"):
            raise InputError(f"task {ds.name!r}: label {label!r} cannot be written to a task "
                             "file: holds a TAB or starts with '#'")
        lines.append(f"{label}\t{writable('text', text, may_be_empty=True)}")
    data = "".join(line + ("\r\n" if line.endswith("\r") else "\n") for line in lines)
    try:
        write_atomic(path, data)
    except UnicodeEncodeError as exc:
        raise InputError(f"task {ds.name!r}: not encodable as UTF-8: {exc.reason}") from None


def _canonical(ds: TaskDataset) -> tuple[np.ndarray, list[str], list]:
    """``(y, texts, classes)`` in sorted item order; y holds each label's index in
    the sorted classes. Labels become class indices here and nowhere else."""
    classes = ds.classes
    index = {label: i for i, label in enumerate(classes)}
    items = sorted(ds.items)
    y = np.array([index[label] for label, _ in items], dtype=np.intp)
    return y, [text for _, text in items], classes


def _check_language(cfg: PooledConfig, ds: TaskDataset) -> None:
    """Reject a space tagged with another language than the task's.

    An untagged space (or task) counts as shared/bilingual.
    """
    for part in cfg.parts:
        tag = part.space.language_tag
        if tag is not None and ds.language_tag is not None and tag != ds.language_tag:
            raise InputError(
                f"space {part.space.name!r} is tagged {tag!r} but task "
                f"{ds.name!r} is {ds.language_tag!r}"
            )


def _fit_task(cfg, ds, protocol):
    """Embed a task and fit its subsample runs; returns (runs, X, y)."""
    y, texts, classes = _canonical(ds)
    X, _ = embed_corpus(cfg, texts)
    return fit_runs(X, y, classes, protocol, ds.metric_kind), X, y


def evaluate_monolingual(cfg: PooledConfig, ds: TaskDataset,
                         protocol: TrainProtocol) -> EvalScore:
    """Embed a task and score each subsample run on its own held-out rows."""
    _check_language(cfg, ds)
    runs, X, y = _fit_task(cfg, ds, protocol)
    return score_runs(runs, X, y, ds.metric_kind, held_out=True)


def _check_aligned_configs(cfg_src: PooledConfig, cfg_tgt: PooledConfig) -> None:
    if len(cfg_src.parts) != len(cfg_tgt.parts):
        raise DimensionError("source and target configs have different part counts")
    for a, b in zip(cfg_src.parts, cfg_tgt.parts):
        if a.p_values != b.p_values or a.space.dim != b.space.dim:
            raise DimensionError(
                f"config parts {a.space.name!r} and {b.space.name!r} differ in "
                "p-values or dimensionality"
            )


@dataclass
class TransferResult:
    cross: EvalScore
    in_language: EvalScore

    @property
    def drop(self) -> float:
        return self.in_language.mean - self.cross.mean


def evaluate_transfer(
    cfg_src: PooledConfig,
    cfg_tgt: PooledConfig,
    pair: TransferPair,
    protocol: TrainProtocol,
) -> TransferResult:
    """Train on the source-language task, score on the target-language one.

    The per-run classifiers (and z-norm stats) are fit once, from
    source-language data only. Each is scored on its held-out source rows
    (in_language, identical to evaluate_monolingual on the source task) and on
    the full target test set (cross); target data never enters the fit.
    """
    _check_aligned_configs(cfg_src, cfg_tgt)
    _check_language(cfg_src, pair.train)
    _check_language(cfg_tgt, pair.test)
    runs, X, y = _fit_task(cfg_src, pair.train, protocol)
    in_language = score_runs(runs, X, y, pair.train.metric_kind, held_out=True)
    y_tgt, texts_tgt, _ = _canonical(pair.test)
    X_tgt, _ = embed_corpus(cfg_tgt, texts_tgt)
    cross = score_runs(runs, X_tgt, y_tgt, pair.test.metric_kind)
    return TransferResult(cross=cross, in_language=in_language)


# --- reports ------------------------------------------------------------------


@dataclass
class TaskResult:
    """One task cell of a report row; score is the headline number.

    For transfer cells the headline is the cross-language score and
    in_language is filled; monolingual cells leave it None, and so their drop.
    Its fields and drop are the keys of a task in the report JSON.
    """

    task: str
    metric: str
    score: float
    std: float
    in_language: float | None = None

    @property
    def drop(self) -> float | None:
        return None if self.in_language is None else self.in_language - self.score


@dataclass
class ReportRow:
    """One model's task cells; sigma is the mean of their scores."""

    model: str
    results: list[TaskResult]

    def __post_init__(self):
        if not self.results:
            raise InputError("report row has no task results")

    @property
    def sigma(self) -> float:
        return float(np.mean([r.score for r in self.results]))


@dataclass
class EvalReport:
    """One table: at least one row, each naming the same (task, metric) cells in order."""

    rows: list[ReportRow]

    def __post_init__(self):
        if not self.rows:
            raise InputError("report has no rows")
        first = [(r.task, r.metric) for r in self.rows[0].results]
        for row in self.rows[1:]:
            if (cells := [(r.task, r.metric) for r in row.results]) != first:
                raise InputError(f"report row {row.model!r} has task cells {cells}, "
                                 f"not the first row's {first}")


def evaluate_report(rows, tasks, protocol: TrainProtocol) -> EvalReport:
    """Score every task under every (source config, target config) row.

    This builds every report. A TaskDataset cell is scored monolingually with
    the source config; a TransferPair cell trains with the source config and
    tests with the target config (cross score, in-language score and drop).
    Each row is named after its source config.
    """
    tasks = list(tasks)
    report_rows = []
    for cfg_src, cfg_tgt in rows:
        results = []
        for task in tasks:
            if isinstance(task, TransferPair):
                res = evaluate_transfer(cfg_src, cfg_tgt, task, protocol)
                results.append(TaskResult(task.train.name, res.cross.metric, res.cross.mean,
                                          res.cross.std, in_language=res.in_language.mean))
            else:
                score = evaluate_monolingual(cfg_src, task, protocol)
                results.append(TaskResult(task=task.name, metric=score.metric,
                                          score=score.mean, std=score.std))
        report_rows.append(ReportRow(cfg_src.describe(), results))
    return EvalReport(rows=report_rows)


def sweep_pmeans(cfg: PooledConfig, p_sets: list[list[float]], tasks,
                 protocol: TrainProtocol) -> EvalReport:
    """Evaluate the config's spaces under different p-value sets, one row per set.

    Each row keeps the config's pooling options and its spaces, one per name
    in first-appearance order, and pools every space with that row's
    p-values; the config's own p-values are ignored. Transfer rows reuse the same
    config on both sides, so the spaces must be shared/bilingual. Each task
    names a column, so two tasks of one name raise InputError.
    """
    spaces = {part.space.name: part.space for part in cfg.parts}.values()
    tasks = list(tasks)
    if not tasks:
        raise InputError("sweep needs at least one task")
    names = [t.train.name if isinstance(t, TransferPair) else t.name for t in tasks]
    if len(set(names)) < len(names):
        raise InputError(f"sweep: each task needs a name of its own, got {names}")
    if not p_sets:
        raise InputError("sweep needs at least one p-value set")
    cfgs = [replace(cfg, parts=[PooledPart(sp, list(p_set)) for sp in spaces])
            for p_set in p_sets]
    return evaluate_report([(c, c) for c in cfgs], tasks, protocol)


def emit_report(report: EvalReport, fmt: str) -> str:
    """Render a report as versioned JSON or a markdown table.

    Markdown shows percentages with the cross-language drop in parentheses;
    JSON keeps raw [0, 1] floats and round-trips via parse_report.
    """
    if fmt == "json":
        doc = {
            "version": REPORT_FORMAT_VERSION,
            "rows": [
                {
                    "model": row.model,
                    "sigma": row.sigma,
                    "tasks": [{**asdict(r), "drop": r.drop} for r in row.results],
                }
                for row in report.rows
            ],
        }
        return json_text(doc, 2, sort_keys=True)
    if fmt != "markdown":
        raise InputError(f"unknown report format {fmt!r}")

    # GitHub-flavoured markdown reads "\|" in a cell as text, not as a column break
    header = ["Model", "Σ", *(r.task.replace("|", r"\|") for r in report.rows[0].results)]
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in report.rows:
        cells = [row.model.replace("|", r"\|"), f"{100 * row.sigma:.1f}"]
        for r in row.results:
            cell = f"{100 * r.score:.1f}"
            if r.drop is not None:
                cell += f" ({100 * r.drop:.1f})"
            cells.append(cell)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> EvalReport:
    """Inverse of emit_report(fmt="json"); rejects what it never writes.

    FormatError: what ``json_document`` rejects, no rows, a missing key, a
    metric not in METRICS, a ``model`` or ``task`` that is not a string, or a
    number field that is not a finite JSON number (``in_language`` and
    ``drop`` may be null). InputError: a stored sigma or
    drop more than 1e-12 from the one the scores give, a drop without an
    in_language, or rows that are not one table.
    """
    doc = json_document(text, "report", "version", REPORT_FORMAT_VERSION)
    try:
        rows = [_parse_row(row) for row in doc["rows"]]
    except KeyError as exc:
        raise FormatError(f"report has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise FormatError(f"report has a malformed entry: {exc}") from None
    if not rows:
        raise FormatError("report has no rows")
    return EvalReport(rows=rows)


def _parse_row(row) -> ReportRow:
    """One JSON row, its stored sigma and drops checked against those its scores give."""
    results, drops = [], []
    for t in row["tasks"]:
        if t["metric"] not in METRICS:
            raise FormatError(f"report field 'metric' is {t['metric']!r}, not one of {METRICS}")
        results.append(TaskResult(_string(t, "task"), t["metric"], _number(t, "score"),
                                  _number(t, "std"),
                                  in_language=_number(t, "in_language", nullable=True)))
        drops.append(_number(t, "drop", nullable=True))
    parsed = ReportRow(_string(row, "model"), results)
    for what, stored, derived in [("sigma", _number(row, "sigma"), parsed.sigma),
                                  *((f"drop of task {r.task!r}", d, r.drop)
                                    for d, r in zip(drops, results))]:
        if ((stored is None) != (derived is None)
                or stored is not None and abs(stored - derived) > 1e-12):
            raise InputError(f"row {parsed.model!r}: stored {what} {stored} is not {derived}, "
                             "the value its scores give")
    return parsed


def _string(entry: dict, key: str) -> str:
    """``entry[key]`` if it is a JSON string."""
    value = entry[key]
    if not isinstance(value, str):
        raise FormatError(f"report field {key!r} must be a string, got {value!r}")
    return value


def _number(entry: dict, key: str, nullable: bool = False) -> float | None:
    """``entry[key]`` as a float if it is a finite JSON number, None if null and ``nullable``."""
    value = entry[key]
    if nullable and value is None:
        return None
    try:
        number = float(json_numbers(value, 0))
        if math.isfinite(number):
            return number
    except (TypeError, OverflowError):  # not a number, or an integer past float range
        pass
    raise FormatError(f"report field {key!r} must be a finite number, got {value!r}")
