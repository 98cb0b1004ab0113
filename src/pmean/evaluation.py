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

import json
import logging
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classifier import (
    ACCURACY,
    METRICS,
    EvalScore,
    TrainProtocol,
    fit_runs,
    score_runs,
)
from .errors import DimensionError, FormatError, InputError
from .pooling import PooledConfig, PooledPart, embed_corpus
from .textio import read_lines

REPORT_FORMAT_VERSION = 1

logger = logging.getLogger(__name__)


@dataclass
class TaskDataset:
    """Labeled sentences with their class set and scoring metric."""

    name: str
    classes: list
    items: list[tuple]  # (label, sentence text)
    metric_kind: str = ACCURACY
    language_tag: str | None = None

    def __post_init__(self):
        if len(self.classes) < 2:
            raise InputError(f"task {self.name!r}: needs at least 2 classes")
        if not self.items:
            raise InputError(f"task {self.name!r}: no items")
        if self.metric_kind not in METRICS:
            raise InputError(f"task {self.name!r}: unknown metric {self.metric_kind!r}")
        class_set = set(self.classes)
        for label, _ in self.items:
            if label not in class_set:
                raise InputError(f"task {self.name!r}: item label {label!r} not in class set")


@dataclass
class TransferPair:
    """A training task and its other-language counterpart with aligned classes."""

    train: TaskDataset
    test: TaskDataset

    def __post_init__(self):
        # both tasks are scored through their sorted classes, so line order is free
        if sorted(self.train.classes) != sorted(self.test.classes):
            raise InputError(
                f"transfer pair {self.train.name!r}/{self.test.name!r}: "
                "class sets must be identical"
            )


def load_task(path) -> TaskDataset:
    """Parse one task file; classes are inferred in first-appearance order."""
    path = Path(path)
    name = None
    metric_kind = None
    lang = None
    classes: list = []
    items: list[tuple] = []
    for lineno, line in read_lines(path):
        if line.startswith("#"):
            if items:
                raise FormatError(f"{path}:{lineno}: header after data lines")
            key, _, value = line[1:].partition("=")
            if key == "name":
                name = value
            elif key == "metric":
                if value not in METRICS:
                    raise FormatError(f"{path}:{lineno}: metric must be one of {METRICS}")
                metric_kind = value
            elif key == "lang":
                lang = value
            else:
                raise FormatError(f"{path}:{lineno}: unknown header key {key!r}")
            continue
        if name is None or metric_kind is None:
            raise FormatError(f"{path}:{lineno}: #name= and #metric= must precede data")
        label, tab, text = line.partition("\t")
        if not tab or not label:
            raise FormatError(f"{path}:{lineno}: expected 'label<TAB>sentence'")
        if label not in classes:
            classes.append(label)
        items.append((label, text))
    if not items:
        raise FormatError(f"{path}: no data lines")
    if len(classes) < 2:
        raise FormatError(f"{path}: fewer than 2 classes")
    counts = Counter(label for label, _ in items)
    logger.info("%s: task %r, %d items, per-class counts %s", path, name, len(items),
                dict(counts))
    return TaskDataset(name=name, classes=classes, items=items,
                       metric_kind=metric_kind, language_tag=lang)


def save_task(ds: TaskDataset, path) -> None:
    """Write a task file that ``load_task`` reads back as ``ds``.

    Name, metric, language tag and items come back equal; the classes come
    back in first-appearance order, which the format does not record
    otherwise (scoring sorts them). A line that ends in ``\r`` gets one more,
    because the reader drops one before ``\n``. Raises InputError for what
    the format cannot hold: a field that is not a string or holds ``\n``, a
    label that is empty, holds a TAB or starts with ``#``, a class without
    items, or text that is not encodable as UTF-8.
    """
    def field(what, value):
        if not isinstance(value, str) or "\n" in value:
            raise InputError(f"task {ds.name!r}: {what} {value!r} cannot be written to a "
                             "task file: not a string or holds a newline")
        return value

    used = {label for label, _ in ds.items}
    for cls in ds.classes:
        if cls not in used:
            raise InputError(f"task {ds.name!r}: class {cls!r} has no items, so a task file "
                             "cannot hold it")
    lines = [f"#name={field('name', ds.name)}", f"#metric={ds.metric_kind}"]
    if ds.language_tag is not None:
        lines.append(f"#lang={field('language tag', ds.language_tag)}")
    for label, text in ds.items:
        if not field("label", label) or "\t" in label or label.startswith("#"):
            raise InputError(f"task {ds.name!r}: label {label!r} cannot be written to a task "
                             "file: empty, holds a TAB or starts with '#'")
        lines.append(f"{label}\t{field('text', text)}")
    data = "".join(line + ("\r\n" if line.endswith("\r") else "\n") for line in lines)
    try:
        encoded = data.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputError(f"task {ds.name!r}: not encodable as UTF-8: {exc.reason}") from None
    Path(path).write_bytes(encoded)


def _canonical(ds: TaskDataset) -> tuple[np.ndarray, list[str], list]:
    """``(y, texts, classes)`` in sorted item order; y holds each label's index in
    the sorted classes. Labels become class indices here and nowhere else."""
    classes = sorted(ds.classes)
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
    in_language/drop are filled; monolingual cells leave them None.
    """

    task: str
    metric: str
    score: float
    std: float
    in_language: float | None = None
    drop: float | None = None

    def __post_init__(self):
        if (self.in_language is None) != (self.drop is None):
            raise InputError("in_language and drop must be set together")
        if self.drop is not None and abs(self.drop - (self.in_language - self.score)) > 1e-12:
            raise InputError(
                f"task {self.task!r}: drop {self.drop} != in_language - score "
                f"{self.in_language - self.score}"
            )


@dataclass
class ReportRow:
    model: str
    results: list[TaskResult]
    sigma: float

    def __post_init__(self):
        if not self.results:
            raise InputError("report row has no task results")
        expected = float(np.mean([r.score for r in self.results]))
        if abs(self.sigma - expected) > 1e-12:
            raise InputError(f"row {self.model!r}: sigma {self.sigma} != mean {expected}")

    @classmethod
    def from_results(cls, model: str, results: list[TaskResult]) -> "ReportRow":
        return cls(model=model, results=results,
                   sigma=float(np.mean([r.score for r in results])))


@dataclass
class EvalReport:
    rows: list[ReportRow]
    version: int = REPORT_FORMAT_VERSION


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
                results.append(TaskResult(
                    task=task.train.name,
                    metric=res.cross.metric,
                    score=res.cross.mean,
                    std=res.cross.std,
                    in_language=res.in_language.mean,
                    drop=res.drop,
                ))
            else:
                score = evaluate_monolingual(cfg_src, task, protocol)
                results.append(TaskResult(task=task.name, metric=score.metric,
                                          score=score.mean, std=score.std))
        report_rows.append(ReportRow.from_results(cfg_src.describe(), results))
    return EvalReport(rows=report_rows)


def sweep_pmeans(cfg: PooledConfig, p_sets: list[list[float]], tasks,
                 protocol: TrainProtocol) -> EvalReport:
    """Evaluate the config's spaces under different p-value sets, one row per set.

    Each row keeps the config's pooling options and its spaces, one per name
    in first-appearance order, and pools every space with that row's
    p-values; the config's own p-values are ignored. Transfer rows reuse the same
    config on both sides, so the spaces must be shared/bilingual.
    """
    spaces = {part.space.name: part.space for part in cfg.parts}.values()
    tasks = list(tasks)
    if not tasks:
        raise InputError("sweep needs at least one task")
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
            "version": report.version,
            "rows": [
                {
                    "model": row.model,
                    "sigma": row.sigma,
                    "tasks": [
                        {
                            "task": r.task,
                            "metric": r.metric,
                            "score": r.score,
                            "std": r.std,
                            "in_language": r.in_language,
                            "drop": r.drop,
                        }
                        for r in row.results
                    ],
                }
                for row in report.rows
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt != "markdown":
        raise InputError(f"unknown report format {fmt!r}")

    task_names = [r.task for r in report.rows[0].results]
    header = ["Model", "Σ", *task_names]
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in report.rows:
        cells = [row.model, f"{100 * row.sigma:.1f}"]
        for r in row.results:
            cell = f"{100 * r.score:.1f}"
            if r.drop is not None:
                cell += f" ({100 * r.drop:.1f})"
            cells.append(cell)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> EvalReport:
    """Inverse of emit_report(fmt="json"); rejects unknown versions and reports without rows."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"report is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"report must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != REPORT_FORMAT_VERSION:
        raise FormatError(f"unsupported report version {doc.get('version')!r}")
    try:
        rows = [
            ReportRow(model=row["model"], sigma=row["sigma"], results=[
                TaskResult(task=t["task"], metric=t["metric"], score=t["score"], std=t["std"],
                           in_language=t["in_language"], drop=t["drop"])
                for t in row["tasks"]
            ])
            for row in doc["rows"]
        ]
    except KeyError as exc:
        raise FormatError(f"report has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise FormatError(f"report has a malformed entry: {exc}") from None
    if not rows:
        raise FormatError("report has no rows")
    return EvalReport(rows=rows)
