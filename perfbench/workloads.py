"""Seeded inputs, CLI arguments and output checks for the benchmark workloads.

Every input is generated from the workload seed into a fresh directory; pmean
only ever sees the generated files. Each workload's ``check`` parses the
command's outputs and raises ``CheckFailed`` when they are wrong.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

P_VALUES = (1.0, math.inf, -math.inf, 3.0)
P_SPEC = "1,inf,-inf,3"
ZIPF_A = 1.1

# Sizes per workload. "full" is what the benchmark measures; "tiny" keeps the
# self-check fast. Each full command takes a few seconds, so one run of the
# benchmark can take the median of several commands.
SIZES = {
    "full": {
        "embed-zipf": {"vocab": 3500, "dim": 300, "sentences": 350, "tokens": 20},
        "eval-transfer": {"dim": 300, "sentences": 400, "runs": 4},
        "train-projection": {"vocab": 5000, "dim": 100, "pairs": 1000, "tokens": 12,
                             "shared_dim": 100, "epochs": 30},
    },
    "tiny": {
        "embed-zipf": {"vocab": 300, "dim": 8, "sentences": 40, "tokens": 20},
        "eval-transfer": {"dim": 16, "sentences": 80, "runs": 2},
        "train-projection": {"vocab": 200, "dim": 16, "pairs": 200, "tokens": 12,
                             "shared_dim": 16, "epochs": 20},
    },
}

# in-language accuracy band the eval-transfer generator is tuned for
# (chance is 0.25 with four balanced classes)
ACCURACY_BAND = (0.40, 0.97)
LABEL_NOISE = 0.4


class CheckFailed(Exception):
    """An output of a pmean command is missing or wrong."""


@dataclass
class Workload:
    """One generated input set and the pmean command that consumes it."""

    name: str
    argv: list[str]
    items: int  # work units per command, for throughput
    outputs: list[Path]  # files written by one command, hashed after every run
    check: Callable[[], None]  # full output check; raises CheckFailed
    rows_used_share: float  # distinct known input tokens / vocabulary rows
    inputs: dict = field(default_factory=dict)  # file name -> {"bytes", "sha256"}


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build(name: str, seed: int, root: Path, size: str = "full") -> Workload:
    """Generate the inputs of one workload under ``root`` and describe its command."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "out").mkdir(exist_ok=True)
    sizes = SIZES[size][name]
    rng = np.random.default_rng([seed % 2**63, _WORKLOAD_IDS[name]])
    wl = _BUILDERS[name](rng, root, **sizes)
    for p in sorted(root.iterdir()):
        if p.is_file():
            wl.inputs[p.name] = {"bytes": p.stat().st_size, "sha256": sha256_of(p)}
            with open(p, "rb") as fh:  # no writeback of inputs while commands are timed
                os.fsync(fh.fileno())
    return wl


# --- text formats ------------------------------------------------------------


def write_vectors(path: Path, tokens: list[str], matrix: np.ndarray) -> None:
    """Write a ``count dim`` header plus one ``token v1 .. vd`` row per token.

    Values are written with six decimals and must lie in (-10, 10); the
    digits are assembled with numpy because per-value formatting in Python
    would dominate input generation.
    """
    n, d = matrix.shape
    micro = np.rint(matrix * 1e6).astype(np.int64)
    if np.abs(micro).max(initial=0) >= 10_000_000:
        raise ValueError("write_vectors supports |value| < 10 only")
    neg = micro < 0
    mag = np.abs(micro)
    field_ = np.empty((n, d, 10), dtype=np.uint8)
    field_[..., 0] = ord(" ")
    field_[..., 1] = np.where(neg, ord("-"), 0)  # 0 marks a byte to drop
    field_[..., 2] = ord("0") + mag // 1_000_000
    field_[..., 3] = ord(".")
    for k in range(6):
        field_[..., 4 + k] = ord("0") + (mag // 10 ** (5 - k)) % 10
    flat = field_.reshape(n, d * 10)
    with open(path, "wb") as fh:
        fh.write(f"{n} {d}\n".encode())
        for tok, row in zip(tokens, flat):
            fh.write(tok.encode() + row[row != 0].tobytes() + b"\n")


def read_vectors(path: Path, wanted: set[str]) -> dict[str, np.ndarray]:
    """Parse only the rows of ``wanted`` tokens from a text embedding file."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            token, _, rest = line.partition(" ")
            if lineno == 0 and token.isdigit():
                continue
            if token in wanted and token not in rows:
                rows[token] = np.array(rest.split(), dtype=np.float64)
    return rows


def zipf_ranks(rng: np.random.Generator, shape) -> np.ndarray:
    """Zipf(1.1) word ranks; ranks above the vocabulary size become OOV tokens."""
    return rng.zipf(ZIPF_A, size=shape)


def _used_share(ranks: np.ndarray, vocab: int) -> float:
    return float(np.unique(ranks[ranks <= vocab]).size / vocab)


def _config_line(space: str, path: str) -> str:
    return f"space={space} p={P_SPEC} path={path}\n"


# --- embed-zipf --------------------------------------------------------------


def _embed_zipf(rng, root: Path, vocab, dim, sentences, tokens) -> Workload:
    words = [f"w{k}" for k in range(1, vocab + 1)]
    for space in ("a", "b"):
        write_vectors(root / f"{space}.txt", words,
                      np.clip(rng.normal(0.0, 0.4, size=(vocab, dim)), -9.9, 9.9))
    (root / "embed.cfg").write_text(_config_line("a", "a.txt") + _config_line("b", "b.txt"))
    ranks = zipf_ranks(rng, (sentences, tokens))
    text = [" ".join(f"w{k}" for k in row) for row in ranks]
    (root / "sentences.txt").write_text("\n".join(text) + "\n")

    out = root / "out" / "emb.tsv"
    manifest = Path(str(out) + ".manifest.json")
    argv = ["embed", "--config", str(root / "embed.cfg"), "--input",
            str(root / "sentences.txt"), "--output", str(out), "--znorm"]

    def check() -> None:
        _check_embed(root, text, out, dim)
        doc = _load_json(manifest)
        if doc.get("command") != "embed" or len(doc.get("inputs", {})) != 4:
            raise CheckFailed("embed manifest lacks the command or its four inputs")

    return Workload("embed-zipf", argv, sentences, [out, manifest], check,
                    _used_share(ranks, vocab))


def oracle_pool(rows: dict[str, np.ndarray], sentence: str, dim: int) -> np.ndarray:
    """M_p per column, computed directly from parsed rows (skip-OOV policy)."""
    known = [rows[t] for t in sentence.split() if t in rows]
    if not known:
        return np.zeros(dim * len(P_VALUES))
    W = np.array(known)
    blocks = []
    for p in P_VALUES:
        if p == math.inf:
            blocks.append(W.max(axis=0))
        elif p == -math.inf:
            blocks.append(W.min(axis=0))
        else:
            mean = (W**p).sum(axis=0) / len(known)
            blocks.append(np.sign(mean) * np.abs(mean) ** (1.0 / p))
    return np.concatenate(blocks)


def _check_embed(root: Path, sentences: list[str], out: Path, dim: int) -> None:
    data = _read_bytes(out)
    if b"nan" in data or b"inf" in data:
        raise CheckFailed("embed output holds a non-finite value")
    lines = data.decode().splitlines()
    width = 2 * dim * len(P_VALUES)
    if len(lines) != len(sentences):
        raise CheckFailed(f"embed wrote {len(lines)} rows for {len(sentences)} sentences")
    bad = [i for i, line in enumerate(lines) if line.count("\t") != width - 1]
    if bad:
        raise CheckFailed(f"embed row {bad[0]} is not {width} values wide")

    wanted = {t for s in sentences for t in s.split()}
    spaces = [read_vectors(root / f"{s}.txt", wanted) for s in ("a", "b")]
    X = np.array([np.concatenate([oracle_pool(rows, s, dim) for rows in spaces])
                  for s in sentences])
    X = (X - X.mean(axis=0)) / np.maximum(X.std(axis=0), 1e-8)
    n = len(sentences)
    for i in sorted({0, n // 3, n // 2, (2 * n) // 3, n - 1}):
        got = np.array(lines[i].split("\t"), dtype=np.float64)
        if not np.allclose(got, X[i], rtol=1e-7, atol=1e-7):
            j = int(np.argmax(np.abs(got - X[i])))
            raise CheckFailed(f"embed row {i} column {j}: {float(got[j])!r} != oracle "
                              f"{float(X[i, j])!r}")


# --- eval-transfer -----------------------------------------------------------


def _eval_transfer(rng, root: Path, dim, sentences, runs) -> Workload:
    from pmean.embeddings import save_text_embeddings
    from pmean.evaluation import save_task
    from pmean.synthetic import make_quad_blobs_task, merge_spaces, swap_dictionary, twin_space

    space, task = make_quad_blobs_task(seed=int(rng.integers(2**31)),
                                       n_sentences=sentences, dim=dim)
    # Each class has its own tokens, so a 300-dim probe separates clean
    # classes perfectly; random labels on a share of the items keep the
    # accuracy between chance and 1.
    noisy = rng.random(len(task.items)) < LABEL_NOISE
    task.items = [(str(rng.choice(task.classes)) if flip else label, text)
                  for flip, (label, text) in zip(noisy, task.items)]
    bilingual = merge_spaces(space, twin_space(space, "_x"), "bi")
    save_text_embeddings(bilingual, root / "bi.txt")
    save_task(task, root / "train.tsv")
    save_task(swap_dictionary(task, "_x", name="quad_x"), root / "test.tsv")
    (root / "src.cfg").write_text(_config_line("bi", "bi.txt"))
    (root / "tgt.cfg").write_text(_config_line("bi", "bi.txt"))

    base = root / "out" / "report"
    argv = ["eval-transfer", "--source-config", str(root / "src.cfg"),
            "--target-config", str(root / "tgt.cfg"), "--train-task", str(root / "train.tsv"),
            "--test-task", str(root / "test.tsv"), "--out", str(base),
            "--znorm", "--runs", str(runs)]
    outputs = [base.with_suffix(s) for s in (".json", ".md", ".manifest.json")]

    def check() -> None:
        from pmean.errors import FormatError, InputError
        from pmean.evaluation import emit_report, parse_report

        text = _read_bytes(outputs[0]).decode()
        try:
            report = parse_report(text)
        except (FormatError, InputError, KeyError, TypeError) as exc:
            raise CheckFailed(f"report does not parse: {exc}") from None
        if emit_report(report, "json") != text:
            raise CheckFailed("report does not round-trip through parse_report")
        cell = report.rows[0].results[0]
        lo, hi = ACCURACY_BAND
        if cell.in_language is None or not lo <= cell.in_language <= hi:
            raise CheckFailed(f"in-language accuracy {cell.in_language} outside [{lo}, {hi}]")
        if not 0.0 <= cell.score <= 1.0:
            raise CheckFailed(f"cross-language accuracy {cell.score} outside [0, 1]")
        _read_bytes(outputs[1])
        if _load_json(outputs[2]).get("command") != "eval-transfer":
            raise CheckFailed("eval-transfer manifest names another command")

    used = {t for _, text in task.items for t in text.split()}
    share = 2 * len(used) / len(bilingual.vocab)  # the test task uses the twin of each
    return Workload("eval-transfer", argv, runs, outputs, check, share)


# --- train-projection --------------------------------------------------------


def _train_projection(rng, root: Path, vocab, dim, pairs, tokens, shared_dim,
                      epochs) -> Workload:
    from pmean.synthetic import random_orthogonal

    source = np.clip(rng.normal(0.0, 0.5, size=(vocab, dim)), -9.9, 9.9)
    q = random_orthogonal(rng, dim)
    target = np.clip(source @ q.T + 0.05 * rng.standard_normal((vocab, dim)), -9.9, 9.9)
    write_vectors(root / "src.txt", [f"s{k}" for k in range(1, vocab + 1)], source)
    write_vectors(root / "tgt.txt", [f"t{k}" for k in range(1, vocab + 1)], target)
    ranks = zipf_ranks(rng, (pairs, tokens))
    lines = [" ".join(f"s{k}" for k in row) + "\t" + " ".join(f"t{k}" for k in row)
             for row in ranks]
    (root / "pairs.tsv").write_text("\n".join(lines) + "\n")

    model = root / "out" / "model.json"
    history = root / "out" / "history.csv"
    argv = ["train-projection", "--source-embeddings", str(root / "src.txt"),
            "--target-embeddings", str(root / "tgt.txt"), "--pairs", str(root / "pairs.tsv"),
            "--model-out", str(model), "--history-out", str(history),
            "--shared-dim", str(shared_dim), "--epochs", str(epochs)]
    manifest = Path(str(model) + ".manifest.json")

    def check() -> None:
        rows = list(csv.reader(_read_bytes(history).decode().splitlines()))
        if rows[:1] != [["epoch", "mean_loss"]] or len(rows) != epochs + 1:
            raise CheckFailed(f"history has {len(rows) - 1} epoch lines, expected {epochs}")
        losses = [float(loss) for _, loss in rows[1:]]
        if not all(math.isfinite(v) for v in losses) or not losses[-1] < 0.5 * losses[0]:
            raise CheckFailed(f"final loss {losses[-1]} is not well below first {losses[0]}")
        doc = _load_json(model)
        if doc.get("dims") != {"e": dim, "f": dim, "d": shared_dim}:
            raise CheckFailed(f"model dims {doc.get('dims')} are wrong")
        if _load_json(manifest).get("command") != "train-projection":
            raise CheckFailed("train-projection manifest names another command")

    return Workload("train-projection", argv, pairs * epochs, [model, history, manifest],
                    check, _used_share(ranks, vocab))


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CheckFailed(f"missing output: {exc}") from None


def _load_json(path: Path) -> dict:
    try:
        return json.loads(_read_bytes(path))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name} is not JSON: {exc}") from None


_BUILDERS = {
    "embed-zipf": _embed_zipf,
    "eval-transfer": _eval_transfer,
    "train-projection": _train_projection,
}
_WORKLOAD_IDS = {name: i for i, name in enumerate(_BUILDERS)}
WORKLOADS = tuple(_BUILDERS)
