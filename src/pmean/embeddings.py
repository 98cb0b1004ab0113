"""Word-embedding spaces: text-format loading, tokenization, and the OOV policy.

The text format is the common one-word-per-line layout: ``token v1 v2 ... vd``
with an optional first line ``count dim`` (auto-detected when it parses as
exactly two integers). UTF-8, LF or CRLF. A value is any text Python's
``float()`` accepts, and every row is parsed and checked, whether or not a
sentence uses it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, InputError
from .textio import read_lines

logger = logging.getLogger(__name__)


@dataclass
class EmbeddingSpace:
    """A named vocabulary with one dense vector per token.

    Immutable after construction; safe to share across threads.
    """

    name: str
    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray
    language_tag: str | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.dim <= 0:
            raise DimensionError(f"space {self.name!r}: dim must be positive, got {self.dim}")
        if self.matrix.shape != (len(self.vocab), self.dim):
            raise DimensionError(
                f"space {self.name!r}: matrix shape {self.matrix.shape} does not match "
                f"vocab size {len(self.vocab)} x dim {self.dim}"
            )
        if not np.isfinite(self.matrix).all():
            raise FormatError(f"space {self.name!r}: matrix contains non-finite entries")
        rows = sorted(self.vocab.values())
        if rows != list(range(len(self.vocab))):
            raise FormatError(f"space {self.name!r}: vocab indices are not a 0..n-1 range")
        if any(not tok for tok in self.vocab):
            raise FormatError(f"space {self.name!r}: empty token in vocab")

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def vector(self, token: str) -> np.ndarray:
        return self.matrix[self.vocab[token]]


@dataclass(frozen=True)
class TokenizerConfig:
    """Deterministic whitespace tokenizer with optional lowercasing."""

    lowercase: bool = True


@dataclass(frozen=True)
class OovPolicy:
    """What to do with tokens missing from a space's vocabulary.

    ``skip`` drops them, ``zero`` substitutes a zero vector. Sentences that
    end up with no rows at all fall back to a single zero row so downstream
    pooling stays total.
    """

    mode: str = "skip"

    def __post_init__(self):
        if self.mode not in ("skip", "zero"):
            raise InputError(f"unknown OOV mode {self.mode!r}")


def tokenize(cfg: TokenizerConfig, sentence: str) -> list[str]:
    """Split on any whitespace, drop empties, lowercase per config."""
    if cfg.lowercase:
        sentence = sentence.lower()
    return sentence.split()


def load_text_embeddings(
    path,
    name: str | None = None,
    language_tag: str | None = None,
) -> EmbeddingSpace:
    """Load a text-format embedding file into an EmbeddingSpace.

    Every row is parsed and checked, whether or not a sentence uses it.
    Duplicate tokens keep their first occurrence; the number skipped is
    reported through a warning. Ragged lines and non-finite values raise
    FormatError naming the offending line.

    numpy's C parser reads the numbers. A file it does not take whole goes to
    the per-line ``float()`` loop, which names the first bad line, or reads
    the spellings only ``float()`` accepts (``1_0``, non-ASCII digits).
    """
    path = Path(path)
    parsed = _parse_with_loadtxt(path)
    vocab, matrix, duplicates = parsed if parsed is not None else _parse_with_float(path)
    if duplicates:
        logger.warning("%s: skipped %d duplicate tokens (kept first occurrence)", path, duplicates)

    return EmbeddingSpace(
        name=name or path.stem,
        dim=matrix.shape[1],
        vocab=vocab,
        matrix=matrix,
        language_tag=language_tag,
    )


# left to the float() loop: numpy ends a line at "\r", and strips the
# separators "\x1c"-"\x1f" around a number, which float() rejects
_FLOAT_LOOP_CHARS = ("\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _parse_with_loadtxt(path: Path):
    """``(vocab, matrix, duplicates)`` with the numbers read by ``np.loadtxt``, or None.

    One pass over the lines skips the ``count dim`` header, checks each token,
    notes duplicates and feeds every row's value text to one ``np.loadtxt``
    call, which also rejects a change in the number of fields. None means
    ``_parse_with_float`` must decide: a line failed a check, a value did not
    parse, a value is non-finite, or the file holds no rows.
    """
    vocab: dict[str, int] = {}
    duplicate_rows: list[int] = []
    rejected = False

    def value_texts():
        nonlocal rejected
        for lineno, line in read_lines(path):
            token, _, values = line.partition(" ")
            if lineno == 1 and " " not in values and _is_int(token) and _is_int(values):
                continue  # word2vec-style count/dim header
            # an empty value text would be skipped by numpy as a blank line
            if not token or not values or any(c in values for c in _FLOAT_LOOP_CHARS):
                rejected = True
                return
            if token in vocab:
                duplicate_rows.append(len(vocab) + len(duplicate_rows))
            else:
                vocab[token] = len(vocab)
            yield values

    texts = value_texts()
    try:
        first = next(texts, None)
        if first is None:  # peeked, so numpy never warns about an empty input
            return None
        matrix = np.loadtxt(chain([first], texts), dtype=np.float64, comments=None,
                            delimiter=" ", ndmin=2)
    except ValueError:  # a value numpy rejects, ragged rows, or a FormatError (not UTF-8)
        return None
    if rejected or not np.isfinite(matrix).all():
        return None
    if duplicate_rows:
        keep = np.ones(len(matrix), dtype=bool)
        keep[duplicate_rows] = False
        matrix = matrix[keep]
    return vocab, matrix, len(duplicate_rows)


def _parse_with_float(path: Path):
    """``(vocab, matrix, duplicates)`` with every value read by ``float()``, line by line.

    The reference parser: it raises FormatError for the first bad line.
    """
    vocab: dict[str, int] = {}
    vectors: list[np.ndarray] = []
    dim: int | None = None
    duplicates = 0

    for lineno, line in read_lines(path):
        parts = line.split(" ")
        if lineno == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
            continue  # word2vec-style count/dim header
        token, values = parts[0], parts[1:]
        if not token or not values:
            raise FormatError(f"{path}:{lineno}: expected 'token v1 ... vd'")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if not np.isfinite(vec).all():
            raise FormatError(f"{path}:{lineno}: non-finite value")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise FormatError(f"{path}:{lineno}: vector length {len(vec)} != {dim} seen earlier")
        if token in vocab:
            duplicates += 1
            continue
        vocab[token] = len(vectors)
        vectors.append(vec)

    if dim is None:
        raise FormatError(f"{path}: no embedding rows found")
    return vocab, np.stack(vectors), duplicates


def save_text_embeddings(space: EmbeddingSpace, path) -> None:
    """Write a space back out in the text format (no header line).

    Floats are written with repr so a reload reproduces the matrix exactly.
    """
    order = sorted(space.vocab, key=space.vocab.get)
    with open(path, "w", encoding="utf-8") as fh:
        for token in order:
            row = space.matrix[space.vocab[token]]
            fh.write(token + " " + " ".join(repr(float(v)) for v in row) + "\n")


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True
