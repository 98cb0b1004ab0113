"""Word-embedding spaces: text-format loading, tokenization, and lookup.

The text format is the common one-word-per-line layout: ``token v1 v2 ... vd``
with an optional first line ``count dim`` (auto-detected when it parses as
exactly two integers). UTF-8, LF or CRLF.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
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


@dataclass
class LookupResult:
    """Rows for a token sequence plus per-call degradation metadata."""

    matrix: np.ndarray
    n_oov: int = 0
    used_fallback: bool = False


def tokenize(cfg: TokenizerConfig, sentence: str) -> list[str]:
    """Split on any whitespace, drop empties, lowercase per config."""
    if cfg.lowercase:
        sentence = sentence.lower()
    return sentence.split()


def lookup_sequence(space: EmbeddingSpace, tokens, policy: OovPolicy = OovPolicy()) -> LookupResult:
    """Resolve tokens to an n x dim matrix, degrading per the OOV policy.

    Never raises: an all-OOV (or empty) sequence yields one zero row with
    ``used_fallback`` set.
    """
    rows = []
    n_oov = 0
    for tok in tokens:
        idx = space.vocab.get(tok)
        if idx is None:
            n_oov += 1
            if policy.mode == "zero":
                rows.append(np.zeros(space.dim))
        else:
            rows.append(space.matrix[idx])
    if not rows:
        return LookupResult(np.zeros((1, space.dim)), n_oov=n_oov, used_fallback=True)
    return LookupResult(np.stack(rows), n_oov=n_oov)


def load_text_embeddings(
    path,
    name: str | None = None,
    language_tag: str | None = None,
) -> EmbeddingSpace:
    """Load a text-format embedding file into an EmbeddingSpace.

    Duplicate tokens keep their first occurrence; the number skipped is
    reported through a warning. Ragged lines and non-finite values raise
    FormatError naming the offending line.
    """
    path = Path(path)
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
    if duplicates:
        logger.warning("%s: skipped %d duplicate tokens (kept first occurrence)", path, duplicates)

    return EmbeddingSpace(
        name=name or path.stem,
        dim=dim,
        vocab=vocab,
        matrix=np.stack(vectors),
        language_tag=language_tag,
    )


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
