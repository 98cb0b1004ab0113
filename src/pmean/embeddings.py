"""Word-embedding spaces and their text-format loading.

The text format is the common one-word-per-line layout: ``token v1 v2 ... vd``
with an optional first line ``count dim`` (auto-detected when it parses as
exactly two integers). UTF-8 (a leading byte-order mark is skipped), LF or
CRLF. A value is any text Python's ``float()`` accepts, and every row is
parsed and checked, whether or not a sentence uses it.

A parse is done once per file content: its result is cached under
``${XDG_CACHE_HOME:-~/.cache}/pmean``, keyed by the SHA-256 of the file's bytes
and ``CACHE_VERSION``; a later load of the same bytes reads the entry instead,
and writing an entry removes the file's entries of other versions. Outputs
never depend on the cache: an entry that cannot be read or fails any check is
ignored and rewritten, an entry that is not a regular file (a FIFO, a device,
a link to one) is a miss that is never read or replaced, and a cache that
cannot be written is skipped.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, InputError
from .manifest import atomic_open, write_atomic
from .textio import float_row_text, open_regular, read_input, read_lines

logger = logging.getLogger(__name__)

# bump when the parse result or the entry layout changes; old entries then miss
# (2: a leading byte-order mark is no longer part of the first token)
CACHE_VERSION = 2


@dataclass
class EmbeddingSpace:
    """A named vocabulary with one dense vector per token.

    ``sha256`` is the hex digest of the file bytes the space was loaded from,
    which ``load_text_embeddings`` always sets; None for a space built in memory.
    Immutable after construction; safe to share across threads.
    """

    name: str
    vocab: dict[str, int]
    matrix: np.ndarray
    language_tag: str | None = None
    sha256: str | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.vocab) or self.dim < 1:
            raise DimensionError(
                f"space {self.name!r}: matrix shape {self.matrix.shape} is not vocab size "
                f"{len(self.vocab)} x at least one column"
            )
        if not np.isfinite(self.matrix).all():
            raise FormatError(f"space {self.name!r}: matrix contains non-finite entries")
        rows = sorted(self.vocab.values())
        if rows != list(range(len(self.vocab))):
            raise FormatError(f"space {self.name!r}: vocab indices are not a 0..n-1 range")
        if any(not tok for tok in self.vocab):
            raise FormatError(f"space {self.name!r}: empty token in vocab")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


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

    A file whose bytes were parsed before is read from the parse cache (see
    the module docstring) instead; the result is the same bit for bit. A file
    that fails to parse is never cached. Each load reads the file once, and
    the parse, the entry it keys and the space's ``sha256`` are of those bytes.
    """
    path = Path(path)
    name = name or path.stem
    data, sha256 = read_input(path)
    cache = _cache_dir()
    entry = None if cache is None else cache / f"{sha256}-v{CACHE_VERSION}.npy"
    cached = _read_entry(entry, name, language_tag, sha256) if entry is not None else None
    if cached is None:
        vocab, matrix, duplicates = (_parse_with_loadtxt(data, path)
                                     or _parse_with_float(data, path))
        space = EmbeddingSpace(name=name, vocab=vocab, matrix=matrix, language_tag=language_tag,
                               sha256=sha256)
        if entry is not None:
            _write_entry(entry, space, duplicates)
    else:
        space, duplicates = cached
    if duplicates:
        logger.warning("%s: skipped %d duplicate tokens (kept first occurrence)", path, duplicates)
    return space


# --- parse cache ----------------------------------------------------------------


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/pmean``, or ``~/.cache/pmean`` when that is unset, empty
    or relative (as the XDG spec says); None when no home directory is known,
    as when ``HOME`` is set but empty."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        if os.environ.get("HOME") == "":  # expanduser would read it as "/"
            return None
        root = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(root):
            return None
    return Path(root) / "pmean"


def _write_entry(entry: Path, space: EmbeddingSpace, duplicates: int) -> None:
    """Store a parse as three ``.npy`` arrays in one file: the duplicate count,
    the tokens in row order as ``\n``-joined UTF-8 bytes (a token holds no
    ``\n``), and the matrix; then remove the same bytes' entries of other
    ``CACHE_VERSION``s, which no load reads. A failed write or removal is skipped,
    and so is an entry path that is not a regular file (``atomic_open`` refuses it)."""
    tokens = "\n".join(sorted(space.vocab, key=space.vocab.get)).encode("utf-8")
    try:
        with atomic_open(entry) as fh:
            np.save(fh, np.array([duplicates], dtype=np.int64), allow_pickle=False)
            np.save(fh, np.frombuffer(tokens, dtype=np.uint8), allow_pickle=False)
            np.save(fh, space.matrix, allow_pickle=False)
        for other in set(entry.parent.glob(f"{space.sha256}-v*.npy")) - {entry}:
            other.unlink(missing_ok=True)
    except (OSError, InputError):
        pass


def _read_entry(entry: Path, name: str, language_tag: str | None, sha256: str):
    """``(space, duplicates)`` from a cache entry, or None for a miss.

    Any entry that is not a regular file, cannot be read, is cut short, holds
    arrays of the wrong dtype or shape, repeats a token or fails
    EmbeddingSpace's checks is a miss, never an error: the caller parses the
    file and rewrites the entry, unless it is not a regular file.
    """
    try:
        with open_regular(entry) as fh:
            if fh is None:
                return None
            meta, tokens, matrix = (np.load(fh, allow_pickle=False) for _ in range(3))
        if (meta.dtype != np.int64 or meta.shape != (1,) or meta[0] < 0
                or tokens.dtype != np.uint8 or tokens.ndim != 1
                or matrix.dtype != np.float64 or matrix.ndim != 2):
            return None
        # a repeated token leaves fewer vocab entries than rows, which EmbeddingSpace rejects
        order = tokens.tobytes().decode("utf-8").split("\n")
        vocab = {token: row for row, token in enumerate(order)}
        space = EmbeddingSpace(name=name, vocab=vocab, matrix=matrix, language_tag=language_tag,
                               sha256=sha256)
    except FileNotFoundError:
        return None
    except Exception:  # an entry only saves a parse: whatever is wrong with it, parse instead
        logger.debug("%s: unusable parse cache entry", entry, exc_info=True)
        return None
    return space, int(meta[0])


# left to the float() loop: numpy ends a line at "\r", and strips the
# separators "\x1c"-"\x1f" around a number, which float() rejects
_FLOAT_LOOP_CHARS = ("\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _parse_with_loadtxt(data, path: Path):
    """``(vocab, matrix, duplicates)`` with the numbers read by ``np.loadtxt``, or None.

    One pass over the lines skips the ``count dim`` header, checks each token,
    notes duplicates and feeds every row's value text to one ``np.loadtxt``
    call, which also rejects a change in the number of fields. None means
    ``_parse_with_float`` must decide: a line failed a check, a value did not
    parse, a value is non-finite, or the file holds no rows.
    """
    vocab: dict[str, int] = {}
    duplicate_rows: list[int] = []

    def value_texts():  # np.loadtxt passes on what this raises
        for lineno, line in read_lines(data, path):
            token, _, values = line.partition(" ")
            if lineno == 1 and " " not in values and _is_int(token) and _is_int(values):
                continue  # word2vec-style count/dim header
            # an empty value text would be skipped by numpy as a blank line
            if not token or not values or any(c in values for c in _FLOAT_LOOP_CHARS):
                raise ValueError("a line left to the float() loop")
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
    except ValueError:  # a value numpy rejects, ragged rows, a line left to float(), not UTF-8
        return None
    if not np.isfinite(matrix).all():
        return None
    if duplicate_rows:
        keep = np.ones(len(matrix), dtype=bool)
        keep[duplicate_rows] = False
        matrix = matrix[keep]
    return vocab, matrix, len(duplicate_rows)


def _parse_with_float(data, path: Path):
    """``(vocab, matrix, duplicates)`` with every value read by ``float()``, line by line.

    The reference parser: it raises FormatError for the first bad line.
    """
    vocab: dict[str, int] = {}
    vectors: list[np.ndarray] = []
    dim: int | None = None
    duplicates = 0

    for lineno, line in read_lines(data, path):
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
    """Write a space back out in the text format (no header line), atomically.

    Floats are written as repr writes them, so ``load_text_embeddings`` reads
    back the same vocab and matrix bit for bit. Raises InputError, and writes
    no file, for what the format cannot hold: no rows, a token that holds a
    space or a newline, a first token that starts with U+FEFF (the reader
    skips a leading byte-order mark), or a token not encodable as UTF-8.
    """
    order = sorted(space.vocab, key=space.vocab.get)
    if not order:
        raise InputError(f"space {space.name!r}: an embedding file needs at least one row")
    for i, token in enumerate(order):
        if " " in token or "\n" in token or (i == 0 and token.startswith("\ufeff")):
            raise InputError(f"space {space.name!r}: token {token!r} cannot be written to an "
                             "embedding file: holds a space or a newline, or starts the file "
                             "with U+FEFF, which the reader skips as a byte-order mark")
    rows = (token + " " + float_row_text(space.matrix[space.vocab[token]], " ") + "\n"
            for token in order)
    try:
        write_atomic(path, rows)
    except UnicodeEncodeError as exc:
        raise InputError(f"space {space.name!r}: not encodable as UTF-8: {exc.reason}") from None


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True
