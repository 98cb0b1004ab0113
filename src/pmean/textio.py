"""UTF-8 text input shared by every file reader, and float rows as text.

A file that is not valid UTF-8 raises FormatError naming the file. Line
readers decode in chunks, so the error carries no line number. Only ``\n``
ends a line, and one ``\r`` before it is dropped, so CRLF reads as LF; any
other ``\r`` is part of the line.

``float_row_text`` writes a row of floats exactly as ``repr`` writes each
one, so a reader that parses them gets the same doubles back.
"""
from __future__ import annotations

import numpy as np
import orjson

from .errors import FormatError

# repr writes zero and |v| in [1e-4, 1e16) positionally; orjson writes the
# same shortest round-trip digits there, but spells other values its own way
# (0.00001, 2.5e-7, 1e16, null where repr has 1e-05, 2.5e-07, 1e+16, nan)
_REPR_TINY, _REPR_HUGE = 1e-4, 1e16


def float_row_text(row: np.ndarray, sep: str) -> str:
    """``sep.join(map(repr, row.tolist()))`` for a 1-D float array, faster.

    orjson formats the whole row as float64; only the values outside repr's
    positional band are formatted again, with repr.
    """
    row = np.ascontiguousarray(row, dtype=np.float64)  # what orjson's numpy option takes
    text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    magnitude = np.abs(row)
    inside = ((magnitude >= _REPR_TINY) & (magnitude < _REPR_HUGE)) | (row == 0)
    outside = np.flatnonzero(~inside)
    if outside.size == 0:
        return text.replace(",", sep)
    tokens = text.split(",")
    for i in outside.tolist():
        tokens[i] = repr(float(row[i]))
    return sep.join(tokens)


def read_text(path) -> str:
    """The whole file as one string, each CRLF read as LF."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read().replace("\r\n", "\n")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def read_lines(path):
    """Yield ``(lineno, line)`` for every non-blank line, line ending stripped."""
    try:
        # newline="\n": lines end at "\n" only, untranslated ("" would also end one at "\r")
        with open(path, encoding="utf-8", newline="\n") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.removesuffix("\n").removesuffix("\r")
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8: cannot decode byte 0x{exc.object[exc.start]:02x}")
