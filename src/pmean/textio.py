"""UTF-8 text input shared by every file reader, and float rows as text.

A file that is not valid UTF-8 raises FormatError naming the file. Line
readers decode in chunks, so the error carries no line number. One leading
UTF-8 byte-order mark is skipped, so it never becomes part of a token, key or
label. Only ``\n`` ends a line, and one ``\r`` before it is dropped, so CRLF
reads as LF; any other ``\r`` is part of the line.

``float_row_text`` writes a row of floats exactly as ``repr`` writes each
one, so a reader that parses them gets the same doubles back. The JSON
readers take their numbers through ``json_numbers``.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

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
    import orjson  # here, so that the commands that write no float row never load it

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
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read().replace("\r\n", "\n")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def read_lines(path):
    """Yield ``(lineno, line)`` for every non-blank line, line ending stripped."""
    try:
        # newline="\n": lines end at "\n" only, untranslated ("" would also end one at "\r")
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.removesuffix("\n").removesuffix("\r")
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8: cannot decode byte 0x{exc.object[exc.start]:02x}")


def json_numbers(value, ndim: int) -> np.ndarray:
    """A parsed JSON value as a float64 array, if it is numbers nested ``ndim`` lists deep.

    Strings, booleans and null raise TypeError, though numpy would convert them.
    """
    leaves = [value]
    for _ in range(ndim):
        if not all(type(v) is list for v in leaves):
            raise TypeError(f"expected numbers nested {ndim} lists deep")
        leaves = list(chain.from_iterable(leaves))
    if not {type(v) for v in leaves} <= {int, float}:
        raise TypeError("expected JSON numbers, not strings, booleans or null")
    return np.array(value, dtype=np.float64)
