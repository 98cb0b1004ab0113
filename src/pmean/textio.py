"""The one opener of files to read, the UTF-8 text of their bytes, and float rows as text.

``open_regular`` is the only function in pmean that opens a file to read it,
so a FIFO or a device never blocks a read. ``read_input`` reads an input
through it, so each digest a manifest records is of the bytes that were
parsed; the parse cache reads its entries through it. The bytes come back as a
read-only buffer, read in one ``readinto`` into a numpy array: numpy asks the
kernel for transparent huge pages from 4 MiB, so a large input costs a few
hundred page faults, not one per 4 KiB. ``read_text`` and ``read_lines``
decode those bytes as UTF-8, skipping one leading byte-order mark, or raise
FormatError naming their ``source`` file (with no line number). Only ``\n``
ends a line, and one ``\r`` before it is dropped, so CRLF reads as LF; any
other ``\r`` is part of the line.

``float_row_text`` writes a row of floats exactly as ``repr`` writes each
one, so a reader that parses them gets the same doubles back;
``json_float_array`` writes a float array through it exactly as
``json.dumps`` does. Only this module imports ``json``: ``json_text`` writes
every JSON file pmean writes (manifests and reports with indent 2 and sorted
keys, the projection model with indent 1 in insertion order), and
``json_document`` decodes every one it reads (the model and the report) to an
object of the reader's version; each reader checks its own fields, taking
their numbers through ``json_numbers``.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import stat
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import FormatError, InputError

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


def json_float_array(arr: np.ndarray, indent: int, level: int = 0) -> str:
    """``json.dumps(arr.tolist(), indent=indent)`` for an array of finite floats
    with one or more axes, nested ``level`` deep in a document: each line after
    the first is indented ``level`` more steps. The floats go through
    ``float_row_text``, which spells a non-finite value as ``repr`` does, not
    as ``json.dumps``: ``ProjectionModel`` and ``znorm_fit`` refuse one."""
    if not len(arr):
        return "[]"
    sep = ",\n" + " " * (indent * (level + 1))
    if arr.ndim > 1:
        items = sep.join(json_float_array(row, indent, level + 1) for row in arr)
    else:
        items = float_row_text(arr, sep)
    return f"[{sep[1:]}{items}\n{' ' * (indent * level)}]"


def json_text(doc, indent: int, *, sort_keys: bool = False, default=None) -> str:
    """``json.dumps(doc, indent=indent, sort_keys=sort_keys, default=default) + "\n"``
    with each float ndarray in ``doc``'s dicts as its list, faster: ``json_float_array``
    writes the arrays, so that their floats skip json's encoder. Every key is a str."""
    def text(value, level: int) -> str:
        if isinstance(value, np.ndarray):
            return json_float_array(value, indent, level)
        if isinstance(value, dict) and value:
            pad = "\n" + " " * (indent * (level + 1))
            items = (f"{pad}{json.dumps(key)}: {text(value[key], level + 1)}"
                     for key in (sorted(value) if sort_keys else value))
            return "{" + ",".join(items) + pad[:-indent] + "}"
        # a line break in json's text is always its own, never in a string
        return json.dumps(value, indent=indent, sort_keys=sort_keys,
                          default=default).replace("\n", "\n" + " " * (indent * level))

    return text(doc, 0) + "\n"


@contextmanager
def open_regular(path):
    """``path`` open for binary reading, or None if it is not a regular file
    (a pipe, a FIFO, a device; links followed). The open does not wait for a
    FIFO's writer, and no byte is read before the check; the file is closed
    when the block ends."""
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
        yield fh if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else None


def read_input(path) -> tuple[memoryview, str]:
    """``path``'s bytes, as a read-only buffer, and their hex SHA-256, from one read.
    A manifest names bytes that can be read again, so anything but a regular file
    (a pipe, a FIFO, a device) raises InputError before a byte is read, and a FIFO
    never blocks.

    The bytes are read by one ``readinto`` into an array one byte longer than
    ``fstat``'s size, so a full array shows a file that grew since; the rest is
    then read to EOF. A file that shrank gives the bytes there were.
    """
    with open_regular(path) as fh:
        if fh is None:
            raise InputError(f"{path}: not a regular file; a manifest records each input's "
                             "digest, so an input must be readable again")
        buf = np.empty(os.fstat(fh.fileno()).st_size + 1, np.uint8)
        n = fh.readinto(buf)
        if n == len(buf):
            buf = np.concatenate([buf, np.frombuffer(fh.read(), np.uint8)])
            n = len(buf)
    data = memoryview(buf)[:n].toreadonly()
    return data, hashlib.sha256(data).hexdigest()


def read_text(data, source) -> str:
    """``data``, bytes or a buffer of them, as one string, each CRLF read as LF."""
    try:
        return str(data, "utf-8-sig").replace("\r\n", "\n")
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from None


def read_lines(data, source):
    """Yield ``(lineno, line)`` for every non-blank line of ``data``, bytes or a
    buffer of them, line ending stripped."""
    try:
        # newline="\n": lines end at "\n" only, untranslated ("" would also end one at "\r")
        with io.TextIOWrapper(io.BufferedReader(_BufferReader(data)), encoding="utf-8-sig",
                              newline="\n") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if line := raw.removesuffix("\n").removesuffix("\r"):
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from None


class _BufferReader(io.RawIOBase):
    """A raw stream over a buffer that copies only what each read asks for;
    ``io.BytesIO`` would copy all of a buffer that is not ``bytes`` first."""

    def __init__(self, data):
        self.data, self.pos = memoryview(data), 0

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        chunk = self.data[self.pos:self.pos + len(b)]
        b[:len(chunk)] = chunk
        self.pos += len(chunk)
        return len(chunk)


def _not_utf8(source, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{source}: not UTF-8: cannot decode byte 0x{exc.object[exc.start]:02x}")


def json_document(text: str, source, version_key: str, version) -> dict:
    """``json.loads(text)`` if it is an object whose ``version_key`` is ``version``;
    anything else raises FormatError naming ``source``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    if doc.get(version_key) != version:
        raise FormatError(f"{source}: unsupported {version_key} {doc.get(version_key)!r}")
    return doc


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
