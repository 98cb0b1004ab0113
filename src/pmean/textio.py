"""UTF-8 text input shared by every file reader.

A file that is not valid UTF-8 raises FormatError naming the file. Line
readers decode in chunks, so the error carries no line number. Only ``\n``
ends a line, and one ``\r`` before it is dropped, so CRLF reads as LF; any
other ``\r`` is part of the line.
"""
from __future__ import annotations

from .errors import FormatError


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
