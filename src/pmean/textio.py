"""UTF-8 text input shared by every file reader.

A file that is not valid UTF-8 raises FormatError naming the file. Line
readers decode in chunks, so the error carries no line number.
"""
from __future__ import annotations

from pathlib import Path

from .errors import FormatError


def read_text(path) -> str:
    """The whole file as one string."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def read_lines(path):
    """Yield ``(lineno, line)`` for every non-blank line, line ending stripped."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8: cannot decode byte 0x{exc.object[exc.start]:02x}")
