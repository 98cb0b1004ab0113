"""Run manifests: enough provenance to make any CLI run reproducible.

A manifest records the command, every resolved option, the seeds, and SHA-256
digests of all input files, each keyed by its path relative to the directory
the manifest is written to. Two runs with equal manifests write
byte-identical outputs, and the same run from another directory writes the
same manifest.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class RunManifest:
    command: str
    config: dict
    seeds: dict
    directory: str | os.PathLike  # where the manifest is written; not serialized
    inputs: dict[str, str] = field(default_factory=dict)
    tool_version: str = ""
    extra: dict = field(default_factory=dict)

    def add_input(self, path) -> None:
        digest = sha256_file(path)
        key = Path(os.path.relpath(path, self.directory)).as_posix()
        self.inputs[key] = f"sha256:{digest}"

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "tool_version": self.tool_version,
        }
        doc.update(self.extra)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sha256_file(path) -> str:
    """The hex SHA-256 of a file's bytes, read in 1 MiB blocks so memory stays bounded."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def write_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory plus an atomic rename."""
    with atomic_open(path, "w") as fh:
        fh.write(text)


@contextmanager
def atomic_open(path, mode: str):
    """A file opened for writing (``"w"``, UTF-8, or ``"wb"``) that appears at
    ``path`` only when the block ends without an error; a failed write leaves
    neither a partial file nor the temp file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
