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
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
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


def write_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory plus an atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
