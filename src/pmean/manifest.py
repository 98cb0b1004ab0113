"""Run manifests: enough provenance to make any CLI run reproducible.

A manifest records the command, every option but the outputs under its argparse
dest (the seed resolved, under ``seeds``), the SHA-256 of each input file and
the ``pmean.__version__`` that wrote it, naming each file relative to the
manifest's directory. Each digest is the one ``textio.read_input`` took in the
one read of the bytes the command parsed; this module only records and writes.
On one host, equal manifests mean byte-identical outputs, whatever their paths,
and one run writes the same manifest from any directory. Across hosts they may
not: numpy's SIMD kernels (``np.power``, ``np.log``) and the BLAS core can
change an output's last bits under an equal manifest.
"""
from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__


@dataclass
class RunManifest:
    """One run's provenance; ``to_json`` also records the ``pmean.__version__`` writing it.
    ``loaded``, never serialized, is ``cli._load``'s memo by loader and resolved path."""

    command: str
    config: dict
    seeds: dict
    directory: str | os.PathLike  # where the manifest is written; not serialized
    inputs: dict[str, str] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    loaded: dict = field(default_factory=dict, repr=False, compare=False)

    def add_input(self, path, sha256: str) -> None:
        """Record ``path`` with the hex digest ``read_input`` took of the bytes parsed."""
        self.inputs[self.relative(path)] = f"sha256:{sha256}"

    def relative(self, path) -> str:
        """How the manifest names a file, an input's key or a Path in ``config``:
        ``path`` relative to the manifest's directory, with ``/`` separators. Both
        directories are resolved and the name is kept as given (``staged_file``):
        with ``d`` a link to ``real/deep``, ``d/../x`` is ``real/x``, the file read."""
        return Path(os.path.relpath(staged_file(path), os.path.realpath(self.directory))).as_posix()

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "tool_version": __version__,
        }
        doc.update(self.extra)
        return json.dumps(doc, indent=2, sort_keys=True, default=self.relative) + "\n"


def write_atomic(path, text: str | Iterable[str]) -> None:
    """Write ``text`` via a temp file in the same directory plus an atomic rename.

    ``text`` is a ``str`` or an iterable of ``str`` chunks; chunks are written
    as they come, so the whole text is never held at once. An error raised
    while the chunks are made leaves no file, as a failed write does.
    """
    chunks = [text] if isinstance(text, str) else text
    with atomic_open(path) as fh:
        fh.writelines(chunk.encode("utf-8") for chunk in chunks)


@contextmanager
def atomic_open(path):
    """A file opened for binary writing that appears at ``path`` only when the
    block ends without an error; a failed write leaves neither a partial file
    nor the temp file behind."""
    tmp = temp_beside(path)
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def temp_beside(path) -> str:
    """A new empty temp file ``.<name>.*.tmp`` in ``path``'s directory, made if
    missing: the directories ``staged_dirs(path)`` names."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    return tmp


def staged_file(path) -> str:
    """The file a rename onto ``path`` replaces: its directory resolved, its name
    as given (a link there is replaced, not followed)."""
    path = Path(path)
    return os.path.join(os.path.realpath(path.parent), path.name)


def staged_dirs(path) -> set[str]:
    """The directories ``temp_beside(path)`` makes if missing, resolved: ``path``'s
    parents as spelled, so ``q/../m`` makes ``q``."""
    return {os.path.realpath(parent) for parent in Path(path).parents}
