"""Run manifests, and the one writer of every file pmean writes.

A manifest records the command, every option but the outputs under its argparse
dest (the seed resolved, under ``seeds``), the SHA-256 of each input file and
the ``pmean.__version__`` that wrote it, naming each file relative to the
manifest's directory. Each digest is the one ``textio.read_input`` took in the
one read of the bytes the command parsed; this module only records and writes.
On one host, equal manifests mean byte-identical outputs, whatever their paths,
and one run writes the same manifest from any directory. Across hosts they may
not: numpy's SIMD kernels (``np.power``, which pooling calls at every p but
1 and +/-inf, and ``np.log``) and the BLAS core can change an output's last
bits under an equal manifest.

Every file pmean writes goes through ``atomic_open`` (``write_atomic`` wraps
it): the CLI's outputs and manifests, parse-cache entries, and the files
``save_text_embeddings`` and ``save_task`` write. So one place holds the rules
a written file follows. Its text goes to a temp file beside it, in a directory
made if missing, and an atomic rename moves it into place, so the file appears
whole or not at all. It is created with the mode a plain ``open(path, "w")``
gives, 0o666 less the umask. A path that exists and is not a regular file,
following links (a directory, a FIFO, a device), is refused, never replaced.
A manifest's JSON is spelled by ``textio.json_text``; ``textio`` states the rules
every JSON file pmean writes or reads follows.
"""
from __future__ import annotations

import os
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import InputError


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
        """``json.dumps(doc, indent=2, sort_keys=True, default=self.relative) + "\n"``
        of the manifest, with each ndarray in it (``znorm_params``) as its list."""
        from .textio import json_text  # here, so that parsing the command line loads no numpy

        doc = {
            "command": self.command,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "tool_version": __version__,
        }
        doc.update(self.extra)
        return json_text(doc, 2, sort_keys=True, default=self.relative)


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
    nor the temp file behind. A ``path`` ``check_replaceable`` refuses raises
    InputError before anything is made."""
    check_replaceable(path)
    tmp = temp_beside(path)
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def check_replaceable(path) -> None:
    """Raise InputError if ``path`` exists and is not a regular file, following
    links: a rename would put a regular file in place of a directory, a FIFO or
    a device. A link to a regular file, and a dangling link, are replaced."""
    if os.path.isdir(path):
        raise InputError(f"{path}: output path is a directory")
    if os.path.exists(path) and not os.path.isfile(path):
        raise InputError(f"{path}: output path is not a regular file")


def temp_beside(path) -> str:
    """A new empty temp file ``.<name>.<random hex>.tmp`` in ``path``'s directory,
    made if missing (the directories ``staged_dirs(path)`` names). Its mode is
    0o666 less the umask, as ``open(path, "w")`` would make ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = os.path.join(path.parent, f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except FileExistsError:  # 48 random bits: only a name made on purpose repeats
            continue
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
