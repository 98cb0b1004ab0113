"""Command-line surface: embed, train-projection, eval, eval-transfer, sweep.

main owns each run's record: it names the command's outputs and checks them
before any input is read (no two name one file, and none is a directory or
another file that is not regular), and builds the run's RunManifest, which
the command fills with its inputs. The command returns its outputs' texts, a
str or, for embed's TSV, an iterable of row chunks that main streams into the
output's staged file; main adds the manifest, stages each beside its path and
renames none into place until all are staged, so a failing run leaves no
partial outputs. Exit codes: 0 ok, 2 input/format error or out of memory, 3
numerical-policy error (--strict, or a non-finite z-norm or training result),
64 usage error.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterator
from dataclasses import replace
from importlib import import_module
from pathlib import Path

from . import __version__
from .errors import FormatError, InputError, NumericalPolicyError
from .manifest import (RunManifest, check_replaceable, staged_dirs, staged_file, temp_beside,
                       write_atomic)
from .settings import ProjectionTrainConfig, TrainProtocol

# The numpy-backed names the commands use, by the module that defines them.
# Each command binds its modules' names here when it starts (_bind), so that
# parsing, --version and --help load no numpy and a command loads only the
# modules it runs. They stay attributes of this module that the commands look
# up at each call, so a name replaced with setattr, before or after the first
# command, is the one called.
_LAZY = {
    "embeddings": ("load_text_embeddings",),
    "evaluation": ("TransferPair", "emit_report", "evaluate_report", "load_task",
                   "sweep_pmeans"),
    "pooling": ("PooledConfig", "PooledPart", "embed_corpus", "format_p",
                "parse_config_text", "parse_p", "znorm_apply", "znorm_fit"),
    "projection": ("ParallelCorpus", "projection_json", "train_projection"),
    "textio": ("float_row_text", "read_input", "read_lines", "read_text"),
}


def _bind(*modules: str) -> None:
    """Import each module and bind its names here; a name already set is kept."""
    bound = globals()
    for module in modules:
        imported = import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            bound.setdefault(name, getattr(imported, name))


def __getattr__(name):  # PEP 562: pmean.cli.<name> read before a command bound it
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error, and reads ``--opt -x`` as ``--opt=-x``.

    argparse takes a token that starts with "-" as an option's value only when
    it looks like a plain negative decimal, so ``--p-set -inf,1`` and
    ``--step-size -1e-3`` would be usage errors. pmean has no single-dash
    option but -h, so after an option that takes a value such a token is that
    value. Each subcommand's parser joins the tokens it is handed.
    """

    def __init__(self, *args, **kwargs):
        self.takes_value: dict[str, bool] = {}  # __init__ adds -h/--help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.takes_value.update(dict.fromkeys(action.option_strings, action.nargs != 0))
        return action

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        joined, i = [], 0
        while i < len(args):
            if args[i] == "--":  # everything after it is positional
                joined += args[i:]
                break
            value = args[i + 1] if i + 1 < len(args) else ""
            if value[:1] == "-" and value[1:2] != "-" and self._wants_value(args[i]):
                joined.append(f"{args[i]}={value}")
                i += 2
            else:
                joined.append(args[i])
                i += 1
        return super().parse_known_args(joined, namespace)

    def _wants_value(self, token: str) -> bool:
        """Whether a ``--`` token names, whole or as its only prefix, an option with a value."""
        if not token.startswith("--") or "=" in token:
            return False
        if token in self.takes_value:
            return self.takes_value[token]
        names = [name for name in self.takes_value if name.startswith(token)]
        return len(names) == 1 and self.takes_value[names[0]]

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="global seed (default: $PMEAN_SEED or 0)")
    p.add_argument("--no-lowercase", dest="lowercase", action="store_false",
                   help="keep token case when tokenizing")
    p.add_argument("--oov", choices=("skip", "zero"), default="skip",
                   help="out-of-vocabulary handling")
    p.add_argument("--strict", action="store_true",
                   help="error out on undefined or overflowing power means instead of zeroing")


def _add_protocol(p: _Parser) -> None:
    p.add_argument("--runs", type=int, default=TrainProtocol.runs)
    p.add_argument("--epochs", type=int, default=TrainProtocol.max_epochs)
    p.add_argument("--batch-size", type=int, default=TrainProtocol.batch_size)
    p.add_argument("--lr-grid", default=",".join(map(repr, TrainProtocol.lr_grid)),
                   help="comma-separated learning rates to grid-search")
    p.add_argument("--val-fraction", type=float, default=TrainProtocol.val_fraction)
    p.add_argument("--test-fraction", type=float, default=TrainProtocol.test_fraction)
    p.add_argument("--znorm", action="store_true",
                   help="standardize embeddings (fit on training data only)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pmean",
        description="Power-mean sentence embeddings, a bilingual projection between two "
                    "languages' word vectors, and classification scores for both. Run "
                    "'pmean COMMAND --help' for a command's options.",
        epilog="exit codes: 0 ok; 2 input or format error, or out of memory; 3 numerical "
               "policy error (--strict, or a non-finite z-norm or training result); "
               "64 usage error.")
    parser.add_argument("--version", action="version", version=f"pmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("embed", help="embed sentences with a pooled config")
    p.add_argument("--config", required=True, type=Path, help="pooled-space config file")
    p.add_argument("--input", required=True, type=Path, help="sentences, one per line")
    p.add_argument("--output", required=True, help="TSV matrix output path")
    p.add_argument("--znorm", action="store_true",
                   help="standardize over the whole input; params go in the manifest")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train-projection", help="train the bilingual tanh maps")
    p.add_argument("--source-embeddings", required=True, type=Path)
    p.add_argument("--target-embeddings", required=True, type=Path)
    p.add_argument("--pairs", required=True, type=Path,
                   help="parallel sentences: source TAB target per line")
    p.add_argument("--model-out", required=True)
    p.add_argument("--history-out", required=True, help="per-epoch loss CSV")
    p.add_argument("--shared-dim", type=int, default=ProjectionTrainConfig.shared_dim)
    p.add_argument("--margin", type=float, default=ProjectionTrainConfig.margin)
    p.add_argument("--dropout", type=float, default=ProjectionTrainConfig.dropout_rate)
    p.add_argument("--epochs", type=int, default=ProjectionTrainConfig.max_epochs)
    p.add_argument("--batch-size", type=int, default=ProjectionTrainConfig.batch_size)
    p.add_argument("--step-size", type=float, default=ProjectionTrainConfig.step_size)
    _add_common(p)
    p.set_defaults(func=cmd_train_projection)

    p = sub.add_parser("eval", help="score one task with one pooled config")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--task", required=True, type=Path)
    p.add_argument("--out", required=True, help="report base path (.json/.md appended)")
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eval-transfer", help="train on one language, test on another")
    p.add_argument("--source-config", required=True, type=Path)
    p.add_argument("--target-config", required=True, type=Path)
    p.add_argument("--train-task", required=True, type=Path)
    p.add_argument("--test-task", required=True, type=Path)
    p.add_argument("--out", required=True)
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval_transfer)

    p = sub.add_parser("sweep", help="evaluate several p-value sets over fixed spaces")
    p.add_argument("--config", required=True, type=Path,
                   help="config file naming the spaces (its p values are ignored)")
    p.add_argument("--p-set", dest="p_sets", metavar="P_SET", action="append", required=True,
                   help="comma-separated p values; repeat for more rows")
    p.add_argument("--task", action="append", required=True, type=Path,
                   help="task file; repeat for more columns")
    p.add_argument("--out", required=True)
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _seed_of(args) -> int:
    """--seed, else $PMEAN_SEED, else 0."""
    seed = args.seed
    if seed is None:
        value = os.environ.get("PMEAN_SEED", "0")
        try:
            seed = int(value)
        except ValueError:
            raise InputError(f"PMEAN_SEED must be an integer, got {value!r}") from None
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return seed


def _pooled(parts, args) -> PooledConfig:
    """A config over these parts with the command's text options."""
    return PooledConfig(parts, oov=args.oov, strict=args.strict, lowercase=args.lowercase)


def _load(load, path, manifest: RunManifest, **labels):
    """``load(path, **labels)``: ``read_input``'s ``(data, sha256)``, a task or a
    space, loaded once per run however ``path`` is spelled; each name given is
    recorded in the manifest with the digest of the one read that was parsed."""
    key = (load, Path(path).resolve())
    if key not in manifest.loaded:
        manifest.loaded[key] = load(path, **labels)
    got = manifest.loaded[key]
    manifest.add_input(path, got[1] if isinstance(got, tuple) else got.sha256)
    return got


def _load_config(config_path, args, manifest: RunManifest) -> PooledConfig:
    """Parse a config file and load each space it names once, from its path=.

    A space may repeat with more p-values; a repeat that gives path= or lang=
    must agree with the space's first entry. A file that several configs or
    spaces name is read and parsed once (``_load``); each space keeps its own
    name and lang= tag.
    """
    text = read_text(_load(read_input, config_path, manifest)[0], config_path)
    base = Path(config_path).parent
    spaces, paths, parts = {}, {}, []
    for e in parse_config_text(text, source=str(config_path)):
        path = base / e.path if e.path else None
        if e.space not in spaces:
            if path is None:
                raise InputError(f"config entry {e.space!r} needs a path= to load from")
            paths[e.space] = path.resolve()
            space = _load(load_text_embeddings, path, manifest, name=e.space, language_tag=e.lang)
            if (space.name, space.language_tag) != (e.space, e.lang):
                space = replace(space, name=e.space, language_tag=e.lang)
            spaces[e.space] = space
        elif path is not None and path.resolve() != paths[e.space]:
            raise FormatError(f"{config_path}: space {e.space!r} has conflicting path= values")
        elif e.lang not in (None, spaces[e.space].language_tag):
            raise FormatError(f"{config_path}: space {e.space!r} has conflicting lang= values")
        parts.append(PooledPart(spaces[e.space], list(e.p_values)))
    return _pooled(parts, args)


def _protocol_of(args, seed: int) -> TrainProtocol:
    try:
        lr_grid = tuple(float(v) for v in args.lr_grid.split(",") if v)
    except ValueError:
        raise InputError(f"--lr-grid must be comma-separated floats, got {args.lr_grid!r}") from None
    return TrainProtocol(
        lr_grid=lr_grid,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        runs=args.runs,
        val_fraction=args.val_fraction,
        test_fraction=args.test_fraction,
        seed=seed,
        znorm=args.znorm,
    )


def _projection_config_of(args, seed: int) -> ProjectionTrainConfig:
    return ProjectionTrainConfig(
        shared_dim=args.shared_dim, margin=args.margin, dropout_rate=args.dropout,
        step_size=args.step_size, batch_size=args.batch_size,
        max_epochs=args.epochs, seed=seed,
    )


def _outputs(args) -> list[str]:
    """The files the command writes, in the order main writes them, the manifest
    last: beside embed's TSV or the projection model, or at a report's base."""
    if args.command == "embed":
        return [args.output, f"{args.output}.manifest.json"]
    if args.command == "train-projection":
        return [args.model_out, args.history_out, f"{args.model_out}.manifest.json"]
    return [f"{args.out}{suffix}" for suffix in (".json", ".md", ".manifest.json")]


# Options no manifest records: the subcommand, which "command" names; the seed,
# which "seeds" holds resolved; and the outputs, which change no output byte.
_UNRECORDED = ("command", "func", "seed", "output", "model_out", "history_out", "out")


# --- commands -----------------------------------------------------------------
# Each takes the parsed options, the seed and the run's manifest, whose config
# main has filled from the options. A command records its inputs there, and any
# counts under ``extra``, and returns the texts of its outputs in _outputs'
# order, without the manifest, which main writes last. A text is a str, or an
# iterable of str chunks that main streams into the staged file (embed's TSV).


def cmd_embed(args, seed: int, manifest: RunManifest) -> list[str | Iterator[str]]:
    _bind("embeddings", "pooling", "textio")
    cfg = _load_config(args.config, args, manifest)
    manifest.config["pooling"] = [
        {"space": part.space.name, "p": [format_p(p) for p in part.p_values]}
        for part in cfg.parts
    ]

    # one sentence per "\n"; str.splitlines would also break at \x0c, \x85, U+2028, ...
    text = read_text(_load(read_input, args.input, manifest)[0], args.input)
    sentences = text.removesuffix("\n").split("\n") if text else []

    X, stats = embed_corpus(cfg, sentences)
    if args.znorm and X.shape[0] > 0:
        params = znorm_fit(X)
        X = znorm_apply(params, X)
        manifest.extra["znorm_params"] = {"mean": params.mean, "std": params.std}
    manifest.extra["undefined_pool_entries"] = stats.undefined_total

    # formatted row by row as main writes them, so the TSV is never whole in memory
    return [(float_row_text(row, "\t") + "\n" for row in X)]


def cmd_train_projection(args, seed: int, manifest: RunManifest) -> list[str]:
    _bind("embeddings", "pooling", "projection", "textio")
    cfg = _projection_config_of(args, seed)
    src_space, tgt_space = (_load(load_text_embeddings, path, manifest)
                            for path in (args.source_embeddings, args.target_embeddings))

    src_texts, tgt_texts = [], []
    for lineno, line in read_lines(_load(read_input, args.pairs, manifest)[0], args.pairs):
        src, tab, tgt = line.partition("\t")
        if not tab:
            raise InputError(f"{args.pairs}:{lineno}: expected 'source TAB target'")
        src_texts.append(src)
        tgt_texts.append(tgt)
    if not src_texts:
        raise InputError(f"{args.pairs}: no sentence pairs")

    # each side is represented by its average word vector
    corpus = ParallelCorpus(*(
        embed_corpus(_pooled([PooledPart(space, [1.0])], args), texts)[0]
        for space, texts in ((src_space, src_texts), (tgt_space, tgt_texts))))
    model, history = train_projection(corpus, cfg)

    history_csv = "epoch,mean_loss\n" + "".join(
        f"{epoch},{loss!r}\n" for epoch, loss in enumerate(history, start=1))
    return [projection_json(model), history_csv]


def cmd_eval(args, seed: int, manifest: RunManifest) -> list[str]:
    _bind("embeddings", "evaluation", "pooling", "textio")
    cfg = _load_config(args.config, args, manifest)
    ds = _load(load_task, args.task, manifest)
    report = evaluate_report([(cfg, cfg)], [ds], _protocol_of(args, seed))
    return [emit_report(report, "json"), emit_report(report, "markdown")]


def cmd_eval_transfer(args, seed: int, manifest: RunManifest) -> list[str]:
    _bind("embeddings", "evaluation", "pooling", "textio")
    cfg_src, cfg_tgt = (_load_config(path, args, manifest)
                        for path in (args.source_config, args.target_config))
    train, test = (_load(load_task, path, manifest) for path in (args.train_task, args.test_task))
    report = evaluate_report([(cfg_src, cfg_tgt)], [TransferPair(train, test)],
                             _protocol_of(args, seed))
    return [emit_report(report, "json"), emit_report(report, "markdown")]


def cmd_sweep(args, seed: int, manifest: RunManifest) -> list[str]:
    _bind("embeddings", "evaluation", "pooling", "textio")
    cfg = _load_config(args.config, args, manifest)
    p_sets = [[parse_p(tok) for tok in ps.split(",") if tok] for ps in args.p_sets]

    tasks = [_load(load_task, path, manifest) for path in args.task]
    report = sweep_pmeans(cfg, p_sets, tasks, _protocol_of(args, seed))
    return [emit_report(report, "json"), emit_report(report, "markdown")]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    staged = {}  # output path -> the temp file holding its text, until renamed
    try:
        seed = _seed_of(args)
        paths = _outputs(args)  # checked before any input is read, so a bad one costs no work
        files = [staged_file(path) for path in paths]
        made = set().union(*map(staged_dirs, paths))
        for path, file in zip(paths, files):
            if files.count(file) > 1:
                raise InputError(f"{path}: two outputs would write this file")
            if file in made:
                raise InputError(f"{path}: output path is a directory")
            check_replaceable(path)
        config = {dest: value for dest, value in vars(args).items() if dest not in _UNRECORDED}
        manifest = RunManifest(command=args.command, config=config, seeds={"seed": seed},
                               directory=Path(paths[-1]).parent)
        texts = [*args.func(args, seed, manifest), manifest.to_json()]
        for path, text in zip(paths, texts, strict=True):
            staged[path] = temp_beside(path)
            write_atomic(staged[path], text)  # perfbench times and counts each output here
        for path, tmp in list(staged.items()):  # all are staged: move each into place
            os.replace(tmp, path)
            del staged[path]  # only once moved, so a failed rename's temp is still unlinked
        return 0
    except NumericalPolicyError as exc:
        print(f"pmean: numerical policy error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"pmean: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation it could not make
        print(f"pmean: out of memory: {exc}" if str(exc) else "pmean: out of memory",
              file=sys.stderr)
        return 2
    finally:
        for tmp in staged.values():
            Path(tmp).unlink(missing_ok=True)


def run() -> None:
    """Entry point of ``python -m pmean`` and the ``pmean`` script: exit with main's code.

    Once main has returned or raised, every live object is frozen
    (``gc.freeze``), so the collections the interpreter runs while it exits
    skip them, numpy's module graph included. main never freezes: in-process
    callers keep a collector that frees their cycles.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
