"""Command-line surface: embed, train-projection, eval, eval-transfer, sweep.

Every command resolves its options into a RunManifest and returns its outputs
as text; main writes them (atomically) only after the command returns, so a
failing run never leaves partial outputs behind. Exit codes: 0 ok, 2
input/format error, 3 numerical-policy error (--strict, or a non-finite
z-norm or training result), 64 usage error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .classifier import TrainProtocol
from .embeddings import load_text_embeddings
from .errors import FormatError, InputError, NumericalPolicyError
from .evaluation import (
    EvalReport,
    TransferPair,
    emit_report,
    evaluate_report,
    load_task,
    sweep_pmeans,
)
from .manifest import RunManifest, write_atomic
from .pooling import (
    PooledConfig,
    PooledPart,
    embed_corpus,
    format_p,
    parse_config_text,
    parse_p,
    znorm_apply,
    znorm_fit,
)
from .projection import (
    ParallelCorpus,
    ProjectionTrainConfig,
    projection_json,
    train_projection,
)
from .textio import float_row_text, read_lines, read_text

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
    p.add_argument("--no-lowercase", action="store_true",
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
    parser = _Parser(prog="pmean", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("embed", help="embed sentences with a pooled config")
    p.add_argument("--config", required=True, help="pooled-space config file")
    p.add_argument("--input", required=True, help="sentences, one per line")
    p.add_argument("--output", required=True, help="TSV matrix output path")
    p.add_argument("--znorm", action="store_true",
                   help="standardize over the whole input; params go in the manifest")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train-projection", help="train the bilingual tanh maps")
    p.add_argument("--source-embeddings", required=True)
    p.add_argument("--target-embeddings", required=True)
    p.add_argument("--pairs", required=True,
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
    p.add_argument("--config", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--out", required=True, help="report base path (.json/.md appended)")
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eval-transfer", help="train on one language, test on another")
    p.add_argument("--source-config", required=True)
    p.add_argument("--target-config", required=True)
    p.add_argument("--train-task", required=True)
    p.add_argument("--test-task", required=True)
    p.add_argument("--out", required=True)
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval_transfer)

    p = sub.add_parser("sweep", help="evaluate several p-value sets over fixed spaces")
    p.add_argument("--config", required=True,
                   help="config file naming the spaces (its p values are ignored)")
    p.add_argument("--p-set", action="append", required=True,
                   help="comma-separated p values; repeat for more rows")
    p.add_argument("--task", action="append", required=True,
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


def _text_options(args) -> dict:
    """--oov, --strict and --no-lowercase as PooledConfig fields, which are also manifest keys."""
    return {"oov": args.oov, "strict": args.strict, "lowercase": not args.no_lowercase}


def _pooled(parts, args) -> PooledConfig:
    """A config over these parts with the command's text options."""
    return PooledConfig(parts, **_text_options(args))


def _load_config(config_path, args, manifest: RunManifest,
                 loaded: dict | None = None) -> PooledConfig:
    """Parse a config file and load each space it names once, from its path=.

    A space may repeat with more p-values; a repeat that gives path= or lang=
    must agree with the space's first entry. ``loaded`` maps resolved paths to
    the spaces already parsed for this command, so a file shared by several
    configs is parsed once; each space keeps its own name and lang= tag.
    """
    loaded = {} if loaded is None else loaded
    text = read_text(config_path)
    manifest.add_input(config_path)
    base = Path(config_path).parent
    spaces, paths, parts = {}, {}, []
    for e in parse_config_text(text, source=str(config_path)):
        path = base / e.path if e.path else None
        if e.space not in spaces:
            if path is None:
                raise InputError(f"config entry {e.space!r} needs a path= to load from")
            paths[e.space] = path.resolve()
            space = loaded.get(paths[e.space])
            if space is None:
                space = load_text_embeddings(path, name=e.space, language_tag=e.lang)
                loaded[paths[e.space]] = space
            elif (space.name, space.language_tag) != (e.space, e.lang):
                space = replace(space, name=e.space, language_tag=e.lang)
            spaces[e.space] = space
            manifest.add_input(path)
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


def _manifest(args, seed: int, output, config: dict) -> RunManifest:
    """The run's manifest, written beside ``output``; the text options join ``config``."""
    return RunManifest(command=args.command, config={**config, **_text_options(args)},
                       seeds={"seed": seed}, tool_version=__version__,
                       directory=Path(output).parent)


def _eval_manifest(args, seed: int) -> RunManifest:
    return _manifest(args, seed, args.out, {
        "runs": args.runs, "epochs": args.epochs, "batch_size": args.batch_size,
        "lr_grid": args.lr_grid, "val_fraction": args.val_fraction,
        "test_fraction": args.test_fraction, "znorm": args.znorm,
    })


def _report_outputs(base, report: EvalReport, manifest: RunManifest) -> dict[str, str]:
    """The report as JSON and markdown, then the manifest, at ``base`` plus a suffix."""
    return {f"{base}.json": emit_report(report, "json"),
            f"{base}.md": emit_report(report, "markdown"),
            f"{base}.manifest.json": manifest.to_json()}


# --- commands -----------------------------------------------------------------
# Each takes the parsed options and the seed, and returns {path: text} in the
# order main writes them, the manifest last.


def cmd_embed(args, seed: int) -> dict[str, str]:
    manifest = _manifest(args, seed, args.output, {"znorm": args.znorm})
    cfg = _load_config(args.config, args, manifest)
    manifest.config["pooling"] = [
        {"space": part.space.name, "p": [format_p(p) for p in part.p_values]}
        for part in cfg.parts
    ]

    # one sentence per "\n"; str.splitlines would also break at \x0c, \x85, U+2028, ...
    text = read_text(args.input)
    sentences = text.removesuffix("\n").split("\n") if text else []
    manifest.add_input(args.input)

    X, stats = embed_corpus(cfg, sentences)
    if args.znorm and X.shape[0] > 0:
        params = znorm_fit(X)
        X = znorm_apply(params, X)
        manifest.extra["znorm_params"] = {
            "mean": params.mean.tolist(), "std": params.std.tolist(),
        }
    manifest.extra["undefined_pool_entries"] = stats.undefined_total

    lines = [float_row_text(row, "\t") for row in X]
    return {args.output: "\n".join(lines) + ("\n" if lines else ""),
            f"{args.output}.manifest.json": manifest.to_json()}


def cmd_train_projection(args, seed: int) -> dict[str, str]:
    cfg = _projection_config_of(args, seed)
    manifest = _manifest(args, seed, args.model_out, {
        "shared_dim": cfg.shared_dim, "margin": cfg.margin, "dropout": cfg.dropout_rate,
        "epochs": cfg.max_epochs, "batch_size": cfg.batch_size, "step_size": cfg.step_size,
    })
    src_space = load_text_embeddings(args.source_embeddings)
    tgt_space = load_text_embeddings(args.target_embeddings)
    manifest.add_input(args.source_embeddings)
    manifest.add_input(args.target_embeddings)

    src_texts, tgt_texts = [], []
    for lineno, line in read_lines(args.pairs):
        src, tab, tgt = line.partition("\t")
        if not tab:
            raise InputError(f"{args.pairs}:{lineno}: expected 'source TAB target'")
        src_texts.append(src)
        tgt_texts.append(tgt)
    manifest.add_input(args.pairs)
    if not src_texts:
        raise InputError(f"{args.pairs}: no sentence pairs")

    # each side is represented by its average word vector
    corpus = ParallelCorpus(*(
        embed_corpus(_pooled([PooledPart(space, [1.0])], args), texts)[0]
        for space, texts in ((src_space, src_texts), (tgt_space, tgt_texts))))
    model, history = train_projection(corpus, cfg)

    history_csv = "epoch,mean_loss\n" + "".join(
        f"{epoch},{loss!r}\n" for epoch, loss in enumerate(history, start=1))
    return {args.model_out: projection_json(model), args.history_out: history_csv,
            f"{args.model_out}.manifest.json": manifest.to_json()}


def cmd_eval(args, seed: int) -> dict[str, str]:
    manifest = _eval_manifest(args, seed)
    cfg = _load_config(args.config, args, manifest)
    ds = load_task(args.task)
    manifest.add_input(args.task)
    report = evaluate_report([(cfg, cfg)], [ds], _protocol_of(args, seed))
    return _report_outputs(args.out, report, manifest)


def cmd_eval_transfer(args, seed: int) -> dict[str, str]:
    manifest = _eval_manifest(args, seed)
    loaded = {}  # both configs often name one bilingual file; parse it once
    cfg_src = _load_config(args.source_config, args, manifest, loaded)
    cfg_tgt = _load_config(args.target_config, args, manifest, loaded)
    pair = TransferPair(train=load_task(args.train_task), test=load_task(args.test_task))
    manifest.add_input(args.train_task)
    manifest.add_input(args.test_task)
    report = evaluate_report([(cfg_src, cfg_tgt)], [pair], _protocol_of(args, seed))
    return _report_outputs(args.out, report, manifest)


def cmd_sweep(args, seed: int) -> dict[str, str]:
    manifest = _eval_manifest(args, seed)
    manifest.config["p_sets"] = args.p_set
    cfg = _load_config(args.config, args, manifest)
    p_sets = [[parse_p(tok) for tok in ps.split(",") if tok] for ps in args.p_set]

    tasks = []
    for task_path in args.task:
        tasks.append(load_task(task_path))
        manifest.add_input(task_path)
    report = sweep_pmeans(cfg, p_sets, tasks, _protocol_of(args, seed))
    return _report_outputs(args.out, report, manifest)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path, text in args.func(args, _seed_of(args)).items():
            write_atomic(path, text)
        return 0
    except NumericalPolicyError as exc:
        print(f"pmean: numerical policy error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"pmean: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
