"""Command-line surface: embed, train-projection, eval, eval-transfer, sweep.

Every command resolves its options into a RunManifest, computes all outputs
in memory, and only then writes files (atomically), so a failing run never
leaves partial outputs behind. Exit codes: 0 ok, 2 input/format error,
3 numerical-policy error (--strict, or a non-finite z-norm or training result),
64 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .classifier import TrainProtocol
from .embeddings import OovPolicy, TokenizerConfig, load_text_embeddings
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
from .textio import read_lines, read_text

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _default_seed() -> int:
    value = os.environ.get("PMEAN_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise InputError(f"PMEAN_SEED must be an integer, got {value!r}") from None


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
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr-grid", default="0.1,0.01,0.001,0.0001",
                   help="comma-separated learning rates to grid-search")
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--test-fraction", type=float, default=0.2)
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
    p.add_argument("--shared-dim", type=int, default=300)
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--step-size", type=float, default=1e-3)
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
    seed = args.seed if args.seed is not None else _default_seed()
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return seed


def _policies(args):
    return TokenizerConfig(lowercase=not args.no_lowercase), OovPolicy(mode=args.oov), args.strict


def _load_config(config_path, manifest: RunManifest, loaded: dict | None = None) -> PooledConfig:
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
    return PooledConfig(parts)


def _protocol_of(args) -> TrainProtocol:
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
        seed=_seed_of(args),
    )


def _protocol_config(args) -> dict:
    return {
        "runs": args.runs, "epochs": args.epochs, "batch_size": args.batch_size,
        "lr_grid": args.lr_grid, "val_fraction": args.val_fraction,
        "test_fraction": args.test_fraction, "znorm": args.znorm,
        "oov": args.oov, "strict": args.strict, "lowercase": not args.no_lowercase,
    }


def _eval_manifest(args) -> RunManifest:
    return RunManifest(
        command=args.command, config=_protocol_config(args),
        seeds={"seed": _seed_of(args)}, tool_version=__version__,
        directory=Path(args.out).parent,
    )


def _scoring(args) -> tuple:
    """The protocol, znorm flag, policies and strict flag every evaluation call takes."""
    return _protocol_of(args), args.znorm, *_policies(args)


def _write_report(base, report: EvalReport, manifest: RunManifest) -> None:
    base = Path(base)
    write_atomic(base.with_suffix(".json"), emit_report(report, "json"))
    write_atomic(base.with_suffix(".md"), emit_report(report, "markdown"))
    write_atomic(base.with_suffix(".manifest.json"), manifest.to_json())


# --- commands -----------------------------------------------------------------


def cmd_embed(args) -> int:
    seed = _seed_of(args)
    manifest = RunManifest(
        command="embed",
        config={"znorm": args.znorm, "oov": args.oov, "strict": args.strict,
                "lowercase": not args.no_lowercase},
        seeds={"seed": seed},
        tool_version=__version__,
        directory=Path(args.output).parent,
    )
    cfg = _load_config(args.config, manifest)
    manifest.config["pooling"] = [
        {"space": part.space.name, "p": [format_p(p) for p in part.p_values]}
        for part in cfg.parts
    ]

    # one sentence per "\n"; str.splitlines would also break at \x0c, \x85, U+2028, ...
    text = read_text(args.input)
    sentences = text.removesuffix("\n").split("\n") if text else []
    manifest.add_input(args.input)

    tokenizer, oov, strict = _policies(args)
    X, stats = embed_corpus(cfg, sentences, tokenizer, oov, strict=strict)
    if args.znorm and X.shape[0] > 0:
        params = znorm_fit(X)
        X = znorm_apply(params, X)
        manifest.extra["znorm_params"] = {
            "mean": params.mean.tolist(), "std": params.std.tolist(),
        }
    manifest.extra["undefined_pool_entries"] = stats.undefined_total

    lines = ["\t".join(repr(float(v)) for v in row) for row in X]
    write_atomic(args.output, "\n".join(lines) + ("\n" if lines else ""))
    write_atomic(str(args.output) + ".manifest.json", manifest.to_json())
    return 0


def cmd_train_projection(args) -> int:
    seed = _seed_of(args)
    cfg = ProjectionTrainConfig(
        shared_dim=args.shared_dim, margin=args.margin, dropout_rate=args.dropout,
        step_size=args.step_size, batch_size=args.batch_size,
        max_epochs=args.epochs, seed=seed,
    )
    manifest = RunManifest(
        command="train-projection",
        config={"shared_dim": cfg.shared_dim, "margin": cfg.margin,
                "dropout": cfg.dropout_rate, "epochs": cfg.max_epochs,
                "batch_size": cfg.batch_size, "step_size": cfg.step_size,
                "oov": args.oov, "strict": args.strict, "lowercase": not args.no_lowercase},
        seeds={"seed": seed},
        tool_version=__version__,
        directory=Path(args.model_out).parent,
    )
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
    tokenizer, oov, strict = _policies(args)
    corpus = ParallelCorpus(*(
        embed_corpus(PooledConfig([PooledPart(space, [1.0])]), texts, tokenizer, oov, strict=strict)[0]
        for space, texts in ((src_space, src_texts), (tgt_space, tgt_texts))))
    model, history = train_projection(corpus, cfg)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "mean_loss"])
    for epoch, loss in enumerate(history, start=1):
        writer.writerow([epoch, repr(loss)])

    write_atomic(args.model_out, projection_json(model))
    write_atomic(args.history_out, buf.getvalue())
    write_atomic(str(args.model_out) + ".manifest.json", manifest.to_json())
    return 0


def cmd_eval(args) -> int:
    manifest = _eval_manifest(args)
    cfg = _load_config(args.config, manifest)
    ds = load_task(args.task)
    manifest.add_input(args.task)
    report = evaluate_report([(cfg, cfg)], [ds], *_scoring(args))
    _write_report(args.out, report, manifest)
    return 0


def cmd_eval_transfer(args) -> int:
    manifest = _eval_manifest(args)
    loaded = {}  # both configs often name one bilingual file; parse it once
    cfg_src = _load_config(args.source_config, manifest, loaded)
    cfg_tgt = _load_config(args.target_config, manifest, loaded)
    pair = TransferPair(train=load_task(args.train_task), test=load_task(args.test_task))
    manifest.add_input(args.train_task)
    manifest.add_input(args.test_task)
    report = evaluate_report([(cfg_src, cfg_tgt)], [pair], *_scoring(args))
    _write_report(args.out, report, manifest)
    return 0


def cmd_sweep(args) -> int:
    manifest = _eval_manifest(args)
    manifest.config["p_sets"] = args.p_set
    cfg = _load_config(args.config, manifest)
    spaces = {part.space.name: part.space for part in cfg.parts}.values()
    p_sets = [[parse_p(tok) for tok in ps.split(",") if tok] for ps in args.p_set]

    tasks = []
    for task_path in args.task:
        tasks.append(load_task(task_path))
        manifest.add_input(task_path)
    report = sweep_pmeans(spaces, p_sets, tasks, *_scoring(args))
    _write_report(args.out, report, manifest)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except NumericalPolicyError as exc:
        print(f"pmean: numerical policy error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"pmean: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
