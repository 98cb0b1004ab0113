"""In-process span tracing of one pmean CLI command, without editing pmean.

``Tracer.install`` replaces the public functions each layer exposes, as the
calling module references them (``pmean.cli.load_text_embeddings``,
``pmean.pooling.power_mean``, ``pmean.classifier.adam_step``, ...), with
wrappers that record a span per call and count the work the call did. Spans
are kept in memory as (name, start, end, parent, run id) tuples and written
out once, at the end of the benchmark.

A target that no longer exists is reported as absent, and the metrics that
depend on it read 0; a counting hook that fails is counted in ``hook_errors``.
"""
from __future__ import annotations

import hashlib
import importlib
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT_SPAN = "cli.main"


def _p_name(p) -> str:
    # pmean.pooling.format_p spells p the same way; it is not imported so
    # that the benchmark keeps running if a later refactor moves it.
    if p == math.inf:
        return "inf"
    if p == -math.inf:
        return "-inf"
    return str(int(p)) if float(p).is_integer() else repr(float(p))


# Every per-layer metric with its unit. The prefix before the first dot is
# the layer; perfbench/README.md says which end-to-end metric each should move.
POWER_MEAN_PS = ("1", "inf", "-inf", "3")
METRIC_UNITS = {
    "embeddings.load_s": "s",
    "embeddings.rows_parsed": "count",
    "embeddings.rows_per_s": "rows/s",
    "embeddings.bytes_parsed": "bytes",
    "embeddings.rows_used_ratio": "ratio",
    "embeddings.lookup_s": "s",
    "embeddings.tokens": "count",
    "embeddings.oov_tokens": "count",
    "pooling.embed_corpus_s": "s",
    "pooling.sentences": "count",
    "pooling.sentences_per_s": "sentences/s",
    "pooling.power_mean_calls": "count",
    **{f"pooling.power_mean_s.{p}": "s" for p in POWER_MEAN_PS},
    "pooling.undefined_entries": "count",
    "pooling.znorm_s": "s",
    "pooling.znorm_calls": "count",
    "classifier.fit_s": "s",
    "classifier.fit_calls": "count",
    "classifier.distinct_fit_ratio": "ratio",
    "classifier.metrics_s": "s",
    "optim.adam_steps.classifier": "count",
    "optim.adam_steps.projection": "count",
    "optim.adam_s.classifier": "s",
    "optim.adam_s.projection": "s",
    "evaluation.load_task_s": "s",
    "evaluation.fit_transfer_s": "s",
    "evaluation.score_transfer_s": "s",
    "evaluation.evaluate_monolingual_s": "s",
    "evaluation.emit_report_s": "s",
    "projection.train_s": "s",
    "projection.grad_calls": "count",
    "projection.grad_s": "s",
    "projection.model_builds": "count",
    "projection.pair_epochs_per_s": "pair-epochs/s",
    "manifest.hash_s": "s",
    "manifest.bytes_hashed": "bytes",
    "manifest.write_s": "s",
    "manifest.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# metric -> the span whose summed duration it is
_SPAN_TIMES = {
    "embeddings.load_s": "embeddings.load",
    "embeddings.lookup_s": "embeddings.lookup",
    "pooling.embed_corpus_s": "pooling.embed_corpus",
    **{f"pooling.power_mean_s.{p}": f"pooling.power_mean.{p}" for p in POWER_MEAN_PS},
    "pooling.znorm_s": "pooling.znorm",
    "classifier.fit_s": "classifier.fit",
    "classifier.metrics_s": "classifier.metrics",
    "optim.adam_s.classifier": "optim.adam.classifier",
    "optim.adam_s.projection": "optim.adam.projection",
    "evaluation.load_task_s": "evaluation.load_task",
    "evaluation.fit_transfer_s": "evaluation.fit_transfer",
    "evaluation.score_transfer_s": "evaluation.score_transfer",
    "evaluation.evaluate_monolingual_s": "evaluation.evaluate_monolingual",
    "evaluation.emit_report_s": "evaluation.emit_report",
    "projection.train_s": "projection.train",
    "projection.grad_s": "projection.grad",
    "manifest.hash_s": "manifest.hash",
    "manifest.write_s": "manifest.write",
}

# metric -> the span whose call count it is
_SPAN_CALLS = {
    "pooling.znorm_calls": "pooling.znorm",
    "classifier.fit_calls": "classifier.fit",
    "optim.adam_steps.classifier": "optim.adam.classifier",
    "optim.adam_steps.projection": "optim.adam.projection",
    "projection.grad_calls": "projection.grad",
    "projection.model_builds": "projection.model_build",
}

# metrics that only count work, so two runs on the same inputs must agree
COUNT_METRICS = tuple(m for m, unit in METRIC_UNITS.items() if unit in ("count", "bytes")) + (
    "embeddings.rows_used_ratio", "classifier.distinct_fit_ratio")


class Tracer:
    """Records spans and counts for the wrapped calls of one or more commands."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.run_id = 0
        self._run_start = 0
        self.absent: list[str] = []
        self.hook_errors: Counter = Counter()  # hook name -> calls it failed on
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._found: dict[int, set] = defaultdict(set)  # id(space) -> known tokens seen
        self._fit_inputs: set = set()
        self._patches: list = []

    # --- recording ------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                           self.run_id))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, run = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, run)

    def wrap(self, fn, name, before=None, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's arguments.

        ``before(args, kwargs)`` runs ahead of the span and its result is handed
        to ``after(token, args, kwargs, result)``, which runs after the span.
        """
        def wrapper(*args, **kwargs):
            token = self._hook(before, args, kwargs) if before else None
            span = self._hook(name, args, kwargs) if callable(name) else name
            idx = self._enter(span or "unnamed")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after:
                self._hook(after, token, args, kwargs, result)
            return result

        return wrapper

    def _hook(self, hook, *args):
        """Run a counting hook; a hook broken by a later refactor of pmean must
        not fail the command it observes, so its failures are only counted."""
        try:
            return hook(*args)
        except Exception:
            self.hook_errors[hook.__name__] += 1
            return None

    def run(self, main, argv) -> int:
        """Call ``main(argv)`` inside the root span of a new run id."""
        self._run_start = len(self.spans)
        idx = self._enter(ROOT_SPAN)
        try:
            return main(argv)
        finally:
            self._exit(idx)
            self.run_id += 1

    # --- installing -----------------------------------------------------------

    def install(self) -> None:
        """Replace every wrap target; targets that are gone are listed in ``absent``."""
        self.absent = []
        count = self._counts

        def after_load(_, args, kwargs, space):
            count["rows_parsed"] += len(space.vocab)
            count["bytes_parsed"] += Path(args[0]).stat().st_size

        def after_lookup(_, args, kwargs, looked):
            space, tokens = args[0], list(args[1])
            count["tokens"] += len(tokens)
            count["oov_tokens"] += looked.n_oov
            self._found[id(space)].update(t for t in tokens if t in space.vocab)

        def after_corpus(_, args, kwargs, X):
            count["sentences"] += len(X)

        def after_pool_sentence(_, args, kwargs, row):
            count["sentences"] += 1

        def before_power_mean(args, kwargs):
            policy = args[2] if len(args) > 2 else kwargs.get("policy")
            return policy, policy.undefined_counter if policy is not None else 0

        def after_power_mean(token, args, kwargs, out):
            policy, before = token
            count["power_mean_calls"] += 1
            if policy is not None:
                count["undefined_entries"] += policy.undefined_counter - before

        def power_mean_name(args, kwargs):
            p = args[1] if len(args) > 1 else kwargs["p"]
            return f"pooling.power_mean.{_p_name(p)}"

        def before_fit(args, kwargs):
            X, y, protocol, rng = args[:4]
            h = hashlib.sha1(np.ascontiguousarray(X, dtype=np.float64).data)
            h.update(repr((list(y), protocol, rng.bit_generator.state, args[4:],
                           sorted(kwargs.items()))).encode())
            self._fit_inputs.add(h.hexdigest())

        def after_train(_, args, kwargs, result):
            corpus, cfg = args[0], args[1]
            count["pair_epochs"] += len(corpus) * cfg.max_epochs

        def after_hash(_, args, kwargs, result):
            count["bytes_hashed"] += Path(args[1]).stat().st_size

        def after_write(_, args, kwargs, result):
            count["bytes_written"] += len(args[1].encode("utf-8"))

        targets = [
            ("pmean.cli", "load_text_embeddings", "embeddings.load", None, after_load),
            ("pmean.pooling", "lookup_sequence", "embeddings.lookup", None, after_lookup),
            ("pmean.cli", "embed_corpus", "pooling.embed_corpus", None, after_corpus),
            ("pmean.evaluation", "embed_corpus", "pooling.embed_corpus", None, after_corpus),
            ("pmean.cli", "pool_sentence", "pooling.embed_corpus", None, after_pool_sentence),
            ("pmean.pooling", "power_mean", power_mean_name, before_power_mean,
             after_power_mean),
            ("pmean.cli", "znorm_fit", "pooling.znorm", None, None),
            ("pmean.cli", "znorm_apply", "pooling.znorm", None, None),
            ("pmean.classifier", "znorm_fit", "pooling.znorm", None, None),
            ("pmean.classifier", "znorm_apply", "pooling.znorm", None, None),
            ("pmean.evaluation", "znorm_apply", "pooling.znorm", None, None),
            ("pmean.classifier", "fit", "classifier.fit", before_fit, None),
            ("pmean.classifier", "metrics", "classifier.metrics", None, None),
            ("pmean.evaluation", "metrics", "classifier.metrics", None, None),
            ("pmean.classifier", "adam_step", "optim.adam.classifier", None, None),
            ("pmean.projection", "adam_step", "optim.adam.projection", None, None),
            ("pmean.cli", "load_task", "evaluation.load_task", None, None),
            ("pmean.evaluation", "fit_transfer", "evaluation.fit_transfer", None, None),
            ("pmean.evaluation", "score_transfer", "evaluation.score_transfer", None, None),
            ("pmean.evaluation", "evaluate_monolingual", "evaluation.evaluate_monolingual",
             None, None),
            ("pmean.cli", "evaluate_monolingual", "evaluation.evaluate_monolingual",
             None, None),
            ("pmean.cli", "emit_report", "evaluation.emit_report", None, None),
            ("pmean.cli", "train_projection", "projection.train", None, after_train),
            ("pmean.projection", "hinge_loss_grads", "projection.grad", None, None),
            ("pmean.projection", "ProjectionModel", "projection.model_build", None, None),
            ("pmean.manifest", "RunManifest.add_input", "manifest.hash", None, after_hash),
            ("pmean.cli", "write_atomic", "manifest.write", None, after_write),
        ]
        for module_name, attr, name, before, after in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, before, after))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # --- per-run metrics ------------------------------------------------------

    def take_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics and self time per span name of the last traced run.

        A span's self time is its duration minus the time its child spans
        cover; calls in one thread nest, so children never overlap. Resets
        the counts for the next run.
        """
        offset = self._run_start
        spans = self.spans[offset:]
        total: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()  # span index -> time covered by its children
        for name, start, end, parent, _ in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_time[name] += end - start - child[offset + i]
        c = self._counts
        m = {metric: float(total[span]) for metric, span in _SPAN_TIMES.items()}
        m.update({metric: calls[span] for metric, span in _SPAN_CALLS.items()})
        found = sum(len(tokens) for tokens in self._found.values())
        m.update({
            "embeddings.rows_parsed": c["rows_parsed"],
            "embeddings.rows_per_s": _rate(c["rows_parsed"], m["embeddings.load_s"]),
            "embeddings.bytes_parsed": c["bytes_parsed"],
            "embeddings.rows_used_ratio": _rate(found, c["rows_parsed"]),
            "embeddings.tokens": c["tokens"],
            "embeddings.oov_tokens": c["oov_tokens"],
            "pooling.sentences": c["sentences"],
            "pooling.sentences_per_s": _rate(c["sentences"], m["pooling.embed_corpus_s"]),
            "pooling.power_mean_calls": c["power_mean_calls"],
            "pooling.undefined_entries": c["undefined_entries"],
            "classifier.distinct_fit_ratio": _rate(len(self._fit_inputs),
                                                   m["classifier.fit_calls"]),
            "projection.pair_epochs_per_s": _rate(c["pair_epochs"], m["projection.train_s"]),
            "manifest.bytes_hashed": c["bytes_hashed"],
            "manifest.bytes_written": c["bytes_written"],
            "cli.self_s": self_time[ROOT_SPAN],
        })
        self._counts.clear()
        self._found.clear()
        self._fit_inputs.clear()
        return m, dict(self_time)


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0
