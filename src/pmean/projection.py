"""Bilingual projection: two tanh maps into a shared space, trained with a
cosine max-margin ranking loss over (sentence, translation, random) triples.

Training operates on sentence-average vectors; the learned maps are then
applied to individual word vectors, which live in the same space as the
averages. The model file is written and read through ``textio``'s JSON functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import DimensionError, FormatError, InputError, NumericalPolicyError
from .optim import AdamState, Layout, Params, adam_step
from .settings import ProjectionTrainConfig
from .textio import json_document, json_numbers, json_text, read_input, read_text

MODEL_FORMAT_VERSION = 1
SIDES = ("source", "target")
_NORM_GUARD = 1e-12


@dataclass
class ProjectionModel:
    """Parameters of the two affine-tanh maps and the training margin."""

    W_l: np.ndarray  # d x e, source side
    b_l: np.ndarray
    W_k: np.ndarray  # d x f, target side
    b_k: np.ndarray
    margin: float = 0.5

    def __post_init__(self):
        for name in ("W_l", "b_l", "W_k", "b_k"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if not np.isfinite(arr).all():
                raise InputError(f"projection parameter {name} contains non-finite entries")
        if not (self.W_l.ndim == self.W_k.ndim == 2
                and self.W_l.shape[:1] == self.W_k.shape[:1] == self.b_l.shape == self.b_k.shape):
            raise DimensionError("projection parameter shapes disagree on shared dim")
        if min(self.dims) <= 0:
            raise InputError(f"projection dims must be positive, got (e, f, d) = {self.dims}")
        if not math.isfinite(self.margin):
            raise InputError(f"projection margin must be finite, got {self.margin}")

    @property
    def dims(self) -> tuple[int, int, int]:
        """(e, f, d): input dims of the two sides and the shared output dim."""
        return self.W_l.shape[1], self.W_k.shape[1], self.W_l.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"W_l": self.W_l, "b_l": self.b_l, "W_k": self.W_k, "b_k": self.b_k}


@dataclass
class ParallelCorpus:
    """Aligned sentence-average vectors: row i of source translates row i of target."""

    source: np.ndarray  # N x e
    target: np.ndarray  # N x f

    def __post_init__(self):
        self.source = np.atleast_2d(np.asarray(self.source, dtype=np.float64))
        self.target = np.atleast_2d(np.asarray(self.target, dtype=np.float64))
        if self.source.shape[0] != self.target.shape[0]:
            raise DimensionError("source and target pair counts differ")
        if self.source.shape[0] == 0:
            raise InputError("parallel corpus is empty")
        if not (np.isfinite(self.source).all() and np.isfinite(self.target).all()):
            raise InputError("parallel corpus contains non-finite vectors")

    def __len__(self) -> int:
        return self.source.shape[0]


def init_projection(e: int, f: int, d: int, seed: int) -> ProjectionModel:
    """Fan-scaled uniform weights, zero biases; deterministic per seed."""
    if min(e, f, d) <= 0:
        raise InputError("projection dims must be positive")
    rng = np.random.default_rng(seed)
    a_l = np.sqrt(6.0 / (e + d))
    a_k = np.sqrt(6.0 / (f + d))
    return ProjectionModel(
        W_l=rng.uniform(-a_l, a_l, size=(d, e)),
        b_l=np.zeros(d),
        W_k=rng.uniform(-a_k, a_k, size=(d, f)),
        b_k=np.zeros(d),
    )


def project(model: ProjectionModel, side: str, x: np.ndarray) -> np.ndarray:
    """Map a vector (or row-stack of vectors) through one side's tanh map."""
    W, b = _side_params(model, side)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != W.shape[1]:
        raise DimensionError(f"{side} input dim {x.shape[-1]} != expected {W.shape[1]}")
    return np.tanh(x @ W.T + b)


def _side_params(model: ProjectionModel, side: str):
    if side == "source":
        return model.W_l, model.b_l
    if side == "target":
        return model.W_k, model.b_k
    raise InputError(f"side must be one of {SIDES}, got {side!r}")


def hinge_loss_grads(params: Params, Xs, Xt, Xu, margin: float, out: Params):
    """Per-triple hinge terms of a batch plus the analytic gradients of their clipped mean.

    ``params`` holds W_l, b_l, W_k and b_k as in ProjectionModel.params().
    Accepts single vectors or B x dim stacks. Returns ``(losses, out)``:
    ``losses`` is the (B,) array of unclipped terms ``margin - cos_st +
    cos_su``, and ``_clipped_mean(losses)`` is the batch loss, which the
    trainer does not compute. Gradients are exact except at the hinge kink
    and at guarded zero-norm projections, where the subgradient 0 is used.
    They are written into ``out``, arrays shaped like ``params`` (the
    trainer passes views of one flat gradient vector), and the filled dict
    is returned.
    """
    Xs, Xt, Xu, R = _project_triples(params, Xs, Xt, Xu)
    RR = R * R  # the row norms' squares, then the tanh derivative 1 - R**2
    losses, n, n_pair, cos, guard = _hinge_terms(R, _row_norms(RR), margin)
    B = R.shape[1]
    active = (losses > 0).astype(np.float64)[:, None]

    # gradients of the (source-target, source-negative) cosines w.r.t. the
    # source row (d_s) and w.r.t. the other row (d_o, written into dZ[1:]):
    # d_s = R[1:] / n_pair - cos * R[0] / n2[0]
    # d_o = R[0] / n_pair - cos * R[1:] / n2[1:]
    n2 = n**2
    dZ = np.empty_like(R)
    d_s = np.empty_like(dZ[1:])
    scratch = np.empty_like(d_s)
    d_o = dZ[1:]
    np.divide(R[1:], n_pair, out=d_s)
    np.multiply(cos, R[0], out=scratch)
    scratch /= n2[0]
    d_s -= scratch
    np.divide(R[0], n_pair, out=d_o)
    np.multiply(cos, R[1:], out=scratch)
    scratch /= n2[1:]
    d_o -= scratch
    if guard is not None:
        np.copyto(d_s, 0.0, where=guard)
        np.copyto(d_o, 0.0, where=guard)

    # d loss / d cos_st = -active/B, d loss / d cos_su = +active/B; then
    # through tanh, to the pre-activations of all three sides at once
    np.subtract(d_s[1], d_s[0], out=dZ[0])
    np.negative(dZ[1], out=dZ[1])
    dZ *= active
    dZ /= B
    np.subtract(1.0, RR, out=RR)
    dZ *= RR

    np.matmul(dZ[0].T, Xs, out=out["W_l"])
    np.add.reduce(dZ[0], axis=0, out=out["b_l"])
    np.matmul(dZ[1].T, Xt, out=out["W_k"])
    out["W_k"] += dZ[2].T @ Xu
    np.add.reduce(dZ[1], axis=0, out=out["b_k"])
    out["b_k"] += np.add.reduce(dZ[2], axis=0)
    return losses, out


def _epoch_loss(params: Params, corpus: ParallelCorpus, negatives: np.ndarray,
                margin: float) -> float:
    """The mean hinge loss of the corpus's triples against ``negatives``.

    It is ``_clipped_mean`` of the per-triple terms ``hinge_loss_grads``
    would return for the whole corpus as one batch, bit for bit, without the
    gradients.

    The target rows are projected once; the negatives' projections and
    norms are those rows gathered by ``negatives``, not a third product.
    """
    R = np.empty((3, len(corpus), params["b_l"].size))
    _project_sides(R[:2], params, corpus.source, corpus.target)
    n = np.empty(R.shape[:2] + (1,))
    n[:2] = _row_norms(R[:2] * R[:2])
    # every index is in range; mode="raise" would also buffer ``out``
    np.take(R[1], negatives, axis=0, out=R[2], mode="clip")
    np.take(n[1], negatives, axis=0, out=n[2], mode="clip")
    return _clipped_mean(_hinge_terms(R, n, margin)[0])


def _clipped_mean(losses) -> float:
    """The mean of the positive parts of ``losses``.

    Finite losses near the float limit can overflow the sum while the mean
    is finite; only then is the mean taken over the losses scaled by their
    largest (Higham 2002, ch. 4), so every other mean keeps its arithmetic.
    """
    clipped = np.maximum(losses, 0.0)
    with np.errstate(over="ignore"):
        mean = np.add.reduce(clipped) / clipped.size  # what .mean() computes
    if np.isinf(mean) and np.isfinite(clipped).all():
        top = clipped.max()
        mean = top * (clipped / top).mean()
    return float(mean)


def _project_sides(R: np.ndarray, params: Params, Xs, *Xk) -> np.ndarray:
    """Fill ``R`` with the tanh(x W^T + b) that project() computes, and return it.

    ``R[0]`` gets the source rows ``Xs`` and ``R[k]`` the target-side rows
    ``Xk[k - 1]``; the bias add and tanh run once over the stack. Each side
    keeps its own product: one product over stacked target and negative rows
    does not give every row the same bits as its own.
    """
    np.matmul(Xs, params["W_l"].T, out=R[0])
    for k, X in enumerate(Xk, start=1):
        np.matmul(X, params["W_k"].T, out=R[k])
    R[0] += params["b_l"]
    R[1:] += params["b_k"]
    return np.tanh(R, out=R)


def _project_triples(params: Params, Xs, Xt, Xu):
    """The triples' rows as float64 matrices, and their projections stacked as (3, B, d)."""
    Xs = np.asarray(Xs, dtype=np.float64)
    Xt = np.asarray(Xt, dtype=np.float64)
    Xu = np.asarray(Xu, dtype=np.float64)
    if Xs.ndim < 2 or Xt.ndim < 2 or Xu.ndim < 2:  # single vectors; the trainer's are rows
        Xs, Xt, Xu = np.atleast_2d(Xs, Xt, Xu)
    R = np.empty((3, Xs.shape[0], params["b_l"].size))
    return Xs, Xt, Xu, _project_sides(R, params, Xs, Xt, Xu)


def _row_norms(squares: np.ndarray) -> np.ndarray:
    """Each row's norm from ``R * R``, the squares of its entries, keeping a unit last axis.

    np.linalg.norm's own arithmetic for real rows, without its per-call overhead.
    """
    return np.sqrt(np.add.reduce(squares, axis=-1, keepdims=True))


def _hinge_terms(R: np.ndarray, n: np.ndarray, margin: float):
    """Per-triple hinge terms of stacked projections and what their gradients reuse.

    ``R`` stacks the source, target and negative projections as (3, B, d)
    and ``n`` their row norms as (3, B, 1). Each norm product is formed
    once; the pair axis of ``n_pair``, ``cos`` and ``guard`` is
    (source-target, source-negative). A norm below the guard is replaced by
    1 and the cosines of its triples are taken as 0; ``guard`` is None when
    no row needs that, and otherwise masks the guarded triples of each pair.
    """
    small = n < _NORM_GUARD
    guard = None
    if small.any():
        guard = small[0] | small[1:]
        n = np.where(small, 1.0, n)
    n_pair = n[0] * n[1:]
    cos = np.add.reduce(R[0] * R[1:], axis=-1, keepdims=True) / n_pair
    if guard is not None:
        cos = np.where(guard, 0.0, cos)
    losses = margin - cos[0, :, 0] + cos[1, :, 0]
    return losses, n, n_pair, cos, guard


def train_projection(
    corpus: ParallelCorpus, cfg: ProjectionTrainConfig
) -> tuple[ProjectionModel, list[float]]:
    """Train both maps on aligned pairs; returns the model and per-epoch mean loss.

    Each epoch reshuffles the pairs, draws one distinct negative per pair from
    the opposite side, applies inverted dropout to all inputs, and takes Adam
    steps on minibatch mean loss. The history entry for an epoch is the mean
    hinge loss over the whole corpus at epoch end, computed without dropout
    (dropout is train-time corruption only, never part of evaluation) against
    that epoch's negatives. Fully deterministic per cfg.seed. Raises
    NumericalPolicyError if the parameters or a history entry end non-finite.
    """
    n = len(corpus)
    if n < 2:
        raise InputError("parallel corpus needs at least 2 pairs so a distinct negative exists")
    e = corpus.source.shape[1]
    f = corpus.target.shape[1]

    init = init_projection(e, f, cfg.shared_dim, cfg.seed).params()
    layout = Layout(init)
    flat = layout.pack(init)
    params = layout.views(flat)
    gflat = np.empty_like(flat)
    grads = layout.views(gflat)
    state = AdamState.zeros_like(flat)
    rng = np.random.default_rng(cfg.seed)
    keep = 1.0 - cfg.dropout_rate
    # each step gathers its source, target and negative rows into views of
    # one buffer, side after side, and drops them out there in place; no batch
    # holds more than the n pairs, whatever cfg.batch_size asks for
    rows = np.empty(min(cfg.batch_size, n) * (e + 2 * f))
    draws = np.empty_like(rows)

    history: list[float] = []
    t = 0
    with np.errstate(all="ignore"):  # a diverging run fails the one check below instead
        for _ in range(cfg.max_epochs):
            order = rng.permutation(n)
            negatives = _derangement(rng, n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                m = idx.size
                a, b, c = m * e, m * (e + f), m * (e + 2 * f)
                # every index is in range; mode="raise" would also buffer ``out``
                xs = corpus.source.take(idx, 0, rows[:a].reshape(m, e), "clip")
                xt = corpus.target.take(idx, 0, rows[a:b].reshape(m, f), "clip")
                xu = corpus.target.take(negatives[idx], 0, rows[b:c].reshape(m, f), "clip")
                if cfg.dropout_rate > 0:
                    _drop_out(rng, rows[:c], draws[:c], keep)
                hinge_loss_grads(params, xs, xt, xu, cfg.margin, out=grads)
                t += 1
                adam_step(flat, gflat, state, t, step_size=cfg.step_size)
            history.append(_epoch_loss(params, corpus, negatives, cfg.margin))
    if not (np.isfinite(flat).all() and np.isfinite(history).all()):
        raise NumericalPolicyError(f"projection training with margin {cfg.margin!r} and step "
                                   f"size {cfg.step_size!r} gave non-finite parameters or losses")
    return ProjectionModel(margin=cfg.margin, **params), history


def _drop_out(rng: np.random.Generator, x: np.ndarray, u: np.ndarray, keep: float):
    """Inverted dropout in place of ``x``, the sides stacked flat one after another.

    Each side gets ``side * (rng.random(side.shape) < keep) / keep``, with the
    same values and bits: one draw into ``u`` (shaped like ``x``) takes the
    stream's doubles in order, as the sides' own draws in side order would,
    and the mask is applied in one pass over all sides.
    """
    rng.random(out=u)
    np.less(u, keep, out=u)  # 1.0 where kept, 0.0 where dropped
    x *= u
    x /= keep


def _derangement(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random permutation with no fixed points (each pair gets a distinct negative)."""
    perm = rng.permutation(n)
    fixed = np.flatnonzero(perm == np.arange(n))
    if fixed.size == 1:
        j = (fixed[0] + 1) % n
        perm[fixed[0]], perm[j] = perm[j], perm[fixed[0]]
    elif fixed.size > 1:
        perm[fixed] = perm[np.roll(fixed, 1)]
    return perm


def project_space(model: ProjectionModel, side: str, space: EmbeddingSpace) -> EmbeddingSpace:
    """Map every word vector of a space through one side; vocab is preserved."""
    return EmbeddingSpace(
        name=f"{space.name}.projected",
        vocab=dict(space.vocab),
        matrix=project(model, side, space.matrix),
        language_tag=space.language_tag,
    )


# --- serialization -----------------------------------------------------------


def projection_json(model: ProjectionModel) -> str:
    """The model as ``json.dumps(doc, indent=1) + "\n"`` writes it, each array as its list."""
    return json_text({
        "format_version": MODEL_FORMAT_VERSION,
        "dims": dict(zip(("e", "f", "d"), model.dims)),
        "margin": model.margin,
        **model.params(),
    }, 1)


def load_projection(path) -> ProjectionModel:
    doc = json_document(read_text(read_input(path)[0], path), path, "format_version",
                        MODEL_FORMAT_VERSION)
    try:
        model = ProjectionModel(
            W_l=json_numbers(doc["W_l"], 2),
            b_l=json_numbers(doc["b_l"], 1),
            W_k=json_numbers(doc["W_k"], 2),
            b_k=json_numbers(doc["b_k"], 1),
            margin=float(json_numbers(doc["margin"], 0)),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: model has no {exc.args[0]!r} key") from None
    # ValueError includes the model's own InputError; OverflowError, an integer past float range
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed model: {exc}") from None
    dims = dict(zip(("e", "f", "d"), model.dims))
    if doc.get("dims") != dims:
        raise FormatError(f"{path}: declared dims {doc.get('dims')} do not match arrays {dims}")
    return model
