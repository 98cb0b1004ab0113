"""Bilingual projection: two tanh maps into a shared space, trained with a
cosine max-margin ranking loss over (sentence, translation, random) triples.

Training operates on sentence-average vectors; the learned maps are then
applied to individual word vectors, which live in the same space as the
averages.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import DimensionError, FormatError, InputError, NumericalPolicyError
from .optim import AdamState, Layout, Params, adam_step
from .textio import read_text

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
        if not math.isfinite(self.margin):
            raise InputError(f"projection margin must be finite, got {self.margin}")

    @property
    def dims(self) -> tuple[int, int, int]:
        """(e, f, d): input dims of the two sides and the shared output dim."""
        return self.W_l.shape[1], self.W_k.shape[1], self.W_l.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"W_l": self.W_l, "b_l": self.b_l, "W_k": self.W_k, "b_k": self.b_k}


@dataclass
class ProjectionTrainConfig:
    """Hyperparameters of the ranking-loss training loop."""

    shared_dim: int = 300
    margin: float = 0.5
    dropout_rate: float = 0.5
    step_size: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.dropout_rate < 1:
            raise InputError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.shared_dim <= 0 or self.batch_size <= 0 or self.max_epochs < 0:
            raise InputError("shared_dim and batch_size must be positive, max_epochs >= 0")
        if not math.isfinite(self.margin):
            raise InputError(f"margin must be finite, got {self.margin}")
        if not 0 < self.step_size < math.inf:
            raise InputError(f"step_size must be finite and positive, got {self.step_size}")


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


def hinge_loss_grads(params: Params, Xs, Xt, Xu, margin: float, out: Params | None = None):
    """Mean hinge loss over a batch of triples plus analytic parameter gradients.

    ``params`` holds W_l, b_l, W_k and b_k as in ProjectionModel.params().
    Accepts single vectors or B x dim stacks. Gradients are exact except at
    the hinge kink and at guarded zero-norm projections, where the
    subgradient 0 is used. They are written into ``out``, arrays shaped like
    ``params`` (a trainer passes views of one flat gradient vector), or into
    new arrays when ``out`` is None; the filled dict is returned either way.
    """
    losses, cache = _hinge_forward(params, Xs, Xt, Xu, margin)
    Xs, Xt, Xu, Rs, Rt, Ru, ns, nt, nu, n_st, n_su, cos_st, cos_su, guard = cache
    B = Xs.shape[0]
    active = (losses > 0).astype(np.float64)[:, None]

    # gradients of each row cosine w.r.t. its two rows
    ns2 = ns**2
    d_st_s = Rt / n_st - cos_st * Rs / ns2
    d_st_t = Rs / n_st - cos_st * Rt / nt**2
    d_su_s = Ru / n_su - cos_su * Rs / ns2
    d_su_u = Rs / n_su - cos_su * Ru / nu**2
    if guard is not None:
        g_st, g_su = guard
        d_st_s = np.where(g_st, 0.0, d_st_s)
        d_st_t = np.where(g_st, 0.0, d_st_t)
        d_su_s = np.where(g_su, 0.0, d_su_s)
        d_su_u = np.where(g_su, 0.0, d_su_u)

    # d loss / d cos_st = -active/B, d loss / d cos_su = +active/B
    dRs = (-d_st_s + d_su_s) * active / B
    dRt = -d_st_t * active / B
    dRu = d_su_u * active / B

    dZs = dRs * (1.0 - Rs**2)
    dZt = dRt * (1.0 - Rt**2)
    dZu = dRu * (1.0 - Ru**2)

    if out is None:
        out = {name: np.empty(np.shape(p)) for name, p in params.items()}
    np.matmul(dZs.T, Xs, out=out["W_l"])
    np.add.reduce(dZs, axis=0, out=out["b_l"])
    np.matmul(dZt.T, Xt, out=out["W_k"])
    out["W_k"] += dZu.T @ Xu
    np.add.reduce(dZt, axis=0, out=out["b_k"])
    out["b_k"] += np.add.reduce(dZu, axis=0)
    return _clipped_mean(losses), out


def mean_hinge_loss(params: Params, Xs, Xt, Xu, margin: float) -> float:
    """The loss ``hinge_loss_grads`` returns, from its forward pass alone."""
    losses, _ = _hinge_forward(params, Xs, Xt, Xu, margin)
    return _clipped_mean(losses)


def _clipped_mean(losses) -> float:
    """The mean of the positive parts of ``losses``.

    Finite losses near the float limit can overflow the sum while the mean
    is finite; only then is the mean taken over the losses scaled by their
    largest (Higham 2002, ch. 4), so every other mean keeps its arithmetic.
    """
    clipped = np.maximum(losses, 0.0)
    with np.errstate(over="ignore"):
        mean = clipped.mean()
    if np.isinf(mean) and np.isfinite(clipped).all():
        top = clipped.max()
        mean = top * (clipped / top).mean()
    return float(mean)


def _hinge_forward(params: Params, Xs, Xt, Xu, margin: float):
    """Per-triple hinge terms and what their gradients reuse.

    Each of Rs, Rt and Ru has its row norms computed once, and each norm
    product is formed once. A norm below the guard is replaced by 1 and the
    cosines of its triples are taken as 0; ``guard`` is None when no row
    needs that, and otherwise holds the (source-target, source-negative)
    masks of guarded triples.
    """
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    Xt = np.atleast_2d(np.asarray(Xt, dtype=np.float64))
    Xu = np.atleast_2d(np.asarray(Xu, dtype=np.float64))

    # the same tanh(x W^T + b) that project() computes
    Rs = np.tanh(Xs @ params["W_l"].T + params["b_l"])
    Rt = np.tanh(Xt @ params["W_k"].T + params["b_k"])
    Ru = np.tanh(Xu @ params["W_k"].T + params["b_k"])

    # np.linalg.norm's own arithmetic for real rows, without its per-call overhead
    ns, nt, nu = (np.sqrt(np.add.reduce(R * R, axis=1, keepdims=True)) for R in (Rs, Rt, Ru))
    small_s, small_t, small_u = ns < _NORM_GUARD, nt < _NORM_GUARD, nu < _NORM_GUARD
    guard = None
    if small_s.any() or small_t.any() or small_u.any():
        guard = (small_s | small_t, small_s | small_u)
        ns = np.where(small_s, 1.0, ns)
        nt = np.where(small_t, 1.0, nt)
        nu = np.where(small_u, 1.0, nu)

    n_st = ns * nt
    n_su = ns * nu
    cos_st = (Rs * Rt).sum(axis=1, keepdims=True) / n_st
    cos_su = (Rs * Ru).sum(axis=1, keepdims=True) / n_su
    if guard is not None:
        cos_st = np.where(guard[0], 0.0, cos_st)
        cos_su = np.where(guard[1], 0.0, cos_su)

    losses = margin - cos_st[:, 0] + cos_su[:, 0]
    return losses, (Xs, Xt, Xu, Rs, Rt, Ru, ns, nt, nu, n_st, n_su, cos_st, cos_su, guard)


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

    history: list[float] = []
    t = 0
    with np.errstate(all="ignore"):  # a diverging run fails the one check below instead
        for _ in range(cfg.max_epochs):
            order = rng.permutation(n)
            negatives = _derangement(rng, n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xs = corpus.source[idx]
                xt = corpus.target[idx]
                xu = corpus.target[negatives[idx]]
                if cfg.dropout_rate > 0:
                    xs = xs * (rng.random(xs.shape) < keep) / keep
                    xt = xt * (rng.random(xt.shape) < keep) / keep
                    xu = xu * (rng.random(xu.shape) < keep) / keep
                hinge_loss_grads(params, xs, xt, xu, cfg.margin, out=grads)
                t += 1
                adam_step(flat, gflat, state, t, step_size=cfg.step_size)
            history.append(mean_hinge_loss(
                params, corpus.source, corpus.target, corpus.target[negatives], cfg.margin
            ))
    if not (np.isfinite(flat).all() and np.isfinite(history).all()):
        raise NumericalPolicyError(f"projection training with margin {cfg.margin!r} and step "
                                   f"size {cfg.step_size!r} gave non-finite parameters or losses")
    return ProjectionModel(margin=cfg.margin, **params), history


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
    W, _ = _side_params(model, side)
    if space.dim != W.shape[1]:
        raise DimensionError(
            f"space dim {space.dim} != {side} input dim {W.shape[1]}"
        )
    return EmbeddingSpace(
        name=f"{space.name}.projected",
        dim=W.shape[0],
        vocab=dict(space.vocab),
        matrix=project(model, side, space.matrix),
        language_tag=space.language_tag,
    )


# --- serialization -----------------------------------------------------------


def projection_json(model: ProjectionModel) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "dims": dict(zip(("e", "f", "d"), model.dims)),
        "margin": model.margin,
        "W_l": model.W_l.tolist(),
        "b_l": model.b_l.tolist(),
        "W_k": model.W_k.tolist(),
        "b_k": model.b_k.tolist(),
    }
    return json.dumps(doc, indent=1) + "\n"


def load_projection(path) -> ProjectionModel:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported model format_version {version!r}")
    try:
        model = ProjectionModel(
            W_l=_json_numbers(doc["W_l"], 2),
            b_l=_json_numbers(doc["b_l"], 1),
            W_k=_json_numbers(doc["W_k"], 2),
            b_k=_json_numbers(doc["b_k"], 1),
            margin=float(_json_numbers(doc["margin"], 0)),
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


def _json_numbers(value, ndim: int) -> np.ndarray:
    """A parsed JSON value as a float64 array, if it is numbers nested ``ndim`` lists deep.

    Strings, booleans and null raise TypeError, though numpy would convert them.
    """
    leaves = [value]
    for _ in range(ndim):
        if not all(type(v) is list for v in leaves):
            raise TypeError(f"expected numbers nested {ndim} lists deep")
        leaves = list(chain.from_iterable(leaves))
    if not {type(v) for v in leaves} <= {int, float}:
        raise TypeError("expected JSON numbers, not strings, booleans or null")
    return np.array(value, dtype=np.float64)
