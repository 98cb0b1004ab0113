"""Multiclass logistic regression probe with repeated-subsample scoring.

The classifier is deliberately plain: softmax cross-entropy trained with
minibatched Adam, a learning-rate grid tuned on a held-out validation slice,
and repeated stratified train/test subsampling to average out initialization
and split noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalPolicyError
from .optim import AdamState, adam_step
from .pooling import znorm_apply, znorm_fit

ACCURACY = "accuracy"
MACRO_F1 = "macro_f1"
METRICS = (ACCURACY, MACRO_F1)


@dataclass
class SoftmaxModel:
    """Weights, bias, and the fixed label order they were fit under."""

    weights: np.ndarray  # C x D
    bias: np.ndarray  # C
    class_labels: list

    def __post_init__(self):
        if len(self.class_labels) < 2:
            raise InputError("softmax model needs at least 2 classes")
        if self.weights.shape[0] != len(self.class_labels) or self.bias.shape != (
            self.weights.shape[0],
        ):
            raise InputError("softmax parameter shapes disagree with class count")

    def logits(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights.T + self.bias

    def predict(self, X: np.ndarray) -> list:
        idx = np.argmax(self.logits(X), axis=1)
        return [self.class_labels[i] for i in idx]


@dataclass
class TrainProtocol:
    """Settings for grid-tuned training and repeated subsample validation.

    ``znorm`` standardizes each run's rows with statistics fit on its train side.
    """

    lr_grid: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    batch_size: int = 32
    max_epochs: int = 25
    runs: int = 50
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    seed: int = 0
    znorm: bool = False

    def __post_init__(self):
        if not self.lr_grid or not all(0 < lr < math.inf for lr in self.lr_grid):
            raise InputError(f"lr_grid must be non-empty, finite and positive, got {self.lr_grid}")
        for name in ("val_fraction", "test_fraction"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise InputError(f"{name} must be in (0, 1), got {v}")
        if self.runs < 1:
            raise InputError("runs must be positive")
        if self.batch_size < 1 or self.max_epochs < 0:
            raise InputError("batch_size must be positive, max_epochs >= 0")


@dataclass
class EvalScore:
    """Per-run scores of one evaluation plus their mean and population std."""

    metric: str
    mean: float
    std: float
    per_run: list[float]

    @classmethod
    def from_runs(cls, metric: str, per_run) -> "EvalScore":
        per_run = [float(s) for s in per_run]
        return cls(
            metric=metric,
            mean=float(np.mean(per_run)),
            std=float(np.std(per_run)),
            per_run=per_run,
        )


def softmax_xent(model: SoftmaxModel, X: np.ndarray, y) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy of the model on (X, y) and its exact gradients."""
    y_idx = _label_indices(y, model.class_labels)
    params = {"W": model.weights, "b": model.bias}
    return _xent(params, np.asarray(X, dtype=np.float64), y_idx)


def _xent(params, X, y_idx):
    W, b = params["W"], params["b"]
    n = X.shape[0]
    logits = X @ W.T + b
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    loss = float(np.mean(log_z - logits[np.arange(n), y_idx]))
    probs = np.exp(logits - log_z[:, None])
    probs[np.arange(n), y_idx] -= 1.0
    probs /= n
    grads = {"W": probs.T @ X, "b": probs.sum(axis=0)}
    return loss, grads


def _label_indices(y, labels) -> np.ndarray:
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        return np.array([index[v] for v in y], dtype=np.intp)
    except KeyError as exc:
        raise InputError(f"unknown label {exc.args[0]!r}") from None


def _first_appearance_labels(y) -> list:
    seen = {}
    for v in y:
        if v not in seen:
            seen[v] = None
    return list(seen)


def _train_softmax(X, y_idx, n_classes, lrs, protocol, rngs):
    """Minibatched Adam on softmax cross-entropy, one cell per learning rate.

    The K cells step together as one ``(K, C*D + C)`` parameter array: row k
    is cell k's ``W.ravel()`` followed by its ``b``. Cell k draws its init and
    then one permutation per epoch from ``rngs[k]``, and its arithmetic is
    ``_xent``'s, so each row equals that cell trained on its own bit for bit.
    Returns the cells' ``(K, C, D)`` weights and ``(K, C)`` biases.
    """
    n, d = X.shape
    k, cd = len(lrs), n_classes * d

    def split(a):  # (K, C*D + C) -> the (K, C, D) weights and (K, C) biases, as views
        return a[:, :cd].reshape(k, n_classes, d), a[:, cd:]

    params = np.zeros((k, cd + n_classes))
    for row, rng in zip(params, rngs):
        row[:cd] = rng.normal(0.0, 0.01, size=cd)
    step_size = np.asarray(lrs, dtype=np.float64)[:, None]
    state = AdamState.zeros_like(params)
    grads = np.empty_like(params)
    W, b = split(params)
    grad_w, grad_b = split(grads)
    cells = np.arange(k)[:, None]
    t = 0
    for _ in range(protocol.max_epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, protocol.batch_size):
            idx = orders[:, start : start + protocol.batch_size]
            Xb, m = X[idx], idx.shape[1]
            # _xent's operations in its order, batched over the cells, without the loss
            logits = Xb @ W.transpose(0, 2, 1) + b[:, None, :]
            logits -= logits.max(axis=2, keepdims=True)
            log_z = np.log(np.exp(logits).sum(axis=2))
            probs = np.exp(logits - log_z[:, :, None])
            probs[cells, np.arange(m), y_idx[idx]] -= 1.0
            probs /= m
            np.matmul(probs.transpose(0, 2, 1), Xb, out=grad_w)
            probs.sum(axis=1, out=grad_b)
            t += 1
            adam_step(params, grads, state, t, step_size=step_size)
    return W, b


def _stratified_split(y_idx, fraction, rng, min_second=True, labels=None):
    """Per-class shuffle and split; second part gets ~fraction of each class.

    With min_second, every class must land at least one sample on each side
    (raises InputError naming the class otherwise); without it, small classes
    may be absent from the second part but always keep one in the first.
    """
    first, second = [], []
    for cls in np.unique(y_idx):
        members = np.flatnonzero(y_idx == cls)
        if min_second and members.size < 2:
            name = labels[cls] if labels is not None else cls
            raise InputError(f"class {name!r} has only {members.size} samples; cannot stratify")
        members = rng.permutation(members)
        k = int(round(fraction * members.size))
        lo = 1 if min_second else 0
        k = int(np.clip(k, lo, members.size - 1))
        second.extend(members[:k])
        first.extend(members[k:])
    return np.sort(np.array(first, dtype=np.intp)), np.sort(np.array(second, dtype=np.intp))


def fit(X, y, protocol: TrainProtocol, rng: np.random.Generator, metric_kind: str = ACCURACY,
        labels=None) -> SoftmaxModel:
    """Grid-search the learning rate on a validation slice and return the winner.

    Ties in validation score go to the smaller learning rate. The selected
    already-trained model is returned as-is (no refit on train+val); it
    raises NumericalPolicyError if its weights are not finite.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = list(labels) if labels is not None else _first_appearance_labels(y)
    if len(labels) < 2:
        raise InputError("need at least 2 classes to fit a classifier")
    y_idx = _label_indices(y, labels)

    train_idx, val_idx = _stratified_split(y_idx, protocol.val_fraction, rng, min_second=False)
    if val_idx.size == 0:
        val_idx = train_idx  # dataset too small to hold anything out
    cell_rngs = rng.spawn(len(protocol.lr_grid))
    candidates = []
    with np.errstate(all="ignore"):  # a diverging cell loses or fails the check below
        weights, biases = _train_softmax(X[train_idx], y_idx[train_idx], len(labels),
                                         protocol.lr_grid, protocol, cell_rngs)
        for lr, W, b in zip(protocol.lr_grid, weights, biases):
            # copies, so the returned model does not keep every cell's parameters alive
            model = SoftmaxModel(weights=W.copy(), bias=b.copy(), class_labels=labels)
            score = metrics([labels[i] for i in y_idx[val_idx]], model.predict(X[val_idx]),
                            metric_kind, labels=labels)
            candidates.append((-score, lr, model))
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, lr, model = candidates[0]
    if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
        raise NumericalPolicyError(f"classifier training with learning rate {lr!r} ended non-finite")
    return model


def metrics(y_true, y_pred, metric_kind: str, labels=None) -> float:
    """Accuracy or macro-F1 (empty-class F1 counts as 0 in the mean)."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    if not y_true or len(y_true) != len(y_pred):
        raise InputError("y_true and y_pred must be non-empty and equally long")
    if metric_kind == ACCURACY:
        return float(np.mean([t == p for t, p in zip(y_true, y_pred)]))
    if metric_kind != MACRO_F1:
        raise InputError(f"unknown metric {metric_kind!r}")

    if labels is None:
        labels = _first_appearance_labels(y_true + y_pred)
    f1s = []
    for lab in labels:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == lab and p == lab)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != lab and p == lab)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == lab and p != lab)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


def fit_runs(X, y, protocol: TrainProtocol, metric_kind: str = ACCURACY,
             labels=None) -> list[tuple]:
    """Fit every seeded subsample run; returns (model, znorm_params, test_indices) each.

    Splits are stratified 80/20 by default; z-norm statistics, with
    ``protocol.znorm``, are fit on each run's train side only. Run seeds derive
    from protocol.seed, so runs are reproducible and order-independent.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = list(labels) if labels is not None else _first_appearance_labels(y)
    y_idx = _label_indices(y, labels)
    runs = []
    for child in np.random.SeedSequence(protocol.seed).spawn(protocol.runs):
        rng = np.random.default_rng(child)
        train_idx, test_idx = _stratified_split(y_idx, protocol.test_fraction, rng,
                                                labels=labels)
        X_train = X[train_idx]
        zn = None
        if protocol.znorm:
            zn = znorm_fit(X_train)
            X_train = znorm_apply(zn, X_train)
        model = fit(X_train, [labels[i] for i in y_idx[train_idx]], protocol, rng,
                    metric_kind, labels=labels)
        runs.append((model, zn, test_idx))
    return runs


def score_runs(runs: list[tuple], X, y, metric_kind: str = ACCURACY,
               held_out: bool = False) -> EvalScore:
    """Score each fitted run on (X, y), or with held_out on its own test rows of it."""
    X = np.asarray(X, dtype=np.float64)
    y = list(y)
    scores = []
    for model, zn, test_idx in runs:
        X_run, y_run = X, y
        if held_out:
            X_run, y_run = X[test_idx], [y[i] for i in test_idx]
        if zn is not None:
            X_run = znorm_apply(zn, X_run)
        scores.append(metrics(y_run, model.predict(X_run), metric_kind,
                              labels=model.class_labels))
    return EvalScore.from_runs(metric_kind, scores)
