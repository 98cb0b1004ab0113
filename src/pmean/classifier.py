"""Multiclass logistic regression probe with repeated-subsample scoring.

The classifier is deliberately plain: softmax cross-entropy trained with
minibatched Adam, a learning-rate grid tuned on a held-out validation slice,
and repeated stratified train/test subsampling to average out initialization
and split noise. Classes are the indices 0..C-1; ``evaluation`` maps a task's
labels to them.
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
    """Weights and bias of a softmax over the classes 0..C-1."""

    weights: np.ndarray  # C x D
    bias: np.ndarray  # C

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != self.weights.shape[:1]:
            raise InputError("softmax parameter shapes disagree with class count")
        if len(self.bias) < 2:
            raise InputError("softmax model needs at least 2 classes")

    def logits(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights.T + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The index of each row's highest-scoring class."""
        return np.argmax(self.logits(X), axis=1)


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
    """Mean cross-entropy of the model on (X, y) and its exact gradients; y holds class indices."""
    X = np.asarray(X, dtype=np.float64)
    rows = np.arange(X.shape[0])
    logits = model.logits(X)
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    loss = float(np.mean(log_z - logits[rows, y]))
    probs = np.exp(logits - log_z[:, None])
    probs[rows, y] -= 1.0
    probs /= X.shape[0]
    return loss, {"W": probs.T @ X, "b": probs.sum(axis=0)}


def _train_softmax(X, y_idx, n_classes, lrs, protocol, rngs):
    """Minibatched Adam on softmax cross-entropy, one cell per learning rate.

    The K cells step together as one ``(K, C*D + C)`` parameter array: row k
    is cell k's ``W.ravel()`` followed by its ``b``. Cell k draws its init and
    then one permutation per epoch from ``rngs[k]``, and its arithmetic is
    ``softmax_xent``'s, so each row equals that cell trained on its own bit for bit.
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
            # softmax_xent's operations in its order, batched over the cells, without the loss
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


def _stratified_split(y, fraction, rng, classes=None):
    """Per-class shuffle and split; second part gets ~fraction of each class.

    With ``classes``, the names of the classes 0..C-1, every class must land at
    least one sample on each side (raises InputError naming the class
    otherwise); without, small classes may be absent from the second part but
    always keep one in the first.
    """
    first, second = [], []
    for cls in np.unique(y) if classes is None else range(len(classes)):
        members = np.flatnonzero(y == cls)
        if classes is not None and members.size < 2:
            raise InputError(f"class {classes[cls]!r} has only {members.size} samples; "
                             "cannot stratify")
        members = rng.permutation(members)
        k = int(round(fraction * members.size))
        k = int(np.clip(k, 0 if classes is None else 1, members.size - 1))
        second.extend(members[:k])
        first.extend(members[k:])
    return np.sort(np.array(first, dtype=np.intp)), np.sort(np.array(second, dtype=np.intp))


def fit(X, y, protocol: TrainProtocol, rng: np.random.Generator,
        metric_kind: str = ACCURACY) -> SoftmaxModel:
    """Grid-search the learning rate on a validation slice and return the winner.

    ``y`` holds class indices; the model has ``max(y) + 1`` classes. Ties in
    validation score go to the smaller learning rate. The selected
    already-trained model is returned as-is (no refit on train+val); it
    raises NumericalPolicyError if its weights are not finite.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    n_classes = int(y.max(initial=0)) + 1
    if n_classes < 2:
        raise InputError("need at least 2 classes to fit a classifier")

    train_idx, val_idx = _stratified_split(y, protocol.val_fraction, rng)
    if val_idx.size == 0:
        val_idx = train_idx  # dataset too small to hold anything out
    cell_rngs = rng.spawn(len(protocol.lr_grid))
    candidates = []
    with np.errstate(all="ignore"):  # a diverging cell loses or fails the check below
        weights, biases = _train_softmax(X[train_idx], y[train_idx], n_classes,
                                         protocol.lr_grid, protocol, cell_rngs)
        for lr, W, b in zip(protocol.lr_grid, weights, biases):
            # copies, so the returned model does not keep every cell's parameters alive
            model = SoftmaxModel(weights=W.copy(), bias=b.copy())
            score = metrics(y[val_idx], model.predict(X[val_idx]), metric_kind, n_classes)
            candidates.append((-score, lr, model))
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, lr, model = candidates[0]
    if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
        raise NumericalPolicyError(f"classifier training with learning rate {lr!r} ended non-finite")
    return model


def metrics(y_true, y_pred, metric_kind: str, n_classes: int) -> float:
    """Accuracy or macro-F1 of class indices in 0..n_classes-1.

    Macro-F1 averages over all n_classes; a class with no true and no
    predicted sample has F1 0.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if not y_true.size or y_true.shape != y_pred.shape:
        raise InputError("y_true and y_pred must be non-empty and equally long")
    if metric_kind == ACCURACY:
        return float(np.mean(y_true == y_pred))
    if metric_kind != MACRO_F1:
        raise InputError(f"unknown metric {metric_kind!r}")

    tp = np.bincount(y_true[y_true == y_pred], minlength=n_classes)
    predicted = np.bincount(y_pred, minlength=n_classes)  # tp + fp
    actual = np.bincount(y_true, minlength=n_classes)  # tp + fn
    prec = np.divide(tp, predicted, out=np.zeros(n_classes), where=predicted > 0)
    rec = np.divide(tp, actual, out=np.zeros(n_classes), where=actual > 0)
    total = prec + rec
    f1 = np.divide(2 * prec * rec, total, out=np.zeros(n_classes), where=total > 0)
    return float(np.mean(f1))


def fit_runs(X, y, classes, protocol: TrainProtocol,
             metric_kind: str = ACCURACY) -> list[tuple]:
    """Fit every seeded subsample run; returns (model, znorm_params, test_indices) each.

    ``y`` holds indices into ``classes``, whose names only label errors.
    Splits are stratified 80/20 by default; z-norm statistics, with
    ``protocol.znorm``, are fit on each run's train side only. Run seeds derive
    from protocol.seed, so runs are reproducible and order-independent.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    runs = []
    for child in np.random.SeedSequence(protocol.seed).spawn(protocol.runs):
        rng = np.random.default_rng(child)
        train_idx, test_idx = _stratified_split(y, protocol.test_fraction, rng, classes)
        X_train = X[train_idx]
        zn = None
        if protocol.znorm:
            zn = znorm_fit(X_train)
            X_train = znorm_apply(zn, X_train)
        runs.append((fit(X_train, y[train_idx], protocol, rng, metric_kind), zn, test_idx))
    return runs


def score_runs(runs: list[tuple], X, y, metric_kind: str = ACCURACY,
               held_out: bool = False) -> EvalScore:
    """Score each fitted run on (X, y), or with held_out on its own test rows of it."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    scores = []
    for model, zn, test_idx in runs:
        X_run, y_run = (X[test_idx], y[test_idx]) if held_out else (X, y)
        if zn is not None:
            X_run = znorm_apply(zn, X_run)
        with np.errstate(all="ignore"):
            logits = model.logits(X_run)
        if not np.isfinite(logits).all():  # rows far larger than those it was trained on
            raise NumericalPolicyError("classifier logits overflow on the rows it scores")
        scores.append(metrics(y_run, np.argmax(logits, axis=1), metric_kind, len(model.bias)))
    return EvalScore.from_runs(metric_kind, scores)
