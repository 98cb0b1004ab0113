"""Minimal Adam optimizer over one flat float64 parameter vector.

A trainer packs its named parameter arrays into one contiguous vector with a
``Layout``, writes its gradients into a second vector of the same layout, and
steps the first with ``adam_step``, which updates the parameters and the
moment estimates in place. The named arrays are views of the vectors, so
they follow every step without being rebuilt.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Params = dict[str, np.ndarray]
BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # denominator guard


class Layout:
    """Names, shapes and offsets of parameter arrays packed into one vector."""

    def __init__(self, params: Params):
        self._slots = []
        start = 0
        for name, p in params.items():
            self._slots.append((name, slice(start, start + p.size), p.shape))
            start += p.size

    def pack(self, arrays: Params) -> np.ndarray:
        """One new float64 vector holding the named arrays in layout order."""
        return np.concatenate([np.ravel(arrays[name]) for name, _, _ in self._slots])

    def views(self, flat: np.ndarray) -> Params:
        """The named arrays as reshaped views of ``flat`` (no copies)."""
        return {name: flat[span].reshape(shape) for name, span, shape in self._slots}


@dataclass
class AdamState:
    """First and second moment estimates, one entry per vector element."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    t: int,
    step_size: float = 1e-3,
) -> None:
    """One bias-corrected Adam update in place; t counts steps from 1.

    ``params``, ``state.m`` and ``state.v`` are overwritten with their
    updated values and ``grads`` is left as it is. Every operation is
    elementwise, so ``params`` may stack several independent problems as
    rows, and ``step_size`` may be a per-row column (shape ``(K, 1)`` for
    ``(K, n)`` params) that broadcasts against them.
    """
    if t < 1:
        raise ValueError(f"step index t must be >= 1, got {t}")
    # m = BETA1 m + (1 - BETA1) g
    # v = BETA2 v + (1 - BETA2) g g
    # params - step_size (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + EPS)
    # in that operation order. Only one scratch vector and the update are
    # allocated: a temporary per operation page-faults on every step at the
    # projection's vector size (160 KB).
    m, v = state.m, state.v
    scratch = (1 - BETA1) * grads
    m *= BETA1
    m += scratch
    np.multiply(BETA2, v, out=scratch)
    np.multiply(1 - BETA2, grads, out=v)
    v *= grads
    v += scratch
    np.divide(v, 1 - BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += EPS
    correction = 1 - BETA1**t
    if correction == 1:  # from t = 356 on; m / 1.0 is m, so this skips a pass
        out = m * step_size
    else:
        out = m / correction
        out *= step_size
    out /= scratch
    params -= out
