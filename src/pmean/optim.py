"""Minimal Adam optimizer over dicts of named parameter arrays."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Params = dict[str, np.ndarray]
BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # denominator guard


@dataclass
class AdamState:
    """First and second moment estimates, one pair per parameter."""

    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)

    @classmethod
    def zeros_like(cls, params: Params) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    t: int,
    step_size: float = 1e-3,
) -> tuple[Params, AdamState]:
    """One bias-corrected Adam update; pure, t counts steps from 1."""
    if t < 1:
        raise ValueError(f"step index t must be >= 1, got {t}")
    new_params: Params = {}
    new_m: Params = {}
    new_v: Params = {}
    for key, p in params.items():
        g = grads[key]
        m = BETA1 * state.m[key] + (1 - BETA1) * g
        v = BETA2 * state.v[key] + (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        new_params[key] = p - step_size * m_hat / (np.sqrt(v_hat) + EPS)
        new_m[key] = m
        new_v[key] = v
    return new_params, AdamState(m=new_m, v=new_v)
