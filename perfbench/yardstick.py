"""A fixed CPU task that measures how fast the shared host runs right now.

On a host shared with other tenants the same command can take 30% longer a
minute later, for reasons that have nothing to do with the program. The
benchmark times this task between commands and scales each command's times
by ``NOMINAL_S / yardstick time``, so that a slow minute on the host slows
the yardstick as well and drops out of the ratio.

The task mixes the kinds of work the pmean commands do: parsing text floats
one ``float()`` at a time, dictionary lookups of tokens, small numpy
reductions over gathered rows, ``repr`` formatting, small matrix products and
a plain Python loop. Its inputs are fixed, so only the
host's speed changes its time.
"""
from __future__ import annotations

import time

import numpy as np

# Reported times are in seconds of a host on which one yardstick takes NOMINAL_S.
NOMINAL_S = 0.5


def _inputs():
    rng = np.random.default_rng(12345)
    values = rng.normal(0.0, 0.4, size=(500, 300))
    text = "".join(f"w{i} " + " ".join(f"{v:.6f}" for v in row) + "\n"
                   for i, row in enumerate(values))
    vocab = {f"w{k}": k for k in range(50_000)}
    sentences = [[f"w{k}" for k in row] for row in rng.zipf(1.1, size=(1000, 20))]
    pooled = rng.normal(size=(80, 2400))
    a = rng.normal(size=(128, 300))
    b = rng.normal(size=(300, 300)) * 0.05
    return text, vocab, sentences, pooled, a, b


_INPUTS = _inputs()


def measure() -> float:
    """Run the fixed task once and return its wall time in seconds."""
    text, vocab, sentences, pooled, a, b = _INPUTS
    t0 = time.perf_counter()
    rows = {}
    for line in text.splitlines():
        parts = line.split(" ")
        rows[parts[0]] = np.array([float(v) for v in parts[1:]])
    matrix = np.array(list(rows.values()))
    ids = [[vocab.get(t) for t in sentence] for sentence in sentences]
    for sentence in ids[:500]:
        words = matrix[[i % len(matrix) for i in sentence if i is not None] or [0]]
        np.concatenate([words.mean(0), words.max(0), words.min(0),
                        np.cbrt((words**3).mean(0))])
    "\n".join("\t".join(repr(float(v)) for v in row) for row in pooled)
    c = a
    for _ in range(60):
        c = np.tanh(c @ b)
    acc = 0
    for i in range(150_000):
        acc += i * i
    return time.perf_counter() - t0
