"""Synthetic spaces, tasks, and corpora for desk-scale experiments.

Real transfer corpora and pretrained vectors are multi-GB downloads, so the
test and demo pipelines run on constructed data instead. The builders here
plant known signals (a mean-detectable bit in one space, a max-detectable bit
in another, bilingual twin vocabularies, orthogonally related pair corpora)
so that expected outcomes are known by construction.
"""
from __future__ import annotations

import numpy as np

from .embeddings import EmbeddingSpace
from .evaluation import TaskDataset
from .projection import ParallelCorpus

SENT_LEN = 10
_N_SIGNAL = 7  # mean-signal tokens per sentence; the rest carry the max signal


def make_complementarity_task(seed: int = 0) -> tuple[EmbeddingSpace, EmbeddingSpace, TaskDataset]:
    """Two 16-dim spaces whose signals need different pooling, plus a 4-class
    task of 400 sentences.

    Space A carries a sentence bit in the *average* of column ``mean_dim``
    (tokens cluster at +1 or -1 there). Space B carries an independent bit in
    the *maximum* of column ``max_dim``: one token spikes to 3.0, while the
    other class spreads the same column mass over three tokens at 1.0, so the
    column means match and only max pooling separates the bit. The label is
    the bit pair, so no single-space mean-pooled representation can resolve
    all four classes.
    """
    dim, mean_dim, max_dim = 16, 0, 3
    rng = np.random.default_rng(seed)

    pools = {
        "pos": 40, "neg": 40,   # space-A mean signal at +/-1
        "peak": 10, "bump": 20, # space-B max signal: 3.0 spike vs 1.0 spread
        "flat": 40,             # padding alongside peaks
    }
    vocab: dict[str, int] = {}
    rows_a, rows_b = [], []
    for pool, count in pools.items():
        for i in range(count):
            a = rng.uniform(-1, 1, size=dim)
            b = rng.uniform(-1, 1, size=dim)
            if pool == "pos":
                a[mean_dim] = 1.0 + 0.1 * rng.standard_normal()
            elif pool == "neg":
                a[mean_dim] = -1.0 + 0.1 * rng.standard_normal()
            elif pool == "peak":
                b[max_dim] = 3.0 + 0.1 * rng.standard_normal()
            elif pool == "bump":
                b[max_dim] = 1.0 + 0.1 * rng.standard_normal()
            vocab[f"{pool}{i}"] = len(rows_a)
            rows_a.append(a)
            rows_b.append(b)

    def draw(pool: str, k: int) -> list[str]:
        return [f"{pool}{j}" for j in rng.integers(0, pools[pool], size=k)]

    items = []
    for idx in range(400):
        s1 = idx % 2
        s2 = (idx // 2) % 2
        tokens = draw("pos" if s1 else "neg", _N_SIGNAL)
        if s2:
            tokens += draw("peak", 1) + draw("flat", SENT_LEN - _N_SIGNAL - 1)
        else:
            tokens += draw("bump", SENT_LEN - _N_SIGNAL)
        rng.shuffle(tokens)
        items.append((f"c{s1}{s2}", " ".join(tokens)))

    space_a = EmbeddingSpace("A", dict(vocab), np.stack(rows_a))
    space_b = EmbeddingSpace("B", dict(vocab), np.stack(rows_b))
    task = TaskDataset(name="mixed-signals", items=items, metric_kind="accuracy")
    return space_a, space_b, task


def scale_space(space: EmbeddingSpace, factor: float) -> EmbeddingSpace:
    """Copy of a space with every vector multiplied by a constant."""
    return EmbeddingSpace(
        name=f"{space.name}x{factor:g}",
        vocab=dict(space.vocab),
        matrix=space.matrix * factor,
        language_tag=space.language_tag,
    )


def make_blobs_task(
    seed: int = 0,
    n_sentences: int = 300,
    language_tag: str = "en",
) -> tuple[EmbeddingSpace, TaskDataset]:
    """Binary task whose 16-dim token vectors cluster around two opposite unit
    centers, 30 tokens a class with noise of std 0.3."""
    dim, vocab_per_class = 16, 30
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(dim)
    center *= 1.0 / np.linalg.norm(center)  # a division would round the fixtures differently

    vocab: dict[str, int] = {}
    rows = []
    for label, sign in (("good", 1.0), ("bad", -1.0)):
        for i in range(vocab_per_class):
            vocab[f"{label}{i}"] = len(rows)
            rows.append(sign * center + 0.3 * rng.standard_normal(dim))

    items = []
    for idx in range(n_sentences):
        label = "pos" if idx % 2 == 0 else "neg"
        pool = "good" if label == "pos" else "bad"
        tokens = [f"{pool}{j}" for j in rng.integers(0, vocab_per_class, size=8)]
        items.append((label, " ".join(tokens)))

    space = EmbeddingSpace("blobs", vocab, np.stack(rows), language_tag=language_tag)
    task = TaskDataset(name="blobs", items=items, metric_kind="accuracy",
                       language_tag=language_tag)
    return space, task


def make_quad_blobs_task(
    seed: int = 0,
    n_sentences: int = 400,
    dim: int = 64,
) -> tuple[EmbeddingSpace, TaskDataset]:
    """Four-class English task: token clusters at the corners of two orthogonal
    axes, 0.7 along each, 30 tokens a class with noise of std 0.65.

    Classes encode a bit pair, so transfer through a misaligned map has to
    get two directions right at once; that keeps chance-level behavior tight
    compared to a single-direction binary task.
    """
    vocab_per_class = 30
    rng = np.random.default_rng(seed)
    u1 = rng.standard_normal(dim)
    u1 /= np.linalg.norm(u1)
    u2 = rng.standard_normal(dim)
    u2 -= (u2 @ u1) * u1
    u2 /= np.linalg.norm(u2)

    vocab: dict[str, int] = {}
    rows = []
    for b1 in (0, 1):
        for b2 in (0, 1):
            center = 0.7 * ((1 if b1 else -1) * u1 + (1 if b2 else -1) * u2)
            for i in range(vocab_per_class):
                vocab[f"q{b1}{b2}_{i}"] = len(rows)
                rows.append(center + 0.65 * rng.standard_normal(dim))

    items = []
    for idx in range(n_sentences):
        b1, b2 = idx % 2, (idx // 2) % 2
        tokens = [f"q{b1}{b2}_{j}" for j in rng.integers(0, vocab_per_class, size=8)]
        items.append((f"c{b1}{b2}", " ".join(tokens)))

    space = EmbeddingSpace("quad", vocab, np.stack(rows), language_tag="en")
    task = TaskDataset(name="quad", items=items, metric_kind="accuracy", language_tag="en")
    return space, task


def twin_space(space: EmbeddingSpace, suffix: str = "_x",
               language_tag: str | None = None) -> EmbeddingSpace:
    """A 'foreign' copy: every token and the name suffixed, vectors unchanged."""
    return EmbeddingSpace(
        name=f"{space.name}{suffix}",
        vocab={f"{tok}{suffix}": idx for tok, idx in space.vocab.items()},
        matrix=space.matrix.copy(),
        language_tag=language_tag,
    )


def merge_spaces(a: EmbeddingSpace, b: EmbeddingSpace, name: str) -> EmbeddingSpace:
    """Union of two disjoint vocabularies into one shared (bilingual) space."""
    overlap = set(a.vocab) & set(b.vocab)
    if overlap:
        raise ValueError(f"cannot merge spaces with overlapping tokens: {sorted(overlap)[:3]}")
    vocab = dict(a.vocab)
    for tok, idx in b.vocab.items():
        vocab[tok] = len(a.vocab) + idx
    return EmbeddingSpace(name, vocab, np.vstack([a.matrix, b.matrix]))


def swap_dictionary(ds: TaskDataset, suffix: str = "_x",
                    name: str | None = None, language_tag: str | None = None) -> TaskDataset:
    """Token-for-token translation of a task into the suffixed twin vocabulary."""
    items = [
        (label, " ".join(f"{tok}{suffix}" for tok in text.split()))
        for label, text in ds.items
    ]
    return TaskDataset(name=name or f"{ds.name}{suffix}", items=items,
                       metric_kind=ds.metric_kind, language_tag=language_tag)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def make_parallel_corpus(
    seed: int = 0,
    n_pairs: int = 500,
    dim: int = 16,
    noise: float = 0.05,
) -> tuple[ParallelCorpus, np.ndarray]:
    """Aligned pairs where target = (random orthogonal map of source) + noise."""
    rng = np.random.default_rng(seed)
    q = random_orthogonal(rng, dim)
    source = rng.standard_normal((n_pairs, dim))
    target = source @ q.T + noise * rng.standard_normal((n_pairs, dim))
    return ParallelCorpus(source=source, target=target), q
