"""Generalized-mean pooling over word vectors and its concatenations.

A sentence is summarized per embedding space by stacking its word vectors
into a matrix and reducing each column with one or more generalized means

    M_p(x_1..x_n) = ((x_1^p + ... + x_n^p) / n) ** (1/p)

with p = 1 the arithmetic mean, p = 0 the geometric mean, p = -1 the
harmonic mean, and p = +/-inf the column max/min. The per-space blocks are
concatenated in configuration order; z-normalization is a separate,
explicitly fitted step.

At every finite p each column's powers are summed left to right in ascending
order. ``embed_corpus`` pools a whole corpus per space: it computes each
power once per vocabulary row the corpus uses, reduces every sentence's rows
by that rule, and returns its counts as a ``PoolStats``. ``power_mean`` pools
one matrix and is the scalar oracle the corpus kernel matches bit for bit.

p is a plain float: ``math.inf`` and ``-math.inf`` are the extremes.

Real powers are not total: x**p is undefined over the reals for a negative
base with non-integer p and for a zero base with negative p, and the
geometric mean needs strictly positive entries. Such output entries, and
entries that overflow the float range (at any finite p), become 0 and are
counted, or raise NumericalPolicyError with ``strict``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import DimensionError, FormatError, InputError, NumericalPolicyError

EPSILON = 1e-12  # magnitude below which a base counts as zero
ZNORM_FLOOR = 1e-8  # smallest standard deviation z-normalization divides by
BLOCK_BYTES = 1 << 20  # most bytes of float64 rows embed_corpus reduces in one block


@dataclass
class PooledPart:
    """One embedding space with the ordered p-values applied to it."""

    space: EmbeddingSpace
    p_values: list[float]

    def __post_init__(self):
        if not self.p_values:
            raise InputError(f"part {self.space.name!r}: p_values must be non-empty")
        for p in self.p_values:
            if math.isnan(p):
                raise InputError(f"part {self.space.name!r}: p may not be NaN")


@dataclass
class PooledConfig:
    """Ordered (space, p-values) parts defining one representation, and how text becomes rows.

    A sentence is lowercased if ``lowercase``, then split on whitespace. A
    token missing from a space's vocabulary is dropped (``oov="skip"``) or
    becomes a zero row (``oov="zero"``); a sentence left with no rows pools
    one zero row. With ``strict``, an entry that would be zeroed raises
    NumericalPolicyError instead.
    """

    parts: list[PooledPart]
    lowercase: bool = True
    oov: str = "skip"
    strict: bool = False

    def __post_init__(self):
        if not self.parts:
            raise InputError("PooledConfig needs at least one part")
        if self.oov not in ("skip", "zero"):
            raise InputError(f"unknown OOV mode {self.oov!r}")

    @property
    def output_dim(self) -> int:
        return sum(len(part.p_values) * part.space.dim for part in self.parts)

    def describe(self) -> str:
        return " + ".join(
            f"{part.space.name}[{','.join(format_p(p) for p in part.p_values)}]"
            for part in self.parts
        )


def power_mean(W: np.ndarray, p: float, *, strict: bool = False) -> np.ndarray:
    """Reduce each column of an n x d matrix with the generalized mean M_p.

    Each column's powers are summed left to right in ascending order, so the
    result is bit-identical under row permutations of W and does not depend on
    the other columns; a zero max or min is returned as 0.0. An undefined or
    overflowing column is 0, or raises NumericalPolicyError with ``strict``.
    This is the scalar oracle ``embed_corpus`` must match bit for bit.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 1:
        raise DimensionError(f"power_mean expects an n x d matrix with n >= 1, got shape {W.shape}")

    if p == math.inf:
        return W.max(axis=0) + 0.0
    if p == -math.inf:
        return W.min(axis=0) + 0.0
    with np.errstate(all="ignore"):
        powers, undefined = _powers(W, p)
        out = _root(_ascending_mean(powers), p)  # a pole, where the mean cancels to 0, is NaN
        replace = undefined.any(axis=0) | ~np.isfinite(out)
    if strict and replace.any():
        raise _strict_error(W, p, replace)
    return np.where(replace, 0.0, out)


def _powers(W, p):
    """Entrywise x**p (log x for p = 0) and the mask of entries where it is undefined.

    p is finite. The power is |x|**p, with x's sign restored for odd integer
    p: numpy raises a negative base far more slowly than a positive one, and
    an even-p power of -x is then exactly that of x. The geometric mean needs
    strictly positive entries; otherwise a negative base is undefined for
    non-integer p (its |x|**p is masked, not used), and a zero base for
    negative p.
    """
    if p == 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.where(W > 0, W, 1.0)), W <= EPSILON
    near_zero = np.abs(W) <= EPSILON
    if float(p).is_integer():
        # zero base only hurts for negative exponents
        undefined = near_zero if p < 0 else np.zeros_like(W, dtype=bool)
    else:
        undefined = W < 0
        if p < 0:
            undefined = undefined | near_zero
    with np.errstate(all="ignore"):
        powers = np.power(np.abs(W), p)
    if p % 2 == 1:  # odd integer p
        np.copysign(powers, W, out=powers)
    return powers, undefined


def _ascending_mean(powers):
    """Each column's mean along axis 0, its entries summed left to right in ascending order.

    Sorts ``powers`` in place along axis 0 and adds its rows into the first
    one, so a 2-D matrix and an (L, n, D) block of n sentences reduce alike.
    numpy's ``mean`` adds a lone column pairwise, and ``np.cumsum`` walks axis
    0 one column at a time, over ten times slower on a 20 x 21 x 300 block.
    ``np.sort`` may flip the signs of tied zeros, so a zero mean's sign
    depends on the row order; ``_root`` maps it to 0.0.
    """
    powers.sort(axis=0)
    total = powers[0]
    for row in powers[1:]:
        total += row
    return total / len(powers)


def _root(inner, p):
    """Map a mean of ``_powers`` back to M_p; a pole (inner == 0 at p < 0) maps to NaN."""
    if p == 0:
        return np.exp(inner)
    # sign-preserving outer root; for even/non-integer p the mean is >= 0
    # wherever defined, so the sign factor is inert there. np.sign(-0.0) is
    # 0.0, so at p > 0 a zero mean roots to 0.0 whatever its sign.
    out = np.sign(inner) * np.abs(inner) ** (1.0 / p)
    if p > 0:
        return out
    # an overflowed mean would root to a finite 0; keep it visible as overflow
    return np.where(np.isinf(inner), np.inf, out)


def _strict_error(W, p, replace) -> NumericalPolicyError:
    """The error ``strict`` raises for M_p over the rows of W with these columns replaced.

    It names the first replaced column and, in that column's sorted order,
    the first undefined entry; a pole column has none and names its minimum.
    A column with neither overflows.
    """
    dim = int(np.argmax(replace))
    Ws = np.sort(W, axis=0)
    powers, undefined = _powers(Ws, p)
    with np.errstate(all="ignore"):
        pole = p < 0 and _ascending_mean(powers)[dim] == 0
    if not (undefined[:, dim].any() or pole):
        return NumericalPolicyError(f"power mean overflows for p={format_p(p)} at dimension {dim}")
    offender = float(Ws[np.argmax(undefined[:, dim]), dim])
    return NumericalPolicyError(
        f"power mean undefined for p={format_p(p)} at dimension {dim} (value {offender!r})"
    )


@dataclass(frozen=True)
class PoolStats:
    """Counts of one ``embed_corpus`` call, one entry per part in configuration order.

    ``vocab_rows`` counts the distinct vocabulary rows the corpus used, and
    ``undefined`` the zeroed entries per p, in the part's p order.
    """

    tokens: tuple[int, ...]
    oov_tokens: tuple[int, ...]
    fallback_sentences: tuple[int, ...]
    vocab_rows: tuple[int, ...]
    undefined: tuple[tuple[int, ...], ...]

    @property
    def undefined_total(self) -> int:
        return sum(map(sum, self.undefined))


def embed_corpus(cfg: PooledConfig, sentences) -> tuple[np.ndarray, PoolStats]:
    """Pool each sentence into one row of ``cfg.output_dim`` values; returns (X, stats).

    A sentence is tokenized once, as ``cfg.lowercase`` says. Each part's power
    means are concatenated in p order, and the parts' blocks follow in
    configuration order. Row by row the result is bit-identical to
    ``power_mean`` over the sentence's word vectors (rows per ``cfg.oov``),
    with the same entries zeroed and counted; with ``cfg.strict`` the first
    offending (sentence, part, p) raises the oracle's own message.
    """
    token_lists = [(s.lower() if cfg.lowercase else s).split() for s in sentences]
    X = np.empty((len(token_lists), cfg.output_dim))
    counts, offences, col = [], [], 0
    for part in cfg.parts:
        blocks, part_counts, offence = _pool_part(part, token_lists, cfg.oov, cfg.strict)
        for block in blocks:
            X[:, col:col + part.space.dim] = block
            col += part.space.dim
        counts.append(part_counts)
        if offence is not None:
            offences.append(offence)
    if offences:
        raise min(offences, key=lambda offence: offence[0])[1]
    return X, PoolStats(*map(tuple, zip(*counts)))


def _pool_part(part: PooledPart, token_lists, oov: str, strict: bool):
    """Pool one part: ``(blocks, counts, offence)``.

    ``blocks`` holds the S x dim block of each p. ``counts`` holds one part's
    entries of PoolStats' fields. ``offence`` is None, or under ``strict`` the
    first offending sentence with the error it raises.

    Powers are computed once per vocabulary row the corpus uses. Sentences of
    one length are reduced together, in blocks from ``_blocks``: each
    column's powers are summed in ascending order, as in ``power_mean``.
    """
    space = part.space
    zero_id = len(space.vocab)  # the zero row of OOV tokens and empty sentences
    if oov == "zero":
        id_lists = [[space.vocab.get(t, zero_id) for t in tokens] for tokens in token_lists]
    else:
        id_lists = [[i for i in map(space.vocab.get, tokens) if i is not None]
                    for tokens in token_lists]
    fallbacks = sum(not ids for ids in id_lists)
    id_lists = [ids or [zero_id] for ids in id_lists]
    bounds = np.cumsum([0] + [len(ids) for ids in id_lists])
    used, local = np.unique(np.fromiter(chain.from_iterable(id_lists), dtype=np.intp),
                            return_inverse=True)
    # only the used rows are gathered: a copy of the whole matrix costs peak memory
    E = np.zeros((len(used), space.dim))
    n_vocab_rows = int(np.searchsorted(used, zero_id))
    E[:n_vocab_rows] = space.matrix[used[:n_vocab_rows]]

    powered = {p: _powers(E, p) for p in part.p_values if abs(p) != math.inf}
    pooled = {p: np.empty((len(id_lists), space.dim)) for p in part.p_values}
    extremes = any(abs(p) == math.inf for p in pooled)
    with np.errstate(all="ignore"):
        for sentences, ids in _blocks(np.diff(bounds), bounds[:-1], local, space.dim):
            rows = E[ids] if extremes else None  # one gather for max and min
            for p, block in pooled.items():
                if p == math.inf:
                    block[sentences] = rows.max(axis=0) + 0.0
                elif p == -math.inf:
                    block[sentences] = rows.min(axis=0) + 0.0
                else:
                    block[sentences] = _ascending_mean(powered[p][0][ids])

        blocks, undefined, offence = [], [], None
        for p in part.p_values:
            block = pooled[p]
            if p in powered:
                block = _root(block, p)
                replace = ~np.isfinite(block)
                if powered[p][1].any():  # some used row is undefined at this p
                    replace |= np.logical_or.reduceat(powered[p][1][local], bounds[:-1], axis=0)
                n_replaced = int(np.count_nonzero(replace))
            else:  # a max or min of finite rows is finite
                n_replaced = 0
            if n_replaced and strict:
                s = int(np.argmax(replace.any(axis=1)))
                if offence is None or s < offence[0]:
                    offence = (s, _strict_error(E[local[bounds[s]:bounds[s + 1]]], p, replace[s]))
            elif n_replaced:
                block[replace] = 0.0
            blocks.append(block)
            undefined.append(n_replaced)
    in_vocab = int(np.count_nonzero(local < n_vocab_rows))
    n_tokens = sum(map(len, token_lists))
    counts = (n_tokens, n_tokens - in_vocab, fallbacks, n_vocab_rows, tuple(undefined))
    return blocks, counts, offence


def _blocks(lengths, starts, local, dim):
    """Yield ``(sentences, ids)``: sentence indices of one length L and their (L, n) row ids.

    Sentences are grouped by length, in corpus order within a length. A
    length's sentences are cut into blocks of at most BLOCK_BYTES of float64
    rows, at least one sentence each, so the last block of a length may be
    smaller. ``ids[k, j]`` is the k-th token's row of the block's j-th sentence.
    """
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    for group in np.split(order, cuts):
        if not len(group):
            continue
        length = int(lengths[group[0]])
        per_block = max(1, BLOCK_BYTES // (8 * length * dim))
        ids = local[starts[group, None] + np.arange(length)]
        for first in range(0, len(group), per_block):
            yield group[first:first + per_block], ids[first:first + per_block].T


# --- z-normalization ---------------------------------------------------------


@dataclass
class ZNormParams:
    """Column means and population standard deviations floored at ZNORM_FLOOR."""

    mean: np.ndarray
    std: np.ndarray


def znorm_fit(X: np.ndarray) -> ZNormParams:
    """Fit per-column standardization statistics (population std, floored)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DimensionError(f"znorm_fit expects an N x D matrix with N >= 1, got shape {X.shape}")
    with np.errstate(all="ignore"):
        mean = X.mean(axis=0)
        std = np.maximum(X.std(axis=0), ZNORM_FLOOR)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise NumericalPolicyError("z-normalization overflows: a column's mean or std is not finite")
    return ZNormParams(mean=mean, std=std)


def znorm_apply(params: ZNormParams, X: np.ndarray) -> np.ndarray:
    """Standardize a matrix or single vector with fitted parameters.

    Rows the parameters were not fit on can lie far outside the fitted spread;
    a standardized value that overflows raises NumericalPolicyError.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != params.mean.shape[0]:
        raise DimensionError(
            f"znorm_apply: {X.shape[-1]} columns vs {params.mean.shape[0]} fitted"
        )
    with np.errstate(all="ignore"):
        Z = (X - params.mean) / params.std
    if not np.isfinite(Z).all():
        raise NumericalPolicyError("z-normalization overflows: a standardized value is not finite")
    return Z


# --- config file grammar -----------------------------------------------------
#
# One part per line:   space=<name> p=<v1,v2,...> [path=<file>] [lang=<tag>]
# p values are decimal floats; the extremes are spelled inf / -inf.
# Blank lines and lines starting with '#' are ignored.


@dataclass
class ConfigEntry:
    """One parsed config line, before spaces are resolved."""

    space: str
    p_values: list[float]
    path: str | None = None
    lang: str | None = None


def format_p(p: float) -> str:
    if p == math.inf:
        return "inf"
    if p == -math.inf:
        return "-inf"
    if float(p).is_integer():
        return str(int(p))
    return repr(float(p))


def parse_p(token: str) -> float:
    try:
        p = float(token)
    except ValueError:
        raise FormatError(f"bad p-value {token!r}") from None
    if math.isnan(p):
        raise FormatError("p may not be NaN")
    return p


def parse_config_text(text: str, source: str = "<config>") -> list[ConfigEntry]:
    entries = []
    # one entry per "\n"; str.splitlines would also break at "\r", "\x0c", "\x85", ...
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields: dict[str, str] = {}
        for item in line.split():
            if "=" not in item:
                raise FormatError(f"{source}:{lineno}: expected key=value, got {item!r}")
            key, _, value = item.partition("=")
            if key not in ("space", "p", "path", "lang"):
                raise FormatError(f"{source}:{lineno}: unknown key {key!r}")
            if key in fields:
                raise FormatError(f"{source}:{lineno}: duplicate key {key!r}")
            fields[key] = value
        if "space" not in fields or "p" not in fields:
            raise FormatError(f"{source}:{lineno}: both space= and p= are required")
        try:
            p_values = [parse_p(tok) for tok in fields["p"].split(",") if tok]
        except FormatError as exc:
            raise FormatError(f"{source}:{lineno}: {exc}") from None
        if not p_values:
            raise FormatError(f"{source}:{lineno}: empty p list")
        entries.append(
            ConfigEntry(fields["space"], p_values, fields.get("path"), fields.get("lang"))
        )
    if not entries:
        raise FormatError(f"{source}: no config entries found")
    return entries


def format_config(entries: list[ConfigEntry]) -> str:
    lines = []
    for e in entries:
        line = f"space={e.space} p={','.join(format_p(p) for p in e.p_values)}"
        if e.path:
            line += f" path={e.path}"
        if e.lang:
            line += f" lang={e.lang}"
        lines.append(line)
    return "\n".join(lines) + "\n"

