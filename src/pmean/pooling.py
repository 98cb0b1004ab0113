"""Generalized-mean pooling over word vectors and its concatenations.

A sentence is summarized per embedding space by stacking its word vectors
into a matrix and reducing each column with one or more generalized means

    M_p(x_1..x_n) = ((x_1^p + ... + x_n^p) / n) ** (1/p)

with p = 1 the arithmetic mean, p = 0 the geometric mean, p = -1 the
harmonic mean, and p = +/-inf the column max/min. The per-space blocks are
concatenated in configuration order; z-normalization is a separate,
explicitly fitted step.

Every p, the extremes included, runs one step, ``_pool_p``: ``_powers`` once
per row (the rows as they are at p = 1 and +/-inf), ``_reduce`` per block (at
finite p each column's powers summed in an order-independent way, exact to
within about u*max|x|), ``_root``, then zeroing. ``embed_corpus`` runs it over
a corpus one space and one p at a time, straight into its output;
``power_mean`` is its one-block case, one matrix as one sentence. The tests' ``naive_power_mean`` and their ``Fraction`` and
``math.fsum`` bounds on ``_reduce`` are the references that share none of it.

p is a plain float: ``math.inf`` and ``-math.inf`` are the extremes.

Real powers are not total: x**p is undefined over the reals for a negative
base with non-integer p and for a zero base with p <= 0 (log x at p = 0), so
the geometric mean needs strictly positive entries. A base is zero only when
it is 0.0 or -0.0; a tiny one is raised like any other. An undefined power is
NaN, which the sum and the root keep, so one rule covers it, a pole (a p < 0
sum that is 0) and a power that overflows: an entry whose M_p is not finite
becomes 0 and is counted, or raises NumericalPolicyError with ``strict``.
A sum of finite powers does not overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import DimensionError, FormatError, InputError, NumericalPolicyError

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

    Each column's powers are summed as ``_reduce`` says, so the result is
    bit-identical under row permutations of W and does not depend on the
    other columns; a zero max or min is returned as 0.0. A column whose
    mean is not finite is 0, or raises NumericalPolicyError with ``strict``.
    It is ``embed_corpus``'s step ``_pool_p`` on W as one sentence in one block.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 1:
        raise DimensionError(f"power_mean expects an n x d matrix with n >= 1, got shape {W.shape}")

    rows = np.arange(len(W))
    out = np.empty((1, W.shape[1]))
    _, offence = _pool_p(W, p, [([0], rows[:, None])], rows, (0, len(W)), out, strict)
    if offence is not None:
        raise offence[1]
    return out[0]


def _powers(W, p):
    """Entrywise x**p (log x for p = 0), NaN exactly where it is undefined; W
    itself at p = 1 and p = +/-inf, where every row is its own power.

    One rule holds at every finite p: undefined are a zero base (``W == 0``)
    at p <= 0 and x < 0 at non-integer p, and ``np.log`` makes x < 0 NaN at
    p = 0. Elsewhere the power is |x|**p, with x's sign restored for odd
    integer p: numpy raises a negative base far more slowly than a positive
    one, and an even-p power of -x is then exactly that of x.
    """
    if abs(p) == math.inf or p == 1:
        return W
    with np.errstate(all="ignore"):
        powers = np.log(W) if p == 0 else np.power(np.abs(W), p)
    if p % 2 == 1:  # odd integer p
        np.copysign(powers, W, out=powers)
    if p <= 0:
        np.copyto(powers, np.nan, where=W == 0)
    if not float(p).is_integer():
        np.copyto(powers, np.nan, where=W < 0)
    return powers


def _reduce(powers, p):
    """Each column's max or min along axis 0 at p = +/-inf (+ 0.0, so never -0.0), else its mean.

    A 2-D matrix and an (L, n, D) block of n sentences reduce alike; at finite
    p ``powers`` is overwritten, and one scratch array of its size is used.
    There each column is summed by pre-rounding (Demmel & Nguyen, ARITH 2013),
    so its bits depend neither on the row order nor on the other columns:

    - The column is scaled by 2**-e, with e from ``np.frexp`` of its max |x|,
      so that every entry lies in (-1, 1). ``np.ldexp`` scales exactly, but
      for entries so far below the max that the folds drop them anyway.
    - Fold k = 0, 1, ... adds the pivot P = 2**(s + k*(s - 53)), with
      s = ceil(log2 L) + 2, and takes it off again: q = (P + x) - P is x
      rounded to a multiple of ulp(P) / 2, exactly, and x - q, the next
      fold's entry, is exact with |x - q| <= ulp(P) / 2 = 2**((k+1)*(s - 53)).
      L such q's sum to at most P / 4 on one grid, so ``np.add.reduce`` adds
      them exactly in any order.
    - The folds' exact sums are added smallest first, divided by L and scaled
      back by 2**e (after the division, so a mean near the top of the float
      range does not overflow on the way).

    Bound: after K folds the dropped residuals are at most 2**(K*(s - 53))
    each, L <= 2**(s - 2) of them. K is the fewest folds that keep this
    truncation within 2**-54 of the scale, which is at most u*max|x|
    (u = 2**-53): K*(53 - s) >= s + 52, so two folds up to L = 2**16. With
    the one rounding of adding two folds the sum is within u*|sum| +
    u*max|x| <= 2u*sum|x| of exact (to first order in u; more folds add
    roundings of far smaller sums), inside recursive summation's
    (L - 1)*u*sum|x| from L = 3 on; a single row is summed exactly. A sum
    of finite powers cannot overflow. NaN stays NaN, and an inf power ends
    NaN (its residual is inf - inf), so a mean is finite exactly when every
    power is.
    """
    if p == math.inf:
        return powers.max(axis=0) + 0.0
    if p == -math.inf:
        return powers.min(axis=0) + 0.0
    n = len(powers)
    s = (n - 1).bit_length() + 2  # ceil(log2 L) + 2
    e = np.frexp(np.maximum(powers.max(axis=0), -powers.min(axis=0)))[1]  # max|x| < 2**e
    scratch = np.empty_like(powers)
    np.ldexp(powers, -e, out=powers)
    sums = []
    for k in range(-(-(s + 52) // (53 - s))):  # K = ceil((s + 52) / (53 - s)) folds
        if sums:
            powers -= scratch  # the last fold's residuals x - q
        pivot = 2.0 ** (s + k * (s - 53))
        np.add(powers, pivot, out=scratch)
        scratch -= pivot  # q
        sums.append(np.add.reduce(scratch, axis=0))
    return np.ldexp(sum(reversed(sums)) / n, e)


def _root(inner, p):
    """Map a ``_reduce`` result back to M_p, an extreme as it is; a pole (0 at p < 0) is NaN.

    At p = 1 the root is ``inner + 0.0``: bit for bit what the general formula
    gives there, -0.0 made 0.0, at far less cost.
    """
    if abs(p) == math.inf:
        return inner
    if p == 1:
        return inner + 0.0
    if p == 0:
        return np.exp(inner)
    # sign-preserving outer root; for even/non-integer p the mean is >= 0
    # wherever defined, so the sign factor is inert there. np.sign(-0.0) is
    # 0.0, so at p > 0 a zero mean roots to 0.0 whatever its sign.
    return np.sign(inner) * np.abs(inner) ** (1.0 / p)


def _pool_p(E, p, blocks, local, bounds, out, strict: bool):
    """M_p of each sentence into its row of ``out``; returns ``(replaced, offence)``.

    Sentence s's rows of E are ``local[bounds[s]:bounds[s + 1]]``; ``blocks``
    (from ``_blocks``) hold each sentence once. Each row of E is raised to p
    once, each block is reduced, and ``out`` is rooted. The ``replaced``
    entries, those not finite, are zeroed; with ``strict`` they are kept, and
    ``offence`` is the first sentence holding one with its error, else None.
    """
    with np.errstate(all="ignore"):
        powered = _powers(E, p)
        for sentences, ids in blocks:
            out[sentences] = _reduce(powered[ids], p)
        rooted = _root(out, p)
    replace = ~np.isfinite(rooted)
    replaced, offence = int(np.count_nonzero(replace)), None
    if replaced and strict:
        s, dim = divmod(int(np.argmax(replace)), replace.shape[1])  # first in row-major order
        rows = local[bounds[s]:bounds[s + 1]]
        offence = s, _strict_error(p, dim, E[rows, dim], powered[rows, dim], out[s, dim])
    elif replaced:
        rooted[replace] = 0.0
    out[:] = rooted
    return replaced, offence


def _strict_error(p, dim, column, powers, inner) -> NumericalPolicyError:
    """The error ``strict`` raises for a sentence's M_p at ``dim``, from its rows
    there, their powers and ``inner``, their mean before the root. A NaN power
    (at p = +/-inf, a row not finite) is undefined, and the least undefined value
    is named, -0.0 before 0.0 and NaN last, so that neither the row order nor the
    order in which numpy's sort kernel leaves equal values decides it; else a
    mean of 0 at p < 0 is a pole and names the rows' minimum, and anything else
    overflows."""
    undefined = ~np.isfinite(powers) if abs(p) == math.inf else np.isnan(powers)
    if undefined.any():
        values = column[undefined]
        offender = values[np.lexsort((~np.signbit(values), values))[0]]
    elif p < 0 and inner == 0:
        offender = column.min()
    else:
        return NumericalPolicyError(f"power mean overflows for p={format_p(p)} at dimension {dim}")
    return NumericalPolicyError(
        f"power mean undefined for p={format_p(p)} at dimension {dim} (value {float(offender)!r})"
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
    ``power_mean`` over the sentence's word vectors (rows per ``cfg.oov``), the
    same step on other blocks, with the same entries zeroed and counted; with
    ``cfg.strict`` the first offending (sentence, part, p) raises its message.
    """
    token_lists = [(s.lower() if cfg.lowercase else s).split() for s in sentences]
    X = np.empty((len(token_lists), cfg.output_dim))
    counts, offences, col = [], [], 0
    for part in cfg.parts:
        width = len(part.p_values) * part.space.dim
        part_counts, part_offences = _pool_part(part, token_lists, cfg.oov, cfg.strict,
                                                X[:, col:col + width])
        col += width
        counts.append(part_counts)
        offences += part_offences
    if any(offences):
        raise min(filter(None, offences), key=lambda offence: offence[0])[1]
    return X, PoolStats(*map(tuple, zip(*counts)))


def _pool_part(part: PooledPart, token_lists, oov: str, strict: bool, out):
    """Pool one part into ``out``, its S x (len(p_values) * dim) columns of X, by
    one ``_pool_p`` per p over the used vocabulary rows. Returns ``(counts,
    offences)``: the part's entries of PoolStats' fields, and each p's offence.
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

    blocks = list(_blocks(np.diff(bounds), bounds[:-1], local, space.dim))
    undefined, offences = zip(*[_pool_p(E, p, blocks, local, bounds, columns, strict) for p, columns
                                in zip(part.p_values, np.hsplit(out, len(part.p_values)))])
    in_vocab = int(np.count_nonzero(local < n_vocab_rows))
    n_tokens = sum(map(len, token_lists))
    counts = (n_tokens, n_tokens - in_vocab, fallbacks, n_vocab_rows, undefined)
    return counts, offences


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
        Z = X - params.mean  # a new array: the caller's X is never written
        Z /= params.std
    if not np.isfinite(Z).all():
        raise NumericalPolicyError("z-normalization overflows: a standardized value is not finite")
    return Z


# --- config file grammar -----------------------------------------------------
#
# One part per line:   space=<name> p=<v1,v2,...> [path=<file>] [lang=<tag>]
# p values are decimal floats; the extremes are spelled inf / -inf. No value
# may be empty. Blank lines and lines starting with '#' are ignored.


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
            if not value:
                raise FormatError(f"{source}:{lineno}: empty {key}= value")
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
    """Config text that ``parse_config_text`` reads back as ``entries``.

    Raises InputError for what the grammar cannot hold: no entries, an empty
    p list or a NaN p, and a space name, path or lang tag that is empty or
    holds whitespace (the parser splits a line at any whitespace).
    """
    if not entries:
        raise InputError("a config file needs at least one entry")
    lines = []
    for e in entries:
        for key, value in (("space", e.space), ("path", e.path), ("lang", e.lang)):
            if value is not None and value.split() != [value]:
                raise InputError(f"config entry {e.space!r}: {key}= value {value!r} cannot be "
                                 "written to a config file: empty or holds whitespace")
        if not e.p_values or any(math.isnan(p) for p in e.p_values):
            raise InputError(f"config entry {e.space!r}: p list {e.p_values!r} cannot be "
                             "written to a config file: empty or holds NaN")
        line = f"space={e.space} p={','.join(format_p(p) for p in e.p_values)}"
        if e.path is not None:
            line += f" path={e.path}"
        if e.lang is not None:
            line += f" lang={e.lang}"
        lines.append(line)
    return "\n".join(lines) + "\n"

