import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmean import pooling
from pmean.embeddings import EmbeddingSpace
from pmean.errors import DimensionError, FormatError, NumericalPolicyError
from pmean.pooling import (
    EPSILON,
    ZNORM_FLOOR,
    ConfigEntry,
    PooledConfig,
    PooledPart,
    PoolStats,
    embed_corpus,
    format_config,
    format_p,
    parse_config_text,
    parse_p,
    _powers,
    _root,
    power_mean,
    znorm_apply,
    znorm_fit,
)

INF = math.inf


def naive_power_mean(values, p):
    """Scalar reference implementation for one column, plain python math."""
    n = len(values)
    if p == INF:
        return max(values)
    if p == -INF:
        return min(values)
    if p == 0:
        return math.exp(math.fsum(math.log(v) for v in values) / n)
    mean = math.fsum(v**p for v in values) / n
    return math.copysign(abs(mean) ** (1.0 / p), mean) if mean != 0 else 0.0


def matrices(elements, max_n=8, max_d=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_d).flatmap(
            lambda d: st.lists(
                st.lists(elements, min_size=d, max_size=d),
                min_size=n,
                max_size=n,
            ).map(np.array)
        )
    )


def positive_matrices(max_n=8, max_d=8):
    return matrices(st.floats(0.1, 10.0), max_n, max_d)


class TestPowerMeanCases:
    def test_definitional_cases(self):
        W = np.array([[1.0], [2.0], [3.0]])
        assert power_mean(W, 1) == pytest.approx([2.0])
        assert power_mean(W, INF) == pytest.approx([3.0])
        assert power_mean(W, -INF) == pytest.approx([1.0])

    def test_harmonic_closed_form(self):
        assert power_mean(np.array([[1.0], [4.0]]), -1) == pytest.approx([1.6])

    def test_quadratic_frozen_value(self):
        # sqrt(17/2), computed independently at 40 digits
        got = power_mean(np.array([[1.0], [4.0]]), 2)
        assert got == pytest.approx([2.9154759474226502], abs=1e-12)

    def test_geometric(self):
        assert power_mean(np.array([[1.0], [4.0]]), 0) == pytest.approx([2.0])

    def test_negative_base_fractional_p_policy(self):
        W = np.array([[-1.0, 1.0], [2.0, 4.0]])
        assert power_mean(W, 0.5).tolist() == [0.0, 2.25]
        assert undefined_columns(W, 0.5) == 1

    def test_zero_base_negative_p_policy(self):
        W = np.array([[0.0, 1.0], [2.0, 4.0]])
        assert power_mean(W, -1).tolist() == [0.0, 1.6]
        assert undefined_columns(W, -1) == 1

    def test_geometric_needs_positive_entries(self):
        W = np.array([[-1.0], [2.0]])
        assert power_mean(W, 0) == pytest.approx([0.0])
        assert undefined_columns(W, 0) == 1

    def test_exact_pole_cancellation(self):
        # reciprocals of -1 and 1 sum to exactly zero
        W = np.array([[-1.0], [1.0]])
        assert power_mean(W, -1) == pytest.approx([0.0])
        assert undefined_columns(W, -1) == 1

    def test_error_mode_names_p_and_dimension(self):
        with pytest.raises(NumericalPolicyError, match=r"p=0\.5.*dimension 1"):
            power_mean(np.array([[2.0, -1.0], [2.0, 2.0]]), 0.5, strict=True)

    @pytest.mark.parametrize("W, p, detail", [
        ([[2.0, 5.0], [3.0, 0.0], [4.0, -3.0]], 0, "p=0 at dimension 1 (value -3.0)"),
        ([[1.0, 4.0], [2.0, 0.0]], -1, "p=-1 at dimension 1 (value 0.0)"),
        ([[2.0, 2.0], [2.0, -1.5]], 0.5, "p=0.5 at dimension 1 (value -1.5)"),
        # pole: no entry is undefined, the reciprocals of -2 and 2 cancel
        ([[1.0, 2.0], [2.0, -2.0]], -1, "p=-1 at dimension 1 (value -2.0)"),
    ])
    def test_error_mode_names_the_offending_value(self, W, p, detail):
        with pytest.raises(NumericalPolicyError) as exc:
            power_mean(np.array(W), p, strict=True)
        assert str(exc.value) == f"power mean undefined for {detail}"

    # the mean (of powers) overflows; for p < 0 its root would be a finite 0
    OVERFLOWS = [(np.array([[1.0, 1e160], [2.0, 1e160]]), 2),
                 (np.array([[1.0, 1e-11], [2.0, 1e-11]]), -30),
                 (np.array([[1.0, 1e308], [2.0, 1e308]]), 1)]

    def test_overflow_is_zeroed_not_propagated(self):
        for W, p in self.OVERFLOWS:
            out = power_mean(W, p)
            assert np.isfinite(out).all() and out[0] != 0.0 and out[1] == 0.0
            assert undefined_columns(W, p) == 1

    def test_overflow_raises_in_error_mode(self):
        for W, p in self.OVERFLOWS:
            with pytest.raises(NumericalPolicyError, match=rf"overflows for p={p} at dimension 1"):
                power_mean(W, p, strict=True)

    def test_extremes_of_huge_entries_are_kept(self):
        W = np.array([[1e308, -1e308], [1e308, -1e308]])
        assert power_mean(W, INF, strict=True).tolist() == [1e308, -1e308]
        assert power_mean(W, -INF, strict=True).tolist() == [1e308, -1e308]

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            power_mean(np.zeros((0, 3)), 1)

    def test_harmonic_mean_sums_ascending_reciprocals(self):
        # the reciprocals summed smallest first (1/0.7, 1/0.3, 1/0.2, 1/0.1) give
        # the correctly rounded harmonic mean
        got = power_mean(np.array([[0.7], [0.3], [0.1], [0.2]]), -1)
        assert got.tolist() == [0.20240963855421687]

    def test_a_sum_of_signed_zeros_is_zero_in_any_row_order(self):
        # np.sort may flip the signs of tied zeros, so the sum's sign depends on
        # the row order; the mean's root must not
        W = np.array([[-0.0]] * 10 + [[0.0]])
        for p in (1.0, 3.0):
            assert power_mean(W, p).tobytes() == power_mean(W[::-1], p).tobytes() == bytes(8)

    def test_a_column_does_not_depend_on_its_neighbours(self):
        # numpy sums a lone column of 8 or more rows pairwise, to 0.45 here
        W = 0.1 * np.arange(1.0, 9.0)[:, None]
        assert power_mean(W, 1).tolist() == [0.45000000000000007]
        assert power_mean(np.hstack([W, W[::-1]]), 1).tolist() == [0.45000000000000007] * 2


class TestPowerMeanProperties:
    @given(positive_matrices())
    @settings(max_examples=150, deadline=None)
    def test_special_cases_match_closed_forms(self, W):
        for p in (1.0, -1.0, 0.0, INF, -INF):
            got = power_mean(W, p)
            want = [naive_power_mean(list(W[:, j]), p) for j in range(W.shape[1])]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(positive_matrices(), st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
           st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, INF]))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_p_for_positive_inputs(self, W, p, q):
        if p >= q:
            p, q = q, p
        if p == q:
            return
        lo = power_mean(W, p)
        hi = power_mean(W, q)
        assert (lo <= hi + 1e-9).all()

    @given(positive_matrices())
    @settings(max_examples=100, deadline=None)
    def test_large_p_approaches_max(self, W):
        W = np.clip(W, 0.5, 2.0)
        top = power_mean(W, INF)
        near = power_mean(W, 50.0)
        assert (np.abs(near - top) <= 0.15 * top).all()

    # signed zeros and -1 make 0.0 / -0.0 ties at a column's max and min
    @given(matrices(st.floats(0.1, 10.0) | st.sampled_from([0.0, -0.0, -1.0])),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance_bit_exact(self, W, rnd):
        perm = list(range(W.shape[0]))
        rnd.shuffle(perm)
        Wp = W[perm]
        for p in (1.0, INF, -INF, 0.0, 2.5, -1.0, 3.0):
            assert power_mean(W, p).tobytes() == power_mean(Wp, p).tobytes()

    @given(positive_matrices(), st.sampled_from([1.0, 3.0, 5.0, -1.0, -3.0]))
    @settings(max_examples=100, deadline=None)
    def test_odd_p_is_sign_odd(self, W, p):
        assert power_mean(-W, p) == pytest.approx(-power_mean(W, p), rel=1e-9, abs=1e-12)

    # signed zeros, and entries whose powers overflow or vanish at some p
    SIGNED = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-13, 1e200, -1e-200])

    @given(matrices(SIGNED, max_n=12), st.sampled_from([2.0, 4.0, 6.0, -2.0, -4.0]))
    @settings(max_examples=100, deadline=None)
    # numpy's pow of a negative base can differ from that of |x| in the last bit
    @example(W=np.array([[1.99], [9.19], [-0.65]]), p=4.0)
    @example(W=np.array([[7.34], [2.23]]), p=-2.0)
    def test_even_p_is_sign_symmetric_bit_exact(self, W, p):
        assert power_mean(-W, p).tobytes() == power_mean(W, p).tobytes()

    @given(matrices(SIGNED, max_n=12), st.sampled_from([1.0, 3.0, 5.0, 7.0, -1.0, -3.0, -5.0]))
    @settings(max_examples=100, deadline=None)
    def test_odd_p_powers_are_sign_odd_bit_exact(self, W, p):
        assert _powers(-W, p)[0].tobytes() == (-_powers(W, p)[0]).tobytes()

    @given(matrices(st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0, 1e-13]),
                    max_n=12, max_d=4))
    @settings(max_examples=150, deadline=None)
    def test_each_column_sums_its_powers_in_ascending_order(self, W):
        n = W.shape[0]
        for p in (-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0):
            got = power_mean(W, p)
            powers, undefined = _powers(W, p)
            for j in range(W.shape[1]):
                if undefined[:, j].any():
                    continue
                total = 0.0
                for value in sorted(powers[:, j].tolist()):
                    total += value
                want = _root(np.array([total / n]), p)
                if np.isfinite(want).all():  # a pole or an overflow is zeroed instead
                    assert got[j:j + 1].tobytes() == want.tobytes()

    def test_single_row_is_fixed_point(self):
        row = np.array([[0.3, 1.7, 2.2]])
        for p in (1.0, 2.0, 0.5, -1.0, 0.0, INF, -INF):
            assert power_mean(row, p) == pytest.approx(row[0], rel=1e-12)


@pytest.fixture
def two_spaces():
    rng = np.random.default_rng(4)
    mk = lambda name, d: EmbeddingSpace(
        name, d, {f"w{i}": i for i in range(6)}, rng.uniform(0.2, 2.0, (6, d))
    )
    return mk("one", 3), mk("two", 4)


def embed_one(space, p_values, sentence):
    """The single row embed_corpus gives one sentence over one space."""
    X, _ = embed_corpus(PooledConfig([PooledPart(space, p_values)]), [sentence])
    assert X.shape == (1, len(p_values) * space.dim)
    return X[0]


class TestPooling:
    def test_mean_then_max_concatenation(self):
        space = EmbeddingSpace("s", 2, {"a": 0, "b": 1}, np.array([[1.0, 0.0], [3.0, 2.0]]))
        out = embed_one(space, [1.0, INF], "a b")
        assert out == pytest.approx([2.0, 1.0, 3.0, 2.0])

    def test_single_token_fixed_point(self, two_spaces):
        space, _ = two_spaces
        vec = space.matrix[space.vocab["w0"]]
        out = embed_one(space, [1.0, 2.0, INF, -INF], "w0")
        assert out == pytest.approx(np.tile(vec, 4), rel=1e-12)

    def test_all_oov_gives_zero_vector(self, two_spaces):
        space, _ = two_spaces
        out = embed_one(space, [1.0, -1.0, INF], "zzz qqq")
        assert out == pytest.approx(np.zeros(9))

    def test_output_dim_matches_config(self, two_spaces):
        a, b = two_spaces
        cfg = PooledConfig([PooledPart(a, [1.0, INF]), PooledPart(b, [1.0, -INF, 3.0])])
        assert cfg.output_dim == 2 * 3 + 3 * 4
        X, _ = embed_corpus(cfg, ["w0 w3"])
        assert X.shape == (1, cfg.output_dim)

    def test_single_part_p1_equals_plain_average(self, two_spaces):
        a, _ = two_spaces
        out = embed_one(a, [1.0], "w0 w1 w2")
        want = a.matrix[[0, 1, 2]].mean(axis=0)
        assert out == pytest.approx(want, rel=1e-12)

    def test_embed_corpus_rows_match_individual_calls(self, two_spaces):
        a, b = two_spaces
        cfg = PooledConfig([PooledPart(a, [1.0, -INF]), PooledPart(b, [INF, 3.0])])
        sents = ["w0 w1", "w2 w3 zzz w4"]
        X, _ = embed_corpus(cfg, sents)
        assert X.shape == (2, cfg.output_dim)
        for i, s in enumerate(sents):
            blocks = [
                power_mean(gather(part.space, s.split(), "skip"), p)
                for part in cfg.parts
                for p in part.p_values
            ]
            assert np.array_equal(X[i], np.concatenate(blocks))

    def test_embed_corpus_empty_and_duplicates(self, two_spaces):
        a, _ = two_spaces
        cfg = PooledConfig([PooledPart(a, [1.0])])
        X, stats = embed_corpus(cfg, [])
        assert X.shape == (0, 3)
        assert stats == PoolStats((0,), (0,), (0,), (0,), ((0,),))
        X, _ = embed_corpus(cfg, ["w0 w1", "w0 w1"])
        assert np.array_equal(X[0], X[1])

    def test_corpus_output_always_finite_under_nan_to_zero(self, two_spaces):
        a, _ = two_spaces
        shifted = EmbeddingSpace("sh", 3, dict(a.vocab), a.matrix - 1.0)
        cfg = PooledConfig([PooledPart(shifted, [0.5, -1.0, 0.0])])
        X, stats = embed_corpus(cfg, ["w0 w1 zzz", "w2", ""])
        assert np.isfinite(X).all() and stats.undefined_total > 0


KERNEL_PS = [1.0, INF, -INF, 0.0, -1.0, 0.5, 2.0, 3.0, -2.0, 4.0]


def gather(space, tokens, oov_mode):
    """A sentence's word vectors: OOV tokens dropped or zero rows, one zero row if none remain."""
    zero = np.zeros(space.dim)
    rows = [space.matrix[space.vocab[t]] if t in space.vocab else zero
            for t in tokens if t in space.vocab or oov_mode == "zero"]
    return np.array(rows) if rows else zero[None]


def undefined_columns(W, p):
    """How many columns of W power_mean zeroes: those it raises on alone under strict."""
    count = 0
    for j in range(W.shape[1]):
        try:
            power_mean(W[:, [j]], p, strict=True)
        except NumericalPolicyError:
            count += 1
    return count


def oracle_corpus(cfg, sentences, oov_mode, strict):
    """embed_corpus's oracle: per-part power_mean blocks over gathered rows, and the
    column-by-column count of zeroed entries per (part, p)."""
    rows, undefined = [], [[0] * len(part.p_values) for part in cfg.parts]
    for s in sentences:
        blocks = []
        for part, counts in zip(cfg.parts, undefined):
            W = gather(part.space, s.split(), oov_mode)
            for i, p in enumerate(part.p_values):
                blocks.append(power_mean(W, p, strict=strict))
                counts[i] += undefined_columns(W, p)
        rows.append(np.concatenate(blocks))
    X = np.stack(rows) if rows else np.zeros((0, cfg.output_dim))
    return X, tuple(map(tuple, undefined))


def kernel_corpus(cfg, sentences, oov_mode, strict):
    X, stats = embed_corpus(replace(cfg, oov=oov_mode, strict=strict), sentences)
    return X, stats.undefined


def pooled_or_error(pool, cfg, sentences, oov_mode, strict):
    """(shape, output bytes, undefined entries per (part, p)) of one pooling, or the
    strict message it raises."""
    try:
        X, undefined = pool(cfg, sentences, oov_mode, strict)
    except NumericalPolicyError as exc:
        return str(exc)
    return X.shape, X.tobytes(), undefined


def tricky_space(name, rng):
    """A space whose columns hold signed-zero ties, negatives and near-zero entries.

    Column 0's maximum and column 1's minimum are a 0.0 / -0.0 tie in most
    sentences; rows pos0..pos2 are positive and moderate, so sentences made of
    them are defined for every p.
    """
    n, d = 12, 5
    M = rng.choice([0.5, -1.5, 2.0, -0.25, 1e-13, -EPSILON, 3.0], size=(n, d))
    M[:, 0] = rng.choice([0.0, -0.0, -1.0, -2.5], size=n)
    M[:, 1] = rng.choice([0.0, -0.0, 1.0, 3.0], size=n)
    M[:3] = rng.uniform(0.5, 2.0, size=(3, d))
    M[3] = 1e200  # overflows x**p for p >= 2
    vocab = {f"pos{i}": i for i in range(3)} | {f"w{i}": i for i in range(3, n)}
    return EmbeddingSpace(name, d, vocab, M)


def tricky_sentences(space, rng, n=40):
    """Sentences with repeats, OOV tokens, an empty and an all-OOV one; the first
    three use only the positive rows."""
    words = list(space.vocab) + ["oov1", "oov2"]
    clean = [" ".join(rng.choice(["pos0", "pos1", "pos2"], size=k)) for k in (1, 4, 30)]
    mixed = [" ".join(rng.choice(words, size=rng.integers(1, 40))) for _ in range(n)]
    return clean + mixed[: n // 2] + ["", "oov1 oov2 oov1"] + mixed[n // 2:]


BLOCK_PS = KERNEL_PS + [5.0, -3.0]


def same_length_sentences(space, rng):
    """Nine sentences of each of four token counts, repeats and OOV tokens included,
    with an empty and an all-OOV sentence placed among them."""
    words = list(space.vocab) + ["oov1", "oov2"]
    sentences = [" ".join(rng.choice(words, size=k)) for k in (1, 2, 3, 7) for _ in range(9)]
    rng.shuffle(sentences)
    return sentences[:10] + ["", "oov1 oov2 oov1"] + sentences[10:]


class TestCorpusKernel:
    """embed_corpus must equal per-sentence power_mean blocks bit for bit."""

    @pytest.mark.parametrize("oov_mode", ["skip", "zero"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_power_mean_blocks(self, oov_mode, seed):
        rng = np.random.default_rng(seed)
        a, b = tricky_space("a", rng), tricky_space("b", rng)
        cfg = PooledConfig([PooledPart(a, KERNEL_PS), PooledPart(b, KERNEL_PS[::-1])])
        sentences = tricky_sentences(a, rng)
        got = pooled_or_error(kernel_corpus, cfg, sentences, oov_mode, False)
        want = pooled_or_error(oracle_corpus, cfg, sentences, oov_mode, False)
        assert got[:2] == want[:2]
        assert got[2] == want[2]  # same undefined entries per (part, p)
        assert sum(map(sum, got[2])) > 0

    def test_signed_zero_ties_keep_their_sign(self):
        # np.sort may flip the signs of tied zeros, so a zero extreme or a zero
        # mean is 0.0 whatever the token order
        space = EmbeddingSpace("z", 1, {"p": 0, "n": 1, "m": 2},
                               np.array([[0.0], [-0.0], [-1.0]]))
        cfg = PooledConfig([PooledPart(space, [INF, -INF, 1.0, 3.0])])
        rng = np.random.default_rng(0)
        sentences = [" ".join(rng.choice(["p", "n", "m"], size=k)) for k in range(1, 60)]
        got, _ = embed_corpus(cfg, sentences)
        want, _ = oracle_corpus(cfg, sentences, "skip", False)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("strict", [False, True], ids=["nan_to_zero", "error"])
    def test_pole_columns_are_policed(self, strict):
        # 1 and -1 at p = -1 or -3: the mean of powers cancels to exactly 0
        space = EmbeddingSpace("pole", 2, {"a": 0, "b": 1}, np.array([[1.0, 2.0], [-1.0, 2.0]]))
        cfg = PooledConfig([PooledPart(space, [-1.0, -3.0])])
        sentences = ["a", "a b b a", "b"]
        got = pooled_or_error(kernel_corpus, cfg, sentences, "skip", strict)
        assert got == pooled_or_error(oracle_corpus, cfg, sentences, "skip", strict)
        assert "p=-1 at dimension 0" in got if strict else got[2] == ((1, 1),)

    @pytest.mark.parametrize("oov_mode", ["skip", "zero"])
    @pytest.mark.parametrize("p", [0.0, -1.0, 0.5, 3.0, -2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_strict_raises_the_oracles_first_message(self, oov_mode, p, seed):
        rng = np.random.default_rng(seed)
        a, b = tricky_space("a", rng), tricky_space("b", rng)
        cfg = PooledConfig([PooledPart(a, [1.0, INF]), PooledPart(b, [2.0, p, -INF])])
        sentences = tricky_sentences(a, rng)
        got = pooled_or_error(kernel_corpus, cfg, sentences, oov_mode, True)
        want = pooled_or_error(oracle_corpus, cfg, sentences, oov_mode, True)
        assert isinstance(want, str) and got == want

    def test_strict_passes_a_defined_corpus(self):
        rng = np.random.default_rng(0)
        a = tricky_space("a", rng)
        cfg = PooledConfig([PooledPart(a, KERNEL_PS)])
        sentences = ["pos0 pos1", "pos2 pos2 pos0"]
        got = pooled_or_error(kernel_corpus, cfg, sentences, "skip", True)
        assert got == pooled_or_error(oracle_corpus, cfg, sentences, "skip", True)
        assert got[2] == ((0,) * len(KERNEL_PS),)

    @pytest.mark.parametrize("block_rows", [1, 4, None], ids=["one_sentence", "ragged", "default"])
    @pytest.mark.parametrize("oov_mode", ["skip", "zero"])
    @pytest.mark.parametrize("strict", [False, True], ids=["nan_to_zero", "error"])
    @pytest.mark.parametrize("seed", range(3))
    def test_any_block_size_matches_power_mean(self, monkeypatch, block_rows, oov_mode, strict,
                                               seed):
        rng = np.random.default_rng(seed)
        a, b = tricky_space("a", rng), tricky_space("b", rng)
        if block_rows is not None:  # a block holds block_rows rows of a space
            monkeypatch.setattr(pooling, "BLOCK_BYTES", block_rows * 8 * a.dim)
        cfg = PooledConfig([PooledPart(a, BLOCK_PS), PooledPart(b, BLOCK_PS[::-1])])
        sentences = same_length_sentences(a, rng)
        got = pooled_or_error(kernel_corpus, cfg, sentences, oov_mode, strict)
        want = pooled_or_error(oracle_corpus, cfg, sentences, oov_mode, strict)
        assert got == want
        assert isinstance(want, str) == strict

    @pytest.mark.parametrize("block_rows, dim", [(1, 5), (4, 5), (4, 1), (300, 2)])
    def test_blocks_hold_each_sentence_once(self, monkeypatch, block_rows, dim):
        monkeypatch.setattr(pooling, "BLOCK_BYTES", block_rows * 8 * dim)
        rng = np.random.default_rng(0)
        lengths = rng.choice([1, 2, 3, 7], size=30)
        local = rng.integers(0, 9, size=lengths.sum())
        starts = np.cumsum(lengths) - lengths
        seen, sizes = [], {}
        for sentences, ids in pooling._blocks(lengths, starts, local, dim):
            length = int(lengths[sentences[0]])
            assert (lengths[sentences] == length).all() and ids.shape == (length, len(sentences))
            for j, s in enumerate(sentences):
                assert ids[:, j].tolist() == local[starts[s]:starts[s] + length].tolist()
            seen.extend(sentences.tolist())
            sizes.setdefault(length, []).append(len(sentences))
        assert seen == sorted(seen, key=lambda s: lengths[s])  # corpus order within a length
        assert sorted(seen) == list(range(30))
        # full blocks of max(1, block_rows // length) sentences, then what is left
        want = {}
        for length, count in Counter(lengths.tolist()).items():
            per_block = max(1, block_rows // length)
            full, rest = divmod(count, per_block)
            want[length] = [per_block] * full + [rest] * (rest > 0)
        assert sizes == want
        if block_rows == 4:
            assert sizes[1] == [4, 2]  # six sentences of one token: a ragged last block

    @given(
        st.integers(1, 5).flatmap(lambda d: st.lists(
            st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=d, max_size=d),
            min_size=1, max_size=6)),
        st.lists(st.integers(0, 7), max_size=12),
        st.randoms(use_true_random=False),
        st.sampled_from(["skip", "zero"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_token_order_does_not_change_a_row(self, rows, token_ids, rnd, oov_mode):
        space = EmbeddingSpace("h", len(rows[0]), {f"w{i}": i for i in range(len(rows))},
                               np.array(rows))
        cfg = PooledConfig([PooledPart(space, KERNEL_PS)], oov=oov_mode)
        tokens = [f"w{i}" for i in token_ids]  # ids past the vocabulary are OOV
        shuffled = list(tokens)
        rnd.shuffle(shuffled)
        X, first = embed_corpus(cfg, [" ".join(tokens)])
        Y, second = embed_corpus(cfg, [" ".join(shuffled)])
        assert X.tobytes() == Y.tobytes()
        assert first == second


def brute_force_stats(cfg, sentences, oov_mode):
    """PoolStats' per-part counts, straight from the tokens and each vocabulary."""
    token_lists = [s.split() for s in sentences]
    counts = []
    for part in cfg.parts:
        known = [[t for t in tokens if t in part.space.vocab] for tokens in token_lists]
        kept = known if oov_mode == "skip" else token_lists
        counts.append((sum(map(len, token_lists)),
                       sum(len(tokens) - len(k) for tokens, k in zip(token_lists, known)),
                       sum(not k for k in kept),
                       len(set().union(*known))))
    return [tuple(c) for c in zip(*counts)]


class TestPoolStats:
    @pytest.mark.parametrize("oov_mode", ["skip", "zero"])
    @pytest.mark.parametrize("seed", range(3))
    def test_counts_match_brute_force(self, oov_mode, seed):
        rng = np.random.default_rng(seed)
        a = tricky_space("a", rng)
        b = EmbeddingSpace("b", a.dim, dict(list(a.vocab.items())[:8]), a.matrix[:8])  # no w8..w11
        cfg = PooledConfig([PooledPart(a, [1.0, -1.0]), PooledPart(b, [INF, 0.5, 3.0])],
                           oov=oov_mode)
        sentences = tricky_sentences(a, rng)
        _, stats = embed_corpus(cfg, sentences)
        want = brute_force_stats(cfg, sentences, oov_mode)
        assert [stats.tokens, stats.oov_tokens, stats.fallback_sentences,
                stats.vocab_rows] == want
        assert stats.fallback_sentences[0] >= (2 if oov_mode == "skip" else 1)
        assert stats.undefined_total == sum(map(sum, stats.undefined)) > 0
        assert stats.undefined[1][0] == 0  # a max never is

    def test_overflowing_mean_is_zeroed_and_counted(self):
        space = EmbeddingSpace("S", 2, {"a": 0, "b": 1}, np.array([[1e308, 1.0], [1e308, 2.0]]))
        cfg = PooledConfig([PooledPart(space, [1.0, INF])])
        X, stats = embed_corpus(cfg, ["a b", "a"])
        assert X.tolist() == [[0.0, 1.5, 1e308, 2.0], [1e308, 1.0, 1e308, 1.0]]
        assert stats.undefined == ((1, 0),) and stats.undefined_total == 1
        with pytest.raises(NumericalPolicyError, match=r"^power mean overflows for p=1 at "
                                                       r"dimension 0$"):
            embed_corpus(replace(cfg, strict=True), ["a", "a b"])


class TestZNorm:
    @pytest.mark.parametrize("column", [[1e308, 1e308], [1.5e308, -1.5e308]])
    def test_overflowing_statistics_raise(self, column):
        with pytest.raises(NumericalPolicyError, match="z-normalization overflows"):
            znorm_fit(np.array(column)[:, None])

    def test_apply_raises_where_a_standardized_value_overflows(self):
        # a row far outside the spread the parameters were fit on
        params = znorm_fit(np.array([[0.0], [1.0]]))
        with pytest.raises(NumericalPolicyError, match="a standardized value is not finite"):
            znorm_apply(params, np.array([[0.5], [1e308]]))

    def test_fit_constant_column_floored(self):
        params = znorm_fit(np.array([[1.0, 2.0], [3.0, 2.0]]))
        assert params.mean == pytest.approx([2.0, 2.0])
        assert params.std[0] == pytest.approx(1.0)  # population std of {1,3}
        assert params.std[1] == ZNORM_FLOOR

    def test_single_row(self):
        params = znorm_fit(np.array([[5.0, -1.0]]))
        assert params.mean == pytest.approx([5.0, -1.0])
        assert (params.std == ZNORM_FLOOR).all()

    def test_fit_apply_standardizes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(3.0, 2.5, size=(200, 4))
        Z = znorm_apply(znorm_fit(X), X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-10
        assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-8

    def test_already_standard_is_fixed_point(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((500, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        params = znorm_fit(X)
        assert np.abs(params.mean).max() < 1e-8
        assert np.abs(params.std - 1.0).max() < 1e-8

    def test_mean_vector_maps_to_zero(self):
        X = np.array([[1.0, 4.0], [3.0, 8.0]])
        params = znorm_fit(X)
        assert znorm_apply(params, params.mean) == pytest.approx([0.0, 0.0])

    def test_constant_column_maps_to_zero(self):
        X = np.array([[2.0], [2.0], [2.0]])
        assert znorm_apply(znorm_fit(X), X) == pytest.approx(np.zeros((3, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            znorm_apply(znorm_fit(np.ones((2, 3))), np.ones((2, 4)))


class TestConfigGrammar:
    def test_round_trip_preserves_p_order(self):
        entries = [
            ConfigEntry("glove", [1.0, INF, -INF, 0.5], path="glove.txt", lang="en"),
            ConfigEntry("ft", [3.0, 1.0]),
        ]
        text = format_config(entries)
        assert "p=1,inf,-inf,0.5" in text
        assert parse_config_text(text) == entries

    def test_parse_rejects_nan_and_junk(self):
        with pytest.raises(FormatError):
            parse_p("nan")
        with pytest.raises(FormatError):
            parse_p("abc")
        assert parse_p("inf") == INF and parse_p("-inf") == -INF

    def test_format_p_spells_extremes(self):
        assert [format_p(p) for p in (1.0, -1.0, 0.5, INF, -INF)] == [
            "1", "-1", "0.5", "inf", "-inf",
        ]

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown key"):
            parse_config_text("space=a p=1 bogus=2\n")

    def test_missing_required_keys(self):
        with pytest.raises(FormatError):
            parse_config_text("space=a\n")
        with pytest.raises(FormatError):
            parse_config_text("# only comments\n")
