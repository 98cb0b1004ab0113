import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmean import pooling
from pmean.embeddings import EmbeddingSpace
from pmean.errors import DimensionError, FormatError, InputError, NumericalPolicyError
from pmean.pooling import (
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
    _reduce,
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

    def test_a_pole_is_a_sum_of_powers_that_is_exactly_zero(self):
        # the reciprocals 1, -1, 2/3 and -2/3 cancel exactly (an ascending running
        # sum left 2**-55); 1, -1 and 2**-60 do not (it rounded them to 0)
        W = np.array([[1.0, 1.0], [-1.0, -1.0], [1.5, 2.0 ** 60], [-1.5, 2.0 ** 60]])
        assert power_mean(W[:, :1], -1).tolist() == [0.0]
        assert undefined_columns(W[:, :1], -1) == 1
        assert power_mean(W[:3, 1:], -1, strict=True).tolist() == [3 * 2.0 ** 60]

    def test_error_mode_names_p_and_dimension(self):
        with pytest.raises(NumericalPolicyError, match=r"p=0\.5.*dimension 1"):
            power_mean(np.array([[2.0, -1.0], [2.0, 2.0]]), 0.5, strict=True)

    @pytest.mark.parametrize("W, p, detail", [
        ([[2.0, 5.0], [3.0, 0.0], [4.0, -3.0]], 0, "p=0 at dimension 1 (value -3.0)"),
        ([[1.0, 4.0], [2.0, 0.0]], -1, "p=-1 at dimension 1 (value 0.0)"),
        ([[2.0, 2.0], [2.0, -1.5]], 0.5, "p=0.5 at dimension 1 (value -1.5)"),
        ([[math.nan], [-1.0]], 0.5, "p=0.5 at dimension 0 (value -1.0)"),  # NaN sorts last
        # pole: no entry is undefined, the reciprocals of -2 and 2 cancel
        ([[1.0, 2.0], [2.0, -2.0]], -1, "p=-1 at dimension 1 (value -2.0)"),
    ])
    def test_error_mode_names_the_offending_value(self, W, p, detail):
        with pytest.raises(NumericalPolicyError) as exc:
            power_mean(np.array(W), p, strict=True)
        assert str(exc.value) == f"power mean undefined for {detail}"

    # a power overflows; for p < 0 the root of its mean would be a finite 0
    OVERFLOWS = [(np.array([[1.0, 1e160], [2.0, 1e160]]), 2),
                 (np.array([[1.0, 1e-11], [2.0, 1e-11]]), -30)]

    def test_overflow_is_zeroed_not_propagated(self):
        for W, p in self.OVERFLOWS:
            out = power_mean(W, p)
            assert np.isfinite(out).all() and out[0] != 0.0 and out[1] == 0.0
            assert undefined_columns(W, p) == 1

    def test_overflow_raises_in_error_mode(self):
        for W, p in self.OVERFLOWS:
            with pytest.raises(NumericalPolicyError, match=rf"overflows for p={p} at dimension 1"):
                power_mean(W, p, strict=True)

    @pytest.mark.parametrize("column", [[1e308, 1e308], [1.7e308, 1.7976931348623157e308],
                                        [-1e308, -1.5e308, 1e308]])
    def test_a_sum_of_finite_powers_does_not_overflow(self, column):
        W = np.array(column)[:, None]
        want = [float(sum(map(Fraction, column)) / len(column))]
        assert power_mean(W, 1.0, strict=True).tolist() == want
        assert undefined_columns(W, 1.0) == 0

    def test_the_open_range_cases_are_still_zeroed(self):
        # a power that overflows (counted) or underflows (not counted yet)
        for column, p, counted in [([1e200, 1e200], 2.0, 1), ([10.0, 10.0], 400.0, 1),
                                   ([5e-324, 1.0], -1.0, 1), ([1e-120, 1e-120], 3.0, 0)]:
            W = np.array(column)[:, None]
            assert power_mean(W, p).tolist() == [0.0]
            assert undefined_columns(W, p) == counted

    def test_extremes_of_huge_entries_are_kept(self):
        W = np.array([[1e308, -1e308], [1e308, -1e308]])
        assert power_mean(W, INF, strict=True).tolist() == [1e308, -1e308]
        assert power_mean(W, -INF, strict=True).tolist() == [1e308, -1e308]

    @pytest.mark.parametrize("W, p, detail", [
        ([[INF, 1.0]], INF, "p=inf at dimension 0 (value inf)"),
        ([[1.0, 1.0], [2.0, math.nan]], -INF, "p=-inf at dimension 1 (value nan)"),
        ([[1.0, -INF], [2.0, math.nan]], -INF, "p=-inf at dimension 1 (value -inf)"),
    ])
    def test_extremes_zero_a_non_finite_column_or_raise_naming_it(self, W, p, detail):
        W = np.array(W)
        out = power_mean(W, p)
        replaced = ~np.isfinite(W).all(axis=0)
        assert np.isfinite(out).all() and (out[replaced] == 0.0).all()
        assert (out[~replaced] == (W.max(axis=0) if p > 0 else W.min(axis=0))[~replaced]).all()
        with pytest.raises(NumericalPolicyError) as exc:
            power_mean(W, p, strict=True)
        assert str(exc.value) == f"power mean undefined for {detail}"

    def test_a_tiny_nonzero_base_is_not_a_zero_base(self):
        W = np.array([[1e-13], [1e-13]])
        assert power_mean(W, -1, strict=True).tolist() == [1e-13]
        assert power_mean(W, -2, strict=True).tolist() == [1e-13]
        for x in (1e-13, 1e-200):
            got = power_mean(np.array([[x], [x]]), 0, strict=True)
            assert got == pytest.approx([x], rel=1e-12, abs=0)

    def test_a_nonzero_base_whose_power_overflows_is_an_overflow(self):
        W = np.array([[5e-324], [1.0]])  # 1 / 5e-324 is past the float range
        assert power_mean(W, -1).tolist() == [0.0]
        assert undefined_columns(W, -1) == 1
        with pytest.raises(NumericalPolicyError, match=r"overflows for p=-1 at dimension 0"):
            power_mean(W, -1, strict=True)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            power_mean(np.zeros((0, 3)), 1)

    def test_harmonic_mean_is_correctly_rounded(self):
        # the reciprocals 1/0.7, 1/0.3, 1/0.1 and 1/0.2 are summed exactly
        got = power_mean(np.array([[0.7], [0.3], [0.1], [0.2]]), -1)
        assert got.tolist() == [0.20240963855421687]

    def test_a_sum_of_signed_zeros_is_zero_in_any_row_order(self):
        # however the signed zeros are ordered, the mean and its root are 0.0
        W = np.array([[-0.0]] * 10 + [[0.0]])
        for p in (1.0, 3.0):
            assert power_mean(W, p).tobytes() == power_mean(W[::-1], p).tobytes() == bytes(8)

    def test_a_column_does_not_depend_on_its_neighbours(self):
        # the mean of 0.1 * (1..8) is 0.45 correctly rounded, beside huge and
        # tiny columns, a column whose sum would overflow and one whose power does
        W = 0.1 * np.arange(1.0, 9.0)[:, None]
        assert power_mean(W, 1).tolist() == [0.45]
        neighbours = np.hstack([W[::-1], 1e300 * W, 1e-300 * W, np.full_like(W, 1.7e308)])
        assert power_mean(np.hstack([W, neighbours]), 1)[:2].tolist() == [0.45] * 2
        alone = power_mean(W, 2.0)
        W = np.hstack([W, np.full_like(W, 1e200)])  # 1e200 ** 2 overflows
        assert power_mean(W, 2.0).tolist() == [*alone, 0.0]


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
        got, want = _powers(-W, p), -_powers(W, p)
        defined = ~np.isnan(want)  # negating NaN flips its sign bit
        assert (np.isnan(got) == ~defined).all()
        assert got[defined].tobytes() == want[defined].tobytes()

    @given(matrices(SIGNED | st.sampled_from([1e-12, -1e-12, 2e-12, -1e-13, -1e200])),
           st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_powers_are_nan_exactly_where_undefined(self, W, p):
        def undefined(x):
            if p == 0:  # the geometric mean needs strictly positive entries
                return x <= 0
            return (p < 0 and x == 0) or (x < 0 and not p.is_integer())

        want = [[undefined(x) for x in row] for row in W.tolist()]
        assert np.isnan(_powers(W, p)).tolist() == want

    # columns of any finite floats, of mixed signs and magnitudes, 1 to 80 rows
    @given(st.integers(1, 80).flatmap(lambda n: st.lists(
               st.lists(st.floats(allow_nan=False, allow_infinity=False)
                        | st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 5e-324]),
                        min_size=n, max_size=n), min_size=1, max_size=3)),
           st.sampled_from([1.0, 3.0, -1.0, 2.0]))
    @settings(max_examples=150, deadline=None)
    @example(columns=[[1.0, 2.0 ** -60, -1.0]], p=1.0)
    @example(columns=[[1e308, 1e308, 1.7e308, -1e-300]], p=1.0)
    def test_each_column_mean_is_within_the_stated_bound(self, columns, p):
        # _reduce's bound: the sum within u*|sum| + (1 + u)*u*max|x| of exact, then
        # one rounding of the division and, below 2**-1022, one of the scaling back
        u = Fraction(2) ** -53
        with np.errstate(all="ignore"):
            powers = _powers(np.array(columns).T, p)
            got = _reduce(powers.copy(), p)
        for j, column in enumerate(powers.T.tolist()):
            if not all(map(math.isfinite, column)):
                assert math.isnan(got[j])
                continue
            n, biggest = len(column), max(map(abs, column))
            mean = sum(map(Fraction, column)) / n
            slack = (u * abs(mean) * n + (1 + u) * u * Fraction(biggest)) / n
            assert abs(Fraction(got[j]) - mean) <= slack + u * (abs(mean) + slack) + Fraction(
                2) ** -1075
            if biggest and min(abs(v) for v in column if v) >= biggest * 2.0 ** -30:
                # nothing is truncated: the sum is exact, as math.fsum's is
                e = math.frexp(biggest)[1]
                fsum = math.fsum(math.ldexp(v, -e) for v in column)
                assert got[j] == math.ldexp(fsum / n, e)

    @given(matrices(st.floats(0.5, 2.0)), st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0]).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(-scale_bound(p), scale_bound(p)))))
    @settings(max_examples=200, deadline=None)
    @example(W=np.array([[1.0], [1.5]]), pk=(-1.0, -60))
    @example(W=np.array([[0.5, 2.0]]), pk=(0.0, -1000))
    def test_non_positive_p_is_homogeneous_at_every_scale(self, W, pk):
        # M_p(c * x) = c * M_p(x) for c = 2**k, which scales each entry exactly
        p, k = pk
        c = 2.0 ** k
        want = c * power_mean(W, p)
        assert power_mean(c * W, p, strict=True) == pytest.approx(
            want, rel=1e-12 if p == 0 else 1e-13, abs=0)

    def test_single_row_is_fixed_point(self):
        row = np.array([[0.3, 1.7, 2.2]])
        for p in (1.0, 2.0, 0.5, -1.0, 0.0, INF, -INF):
            assert power_mean(row, p) == pytest.approx(row[0], rel=1e-12)



def strict_message(W, p):
    """The message ``power_mean(W, p, strict=True)`` raises, or None."""
    try:
        power_mean(W, p, strict=True)
    except NumericalPolicyError as exc:
        return str(exc)
    return None


class TestStrictSignedZero:
    """Which zero a --strict message names is pmean's rule, -0.0 before 0.0, never
    the row order or the order a sort kernel leaves equal values in."""

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.0])
    @pytest.mark.parametrize("column", [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]],
                             ids=["0.0 first", "-0.0 first"])
    def test_negative_zero_is_named_before_zero(self, p, column):
        want = f"power mean undefined for p={format_p(p)} at dimension 0 (value -0.0)"
        assert strict_message(np.array(column)[:, None], p) == want
        space = EmbeddingSpace("z", {"zero": 0, "minus": 1, "one": 2},
                               np.array([[0.0], [-0.0], [1.0]]))
        words = {"0.0": "zero", "-0.0": "minus", "1.0": "one"}
        sentence = " ".join(words[repr(v)] for v in column)
        with pytest.raises(NumericalPolicyError) as exc:
            embed_corpus(PooledConfig([PooledPart(space, [p])], strict=True), [sentence])
        assert str(exc.value) == want

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.nan]),
                    min_size=1, max_size=10),
           st.sampled_from([-1.0, -0.5, 0.0, 0.5, 2.0, INF, -INF]), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_permuting_a_column_never_changes_the_message(self, column, p, rnd):
        shuffled = list(column)
        rnd.shuffle(shuffled)
        assert strict_message(np.array(column)[:, None], p) == \
            strict_message(np.array(shuffled)[:, None], p)


MAX = np.finfo(np.float64).max
# signed zeros, subnormals, the float range's ends and non-finite rows
P1_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX,
                            INF, -INF, math.nan])


class TestPowerMeanAtOne:
    """At p = 1 the rows are their own powers and the root is ``+ 0.0``: bit for bit
    the general path's ``copysign(|x| ** 1.0, x)`` powers and ``sign(m) * |m| ** 1.0`` root."""

    def test_powers_are_the_rows_themselves(self):
        W = np.array([[0.5, -0.0], [math.nan, 3.0]])
        assert _powers(W, 1.0) is W

    def test_the_root_is_the_general_formula_bit_for_bit(self):
        rng = np.random.default_rng(0)
        m = np.concatenate([rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
                            [0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, INF, -INF, math.nan]])
        with np.errstate(all="ignore"):  # as _pool_p calls it: a signalling NaN is invalid
            want = np.sign(m) * np.abs(m) ** 1.0
            got = pooling._root(m, 1.0)
        assert (np.isnan(got) == np.isnan(want)).all()
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    @given(matrices(P1_EDGES | st.floats(), max_n=12))
    @settings(max_examples=300, deadline=None)
    @example(W=np.array([[0.0, -0.0, 5e-324, MAX, INF, math.nan],
                         [-0.0, -0.0, -5e-324, MAX, 1.0, 1.0]]))
    def test_equals_the_general_path_and_polices_the_same_entries(self, W):
        with np.errstate(all="ignore"):
            inner = _reduce(np.copysign(np.power(np.abs(W), 1.0), W), 1.0)
            want = np.sign(inner) * np.abs(inner) ** 1.0
        undefined = ~np.isfinite(want)
        want[undefined] = 0.0
        assert power_mean(W, 1.0).tobytes() == want.tobytes()
        rows, out = np.arange(len(W)), np.empty((1, W.shape[1]))
        replaced, _ = pooling._pool_p(W, 1.0, [([0], rows[:, None])], rows, (0, len(W)), out,
                                      False)
        assert replaced == np.count_nonzero(undefined)
        if not undefined.any():
            assert strict_message(W, 1.0) is None
            return
        dim = int(np.argmax(undefined))
        assert strict_message(W, 1.0) == (
            f"power mean undefined for p=1 at dimension {dim} (value nan)"
            if np.isnan(W[:, dim]).any() else f"power mean overflows for p=1 at dimension {dim}")


@pytest.fixture
def two_spaces():
    rng = np.random.default_rng(4)
    mk = lambda name, d: EmbeddingSpace(
        name, {f"w{i}": i for i in range(6)}, rng.uniform(0.2, 2.0, (6, d))
    )
    return mk("one", 3), mk("two", 4)


@pytest.mark.parametrize("build, message", [
    (lambda space: PooledPart(space, [1.0, math.nan]), "part 'one': p may not be NaN"),
    (lambda space: PooledConfig([]), "PooledConfig needs at least one part"),
], ids=["nan-p", "no-parts"])
def test_a_config_that_pools_nothing_defined_raises(two_spaces, build, message):
    with pytest.raises(InputError, match=message):
        build(two_spaces[0])


def embed_one(space, p_values, sentence):
    """The single row embed_corpus gives one sentence over one space."""
    X, _ = embed_corpus(PooledConfig([PooledPart(space, p_values)]), [sentence])
    assert X.shape == (1, len(p_values) * space.dim)
    return X[0]


class TestPooling:
    def test_mean_then_max_concatenation(self):
        space = EmbeddingSpace("s", {"a": 0, "b": 1}, np.array([[1.0, 0.0], [3.0, 2.0]]))
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
        shifted = EmbeddingSpace("sh", dict(a.vocab), a.matrix - 1.0)
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


def scale_bound(p):
    """The largest |k| <= 1000 for which every |2**k * x|**p with x in [0.5, 2], and
    the sum of eight of them, stays a normal float."""
    return 1000 if p == 0 else min(1000, int((1000 - abs(p)) / abs(p)))


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
    M = rng.choice([0.5, -1.5, 2.0, -0.25, 1e-13, -1e-12, 3.0], size=(n, d))
    M[:, 0] = rng.choice([0.0, -0.0, -1.0, -2.5], size=n)
    M[:, 1] = rng.choice([0.0, -0.0, 1.0, 3.0], size=n)
    M[:3] = rng.uniform(0.5, 2.0, size=(3, d))
    M[3] = 1e200  # overflows x**p for p >= 2
    vocab = {f"pos{i}": i for i in range(3)} | {f"w{i}": i for i in range(3, n)}
    return EmbeddingSpace(name, vocab, M)


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
    """embed_corpus must equal per-sentence power_mean blocks bit for bit. Both pool
    through one per-p step, so this checks what still differs between them: the
    tokenizing, the gathering of rows and the blocking."""

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

    @pytest.mark.parametrize("oov_mode", ["skip", "zero"])
    def test_repeated_p_values_match_power_mean_blocks(self, oov_mode):
        rng = np.random.default_rng(7)
        a = tricky_space("a", rng)
        cfg = PooledConfig([PooledPart(a, [0.5, 0.5, INF, INF, -1.0, -1.0])])
        sentences = tricky_sentences(a, rng)
        got = pooled_or_error(kernel_corpus, cfg, sentences, oov_mode, False)
        assert got == pooled_or_error(oracle_corpus, cfg, sentences, oov_mode, False)
        (undefined,) = got[2]  # a repeated p pools and counts its entries again
        assert undefined[0] == undefined[1] > 0 and undefined[4] == undefined[5] > 0

    @pytest.mark.parametrize("oov_mode", ["skip", "zero"])
    def test_inputs_are_left_unchanged(self, oov_mode):
        # _powers returns its argument at +/-inf, and _reduce overwrites its block at finite p
        rng = np.random.default_rng(8)
        a = tricky_space("a", rng)
        matrix = a.matrix.copy()
        for p in BLOCK_PS:
            power_mean(a.matrix, p)
            assert a.matrix.tobytes() == matrix.tobytes()
        cfg = PooledConfig([PooledPart(a, BLOCK_PS)], oov=oov_mode)
        embed_corpus(cfg, tricky_sentences(a, rng))
        assert a.matrix.tobytes() == matrix.tobytes()

    def test_signed_zero_ties_keep_their_sign(self):
        # a zero extreme or a zero mean is 0.0 whatever the order of the tied
        # 0.0 and -0.0 tokens
        space = EmbeddingSpace("z", {"p": 0, "n": 1, "m": 2},
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
        space = EmbeddingSpace("pole", {"a": 0, "b": 1}, np.array([[1.0, 2.0], [-1.0, 2.0]]))
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
        space = EmbeddingSpace("h", {f"w{i}": i for i in range(len(rows))},
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
        b = EmbeddingSpace("b", dict(list(a.vocab.items())[:8]), a.matrix[:8])  # no w8..w11
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
        # the mean of 1e308 and 1e308 is kept; their squares overflow
        space = EmbeddingSpace("S", {"a": 0, "b": 1}, np.array([[1e308, 1.0], [1e308, 2.0]]))
        cfg = PooledConfig([PooledPart(space, [1.0, 2.0, INF])])
        X, stats = embed_corpus(cfg, ["a b", "a"])
        assert X.tolist() == [[1e308, 1.5, 0.0, math.sqrt(2.5), 1e308, 2.0],
                              [1e308, 1.0, 0.0, 1.0, 1e308, 1.0]]
        assert stats.undefined == ((0, 2, 0),) and stats.undefined_total == 2
        X, stats = embed_corpus(PooledConfig([PooledPart(space, [1.0])], strict=True), ["a b"])
        assert X.tolist() == [[1e308, 1.5]] and stats.undefined_total == 0
        with pytest.raises(NumericalPolicyError, match=r"^power mean overflows for p=2 at "
                                                       r"dimension 0$"):
            embed_corpus(replace(cfg, strict=True), ["a", "a b"])

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_powers_overflowing_with_both_signs_are_an_overflow(self, p):
        # at p = 3 the powers are inf and -inf, so the mean is NaN, yet no power is undefined
        W = np.array([[1e200, 1.0], [-1e200, 2.0]])
        space = EmbeddingSpace("S", {"a": 0, "b": 1}, W)
        cfg = PooledConfig([PooledPart(space, [p])])
        X, stats = embed_corpus(cfg, ["a b"])
        assert X[0, 0] == 0.0 and X[0].tobytes() == power_mean(W, p).tobytes()
        assert stats.undefined == ((1,),)
        message = rf"^power mean overflows for p={int(p)} at dimension 0$"
        with pytest.raises(NumericalPolicyError, match=message):
            power_mean(W, p, strict=True)
        with pytest.raises(NumericalPolicyError, match=message):
            embed_corpus(replace(cfg, strict=True), ["a b"])


def mean_both_ways(columns, p):
    """M_p of each column and the count of zeroed entries, by power_mean and by
    embed_corpus over one sentence of all the rows; the two must agree bit for bit."""
    W = np.array(columns, dtype=np.float64).T
    space = EmbeddingSpace("e", {f"w{i}": i for i in range(len(W))}, W)
    X, stats = embed_corpus(PooledConfig([PooledPart(space, [p])]), [" ".join(space.vocab)])
    oracle = power_mean(W, p)
    assert X[0].tobytes() == oracle.tobytes()
    assert stats.undefined == ((undefined_columns(W, p),),)
    return oracle, stats.undefined_total


def scaled_fsum_mean(column):
    """The mean as _reduce computes it when its folds drop nothing: the exact sum of the
    column scaled below 1, rounded once, divided by its length and scaled back."""
    e = math.frexp(max(map(abs, column)))[1]
    return math.ldexp(math.fsum(math.ldexp(v, -e) for v in column) / len(column), e)


class TestExactSumEdges:
    """The edges of _reduce's sum, for power_mean and embed_corpus alike."""

    def test_a_subnormal_column(self):
        for column in ([1e-310, 3e-310], [3e-310, 1e-310]):
            assert mean_both_ways([column], 1.0) == ([2e-310], 0)
        assert mean_both_ways([[5e-324, 5e-324, 5e-324]], 1.0) == ([5e-324], 0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 0.5])
    def test_zero_and_signed_zero_columns_mean_zero(self, p):
        columns = [[0.0] * 3, [-0.0] * 3, [-0.0, 0.0, -0.0], [0.0]]
        for column in columns:
            got, undefined = mean_both_ways([column], p)
            assert got.tobytes() == bytes(8) and undefined == 0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    @example(x=1.7976931348623157e308)
    @example(x=-5e-324)
    def test_one_row_is_itself_at_any_magnitude(self, x):
        got, undefined = mean_both_ways([[x]], 1.0)
        assert got.tobytes() == np.float64(x + 0.0).tobytes() and undefined == 0

    @pytest.mark.parametrize("column, p", [
        ([1e200, 1.0], 2.0),  # the power is inf
        ([1e200, -1e200, 2.0], 3.0),  # inf and -inf
        ([5e-324, 1.0, 1.0], -1.0),
        ([-1.0, 4.0], 0.5),  # NaN: the power is undefined
        ([0.0, 4.0, 1.0], -2.0),
    ])
    def test_a_column_with_a_non_finite_power_is_zeroed_and_counted(self, column, p):
        got, undefined = mean_both_ways([column, [1.0] * len(column)], p)
        assert got.tolist() == [0.0, 1.0] and undefined == 1

    @pytest.mark.parametrize("length", [1, 2, 3, 65, 200])
    def test_each_length_sums_exactly(self, length):
        rng = np.random.default_rng(length)
        columns = [rng.choice([-1.0, 1.0], length) * rng.uniform(0.5, 2.0, length) * scale
                   for scale in (1.0, 1e300, 1e-300, 1e-310)]
        got, undefined = mean_both_ways(columns, 1.0)
        assert got.tolist() == [scaled_fsum_mean(column.tolist()) for column in columns]
        constant = [0.75, -0.75 * 2.0 ** 1023, 0.75 * 2.0 ** -1070]
        assert mean_both_ways([[x] * length for x in constant], 1.0)[0].tolist() == constant
        perm = rng.permutation(length)
        assert mean_both_ways([c[perm] for c in columns], 1.0)[0].tobytes() == got.tobytes()


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

    def test_fit_on_no_rows_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match="N >= 1"):
            znorm_fit(np.empty((0, 3)))

    def test_apply_is_the_formula_bit_for_bit_and_leaves_its_input(self):
        rng = np.random.default_rng(5)
        X = rng.normal(3.0, 2.5, size=(40, 6)) * np.logspace(-3, 3, 6)
        params = znorm_fit(X[:25])
        before = X.copy()
        for rows in (X, X[7]):  # a matrix, and a single vector
            Z = znorm_apply(params, rows)
            assert np.array_equal(Z, (rows - params.mean) / params.std)
            assert not np.shares_memory(Z, X)
        assert np.array_equal(X, before)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_apply_rejects_a_non_finite_entry(self, bad):
        params = znorm_fit(np.array([[0.0, 1.0], [1.0, 3.0]]))
        with pytest.raises(NumericalPolicyError, match="a standardized value is not finite"):
            znorm_apply(params, np.array([[0.5, 2.0], [0.25, bad]]))


# characters the config grammar gives a meaning to, and any other character
CONFIG_TEXT = st.text(st.sampled_from(["a", "=", "#", ",", " ", "\t", "\n", "\r", "\x85",
                                       "\u2028", "\x1c", "\ufeff"]) | st.characters(),
                      max_size=4)
CONFIG_P = st.floats() | st.sampled_from([INF, -INF, 0.0, -0.0, 1.0, 5e-324, 1e300])


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

    @pytest.mark.parametrize("line, key", [("space= p=1", "space"), ("space=a p=1 lang=", "lang"),
                                           ("space=a p=1 path=", "path"), ("space=a p=", "p")])
    def test_an_empty_label_names_its_line(self, line, key):
        with pytest.raises(FormatError) as exc:
            parse_config_text(f"space=b p=1\n{line}\n", source="c.cfg")
        assert str(exc.value) == f"c.cfg:2: empty {key}= value"

    @pytest.mark.parametrize("entry", [ConfigEntry("", [1.0]), ConfigEntry("a", [1.0], lang="")])
    def test_format_refuses_an_empty_label(self, entry):
        with pytest.raises(InputError, match="cannot be written to a config file: empty or holds"):
            format_config([ConfigEntry("b", [1.0]), entry])

    @settings(max_examples=300, deadline=None)
    @example(entries=[ConfigEntry("a b", [1.0], path="my file.txt")])
    @given(entries=st.lists(st.builds(
        ConfigEntry, CONFIG_TEXT, st.lists(CONFIG_P, max_size=3),
        st.none() | CONFIG_TEXT, st.none() | CONFIG_TEXT), max_size=3))
    def test_format_round_trips_or_raises_input_error(self, entries):
        writable = bool(entries) and all(
            e.p_values and not any(math.isnan(p) for p in e.p_values)
            and all(v is None or (v and not any(c.isspace() for c in v))
                    for v in (e.space, e.path, e.lang))
            for e in entries)
        if not writable:
            with pytest.raises(InputError):
                format_config(entries)
            return
        assert parse_config_text(format_config(entries)) == entries

    def test_missing_required_keys(self):
        with pytest.raises(FormatError):
            parse_config_text("space=a\n")
        with pytest.raises(FormatError):
            parse_config_text("# only comments\n")
