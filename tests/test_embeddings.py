import logging
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmean.embeddings
from pmean.embeddings import (
    EmbeddingSpace,
    _parse_with_float,
    _parse_with_loadtxt,
    load_text_embeddings,
    save_text_embeddings,
)
from pmean.errors import DimensionError, FormatError, InputError
from pmean.pooling import PooledConfig, PooledPart, embed_corpus


def rows(space, tokens):
    """The vocabulary rows of the tokens a space knows, in token order."""
    return np.array([space.matrix[space.vocab[t]] for t in tokens if t in space.vocab])


def write(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# characters the embedding format gives a meaning to, a lone surrogate, and
# any other character
TOKEN_CHAR = st.sampled_from(["a", " ", "\n", "\r", "\t", "\ufeff", "\x85", "\u2028",
                              "\x1c", "\ud800"]) | st.characters()


@st.composite
def saved_spaces(draw):
    """An EmbeddingSpace of 0-4 rows of any finite floats, whose tokens may
    hold what the text format cannot write."""
    tokens = draw(st.lists(st.text(TOKEN_CHAR, min_size=1, max_size=4), max_size=4, unique=True))
    dim = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(tokens) * dim, max_size=len(tokens) * dim))
    return EmbeddingSpace("s", {t: i for i, t in enumerate(tokens)},
                          np.array(values, dtype=np.float64).reshape(len(tokens), dim))


class TestLoad:
    def test_smallest_well_formed_file(self, tmp_path):
        space = load_text_embeddings(write(tmp_path, "a 1.0 2.0\nb 3.0 4.0\n"))
        assert space.dim == 2
        assert len(space.vocab) == 2
        assert np.array_equal(space.matrix[space.vocab["a"]], [1.0, 2.0])
        assert np.array_equal(space.matrix[space.vocab["b"]], [3.0, 4.0])

    def test_header_auto_detection(self, tmp_path):
        plain = load_text_embeddings(write(tmp_path, "a 1.0 2.0\nb 3.0 4.0\n", "p.txt"))
        headed = load_text_embeddings(write(tmp_path, "2 2\na 1.0 2.0\nb 3.0 4.0\n", "h.txt"))
        assert plain.vocab == headed.vocab
        assert np.array_equal(plain.matrix, headed.matrix)

    def test_ragged_line_names_line_number(self, tmp_path):
        with pytest.raises(FormatError, match=":2"):
            load_text_embeddings(write(tmp_path, "a 1.0 2.0\nb 3.0\n"))

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="non-finite"):
            load_text_embeddings(write(tmp_path, "a 1.0 nan\n"))

    def test_duplicates_keep_first_and_warn(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            space = load_text_embeddings(write(tmp_path, "a 1.0\nb 2.0\na 9.0\n"))
        assert space.matrix[space.vocab["a"]][0] == 1.0
        assert len(space.vocab) == 2
        assert "1 duplicate" in caplog.text

    @pytest.mark.parametrize("text", ["", "\n", "\r\n\n", "3 2\n"])
    def test_no_rows_raise_without_a_warning(self, tmp_path, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match="no embedding rows found"):
                load_text_embeddings(write(tmp_path, text))
        assert caught == []

    def test_crlf_accepted(self, tmp_path):
        space = load_text_embeddings(write(tmp_path, "a 1.0 2.0\r\nb 3.0 4.0\r\n"))
        assert space.dim == 2 and len(space.vocab) == 2

    def test_lone_cr_does_not_end_a_row(self, tmp_path):
        path = write(tmp_path, "a 1.0 2.0\rb 3.0 4.0\n")
        assert _parse_with_loadtxt(path.read_bytes(), path) is None  # the float() loop names it
        with pytest.raises(FormatError, match=r":1: could not convert string to float: '2\.0\\rb'"):
            load_text_embeddings(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(
            "r", {f"tok{i}": i for i in range(20)}, rng.standard_normal((20, 5))
        )
        out = tmp_path / "round.txt"
        save_text_embeddings(space, out)
        back = load_text_embeddings(out)
        assert back.vocab == space.vocab
        assert np.allclose(back.matrix, space.matrix, atol=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(space=saved_spaces())
    @example(space=EmbeddingSpace("s", {"a b": 0, "a\nb": 1}, [[1.0], [2.0]]))
    def test_save_round_trips_or_raises_input_error(self, tmp_path_factory, space):
        path = tmp_path_factory.mktemp("save") / "round.txt"
        order = sorted(space.vocab, key=space.vocab.get)
        writable = (bool(order) and not any(" " in t or "\n" in t for t in order)
                    and not order[0].startswith("\ufeff")
                    and not any("\ud800" <= c <= "\udfff" for t in order for c in t))
        if not writable:
            with pytest.raises(InputError):
                save_text_embeddings(space, path)
            assert list(path.parent.iterdir()) == []
            return
        save_text_embeddings(space, path)
        back = load_text_embeddings(path)
        assert back.vocab == space.vocab
        assert back.matrix.tobytes() == space.matrix.tobytes()  # bit for bit, -0.0 included

    @pytest.mark.parametrize("before", [None, "a 9.0\n"])
    def test_a_save_that_fails_partway_leaves_the_file_as_it_was(self, tmp_path, monkeypatch,
                                                                 before):
        path = tmp_path / "sub" / "part.txt"
        if before is not None:
            path.parent.mkdir()
            path.write_text(before, encoding="utf-8")
        rows_made = []

        def fail_on_the_second_row(row, sep):
            rows_made.append(row)
            if len(rows_made) == 2:
                raise RuntimeError("second row")
            return " ".join(map(repr, row.tolist()))

        monkeypatch.setattr(pmean.embeddings, "float_row_text", fail_on_the_second_row)
        space = EmbeddingSpace("s", {f"t{i}": i for i in range(5)}, np.ones((5, 2)))
        with pytest.raises(RuntimeError, match="second row"):
            save_text_embeddings(space, path)
        assert len(rows_made) == 2
        # the directory staging made stays; no temp file is left in it
        assert list(path.parent.iterdir()) == ([] if before is None else [path])
        if before is not None:
            assert path.read_text(encoding="utf-8") == before

    def test_line_order_does_not_change_lookups(self, tmp_path):
        lines = ["a 1.0 2.0", "b 3.0 4.0", "c 5.0 6.0"]
        fwd = load_text_embeddings(write(tmp_path, "\n".join(lines) + "\n", "f.txt"))
        rev = load_text_embeddings(write(tmp_path, "\n".join(reversed(lines)) + "\n", "r.txt"))
        for tokens in (["a"], ["c", "b"], ["a", "b", "c"]):
            assert np.array_equal(rows(fwd, tokens), rows(rev, tokens))

    @given(
        vocab=st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=8, unique=True),
        perm=st.randoms(use_true_random=False),
        tokens=st.lists(st.sampled_from("abcdefghxyz"), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_line_permutation_property(self, tmp_path_factory, vocab, perm, tokens):
        rng = np.random.default_rng(len(vocab))
        lines = [
            f"{t} " + " ".join(repr(float(v)) for v in rng.standard_normal(3))
            for t in vocab
        ]
        shuffled = list(lines)
        perm.shuffle(shuffled)
        root = tmp_path_factory.mktemp("perm")
        fwd = load_text_embeddings(write(root, "\n".join(lines) + "\n", "f.txt"))
        shf = load_text_embeddings(write(root, "\n".join(shuffled) + "\n", "s.txt"))
        assert np.array_equal(rows(fwd, tokens), rows(shf, tokens))


# file text -> whether numpy's C parser takes the whole file (None: either,
# numpy versions differ); the float() loop decides every other file
LOADER_CASES = {
    "plain": ("a 1.0 2.0\nb 3.0 4.0\n", True),
    "ragged": ("a 1.0 2.0\nb 3.0\n", False),
    "nan": ("a 1.0 nan\n", False),
    "nan after ragged": ("a 1.0 2.0\nb 3.0\nc nan 1.0\n", False),
    "ragged after nan": ("a nan 2.0\nb 3.0\n", False),
    "underscore": ("a 1_0 2.0\nb 3.0 4.0\n", False),
    "non-ASCII digit": ("a \u0661 2.0\n", False),
    "empty": ("", False),
    "blank": ("\n\r\n\n", False),
    "header only": ("2 2\n", False),
    "duplicate": ("a 1.0\nb 2.0\na 9.0\n", True),
    "duplicate with nan": ("a 1.0\nb 2.0\na nan\n", False),
    "header": ("2 2\na 1.0 2.0\nb 3.0 4.0\n", True),
    "header-like second line": ("a 1.0\n2 2\n", True),
    "dim 1": ("a 1.0\nb -2.5\n", True),
    "CRLF": ("a 1.0 2.0\r\nb 3.0 4.0\r\n", True),
    "CR inside a value": ("a 1.0\r2.0\nb 3.0\n", False),  # not a line end
    "CR between rows": ("a 1.0 2.0\rb 3.0 4.0\n", False),
    "CR before CRLF": ("a 1.0 2.0\r\r\nb 3.0 4.0\r\n", False),  # float() strips it
    "trailing space": ("a 1.0 2.0 \n", False),
    "trailing tab": ("a 1.0 2.0\t\n", None),
    "tab between values": ("a 1.0\t2.0\n", False),
    "token only": ("a\nb\n", False),
    "token only after a row": ("a 1.0 2.0\nb\n", False),
    "token and space": ("a \nb \n", False),
    "empty token": (" 1.0 2.0\n", False),
    "empty token after a row": ("a 1.0\n 2.0\n", False),
    "overflow": ("a 1e999 2.0\n", False),
    "hash token": ("# 1.0 2.0\nb 3.0 4.0\n", True),
    "hash value": ("a #1.0 2.0\n", False),
    "quotes": ('"a" 1.0 2.0\nb "3.0" 4.0\n', False),
    "underflow": ("a 1e-400 2.0\n", True),
    "signs": ("a +1.0 -0.0\n", True),
    "file separator": ("a 1.0 2.0\nb 1.0\x1c 2.0\n", False),  # numpy strips it, float() does not
    "no-break space": ("a 1.0\xa0 2.0\n", None),
    "not UTF-8 after nan": (b"a nan\n" + b"b 1.0\n" * 5000 + b"caf\xe9 1.0\n", False),
}


def parsed(parse, path):
    """A parser's (vocab, matrix bytes, shape, duplicates), or its FormatError's type and text."""
    try:
        vocab, matrix, duplicates = parse(path.read_bytes(), path)
    except FormatError as exc:
        return type(exc), str(exc)
    return vocab, matrix.tobytes(), matrix.shape, duplicates


def loaded(path):
    try:
        space = load_text_embeddings(path)
    except FormatError as exc:
        return type(exc), str(exc)
    return space.vocab, space.matrix.tobytes(), space.matrix.shape


def assert_loads_as_float_reads(path, c_path=None):
    """The C parser, where it takes the file, and the loader agree with the float() loop."""
    want = parsed(_parse_with_float, path)
    assert loaded(path) == want[:3]
    fast = _parse_with_loadtxt(path.read_bytes(), path)
    if c_path is not None:
        assert (fast is not None) is c_path
    if fast is not None:
        assert parsed(lambda *_: fast, path) == want


finite_doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1e300, -3.25e300, 1e-300, -7.5e-301, 0.0, -0.0]
)


class TestLoaderDifferential:
    """np.loadtxt must read every file it takes exactly as the float() loop does."""

    @pytest.mark.parametrize("name", LOADER_CASES)
    def test_case_matches_float_loop(self, tmp_path, name):
        text, c_path = LOADER_CASES[name]
        path = tmp_path / "emb.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert_loads_as_float_reads(path, c_path)

    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(finite_doubles, min_size=d, max_size=d), min_size=1, max_size=5)))
    @settings(max_examples=150, deadline=None)
    def test_repr_doubles_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("doubles") / "emb.txt"
        lines = [f"w{i} " + " ".join(repr(v) for v in row) for i, row in enumerate(rows)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_loads_as_float_reads(path, c_path=True)
        assert load_text_embeddings(path).matrix.tobytes() == np.array(rows).tobytes()

    @given(st.lists(st.lists(
        st.text("0123456789.e+-_ \t\r\x0b\x1c\x1f\x85\xa0\u0661\u2028nafi#\"", max_size=5),
        min_size=1, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_any_value_text_matches_float_loop(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("texts") / "emb.txt"
        lines = [f"w{i} " + " ".join(fields) for i, fields in enumerate(rows)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_loads_as_float_reads(path)


def tokens_seen(sentence, vocab, **options):
    """(tokens, OOV tokens) that embed_corpus counts for one sentence over a vocabulary."""
    space = EmbeddingSpace("t", {t: i for i, t in enumerate(vocab)},
                           np.arange(1.0, len(vocab) + 1)[:, None])
    _, stats = embed_corpus(PooledConfig([PooledPart(space, [1.0])], **options), [sentence])
    return stats.tokens[0], stats.oov_tokens[0]


class TestTokenize:
    """Tokenization as embed_corpus does it, seen through its counts."""

    def test_lowercase_default(self):
        assert tokens_seen("Dark  and funny", ["dark", "and", "funny"]) == (3, 0)

    def test_empty_input(self):
        assert tokens_seen("", ["a"]) == (0, 0)

    def test_mixed_whitespace(self):
        assert tokens_seen(" a\tb\x0c\u2028c ", ["a", "b", "c"]) == (3, 0)

    def test_case_preserved_when_disabled(self):
        assert tokens_seen("Ab cD", ["Ab", "cD"], lowercase=False) == (2, 0)
        assert tokens_seen("Ab cD", ["ab", "cd"], lowercase=False) == (2, 2)
        assert tokens_seen("Ab cD", ["Ab", "cD"]) == (2, 2)

    @given(st.text())
    def test_deterministic(self, s):
        cfg = PooledConfig([PooledPart(EmbeddingSpace("t", {"a": 0}, [[1.0]]), [1.0, 2.0])])
        (X, stats), (Y, again) = embed_corpus(cfg, [s]), embed_corpus(cfg, [s])
        assert X.tobytes() == Y.tobytes() and stats == again
        assert stats.tokens == (len(s.lower().split()),)


@pytest.fixture
def small_space():
    return EmbeddingSpace(
        "s", {"a": 0, "b": 1}, np.array([[1.0, 2.0], [3.0, 4.0]])
    )


def pool(space, sentence, oov_mode="skip"):
    """One sentence's mean, max and min rows over one space, and the PoolStats."""
    cfg = PooledConfig([PooledPart(space, [1.0, float("inf"), -float("inf")])], oov=oov_mode)
    X, stats = embed_corpus(cfg, [sentence])
    return X.reshape(3, space.dim).tolist(), stats


class TestLookup:
    """Token lookup as embed_corpus does it, seen through its output and counts."""

    def test_all_in_vocab(self, small_space):
        out, stats = pool(small_space, "a b")
        assert out == [[2.0, 3.0], [3.0, 4.0], [1.0, 2.0]]
        assert (stats.tokens, stats.oov_tokens, stats.fallback_sentences) == ((2,), (0,), (0,))
        assert stats.vocab_rows == (2,)

    def test_skip_drops_oov(self, small_space):
        out, stats = pool(small_space, "a zzz", "skip")
        assert out == [[1.0, 2.0]] * 3
        assert (stats.tokens, stats.oov_tokens, stats.fallback_sentences) == ((2,), (1,), (0,))

    def test_zero_mode_substitutes(self, small_space):
        out, stats = pool(small_space, "a zzz", "zero")
        assert out == [[0.5, 1.0], [1.0, 2.0], [0.0, 0.0]]
        assert (stats.oov_tokens, stats.fallback_sentences, stats.vocab_rows) == ((1,), (0,), (1,))

    def test_forced_fallback(self, small_space):
        for oov_mode, fallbacks in (("skip", 1), ("zero", 0)):  # zero mode keeps a zero row
            out, stats = pool(small_space, "zzz", oov_mode)
            assert out == [[0.0, 0.0]] * 3
            assert stats.oov_tokens == (1,) and stats.vocab_rows == (0,)
            assert stats.fallback_sentences == (fallbacks,)

    def test_empty_sequence_fallback(self, small_space):
        for oov_mode in ("skip", "zero"):
            out, stats = pool(small_space, "", oov_mode)
            assert out == [[0.0, 0.0]] * 3
            assert (stats.tokens, stats.fallback_sentences) == ((0,), (1,))

    @given(
        vocab=st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True),
        tokens=st.lists(st.sampled_from("abcdefghxyz"), max_size=20),
        oov_mode=st.sampled_from(["skip", "zero"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_skip_row_count_matches_in_vocab_tokens(self, vocab, tokens, oov_mode):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(
            "p", {t: i for i, t in enumerate(vocab)}, rng.standard_normal((len(vocab), 3))
        )
        out, stats = pool(space, " ".join(tokens), oov_mode)
        present = [t for t in tokens if t in space.vocab]
        assert stats.tokens == (len(tokens),)
        assert stats.oov_tokens == (len(tokens) - len(present),)
        assert stats.vocab_rows == (len(set(present)),)
        kept = present if oov_mode == "skip" else tokens
        assert stats.fallback_sentences == (int(not kept),)
        want = rows(space, present).sum(axis=0) / len(kept) if present else np.zeros(3)
        assert out[0] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSpaceInvariants:
    def test_unknown_oov_mode_rejected(self, small_space):
        with pytest.raises(InputError, match="unknown OOV mode 'bogus'"):
            PooledConfig([PooledPart(small_space, [1.0])], oov="bogus")

    def test_row_count_must_match_vocab(self):
        with pytest.raises(DimensionError):
            EmbeddingSpace("x", {"a": 0}, np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(1,), (1, 0), (1, 1, 1)])
    def test_matrix_must_be_two_dimensional_with_a_column(self, shape):
        with pytest.raises(DimensionError):
            EmbeddingSpace("x", {"a": 0}, np.zeros(shape))

    def test_dim_is_the_matrix_width(self):
        assert EmbeddingSpace("x", {"a": 0}, np.zeros((1, 3))).dim == 3

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingSpace("x", {"a": 0}, np.array([[np.inf]]))

    def test_empty_token_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingSpace("x", {"": 0}, np.zeros((1, 1)))

    def test_indices_must_cover_range(self):
        with pytest.raises(FormatError):
            EmbeddingSpace("x", {"a": 0, "b": 2}, np.zeros((2, 1)))
