import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmean.embeddings import (
    EmbeddingSpace,
    OovPolicy,
    TokenizerConfig,
    load_text_embeddings,
    lookup_sequence,
    save_text_embeddings,
    tokenize,
)
from pmean.errors import DimensionError, FormatError


def write(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_smallest_well_formed_file(self, tmp_path):
        space = load_text_embeddings(write(tmp_path, "a 1.0 2.0\nb 3.0 4.0\n"))
        assert space.dim == 2
        assert len(space.vocab) == 2
        assert np.array_equal(space.vector("a"), [1.0, 2.0])
        assert np.array_equal(space.vector("b"), [3.0, 4.0])

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
        assert space.vector("a")[0] == 1.0
        assert len(space.vocab) == 2
        assert "1 duplicate" in caplog.text

    def test_crlf_accepted(self, tmp_path):
        space = load_text_embeddings(write(tmp_path, "a 1.0 2.0\r\nb 3.0 4.0\r\n"))
        assert space.dim == 2 and len(space.vocab) == 2

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(
            "r", 5, {f"tok{i}": i for i in range(20)}, rng.standard_normal((20, 5))
        )
        out = tmp_path / "round.txt"
        save_text_embeddings(space, out)
        back = load_text_embeddings(out)
        assert back.vocab == space.vocab
        assert np.allclose(back.matrix, space.matrix, atol=1e-6)

    def test_line_order_does_not_change_lookups(self, tmp_path):
        lines = ["a 1.0 2.0", "b 3.0 4.0", "c 5.0 6.0"]
        fwd = load_text_embeddings(write(tmp_path, "\n".join(lines) + "\n", "f.txt"))
        rev = load_text_embeddings(write(tmp_path, "\n".join(reversed(lines)) + "\n", "r.txt"))
        for tokens in (["a"], ["c", "b"], ["a", "b", "c"]):
            assert np.array_equal(
                lookup_sequence(fwd, tokens).matrix, lookup_sequence(rev, tokens).matrix
            )

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
        assert np.array_equal(
            lookup_sequence(fwd, tokens).matrix, lookup_sequence(shf, tokens).matrix
        )


class TestTokenize:
    def test_lowercase_default(self):
        assert tokenize(TokenizerConfig(), "Dark  and funny") == ["dark", "and", "funny"]

    def test_empty_input(self):
        assert tokenize(TokenizerConfig(), "") == []

    def test_mixed_whitespace(self):
        assert tokenize(TokenizerConfig(), " a\tb ") == ["a", "b"]

    def test_case_preserved_when_disabled(self):
        assert tokenize(TokenizerConfig(lowercase=False), "Ab cD") == ["Ab", "cD"]

    @given(st.text())
    def test_deterministic(self, s):
        cfg = TokenizerConfig()
        assert tokenize(cfg, s) == tokenize(cfg, s)


@pytest.fixture
def small_space():
    return EmbeddingSpace(
        "s", 2, {"a": 0, "b": 1}, np.array([[1.0, 2.0], [3.0, 4.0]])
    )


class TestLookup:
    def test_all_in_vocab(self, small_space):
        res = lookup_sequence(small_space, ["a", "b"])
        assert np.array_equal(res.matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert res.n_oov == 0 and not res.used_fallback

    def test_skip_drops_oov(self, small_space):
        res = lookup_sequence(small_space, ["a", "zzz"], OovPolicy("skip"))
        assert np.array_equal(res.matrix, [[1.0, 2.0]])
        assert res.n_oov == 1

    def test_zero_mode_substitutes(self, small_space):
        res = lookup_sequence(small_space, ["a", "zzz"], OovPolicy("zero"))
        assert np.array_equal(res.matrix, [[1.0, 2.0], [0.0, 0.0]])
        assert res.n_oov == 1

    def test_forced_fallback(self, small_space):
        res = lookup_sequence(small_space, ["zzz"], OovPolicy("skip"))
        assert res.matrix.shape == (1, 2)
        assert np.array_equal(res.matrix, [[0.0, 0.0]])
        assert res.used_fallback

    def test_empty_sequence_fallback(self, small_space):
        res = lookup_sequence(small_space, [])
        assert res.matrix.shape == (1, 2) and res.used_fallback

    @given(
        vocab=st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True),
        tokens=st.lists(st.sampled_from("abcdefghxyz"), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_skip_row_count_matches_in_vocab_tokens(self, vocab, tokens):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(
            "p", 3, {t: i for i, t in enumerate(vocab)}, rng.standard_normal((len(vocab), 3))
        )
        res = lookup_sequence(space, tokens, OovPolicy("skip"))
        present = sum(1 for t in tokens if t in space.vocab)
        if present == 0:
            assert res.used_fallback and res.matrix.shape == (1, 3)
        else:
            assert res.matrix.shape == (present, 3)


class TestSpaceInvariants:
    def test_unknown_oov_mode_rejected(self):
        from pmean.errors import InputError

        with pytest.raises(InputError):
            OovPolicy("bogus")

    def test_row_count_must_match_vocab(self):
        with pytest.raises(DimensionError):
            EmbeddingSpace("x", 2, {"a": 0}, np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingSpace("x", 1, {"a": 0}, np.array([[np.inf]]))

    def test_empty_token_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingSpace("x", 1, {"": 0}, np.zeros((1, 1)))

    def test_indices_must_cover_range(self):
        with pytest.raises(FormatError):
            EmbeddingSpace("x", 1, {"a": 0, "b": 2}, np.zeros((2, 1)))
