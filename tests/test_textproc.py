from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newsciv.textproc import (
    DEFAULT_STOPLIST,
    build_vocabulary,
    load_stoplist,
    ngrams,
    remove_stopwords,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_drops_punctuation(self):
        assert tokenize("Build the WALL!") == ["build", "the", "wall"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_keeps_internal_apostrophes(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_strips_boundary_apostrophes(self):
        assert tokenize("'tis the rock 'n' roll") == ["tis", "the", "rock", "n", "roll"]

    def test_digits_kept(self):
        assert tokenize("3rd world, 2016!") == ["3rd", "world", "2016"]

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    @given(st.text(max_size=200))
    def test_idempotent_on_joined_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=200))
    def test_tokens_are_normalized(self, text):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()
            assert not any(ch.isspace() for ch in tok)


class TestRemoveStopwords:
    def test_removes_exact_matches_in_order(self):
        assert remove_stopwords(["build", "the", "wall"], {"the"}) == ["build", "wall"]

    def test_empty_stoplist_is_identity(self):
        assert remove_stopwords(["a", "b"], frozenset()) == ["a", "b"]

    def test_all_tokens_stopped(self):
        assert remove_stopwords(["the", "a"], {"the", "a"}) == []


class TestNgrams:
    def test_bigrams(self):
        assert ngrams(["a", "b", "c"], 2, 2) == ["a b", "b c"]

    def test_range_one_to_three(self):
        assert ngrams(["a", "b", "c"], 1, 3) == ["a", "b", "c", "a b", "b c", "a b c"]

    def test_too_short_sequence(self):
        assert ngrams(["a"], 2, 2) == []

    @pytest.mark.parametrize("n_min,n_max", [(0, 1), (3, 2), (-1, -1)])
    def test_invalid_range(self, n_min, n_max):
        with pytest.raises(ValueError):
            ngrams(["a"], n_min, n_max)

    @given(st.lists(st.sampled_from("abcde"), max_size=30), st.integers(1, 5))
    def test_count_formula(self, tokens, n):
        assert len(ngrams(tokens, n, n)) == max(0, len(tokens) - n + 1)

    @given(st.lists(st.sampled_from(["a", "b", "c d", ""]), max_size=6),
           st.integers(1, 4), st.integers(0, 3))
    def test_matches_slice_join_definition(self, tokens, n_min, extra):
        n_max = min(n_min + extra, 4)
        expected = [" ".join(tokens[i : i + n])
                    for n in range(n_min, n_max + 1)
                    for i in range(len(tokens) - n + 1)]
        assert ngrams(tokens, n_min, n_max) == expected


class TestBuildVocabulary:
    def test_counts_and_lexicographic_indices(self):
        vocab = build_vocabulary([["a"], ["a", "b"]], min_df=1, max_df_ratio=1.0)
        assert vocab.index == {"a": 0, "b": 1}
        assert vocab.doc_freq == {"a": 2, "b": 1}
        assert vocab.n_docs == 2

    def test_min_df_filters(self):
        vocab = build_vocabulary([["a"], ["a", "b"]], min_df=2)
        assert vocab.index == {"a": 0}

    def test_max_df_boundary_is_inclusive_keep(self):
        # df(a)=2, N=2, ratio 0.5 -> cutoff 1.0, so "a" is excluded
        vocab = build_vocabulary([["a"], ["a", "b"]], min_df=1, max_df_ratio=0.5)
        assert "a" not in vocab
        assert "b" in vocab
        # df exactly at the cutoff stays in
        vocab = build_vocabulary([["a"], ["a", "b"]], min_df=1, max_df_ratio=1.0)
        assert "a" in vocab

    def test_empty_document_set_errors(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], min_df=0)
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], max_df_ratio=0.0)

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=10),
            min_size=1,
            max_size=20,
        )
    )
    def test_indices_are_a_bijection(self, docs):
        vocab = build_vocabulary(docs)
        indices = sorted(vocab.index.values())
        assert indices == list(range(len(vocab)))
        assert vocab.terms == sorted(vocab.index)
        for term, df in vocab.doc_freq.items():
            assert 1 <= df <= vocab.n_docs


class TestStoplist:
    def test_default_list_shape(self):
        assert 120 <= len(DEFAULT_STOPLIST) <= 200
        assert {"the", "of", "and", "don't"} <= DEFAULT_STOPLIST
        assert all(t == t.lower() and " " not in t for t in DEFAULT_STOPLIST)

    def test_load_stoplist_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# header comment\nThe\nand # trailing note\n\nof\n")
        assert load_stoplist(path) == {"the", "and", "of"}
