from __future__ import annotations

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textproc_reference as reference
from newsciv.textproc import (
    DEFAULT_STOPLIST,
    Ngrams,
    encode_texts,
    tokenize,
    tokenize_each,
    tokenize_texts,
)
from textproc_reference import build_vocabulary, ngrams, remove_stopwords

# Characters whose tokenizing or lowercasing depends on their neighbours:
# a final "Σ" lowercases to "ς", "İ" to "i" plus a combining dot, "'" joins
# tokens only inside a word, "_" splits them, and "\n" ends a text in a
# joined batch.
TRICKY = st.lists(st.sampled_from([*"aΣσİi'_\n \r.-1é", "ΟΣ", "don't"]), max_size=12).map("".join)
# Texts whose characters the tokenizer's steps treat apart: any code point,
# lone surrogates included; the TRICKY characters; separators that
# ``str.split`` takes for whitespace ("\r", "\x85", "\u2028"); and runs of
# apostrophes.
TEXTS = (
    st.text(st.characters(blacklist_categories=()), max_size=30)
    | TRICKY
    | st.lists(st.sampled_from([*"\r\x85\u2028 a'\n", "''", "'''"]), max_size=12).map("".join)
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


class TestTokenizeTexts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(TRICKY | st.text(max_size=30), max_size=8))
    def test_matches_per_text_tokenize(self, texts):
        expected = [tok for text in texts for tok in [*reference.tokenize(text), "\n"]]
        assert tokenize_texts(texts) == expected

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(TEXTS, max_size=8))
    def test_matches_the_regex_tokenizer(self, texts):
        assert tokenize_texts(texts) == reference.tokenize_texts(texts)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(TEXTS)
    def test_tokenize_matches_the_regex_tokenizer(self, text):
        assert tokenize(text) == reference.tokenize(text)

    def test_newline_inside_a_text_and_final_sigma(self):
        # "İ" lowers to "i" and a combining dot, which splits "i" from "'a".
        assert tokenize_texts(["ΟΔΟΣ\nΟΔΟΣ", "İ'a_b\n", ""]) == [
            "οδος", "οδος", "\n", "i", "a", "b", "\n", "\n"]
        assert tokenize_texts([]) == []

    def test_separators_and_apostrophe_runs(self):
        assert tokenize_texts(["a\rb\x85c\u2028d\x1ce_f", "'' x''y' '''\n'"]) == [
            "a", "b", "c", "d", "e", "f", "\n", "x''y", "\n"]

    def test_lone_surrogates_are_separators(self):
        assert tokenize_texts(["ab\ud800cd\udfff", "\udc00"]) == ["ab", "cd", "\n", "\n"]

    def test_token_class_is_isalnum_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(re.findall(r"[^\W_']", every)) == "".join(filter(str.isalnum, every))


class TestTokenizeEach:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(TEXTS, max_size=8))
    def test_one_token_list_per_text(self, texts):
        assert list(tokenize_each(texts)) == [reference.tokenize(t) for t in texts]

    def test_crosses_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr("newsciv.textproc._CHUNK", 2)
        texts = ["a b", "", "c'd e", "f\ng", "h i"]
        assert list(tokenize_each(iter(texts))) == [reference.tokenize(t) for t in texts]


class TestEncodeTexts:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(TRICKY | st.text(max_size=30), max_size=8),
           st.sampled_from([frozenset(), DEFAULT_STOPLIST, frozenset({"a", "\n"})]))
    def test_ids_spell_the_tokens_without_stop_words(self, texts, stoplist):
        ids, ends, words = encode_texts(texts, stoplist)
        assert len(ends) == len(texts)
        assert len(set(words)) == len(words)
        expected = []
        for text in texts:
            expected += remove_stopwords(tokenize(text), stoplist)
            expected.append(None)
        assert [words[i] if i >= 0 else None for i in ids.tolist()] == expected
        assert ends.tolist() == [i for i, tok in enumerate(expected) if tok is None]


class TestNgramsFind:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(texts=st.lists(st.lists(st.sampled_from(["a", "b", "c", "the"]), max_size=6)
                          .map(" ".join), max_size=5),
           phrases=st.lists(st.lists(st.sampled_from(["a", "b", "c", "the", "zz", "", "A"]),
                                     max_size=6).map(" ".join), max_size=12),
           n_min=st.integers(1, 3), extra=st.integers(0, 3),
           stoplist=st.sampled_from([frozenset(), frozenset({"the"})]))
    def test_found_ids_spell_their_phrases(self, texts, phrases, n_min, extra, stoplist):
        """Phrases with an unknown token ("zz"), a stop word, an empty part
        or a capital, and lengths outside [n_min, n_max] or past the longest
        text: a found id spells its phrase, and -1 means no text holds it.
        Every n-gram the texts hold is looked up among them."""
        grams = Ngrams(texts, n_min, n_min + extra, stoplist)
        held = {g for text in texts
                for g in ngrams(remove_stopwords(reference.tokenize(text), stoplist),
                                n_min, n_min + extra)}
        phrases = [*phrases, *sorted(held)]
        found = grams.find(phrases)
        assert [type(i) for i in found] == [int] * len(phrases)
        for phrase, i in zip(phrases, found):
            assert (i >= 0) == (phrase in held), (phrase, i)
            if i >= 0:
                assert grams.vocabulary(np.array([i]))[0] == (phrase,)


class TestDocumentFrequency:
    @settings(deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(["a", "b", "c", "the"]), max_size=6)
                          .map(" ".join), max_size=6),
           n_min=st.integers(1, 2), extra=st.integers(0, 2))
    def test_counts_distinct_documents_per_id(self, texts, n_min, extra):
        """Each id counts the texts whose reference n-grams hold its term,
        a text that repeats it once."""
        grams = Ngrams(texts, n_min, n_min + extra, {"the"})
        held = [set(ngrams(remove_stopwords(reference.tokenize(t), {"the"}),
                           n_min, n_min + extra)) for t in texts]
        terms, index = grams.vocabulary(np.arange(grams.n_ids))
        expected = [sum(terms[index[i]] in h for h in held) for i in range(grams.n_ids)]
        assert grams.document_frequency().tolist() == expected


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

    @given(st.lists(st.sampled_from("abc"), max_size=8), st.integers(1, 9))
    def test_n_max_past_the_length_changes_nothing(self, tokens, n_min):
        """n stops at the token count; building every n up to 10**6 would
        take hours."""
        expected = ngrams(tokens, n_min, max(n_min, len(tokens)))
        assert ngrams(tokens, n_min, 10**6) == expected


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
        assert "a" not in vocab.index
        assert "b" in vocab.index
        # df exactly at the cutoff stays in
        vocab = build_vocabulary([["a"], ["a", "b"]], min_df=1, max_df_ratio=1.0)
        assert "a" in vocab.index

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
