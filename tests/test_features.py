from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest

from newsciv.features import (
    TfidfConfig,
    fit_tfidf,
    load_tfidf,
    save_tfidf,
)
from newsciv.synthetic import SyntheticConfig, generate_corpus

UNIGRAMS = TfidfConfig(n_min=1, n_max=1)


def dense_tfidf_oracle(corpus: list[str], query: str) -> dict[str, float]:
    """Independent dense reference: plain dicts and math, no shared code."""
    docs = [doc.split() for doc in corpus]
    vocab = sorted({t for doc in docs for t in doc})
    n = len(docs)
    idf = {t: math.log((1 + n) / (1 + sum(t in set(d) for d in docs))) + 1.0 for t in vocab}
    counts: dict[str, int] = {}
    for t in query.split():
        if t in idf:
            counts[t] = counts.get(t, 0) + 1
    weights = {t: c * idf[t] for t, c in counts.items()}
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {t: w / norm for t, w in weights.items()} if norm else {}


def row_terms(model, X, i: int) -> dict[str, float]:
    """Row ``i`` of a transform, keyed by term."""
    a, b = X.indptr[i], X.indptr[i + 1]
    return {model.vocabulary.terms[j]: x for j, x in zip(X.indices[a:b], X.data[a:b])}


class TestFitTfidf:
    def test_smoothed_idf_values(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAMS)
        idf = dict(zip(model.vocabulary.terms, model.idf))
        assert idf["a"] == pytest.approx(1.0, abs=1e-12)
        assert idf["b"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)  # ~1.4055
        assert idf["c"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)

    def test_single_document_idf_is_one(self):
        model = fit_tfidf(["a b c"], UNIGRAMS)
        assert np.allclose(model.idf, 1.0)

    def test_absent_terms_not_in_vocabulary(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAMS)
        assert "z" not in model.vocabulary

    def test_idf_at_least_one(self):
        rng = random.Random(0)
        docs = [" ".join(rng.choices("abcdefg", k=8)) for _ in range(12)]
        model = fit_tfidf(docs, UNIGRAMS)
        assert np.all(model.idf >= 1.0)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            fit_tfidf([], UNIGRAMS)


class TestTransform:
    def test_two_document_example(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAMS)
        by_term = row_terms(model, model.transform(["a b"]), 0)
        assert by_term["a"] == pytest.approx(0.5797, abs=1e-3)
        assert by_term["b"] == pytest.approx(0.8148, abs=1e-3)

    def test_oov_document_is_zero_vector(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAMS)
        v = model.transform(["z"])
        assert v.nnz == 0
        assert v.shape == (1, 3)

    def test_scaling_invariance_of_single_term(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAMS)
        va = model.transform(["a"])
        vaa = model.transform(["a a"])
        assert va.indices.tolist() == vaa.indices.tolist()
        assert va.data.tolist() == vaa.data.tolist()

    def test_unit_norm_whenever_any_term_known(self):
        rng = random.Random(1)
        docs = [" ".join(rng.choices("abcdefghij", k=10)) for _ in range(8)]
        model = fit_tfidf(docs, UNIGRAMS)
        X = model.transform(docs)
        for i in range(len(docs)):
            row = X.data[X.indptr[i]:X.indptr[i + 1]]
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_oracle_on_random_corpora(self):
        rng = random.Random(42)
        terms = [f"t{i}" for i in range(20)]
        for _ in range(50):
            n_docs = rng.randint(1, 10)
            corpus = [
                " ".join(rng.choices(terms, k=rng.randint(1, 20))) for _ in range(n_docs)
            ]
            model = fit_tfidf(corpus, UNIGRAMS)
            query = " ".join(rng.choices(terms, k=rng.randint(1, 20)))
            texts = corpus + [query]
            X = model.transform(texts)
            for i, text in enumerate(texts):
                got = row_terms(model, X, i)
                expected = dense_tfidf_oracle(corpus, text)
                assert set(got) == set(expected)
                for term, value in expected.items():
                    assert got[term] == pytest.approx(value, abs=1e-9)

    def test_fit_is_document_order_independent(self):
        rng = random.Random(6)
        docs = [" ".join(rng.choices("abcdefgh", k=6)) for _ in range(10)]
        m1 = fit_tfidf(docs, UNIGRAMS)
        m2 = fit_tfidf(list(reversed(docs)), UNIGRAMS)
        assert m1.vocabulary.index == m2.vocabulary.index
        assert m1.idf.tolist() == m2.idf.tolist()
        v1, v2 = m1.transform(docs), m2.transform(docs)
        assert v1.indices.tolist() == v2.indices.tolist()
        assert v1.data.tolist() == v2.data.tolist()

    def test_batch_rows_equal_single_transforms_bit_for_bit(self):
        _, comments, _ = generate_corpus(
            SyntheticConfig(n_articles=30, comments_per_article=10, n_annotated=1, seed=4)
        )
        texts = [c.text for c in comments]
        model = fit_tfidf(texts[::2], TfidfConfig(n_min=1, n_max=2))
        X = model.transform(texts)
        assert X.shape == (len(texts), model.dimension)
        assert np.all(np.isfinite(X.data)) and np.all(X.data != 0.0)
        for i, text in enumerate(texts):
            a, b = X.indptr[i], X.indptr[i + 1]
            assert np.all(np.diff(X.indices[a:b]) > 0)  # sorted, no duplicates
            single = model.transform([text])
            assert single.indices.tolist() == X.indices[a:b].tolist()
            assert single.data.tobytes() == X.data[a:b].tobytes()

    def test_all_oov_text_gives_empty_row_in_batch(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAMS)
        X = model.transform(["a b", "zzz qqq", "", "c"])
        assert X.shape == (4, 3)
        assert np.diff(X.indptr).tolist() == [2, 0, 0, 1]
        assert row_terms(model, X, 3) == {"c": 1.0}

    def test_single_str_is_rejected(self):
        model = fit_tfidf(["a b", "a c"], UNIGRAMS)
        with pytest.raises(TypeError):
            model.transform("a b")

    def test_stoplist_switch_drops_function_words(self):
        cfg = TfidfConfig(n_min=1, n_max=1, use_stoplist=True)
        model = fit_tfidf(["the wall stands", "the gate stands"], cfg)
        assert "the" not in model.vocabulary
        assert "wall" in model.vocabulary


class TestSerialization:
    def test_round_trip_preserves_transforms(self, tmp_path):
        model = fit_tfidf(["a b", "a c", "b c d"], TfidfConfig(n_min=1, n_max=2))
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        loaded = load_tfidf(path)
        assert loaded.vocabulary.index == model.vocabulary.index
        assert loaded.config == model.config
        v1, v2 = model.transform(["a b c"]), loaded.transform(["a b c"])
        assert v1.indices.tolist() == v2.indices.tolist()
        assert v1.data.tolist() == v2.data.tolist()

    def test_non_ascii_terms_are_written_unescaped_and_both_forms_load(self, tmp_path):
        model = fit_tfidf(["café zürich", "naïve café", "東京 café"],
                          TfidfConfig(n_min=1, n_max=1))
        path, escaped = tmp_path / "tfidf.json", tmp_path / "escaped.json"
        save_tfidf(model, path)
        text = path.read_text(encoding="utf-8")
        assert "café" in text and "東京" in text
        escaped.write_text(json.dumps(json.loads(text)), encoding="ascii")
        for saved in (path, escaped):
            assert load_tfidf(saved).vocabulary.index == model.vocabulary.index

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "tfidf.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError):
            load_tfidf(path)

    @pytest.mark.parametrize("key, value, message", [
        ("vocabulary", ["a", "a", "b"], "vocabulary must be a list of distinct strings"),
        ("vocabulary", ["a", 2, "b"], "vocabulary must be a list of distinct strings"),
        ("idf", [1.0, 2.0], "idf must hold one valid number per vocabulary term"),
        ("idf", [1.0, float("nan"), 1.0], "idf must hold one valid number"),
        ("doc_freq", [1, -1, 1], "doc_freq must hold one valid number"),
        ("doc_freq", "abc", "doc_freq must hold one valid number"),
        ("n_docs", True, "n_docs must be a non-negative integer"),
        ("config", {"n_min": 1, "ngrams": 2}, "config must be an object with keys"),
        ("config", {"n_min": 3, "n_max": 2}, "invalid n-gram range"),
        ("config", [1, 2], "config must be an object with keys"),
    ])
    def test_damaged_file_raises_value_error_naming_it(self, tmp_path, key, value, message):
        path = tmp_path / "tfidf.json"
        save_tfidf(fit_tfidf(["a b", "a c"], TfidfConfig(n_min=1, n_max=1)), path)
        payload = json.loads(path.read_text())
        assert len(payload["vocabulary"]) == 3
        path.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_tfidf(path)
