from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import features_reference as reference
import newsciv
from newsciv import textproc
from newsciv._checks import read_json
from newsciv._output import write_json
from newsciv.features import (
    TfidfConfig,
    TfidfModel,
    fit_transform,
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
    return {model.vocabulary[j]: x for j, x in zip(X.indices[a:b], X.data[a:b])}


class TestFitTfidf:
    def test_smoothed_idf_values(self):
        model = fit_transform(["a b", "a c"], UNIGRAMS)[0]
        idf = dict(zip(model.vocabulary, model.idf))
        assert idf["a"] == pytest.approx(1.0, abs=1e-12)
        assert idf["b"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)  # ~1.4055
        assert idf["c"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)

    def test_single_document_idf_is_one(self):
        model = fit_transform(["a b c"], UNIGRAMS)[0]
        assert np.allclose(model.idf, 1.0)

    def test_absent_terms_not_in_vocabulary(self):
        model = fit_transform(["a b", "a c"], UNIGRAMS)[0]
        assert "z" not in model.vocabulary

    def test_idf_at_least_one(self):
        rng = random.Random(0)
        docs = [" ".join(rng.choices("abcdefg", k=8)) for _ in range(12)]
        model = fit_transform(docs, UNIGRAMS)[0]
        assert np.all(model.idf >= 1.0)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            fit_transform([], UNIGRAMS)[0]


class TestTransform:
    def test_two_document_example(self):
        model = fit_transform(["a b", "a c"], UNIGRAMS)[0]
        by_term = row_terms(model, model.transform(["a b"]), 0)
        assert by_term["a"] == pytest.approx(0.5797, abs=1e-3)
        assert by_term["b"] == pytest.approx(0.8148, abs=1e-3)

    def test_oov_document_is_zero_vector(self):
        model = fit_transform(["a b", "a c"], UNIGRAMS)[0]
        v = model.transform(["z"])
        assert v.nnz == 0
        assert v.shape == (1, 3)

    def test_scaling_invariance_of_single_term(self):
        model = fit_transform(["a b", "a c"], UNIGRAMS)[0]
        va = model.transform(["a"])
        vaa = model.transform(["a a"])
        assert va.indices.tolist() == vaa.indices.tolist()
        assert va.data.tolist() == vaa.data.tolist()

    def test_unit_norm_whenever_any_term_known(self):
        rng = random.Random(1)
        docs = [" ".join(rng.choices("abcdefghij", k=10)) for _ in range(8)]
        model = fit_transform(docs, UNIGRAMS)[0]
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
            model = fit_transform(corpus, UNIGRAMS)[0]
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
        m1 = fit_transform(docs, UNIGRAMS)[0]
        m2 = fit_transform(list(reversed(docs)), UNIGRAMS)[0]
        assert m1.vocabulary == m2.vocabulary
        assert m1.idf.tolist() == m2.idf.tolist()
        v1, v2 = m1.transform(docs), m2.transform(docs)
        assert v1.indices.tolist() == v2.indices.tolist()
        assert v1.data.tolist() == v2.data.tolist()

    def test_batch_rows_equal_single_transforms_bit_for_bit(self):
        _, comments, _ = generate_corpus(
            SyntheticConfig(n_articles=30, comments_per_article=10, n_annotated=1, seed=4)
        )
        texts = [c.text for c in comments]
        model = fit_transform(texts[::2], TfidfConfig(n_min=1, n_max=2))[0]
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
        model = fit_transform(["a b", "a c"], UNIGRAMS)[0]
        X = model.transform(["a b", "zzz qqq", "", "c"])
        assert X.shape == (4, 3)
        assert np.diff(X.indptr).tolist() == [2, 0, 0, 1]
        assert row_terms(model, X, 3) == {"c": 1.0}

    def test_single_str_is_rejected(self):
        model = fit_transform(["a b", "a c"], UNIGRAMS)[0]
        with pytest.raises(TypeError):
            model.transform("a b")

    def test_stoplist_switch_drops_function_words(self):
        cfg = TfidfConfig(n_min=1, n_max=1, use_stoplist=True)
        model = fit_transform(["the wall stands", "the gate stands"], cfg)[0]
        assert "the" not in model.vocabulary
        assert "wall" in model.vocabulary


def round_trip(model: TfidfModel) -> TfidfModel:
    """``model`` through its part of a model file, as JSON text."""
    return load_tfidf(json.loads(json.dumps(save_tfidf(model))), "tfidf")


class TestSerialization:
    def test_round_trip_preserves_transforms(self):
        model = fit_transform(["a b", "a c", "b c d"], TfidfConfig(n_min=1, n_max=2))[0]
        loaded = round_trip(model)
        assert type(loaded.vocabulary) is tuple and loaded.vocabulary == model.vocabulary
        assert loaded.idf.tobytes() == model.idf.tobytes()
        assert loaded.config == model.config
        v1, v2 = model.transform(["a b c"]), loaded.transform(["a b c"])
        assert v1.indices.tolist() == v2.indices.tolist()
        assert v1.data.tolist() == v2.data.tolist()

    def test_non_ascii_terms_are_written_unescaped_and_both_forms_load(self, tmp_path):
        model = fit_transform(["café zürich", "naïve café", "東京 café"],
                              TfidfConfig(n_min=1, n_max=1))[0]
        path, escaped = tmp_path / "tfidf.json", tmp_path / "escaped.json"
        write_json(path, save_tfidf(model))
        text = path.read_text(encoding="utf-8")
        assert "café" in text and "東京" in text
        escaped.write_text(json.dumps(json.loads(text)), encoding="ascii")
        for saved in (path, escaped):
            assert load_tfidf(read_json(saved), str(saved)).vocabulary == model.vocabulary

    @pytest.mark.parametrize("key, value, message", [
        ("vocabulary", ["a", "a", "b"], "vocabulary must be a list of distinct strings"),
        ("vocabulary", ["a", 2, "b"], "vocabulary must be a list of distinct strings"),
        ("idf", [1.0, 2.0], "idf must hold one valid number per vocabulary term"),
        ("idf", [1.0, float("nan"), 1.0], "idf must hold one valid number"),
        ("config", {"n_max": 1, "max_df_ratio": 1.0, "use_stoplist": False},
         "config is missing keys ['n_min', 'min_df']"),
        ("idf", "abc", "idf must hold one valid number"),
        ("config", {"n_min": 1, "ngrams": 2}, "config must be an object with keys"),
        ("config", {**dataclasses.asdict(TfidfConfig()), "n_min": 3, "n_max": 2},
         "invalid n-gram range"),
        ("config", [1, 2], "config must be an object with keys"),
    ])
    def test_damaged_part_raises_value_error_naming_it(self, key, value, message):
        part = save_tfidf(fit_transform(["a b", "a c"], TfidfConfig(n_min=1, n_max=1))[0])
        assert len(part["vocabulary"]) == 3
        with pytest.raises(ValueError, match=f"^m.json: tfidf: {re.escape(message)}"):
            load_tfidf({**part, key: value}, "m.json: tfidf")

    @pytest.mark.parametrize("part, message", [
        ([], "must be a JSON object"),
        (None, "must be a JSON object"),
        ({"config": {}, "idf": []}, "missing keys ['vocabulary']"),
    ])
    def test_part_not_an_object_or_missing_keys_raises_naming_it(self, part, message):
        with pytest.raises(ValueError, match=f"^m.json: tfidf: {re.escape(message)}"):
            load_tfidf(part, "m.json: tfidf")


# Words for the reference comparison: Unicode letters, apostrophes inside
# and around tokens, case the tokenizer folds, stoplist words, underscores
# and digits. Separators include punctuation that the tokenizer drops.
WORDS = ["a", "b", "c", "the", "wall", "don't", "'tis", "rock'n'roll", "a''b",
         "café", "Café", "CAFÉ", "東京", "naïve", "x_y", "42", "it's", "ΣΑΣ"]
SEPARATORS = [" ", "  ", ", ", ". ", "\t", "\n", " - ", "'", "_"]

texts_st = st.lists(
    st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)), max_size=12)
    .map(lambda pairs: "".join(w + sep for w, sep in pairs)),
    max_size=10,
)
configs_st = st.builds(
    lambda n_min, extra, min_df, max_df_ratio, use_stoplist: TfidfConfig(
        n_min=n_min, n_max=min(3, n_min + extra), min_df=min_df,
        max_df_ratio=max_df_ratio, use_stoplist=use_stoplist),
    st.integers(1, 3), st.integers(0, 2), st.integers(1, 3),
    st.sampled_from([1.0, 0.75, 0.5, 0.34]), st.booleans(),
)


def assert_same_matrix(got, expected):
    assert got.shape == expected.shape
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert got.data.dtype == expected.data.dtype
    assert got.data.tobytes() == expected.data.tobytes()


def assert_same_model(got, expected):
    assert type(got.vocabulary) is tuple and got.vocabulary == expected.vocabulary
    assert got.idf.tobytes() == expected.idf.tobytes()
    assert got.config == expected.config


class TestMatchesStringReference:
    """The integer-key encoder against ``features_reference``, the string
    path it replaced, bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(docs=texts_st, queries=texts_st, config=configs_st,
           chunk=st.sampled_from([1, 2, 3, 4096]))
    def test_fit_transform_and_transform_match(self, docs, queries, config, chunk):
        docs = docs or [""]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textproc, "_CHUNK", chunk)
            expected = reference.fit_tfidf(docs, config)
            model, x = fit_transform(docs, config)
            assert_same_model(model, expected)
            assert_same_model(fit_transform(docs, config)[0], expected)
            assert_same_matrix(x, reference.transform(expected, docs))
            for fitted in (model, round_trip(model)):
                for batch in (queries, docs + queries, []):
                    assert_same_matrix(fitted.transform(batch),
                                       reference.transform(expected, batch))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(terms=st.lists(
               st.lists(st.sampled_from(WORDS + ["", "A", "a b", "x'", "a-b", "É", "a\nb"]),
                        min_size=1, max_size=4)
               .map(" ".join), min_size=1, max_size=12, unique=True),
           idf=st.floats(0.5, 5.0), queries=texts_st, config=configs_st)
    def test_loaded_vocabulary_with_unspellable_terms_matches(self, terms, idf, queries,
                                                              config):
        """Saved vocabularies may hold terms no tokenizer emits (upper case,
        empty or doubled spaces, an n outside the range, punctuation or a
        newline the tokenizer turns into other tokens); they match nothing,
        as they did on the string path."""
        model = load_tfidf(json.loads(json.dumps({
            "config": dataclasses.asdict(config), "vocabulary": terms,
            "idf": [idf + i for i in range(len(terms))],
        })), "tfidf")
        batch = queries + [" ".join(terms)]
        assert_same_matrix(model.transform(batch), reference.transform(model, batch))

    @pytest.mark.parametrize("config", [
        TfidfConfig(n_min=1, n_max=3), TfidfConfig(n_min=2, n_max=2),
        TfidfConfig(n_min=1, n_max=2, min_df=3, max_df_ratio=0.05, use_stoplist=True),
    ])
    def test_synthetic_comments_match_across_chunks(self, monkeypatch, config):
        """Chunks of 7 texts put chunk boundaries inside the batch."""
        _, comments, _ = generate_corpus(
            SyntheticConfig(n_articles=30, comments_per_article=10, n_annotated=1, seed=4)
        )
        texts = [c.text for c in comments]
        monkeypatch.setattr(textproc, "_CHUNK", 7)
        expected = reference.fit_tfidf(texts, config)
        model, x = fit_transform(texts, config)
        assert_same_model(model, expected)
        assert_same_matrix(x, reference.transform(expected, texts))
        assert_same_matrix(model.transform(texts[::-1]), reference.transform(expected, texts[::-1]))

    def test_idf_uses_math_log_for_every_document_frequency(self):
        """Token t{j} is in documents j..61, so df runs over 1..62; np.log
        differs from math.log by an ulp at df 59 and 61 of N = 62."""
        docs = [" ".join(f"t{j}" for j in range(i + 1)) for i in range(62)]
        model = fit_transform(docs, TfidfConfig(n_min=1, n_max=1))[0]
        assert len(set(model.idf.tolist())) == len(model.vocabulary) == 62  # each df once
        assert_same_model(model, reference.fit_tfidf(docs, TfidfConfig(n_min=1, n_max=1)))

    def test_ngrams_do_not_join_neighbouring_texts(self):
        model = fit_transform(["b c", "x y"], TfidfConfig(n_min=2, n_max=2))[0]
        x = model.transform(["a b", "c d", "b c"])
        assert np.diff(x.indptr).tolist() == [0, 0, 1]

    def test_dropped_unigram_inside_kept_bigram_is_counted(self):
        docs = ["the wall", "the gate", "the hill", "a wall"]
        config = TfidfConfig(n_min=1, n_max=2, max_df_ratio=0.5)
        model, x = fit_transform(docs, config)
        assert "the" not in model.vocabulary and "the wall" in model.vocabulary
        assert row_terms(model, x, 0).keys() == {"the wall", "wall"}
        assert_same_matrix(x, reference.transform(reference.fit_tfidf(docs, config), docs))

    def test_empty_batch_and_token_less_texts(self):
        model = fit_transform(["a b", "a c"], TfidfConfig())[0]
        assert model.transform([]).shape == (0, model.dimension)
        x = model.transform(["", "!!! ...", "a"])
        assert np.diff(x.indptr).tolist() == [0, 0, 1]
        with pytest.raises(ValueError, match="empty corpus"):
            fit_transform([], TfidfConfig())

    def test_token_less_corpus_fits_an_empty_vocabulary(self):
        model, x = fit_transform(["", "?!"], TfidfConfig())
        assert model.dimension == 0 and x.shape == (2, 0)
        assert model.transform(["a b"]).shape == (1, 0)


class TestTransformMemory:
    def test_peak_is_bounded_by_a_multiple_of_the_output(self):
        """transform encodes a batch in chunks of 4,096 texts, so its working
        memory beyond the output is one chunk's. Holding every token of this
        16,385-text batch at once peaks near twelve times the output's bytes."""
        rng = random.Random(0)
        words = [f"w{i}" for i in range(400)]

        def text():
            return " ".join(rng.choices(words, k=rng.randint(0, 30)))

        model = fit_transform([text() for _ in range(500)], TfidfConfig(min_df=3))[0]
        batch = [text() for _ in range(16_385)]
        model.transform(batch[:2])  # build the lookup tables outside the trace
        tracemalloc.start()
        try:
            x = model.transform(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = x.data.nbytes + x.indices.nbytes + x.indptr.nbytes
        assert x.nnz > 50 * len(batch) / 4
        assert peak < 8 * out


# Leaves in ``digest`` the sha256 of a fitted and a transformed matrix of a
# fixed corpus.
_MATRIX_DIGEST = """
import hashlib
from newsciv.features import fit_transform
from newsciv.synthetic import SyntheticConfig, generate_corpus
articles, comments, _ = generate_corpus(
    SyntheticConfig(n_articles=30, comments_per_article=4, n_annotated=1, seed=5))
texts = [a.body for a in articles] + [c.text for c in comments]
model, x = fit_transform(texts)
digest = hashlib.sha256()
for m in (x, model.transform(texts[::-1])):
    for part in (m.data, m.indices, m.indptr):
        digest.update(part.tobytes())
"""


class TestKernelIndependence:
    @pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
    def test_matrix_bits_do_not_depend_on_the_openblas_kernel(self, kernel):
        """Row norms are summed without BLAS, so a process that forces
        another OpenBLAS kernel computes the same bits as this one. A numpy
        build that ignores the variable passes trivially."""
        src = str(Path(newsciv.__file__).parent.parent)
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _MATRIX_DIGEST + "print(digest.hexdigest())"],
                             capture_output=True, text=True, env=env)
        if run.returncode < 0:  # a kernel this CPU cannot execute
            pytest.skip(f"OPENBLAS_CORETYPE={kernel} died with signal {-run.returncode}")
        assert run.returncode == 0, run.stderr
        here: dict = {}
        exec(_MATRIX_DIGEST, here)
        assert run.stdout.strip() == here["digest"].hexdigest()
