"""Reference TF-IDF for tests: the per-term string path that
``newsciv.features`` ran before its integer-key encoder. Each text becomes a
list of n-gram strings, the vocabulary is built with
``textproc_reference.build_vocabulary``, and ``transform`` counts terms per
row in a dict.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from newsciv.features import TfidfConfig, TfidfModel
from newsciv.textproc import DEFAULT_STOPLIST, tokenize
from textproc_reference import build_vocabulary, ngrams, remove_stopwords


def document_terms(config: TfidfConfig, text: str) -> list[str]:
    """Turn raw text into the n-gram terms this config counts."""
    tokens = tokenize(text)
    if config.use_stoplist:
        tokens = remove_stopwords(tokens, DEFAULT_STOPLIST)
    return ngrams(tokens, config.n_min, config.n_max)


def transform(model: TfidfModel, texts: Sequence[str]) -> sp.csr_matrix:
    """Vectorize ``texts`` into one row each: raw count x idf per term
    (columns sorted), then the row divided by its L2 norm.

    Out-of-vocabulary terms are ignored; a text with no known terms
    maps to an empty row.
    """
    if isinstance(texts, str):
        raise TypeError("transform takes a sequence of texts, not one str")
    index = model.vocabulary.index
    indptr = [0]
    indices: list[int] = []
    counts: list[int] = []
    for text in texts:
        row: dict[int, int] = {}
        for term in document_terms(model.config, text):
            i = index.get(term)
            if i is not None:
                row[i] = row.get(i, 0) + 1
        for i in sorted(row):
            indices.append(i)
            counts.append(row[i])
        indptr.append(len(indices))
    cols = np.array(indices, dtype=np.int64)
    data = np.array(counts, dtype=np.float64) * model.idf[cols]
    # Each row's norm is the square root of its rounded squares summed left
    # to right in column order. An explicit loop, as the built-in sum()
    # compensates its float additions from Python 3.12.
    norms = []
    for a, b in zip(indptr, indptr[1:]):
        s = 0.0
        for v in data[a:b].tolist():
            s += v * v
        norms.append(math.sqrt(s))
    data /= np.repeat(norms, np.diff(indptr))
    return sp.csr_matrix((data, cols, indptr), shape=(len(indptr) - 1, model.dimension))


def fit_tfidf(documents: Sequence[str], config: TfidfConfig | None = None) -> TfidfModel:
    """Fit a TF-IDF model on raw document texts.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1 over the N input documents.
    """
    if config is None:
        config = TfidfConfig()
    if len(documents) == 0:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    term_docs = [document_terms(config, d) for d in documents]
    vocab = build_vocabulary(term_docs, config.min_df, config.max_df_ratio)
    n = vocab.n_docs
    idf = np.array(
        [math.log((1 + n) / (1 + vocab.doc_freq[t])) + 1.0 for t in vocab.terms]
    )
    return TfidfModel(vocabulary=vocab, idf=idf, config=config)
