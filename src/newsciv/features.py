"""TF-IDF vectorization of bag-of-n-grams documents into a CSR matrix.

The weighting variant is fixed: raw term counts, smoothed inverse document
frequency ln((1 + N) / (1 + df)) + 1, and L2 normalization of each row.
The smoothing keeps idf >= 1 for every vocabulary term.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ._checks import check_field_types, is_finite_number, is_nonnegative_int, read_model_json
from ._output import write_json
from .textproc import (
    DEFAULT_STOPLIST,
    Vocabulary,
    build_vocabulary,
    ngrams,
    remove_stopwords,
    tokenize,
)

TFIDF_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TfidfConfig:
    """N-gram range, document-frequency cutoffs, and stoplist switch."""

    n_min: int = 1
    n_max: int = 2
    min_df: int = 1
    max_df_ratio: float = 1.0
    use_stoplist: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError(f"invalid n-gram range [{self.n_min}, {self.n_max}]")
        if self.min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {self.min_df}")
        if not 0.0 < self.max_df_ratio <= 1.0:
            raise ValueError(f"max_df_ratio must be in (0, 1], got {self.max_df_ratio}")

    def document_terms(self, text: str) -> list[str]:
        """Turn raw text into the n-gram terms this config counts."""
        tokens = tokenize(text)
        if self.use_stoplist:
            tokens = remove_stopwords(tokens, DEFAULT_STOPLIST)
        return ngrams(tokens, self.n_min, self.n_max)


@dataclass(frozen=True, eq=False)
class TfidfModel:
    """A fitted vectorizer: vocabulary plus per-term idf weights."""

    vocabulary: Vocabulary
    idf: np.ndarray
    config: TfidfConfig

    def __post_init__(self) -> None:
        if len(self.idf) != len(self.vocabulary):
            raise ValueError("idf length must equal vocabulary size")

    @property
    def dimension(self) -> int:
        return len(self.vocabulary)

    def transform(self, texts: Sequence[str]) -> sp.csr_matrix:
        """Vectorize ``texts`` into one row each: raw count x idf per term
        (columns sorted), then the row divided by its L2 norm.

        Out-of-vocabulary terms are ignored; a text with no known terms
        maps to an empty row.
        """
        if isinstance(texts, str):
            raise TypeError("transform takes a sequence of texts, not one str")
        index = self.vocabulary.index
        indptr = [0]
        indices: list[int] = []
        counts: list[int] = []
        for text in texts:
            row: dict[int, int] = {}
            for term in self.config.document_terms(text):
                i = index.get(term)
                if i is not None:
                    row[i] = row.get(i, 0) + 1
            for i in sorted(row):
                indices.append(i)
                counts.append(row[i])
            indptr.append(len(indices))
        cols = np.array(indices, dtype=np.int64)
        data = np.array(counts, dtype=np.float64) * self.idf[cols]
        # Each row's norm is sqrt(dot) over its own slice, which keeps the
        # values bit-identical whatever batch the text arrives in.
        norms = [math.sqrt(np.dot(data[a:b], data[a:b])) for a, b in zip(indptr, indptr[1:])]
        data /= np.repeat(norms, np.diff(indptr))
        return sp.csr_matrix((data, cols, indptr), shape=(len(indptr) - 1, self.dimension))


def fit_tfidf(documents: Sequence[str], config: TfidfConfig | None = None) -> TfidfModel:
    """Fit a TF-IDF model on raw document texts.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1 over the N input documents.
    """
    if config is None:
        config = TfidfConfig()
    if len(documents) == 0:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    term_docs = [config.document_terms(d) for d in documents]
    vocab = build_vocabulary(term_docs, config.min_df, config.max_df_ratio)
    n = vocab.n_docs
    idf = np.array(
        [math.log((1 + n) / (1 + vocab.doc_freq[t])) + 1.0 for t in vocab.terms]
    )
    return TfidfModel(vocabulary=vocab, idf=idf, config=config)


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    """Write a fitted model as versioned JSON."""
    terms = model.vocabulary.terms
    payload = {
        "format_version": TFIDF_FORMAT_VERSION,
        "config": asdict(model.config),
        "vocabulary": terms,
        "idf": [float(x) for x in model.idf],
        "doc_freq": [model.vocabulary.doc_freq[t] for t in terms],
        "n_docs": model.vocabulary.n_docs,
    }
    write_json(path, payload)


def load_tfidf(path: str | Path) -> TfidfModel:
    """Read a model written by :func:`save_tfidf`; a damaged file raises
    ValueError naming ``path``."""
    payload = read_model_json(
        path, TFIDF_FORMAT_VERSION, ("config", "vocabulary", "idf", "doc_freq", "n_docs")
    )
    terms, idf, doc_freq = payload["vocabulary"], payload["idf"], payload["doc_freq"]
    if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)
            and len(set(terms)) == len(terms)):
        raise ValueError(f"{path}: vocabulary must be a list of distinct strings")
    for name, values, ok in (("idf", idf, is_finite_number),
                             ("doc_freq", doc_freq, is_nonnegative_int)):
        if not (isinstance(values, list) and len(values) == len(terms)
                and all(ok(v) for v in values)):
            raise ValueError(f"{path}: {name} must hold one valid number per vocabulary term")
    if not is_nonnegative_int(payload["n_docs"]):
        raise ValueError(f"{path}: n_docs must be a non-negative integer")
    config = payload["config"]
    known = {f.name for f in fields(TfidfConfig)}
    if not (isinstance(config, dict) and set(config) <= known):
        raise ValueError(f"{path}: config must be an object with keys from {sorted(known)}")
    try:
        config = TfidfConfig(**config)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    vocab = Vocabulary(
        index={t: i for i, t in enumerate(terms)},
        doc_freq=dict(zip(terms, doc_freq)),
        n_docs=payload["n_docs"],
    )
    return TfidfModel(vocabulary=vocab, idf=np.array(idf, dtype=np.float64), config=config)
