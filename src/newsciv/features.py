"""TF-IDF vectorization of bag-of-n-grams documents into a CSR matrix.

The weighting variant is fixed: raw term counts, smoothed inverse document
frequency ln((1 + N) / (1 + df)) + 1, and L2 normalization of each row.
The smoothing keeps idf >= 1 for every vocabulary term.

Each text is tokenized once and its n-grams found by integer keys with the
encoder of :mod:`newsciv.textproc`; only the n-grams a vocabulary keeps are
ever spelled out as strings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from ._checks import check_field_types, is_finite_number, is_nonnegative_int, read_model_json
from ._output import write_json
from .textproc import (
    DEFAULT_STOPLIST,
    Ngrams,
    Vocabulary,
    chunks,
    document_frequency,
    gram_ids,
    lookup_texts,
    number_grams,
    token_lookup,
)

TFIDF_FORMAT_VERSION = 1

_INT32_MAX = np.iinfo(np.int32).max
_KEY_MAX = np.iinfo(np.int64).max  # above every n-gram key


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

    @property
    def stoplist(self) -> frozenset[str]:
        return DEFAULT_STOPLIST if self.use_stoplist else frozenset()


def _hits(grams: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Positions and columns of the grams that are vocabulary terms, from
    pairs (gram ids, column of each id). Each column array ends in an
    extra -1, which gram id -1 indexes."""
    pos, cols = [], []
    for gram, column in grams:
        col = column[gram]
        hit = (col >= 0).nonzero()[0]
        pos.append(hit)
        cols.append(col[hit])
    if not pos:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate(pos), np.concatenate(cols)


def _weighted_rows(
    rows: np.ndarray, cols: np.ndarray, n_rows: int, idf: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row lengths, columns and values of the TF-IDF rows of (row, column)
    term occurrences: raw count x idf per distinct column, columns sorted,
    each row divided by its L2 norm."""
    dim = len(idf)
    keys = rows * dim + cols
    keys.sort()
    edge = np.empty(len(keys) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    at = edge.nonzero()[0]
    keys = keys[at[:-1]]
    lengths = np.bincount(keys // dim, minlength=n_rows)
    cols = (keys % dim).astype(np.int32 if dim <= _INT32_MAX else np.int64)
    data = (at[1:] - at[:-1]) * idf[cols]
    # Each row's norm is sqrt(dot) over its own slice, which keeps the
    # values bit-identical whatever batch the text arrives in.
    bounds = lengths.cumsum().tolist()
    norms = [math.sqrt(np.dot(data[a:b], data[a:b])) for a, b in zip([0, *bounds], bounds)]
    data /= np.array(norms).repeat(lengths)
    return lengths, cols, data


def _csr(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]], dim: int) -> sp.csr_matrix:
    """Stack the ``_weighted_rows`` of consecutive chunks into one matrix,
    with the index dtype scipy would choose (int32 when every index fits).
    Columns come as int32 already when the dimension allows, so the whole
    batch never holds them as int64."""
    if len(parts) == 1:
        lengths, cols, data = parts[0]
    elif parts:
        lengths, cols, data = (np.concatenate(p) for p in zip(*parts))
    else:
        lengths, cols, data = np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    index = np.int32 if max(len(data), len(lengths), dim) <= _INT32_MAX else np.int64
    indptr = np.zeros(len(lengths) + 1, dtype=index)
    lengths.cumsum(out=indptr[1:])
    return sp.csr_matrix((data, cols.astype(index, copy=False), indptr),
                         shape=(len(lengths), dim))


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

    @cached_property
    def _tables(self) -> tuple[dict[str, int], dict[int, np.ndarray], list[np.ndarray]]:
        """The token ids as a ``token_lookup``; per level k the sorted keys
        of the k-grams inside the vocabulary terms (the token ids at level
        1), then a key above every k-gram's; and per level the column of
        each k-gram id, -1 for a k-gram that is not itself a term and at
        the end.

        The tokens are those of every term, not only the unigram terms:
        ``max_df_ratio`` can drop a unigram and keep a bigram that holds it.
        A term outside the n-gram range, or with an empty part, is left
        out; no text can spell it."""
        token_ids: dict[str, int] = {}
        ids: list[int] = []
        terms = []  # (position of the first token, token count, column)
        for term, col in self.vocabulary.index.items():
            parts = term.split(" ")
            if self.config.n_min <= len(parts) <= self.config.n_max and "" not in parts:
                terms.append((len(ids), len(parts), col))
                ids += [token_ids.setdefault(p, len(token_ids)) for p in parts]
                ids.append(-1)
        tables, grams = number_grams(
            np.array(ids, dtype=np.int64), self.config.n_max, len(token_ids)
        )
        columns = [np.full(len(tables[k]) + 1, -1, dtype=np.int64)
                   for k in range(1, len(grams) + 1)]
        for at, n, col in terms:
            columns[n - 1][grams[n - 1][at]] = col
        lookup = token_lookup(token_ids, self.config.stoplist)
        return lookup, {k: np.append(t, _KEY_MAX) for k, t in tables.items()}, columns

    def transform(self, texts: Sequence[str]) -> sp.csr_matrix:
        """Vectorize ``texts`` into one row each: raw count x idf per term
        (columns sorted), then the row divided by its L2 norm.

        Out-of-vocabulary terms are ignored; a text with no known terms
        maps to an empty row.
        """
        if isinstance(texts, str):
            raise TypeError("transform takes a sequence of texts, not one str")
        lookup, tables, columns = self._tables
        n_tokens = len(tables[1]) - 1  # every token id, then the end key

        def find(k: int, keys: np.ndarray) -> np.ndarray:
            at = tables[k].searchsorted(keys)
            return np.where(tables[k][at] == keys, at, -1)

        parts = []
        for chunk in chunks(texts):
            ids, ends = lookup_texts(chunk, lookup)
            pos, cols = _hits((gram, columns[k - 1])
                              for k, gram in gram_ids(ids, len(columns), n_tokens, find)
                              if k >= self.config.n_min)
            parts.append(_weighted_rows(ends.searchsorted(pos), cols, len(chunk), self.idf))
        return _csr(parts, self.dimension)


def fit_transform(
    documents: Sequence[str], config: TfidfConfig | None = None
) -> tuple[TfidfModel, sp.csr_matrix]:
    """Fit a TF-IDF model on raw document texts and vectorize the same
    texts, tokenizing each once; the matrix equals ``model.transform``.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1 over the N input documents.
    Terms are kept when min_df <= df(t) <= max_df_ratio * N and indexed in
    lexicographic order.
    """
    if config is None:
        config = TfidfConfig()
    if len(documents) == 0:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    grams = Ngrams(documents, config.n_min, config.n_max, config.stoplist)
    n = grams.n_docs
    df = document_frequency(grams.docs, grams.ids, grams.n_ids)
    keep = ((df >= config.min_df) & (df <= config.max_df_ratio * n)).nonzero()[0]
    vocab, index = grams.vocabulary(keep, df)
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in vocab.doc_freq.values()])
    model = TfidfModel(vocabulary=vocab, idf=idf, config=config)
    cols = index[grams.ids]
    hit = (cols >= 0).nonzero()[0]
    return model, _csr([_weighted_rows(grams.docs[hit], cols[hit], n, idf)], len(vocab))


def fit_tfidf(documents: Sequence[str], config: TfidfConfig | None = None) -> TfidfModel:
    """Fit a TF-IDF model on raw document texts (see :func:`fit_transform`)."""
    return fit_transform(documents, config)[0]


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
