"""TF-IDF vectorization of bag-of-n-grams documents into a CSR matrix.

The weighting variant is fixed: raw term counts, smoothed inverse document
frequency ln((1 + N) / (1 + df)) + 1, and L2 normalization of each row.
The smoothing keeps idf >= 1 for every vocabulary term.

Each text is tokenized once. A fit numbers the n-grams of its texts with
:class:`newsciv.textproc.Ngrams` and spells out only those it keeps; a
transform counts the n-grams of new texts through the ``Ngrams`` of the
vocabulary terms. Only :mod:`newsciv.textproc` knows how n-grams are keyed.
A vocabulary is the tuple of its terms in column order, which is
lexicographic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._checks import check_field_types, check_object, is_finite_number
from .textproc import DEFAULT_STOPLIST, Ngrams, chunks

if TYPE_CHECKING:
    import scipy.sparse as sp

_INT32_MAX = np.iinfo(np.int32).max


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


def _weighted_rows(
    docs: np.ndarray, ids: np.ndarray, column: np.ndarray, n_rows: int, idf: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row lengths, columns and values of the TF-IDF rows of n-gram
    occurrences, ``ids[i]`` in text ``docs[i]``, counting those whose
    ``column`` is a term's (not -1): raw count x idf per distinct column,
    columns sorted, each row divided by its L2 norm."""
    cols = column[ids]
    hit = cols >= 0
    dim = len(idf)
    keys = docs[hit] * dim + cols[hit]
    keys.sort()
    edge = np.empty(len(keys) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    at = edge.nonzero()[0]
    keys = keys[at[:-1]]
    rows = keys // dim
    lengths = np.bincount(rows, minlength=n_rows)
    cols = (keys % dim).astype(np.int32 if dim <= _INT32_MAX else np.int64)
    data = (at[1:] - at[:-1]) * idf[cols]
    # Each row's norm is the square root of its squares summed left to right,
    # so its bits depend on that row alone: not on the batch, nor on the CPU.
    data /= np.sqrt(np.bincount(rows, weights=data * data, minlength=n_rows)).repeat(lengths)
    return lengths, cols, data


def _csr(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]], dim: int) -> sp.csr_matrix:
    """Stack the ``_weighted_rows`` of consecutive chunks into one matrix,
    with the index dtype scipy would choose (int32 when every index fits).
    Columns come as int32 already when the dimension allows, so the whole
    batch never holds them as int64.

    scipy is imported here, not with the module, so the commands that
    build no matrix never load it."""
    from scipy.sparse import csr_matrix

    if len(parts) == 1:
        lengths, cols, data = parts[0]
    elif parts:
        lengths, cols, data = (np.concatenate(p) for p in zip(*parts))
    else:
        lengths, cols, data = np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    index = np.int32 if max(len(data), len(lengths), dim) <= _INT32_MAX else np.int64
    indptr = np.zeros(len(lengths) + 1, dtype=index)
    lengths.cumsum(out=indptr[1:])
    return csr_matrix((data, cols.astype(index, copy=False), indptr),
                      shape=(len(lengths), dim))


@dataclass(frozen=True, eq=False)
class TfidfModel:
    """A fitted vectorizer: the vocabulary, term ``vocabulary[j]`` being
    column j, and the idf weight of each column."""

    vocabulary: tuple[str, ...]
    idf: np.ndarray
    config: TfidfConfig

    def __post_init__(self) -> None:
        if len(self.idf) != len(self.vocabulary):
            raise ValueError("idf length must equal vocabulary size")

    @property
    def dimension(self) -> int:
        return len(self.vocabulary)

    @cached_property
    def _tables(self) -> tuple[Ngrams, np.ndarray]:
        """The n-grams of the vocabulary terms, and the column of each of
        their ids, -1 for an id that is not itself a term.

        The words are those of every term, not only the unigram terms:
        ``max_df_ratio`` can drop a unigram and keep a bigram that holds
        it. Only the texts lose their stop words, so a term holding one
        never matches. A term is looked up by its parts as written, so one
        outside the n-gram range, or one that tokenizes to other parts (an
        empty part, a capital, punctuation), has no column."""
        grams = Ngrams(self.vocabulary, self.config.n_min, self.config.n_max)
        found = np.array(grams.find(self.vocabulary), dtype=np.int64)
        column = np.full(grams.n_ids, -1, dtype=np.int64)
        column[found[found >= 0]] = (found >= 0).nonzero()[0]
        return grams, column

    def transform(self, texts: Sequence[str]) -> sp.csr_matrix:
        """Vectorize ``texts`` into one row each: raw count x idf per term
        (columns sorted), then the row divided by its L2 norm.

        Out-of-vocabulary terms are ignored; a text with no known terms
        maps to an empty row.
        """
        if isinstance(texts, str):
            raise TypeError("transform takes a sequence of texts, not one str")
        grams, column = self._tables
        return _csr([_weighted_rows(*grams.occurrences(chunk, self.config.stoplist),
                                    column, len(chunk), self.idf)
                     for chunk in chunks(texts)], self.dimension)


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
    df = grams.document_frequency()
    keep = ((df >= config.min_df) & (df <= config.max_df_ratio * n)).nonzero()[0]
    vocabulary, index = grams.vocabulary(keep)
    term_df = np.empty(len(keep), dtype=np.int64)
    term_df[index[keep]] = df[keep]  # the terms are sorted as strings, not as ids
    # math.log, not np.log: numpy's SIMD log can differ in the last bit by CPU.
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in term_df.tolist()])
    model = TfidfModel(vocabulary=vocabulary, idf=idf, config=config)
    return model, _csr([_weighted_rows(grams.docs, grams.ids, index, n, idf)], len(vocabulary))


def save_tfidf(model: TfidfModel) -> dict:
    """A fitted model as the JSON-ready ``tfidf`` part of a model file."""
    return {"config": asdict(model.config), "vocabulary": list(model.vocabulary),
            "idf": [float(x) for x in model.idf]}


def load_tfidf(part, where: str) -> TfidfModel:
    """The model in a part written by :func:`save_tfidf`; a damaged part
    raises ValueError naming ``where``."""
    check_object(part, ("config", "vocabulary", "idf"), where)
    terms, idf, config = part["vocabulary"], part["idf"], part["config"]
    if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)
            and len(set(terms)) == len(terms)):
        raise ValueError(f"{where}: vocabulary must be a list of distinct strings")
    if not (isinstance(idf, list) and len(idf) == len(terms) and all(map(is_finite_number, idf))):
        raise ValueError(f"{where}: idf must hold one valid number per vocabulary term")
    known = [f.name for f in fields(TfidfConfig)]
    if not (isinstance(config, dict) and set(config) <= set(known)):
        raise ValueError(f"{where}: config must be an object with keys from {sorted(known)}")
    missing = [key for key in known if key not in config]
    if missing:  # a default would silently change what transform counts
        raise ValueError(f"{where}: config is missing keys {missing}")
    try:
        config = TfidfConfig(**config)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return TfidfModel(vocabulary=tuple(terms), idf=np.array(idf, dtype=np.float64), config=config)
