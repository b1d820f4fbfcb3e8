"""TF-IDF vectorization of bag-of-n-grams documents into a CSR matrix.

The weighting variant is fixed: raw term counts, smoothed inverse document
frequency ln((1 + N) / (1 + df)) + 1, and L2 normalization of each row.
The smoothing keeps idf >= 1 for every vocabulary term.

Each text is tokenized once and its tokens mapped to integer ids. N-grams
are then found level by level with integer keys: the k-gram at a position
has key ``prefix * U + token``, where ``prefix`` is the id of its first
k - 1 tokens among the (k - 1)-grams of that level, ``token`` the id of its
last token and ``U`` the number of distinct tokens. Ids stay below the
number of distinct n-grams, so keys fit int64 for every n. Only the n-grams
a vocabulary keeps are ever spelled out as strings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from ._checks import check_field_types, is_finite_number, is_nonnegative_int, read_model_json
from ._output import write_json
from .textproc import DEFAULT_STOPLIST, Vocabulary, remove_stopwords, tokenize

TFIDF_FORMAT_VERSION = 1

# Texts encoded at a time. Rows are independent, so the chunk size changes
# no output bit; it bounds the token strings and id arrays alive at once.
_CHUNK = 4096

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


def _chunks(texts: Iterable[str]) -> Iterator[list[str]]:
    it = iter(texts)
    while chunk := list(islice(it, _CHUNK)):
        yield chunk


def _tokens(texts: Sequence[str], use_stoplist: bool) -> tuple[list[str], np.ndarray]:
    """The tokens of ``texts`` in order, each text followed by "" (which no
    token equals, so no n-gram joins two texts), and the position of each
    of those separators."""
    flat: list[str] = []
    ends: list[int] = []
    for text in texts:
        tokens = tokenize(text)
        if use_stoplist:
            tokens = remove_stopwords(tokens, DEFAULT_STOPLIST)
        flat += tokens
        ends.append(len(flat))
        flat.append("")
    return flat, np.array(ends, dtype=np.int64)


def _grams(
    ids: np.ndarray, n_max: int, n_tokens: int, find: Callable[[int, np.ndarray], np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """For k = 1, 2, ..., n_max, the id of the k-gram at each position of
    token ids ``ids``, or -1 where it would cross a -1 or ``find`` does not
    know it. ``find(k, keys)`` gives the ids of level-k keys (-1 for none).
    Stops early once no k-gram is left."""
    gram = ids
    yield 1, gram
    for k in range(2, n_max + 1):
        prefix, last = gram[:-1], ids[k - 1:]
        known = ((prefix >= 0) & (last >= 0)).nonzero()[0]
        if len(known) == 0:
            return
        gram = np.full(len(prefix), -1, dtype=np.int64)
        gram[known] = find(k, prefix[known] * n_tokens + last[known])
        yield k, gram


def _number_grams(
    ids: np.ndarray, n_max: int, n_tokens: int
) -> tuple[dict[int, np.ndarray], list[np.ndarray]]:
    """Number the distinct k-grams of token ids ``ids`` in key order, for
    k = 1, 2, ..., n_max: per level the sorted distinct keys (the token ids
    at level 1), and per level the id of the k-gram at each position."""
    tables = {1: np.arange(n_tokens)}

    def find(k: int, keys: np.ndarray) -> np.ndarray:
        tables[k], inverse = np.unique(keys, return_inverse=True)
        return inverse

    return tables, [gram for _, gram in _grams(ids, n_max, n_tokens, find)]


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
        """Token ids; per level k >= 2 the sorted keys of the k-grams inside
        the vocabulary terms, then a key above every k-gram's; and per
        level k >= 1 the column of each k-gram id, -1 for a k-gram that is
        not itself a term and at the end.

        The tokens are those of every term, not only the unigram terms:
        ``max_df_ratio`` can drop a unigram and keep a bigram that holds it.
        A term outside the n-gram range, or with an empty part that the ""
        separator would match, is left out; no text can spell it."""
        token_ids: dict[str, int] = {}
        ids: list[int] = []
        terms = []  # (position of the first token, token count, column)
        for term, col in self.vocabulary.index.items():
            parts = term.split(" ")
            if self.config.n_min <= len(parts) <= self.config.n_max and "" not in parts:
                terms.append((len(ids), len(parts), col))
                ids += [token_ids.setdefault(p, len(token_ids)) for p in parts]
                ids.append(-1)
        tables, grams = _number_grams(
            np.array(ids, dtype=np.int64), self.config.n_max, len(token_ids)
        )
        columns = [np.full(len(tables[k]) + 1, -1, dtype=np.int64)
                   for k in range(1, len(grams) + 1)]
        for at, n, col in terms:
            columns[n - 1][grams[n - 1][at]] = col
        return token_ids, {k: np.append(t, _KEY_MAX) for k, t in tables.items()}, columns

    def transform(self, texts: Sequence[str]) -> sp.csr_matrix:
        """Vectorize ``texts`` into one row each: raw count x idf per term
        (columns sorted), then the row divided by its L2 norm.

        Out-of-vocabulary terms are ignored; a text with no known terms
        maps to an empty row.
        """
        if isinstance(texts, str):
            raise TypeError("transform takes a sequence of texts, not one str")
        token_ids, tables, columns = self._tables

        def find(k: int, keys: np.ndarray) -> np.ndarray:
            at = tables[k].searchsorted(keys)
            return np.where(tables[k][at] == keys, at, -1)

        parts = []
        for chunk in _chunks(texts):
            flat, ends = _tokens(chunk, self.config.use_stoplist)
            ids = np.fromiter(map(token_ids.get, flat, repeat(-1)), np.int64, len(flat))
            pos, cols = _hits((gram, columns[k - 1])
                              for k, gram in _grams(ids, len(columns), len(token_ids), find)
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
    index = {"": 0}  # token -> 1 + its id, so the separator gets -1
    id_parts, end_parts, offset = [], [], 0
    for chunk in _chunks(documents):
        flat, ends = _tokens(chunk, config.use_stoplist)
        id_parts.append(np.array([index.setdefault(t, len(index)) for t in flat]) - 1)
        end_parts.append(ends + offset)
        offset += len(flat)
    ids, ends = np.concatenate(id_parts), np.concatenate(end_parts)
    words = list(index)[1:]
    n_tokens = len(words)
    tables, level_grams = _number_grams(ids, config.n_max, n_tokens)
    n = len(documents)
    max_df = config.max_df_ratio * n
    grams = []  # (gram ids, column of each id) per counted level
    kept = []  # (term, index into grams, gram id, df) per kept n-gram
    for k, gram in enumerate(level_grams[config.n_min - 1:], start=config.n_min):
        size = len(tables[k])
        pos = (gram >= 0).nonzero()[0]
        pairs = np.unique(ends.searchsorted(pos) * size + gram[pos])
        df = np.bincount(pairs % size, minlength=size)
        keep = ((df >= config.min_df) & (df <= max_df)).nonzero()[0]
        # Spell the kept ids: split each key into prefix and last token
        # until only token ids are left.
        spelled = [keep]
        for j in range(k, 1, -1):
            keys = tables[j][spelled[0]]
            spelled[0:1] = [keys // n_tokens, keys % n_tokens]
        terms = map(" ".join, zip(*([words[t] for t in part.tolist()] for part in spelled)))
        kept += zip(terms, repeat(len(grams)), keep.tolist(), df[keep].tolist())
        grams.append((gram, np.full(size + 1, -1, dtype=np.int64)))
    kept.sort()
    for col, (_, level, at, _) in enumerate(kept):
        grams[level][1][at] = col
    vocab = Vocabulary(
        index={term: col for col, (term, _, _, _) in enumerate(kept)},
        doc_freq={term: df for term, _, _, df in kept},
        n_docs=n,
    )
    idf = np.array([math.log((1 + n) / (1 + df)) + 1.0 for _, _, _, df in kept])
    model = TfidfModel(vocabulary=vocab, idf=idf, config=config)
    pos, cols = _hits(grams)
    return model, _csr([_weighted_rows(ends.searchsorted(pos), cols, n, idf)], len(kept))


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
