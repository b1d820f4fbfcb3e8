"""Tokenization, stop-word removal, n-gram extraction, and vocabularies.

Everything downstream (TF-IDF features, topic models, phrase mining) works
on the output of these functions, so the rules here are deliberately small
and fixed: lowercase tokens made of letters/digits with internal
apostrophes, n-grams joined by single spaces, and vocabularies with
deterministic (lexicographic) index order.

The batch encoder below gives the same n-grams as integer ids. Tokens are
numbered, and n-grams are then found level by level with integer keys: the
k-gram at a position has key ``prefix * U + token``, where ``prefix`` is
the id of its first k - 1 tokens among the (k - 1)-grams of that level,
``token`` the id of its last token and ``U`` the number of distinct tokens.
Ids stay below the number of distinct n-grams, so keys fit int64 for every
n. Only the n-grams a caller keeps are ever spelled out as strings.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# A token is a maximal run of Unicode letters/digits, optionally joined by
# internal apostrophes ("don't" is one token, "'tis" loses the leading mark).
_TOKEN_RE = re.compile(r"[^\W_']+(?:'+[^\W_']+)*")
# The same tokens, or the newline that ends a text in a joined batch.
_TOKEN_OR_END_RE = re.compile(_TOKEN_RE.pattern + r"|\n")

# Texts encoded at a time. Texts are independent, so the chunk size changes
# no output bit; it bounds the token strings alive at once.
_CHUNK = 4096

# Raw ids of the text end and of a stop word, before ``_mark_ends``.
_END, _STOP = -2, -3

TokenSequence = list[str]


def tokenize(text: str) -> TokenSequence:
    """Lowercase ``text`` and split it into tokens, dropping punctuation."""
    return _TOKEN_RE.findall(text.lower())


def tokenize_texts(texts: Sequence[str]) -> TokenSequence:
    """``tokenize`` of every text, concatenated, with "\\n" after each
    text's tokens.

    One ``findall`` runs over the texts joined by newlines. A newline inside
    a text becomes a space first: both split tokens alike, and lowercasing,
    whose final-sigma rule looks at the letters around a "Σ", stops at
    either.
    """
    joined = "\n".join([*texts, ""])
    if joined.count("\n") != len(texts):
        joined = "\n".join([*(t.replace("\n", " ") for t in texts), ""])
    return _TOKEN_OR_END_RE.findall(joined.lower())


def remove_stopwords(tokens: Sequence[str], stoplist: Iterable[str]) -> TokenSequence:
    """Drop exact stoplist matches, preserving the order of the rest."""
    stopset = stoplist if isinstance(stoplist, (set, frozenset)) else set(stoplist)
    return [t for t in tokens if t not in stopset]


def ngrams(tokens: Sequence[str], n_min: int, n_max: int) -> list[str]:
    """All contiguous n-grams for each n in [n_min, n_max].

    Output is ordered by n first, then by position, with tokens joined by
    one space. A sequence shorter than n contributes no n-grams for that n.
    """
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    if n_min > n_max:
        raise ValueError(f"n_min ({n_min}) must not exceed n_max ({n_max})")
    out: list[str] = []
    for n in range(n_min, min(n_max, len(tokens)) + 1):
        if n == 1:
            out.extend(tokens)
        else:
            out.extend(map(" ".join, zip(*(tokens[k:] for k in range(n)))))
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Term-to-index mapping with document frequencies.

    Indices are contiguous 0..V-1 in lexicographic term order, so a
    vocabulary built from the same documents is always identical.
    """

    index: dict[str, int]
    doc_freq: dict[str, int]
    n_docs: int

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    @cached_property
    def terms(self) -> list[str]:
        """Terms in index order."""
        return sorted(self.index, key=self.index.__getitem__)


def build_vocabulary(
    documents: Sequence[Sequence[str]],
    min_df: int = 1,
    max_df_ratio: float = 1.0,
) -> Vocabulary:
    """Build a vocabulary over term sequences, filtered by document frequency.

    Terms are kept when min_df <= df(term) <= max_df_ratio * n_docs, both
    bounds inclusive on the keep side.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ValueError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    if len(documents) == 0:
        raise ValueError("cannot build a vocabulary from zero documents")

    df: Counter[str] = Counter()
    for doc in documents:
        df.update(set(doc))

    max_df = max_df_ratio * len(documents)
    kept = sorted(t for t, c in df.items() if min_df <= c <= max_df)
    return Vocabulary(
        index={t: i for i, t in enumerate(kept)},
        doc_freq={t: df[t] for t in kept},
        n_docs=len(documents),
    )


def chunks(texts: Iterable[str]) -> Iterator[list[str]]:
    """Consecutive lists of at most ``_CHUNK`` texts."""
    it = iter(texts)
    while chunk := list(islice(it, _CHUNK)):
        yield chunk


def _mark_ends(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the stop words from raw token ids and turn each text end into
    -1, which no token id equals, so no n-gram joins two texts. Returns the
    ids and the positions of the text ends."""
    ids = raw[raw != _STOP]
    ends = (ids == _END).nonzero()[0]
    ids[ends] = -1
    return ids, ends


def encode_texts(
    texts: Iterable[str], stoplist: Iterable[str] = ()
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Number the tokens of ``texts`` in order of first appearance.

    Returns the token ids in text order, stop words dropped and -1 after
    each text; the positions of those -1 entries, one per text; and the
    distinct tokens, indexed by id.
    """
    index = {**dict.fromkeys(stoplist, _STOP), "\n": _END}
    base = len(index)
    parts = [np.zeros(0, dtype=np.int64)]
    for chunk in chunks(texts):
        parts.append(np.array([index.setdefault(t, len(index) - base)
                               for t in tokenize_texts(chunk)], dtype=np.int64))
    ids, ends = _mark_ends(np.concatenate(parts))
    return ids, ends, list(index)[base:]


def token_lookup(token_ids: dict[str, int], stoplist: Iterable[str] = ()) -> dict[str, int]:
    """``token_ids`` prepared for :func:`lookup_texts`: stop words are
    dropped even where ``token_ids`` has them, as ``remove_stopwords``
    would before the lookup."""
    return {**token_ids, **dict.fromkeys(stoplist, _STOP), "\n": _END}


def lookup_texts(texts: Sequence[str], lookup: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the tokens of ``texts`` under a fixed ``token_lookup``,
    -1 for a token it lacks and after each text, and the positions of the
    text ends."""
    tokens = tokenize_texts(texts)
    return _mark_ends(np.fromiter(map(lookup.get, tokens, repeat(-1)), np.int64, len(tokens)))


def gram_ids(
    ids: np.ndarray, n_max: int, n_tokens: int, find: Callable[[int, np.ndarray], np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """For k = 1, 2, ..., n_max, the id of the k-gram at each position of
    token ids ``ids``, or -1 where it would cross a -1 or ``find`` does not
    know it. ``find(k, keys)`` gives the ids of level-k keys (-1 for none).
    Stops early once no k-gram is left, so a large ``n_max`` costs nothing
    past the longest text."""
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


def document_frequency(docs: np.ndarray, ids: np.ndarray, n_ids: int) -> np.ndarray:
    """For each id in [0, n_ids), the number of distinct documents that
    hold it, given the document ``docs[i]`` of each occurrence ``ids[i]``.

    Distinct (document, id) pairs are found by a sort and a comparison of
    neighbours: on 200,000 pairs that took about 3 ms, and ``np.unique``,
    which hashes them in numpy 2.4, about 65 ms (2-core x86 VM)."""
    pairs = np.sort(docs * n_ids + ids)
    first = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    return np.bincount(pairs[first] % n_ids, minlength=n_ids)


def number_grams(
    ids: np.ndarray, n_max: int, n_tokens: int
) -> tuple[dict[int, np.ndarray], list[np.ndarray]]:
    """Number the distinct k-grams of token ids ``ids`` in key order, for
    k = 1, 2, ..., n_max: per level the sorted distinct keys (the token ids
    at level 1), and per level the id of the k-gram at each position."""
    tables = {1: np.arange(n_tokens)}

    def find(k: int, keys: np.ndarray) -> np.ndarray:
        tables[k], inverse = np.unique(keys, return_inverse=True)
        return inverse

    return tables, [gram for _, gram in gram_ids(ids, n_max, n_tokens, find)]


class Ngrams:
    """The n-grams of texts, for each n in [n_min, n_max], as integer ids,
    stop words removed before n-grams are formed.

    Occurrence i is n-gram ``ids[i]`` of text ``docs[i]``. Occurrences come
    level by level (n ascending), each level in position order. The
    n-grams of level ``levels[i]`` have the ids from ``offsets[i]`` on, in
    the order of their ``number_grams`` keys.
    """

    def __init__(self, texts: Iterable[str], n_min: int, n_max: int,
                 stoplist: Iterable[str] = ()) -> None:
        tokens, ends, self.words = encode_texts(texts, stoplist)
        self.n_docs = len(ends)
        self.tables, grams = number_grams(tokens, n_max, len(self.words))
        self.levels = range(n_min, len(grams) + 1)
        self.offsets = np.cumsum([0, *(len(self.tables[k]) for k in self.levels)])
        self.n_ids = int(self.offsets[-1])
        ids, docs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for k, offset in zip(self.levels, self.offsets.tolist()):
            pos = (grams[k - 1] >= 0).nonzero()[0]
            ids.append(grams[k - 1][pos] + offset)
            docs.append(ends.searchsorted(pos))
        self.ids, self.docs = np.concatenate(ids), np.concatenate(docs)

    def find(self, phrases: Iterable[str]) -> list[int]:
        """The id of each n-gram given as tokens joined by single spaces,
        or -1 for one that no text holds."""
        token_id = {w: i for i, w in enumerate(self.words)}

        def find_one(tokens: list[str]) -> int:
            if len(tokens) not in self.levels or not all(t in token_id for t in tokens):
                return -1
            gram = token_id[tokens[0]]
            for k, token in enumerate(tokens[1:], start=2):
                key = gram * len(self.words) + token_id[token]
                gram = int(self.tables[k].searchsorted(key))
                if gram == len(self.tables[k]) or self.tables[k][gram] != key:
                    return -1
            return int(self.offsets[len(tokens) - self.levels.start]) + gram

        return [find_one(phrase.split(" ")) for phrase in phrases]

    def vocabulary(self, kept: np.ndarray, df: np.ndarray) -> tuple[Vocabulary, np.ndarray]:
        """The vocabulary of the n-grams with the sorted ids ``kept`` and
        document frequencies ``df[id]``, numbered in lexicographic order,
        and the index in it of each id: -1 for an id not kept, and at an
        extra last position that id -1 indexes.

        Only the kept n-grams are spelled out: each key is split into
        prefix and last token until only token ids are left."""
        bounds = kept.searchsorted(self.offsets).tolist()
        terms: list[str] = []
        for i, k in enumerate(self.levels):
            parts = [kept[bounds[i]:bounds[i + 1]] - self.offsets[i]]
            for j in range(k, 1, -1):
                keys = self.tables[j][parts[0]]
                parts[0:1] = [keys // len(self.words), keys % len(self.words)]
            terms += map(" ".join, zip(*([self.words[t] for t in part.tolist()]
                                          for part in parts)))
        order = sorted(range(len(terms)), key=terms.__getitem__)
        kept, terms = kept[order], [terms[i] for i in order]
        index = np.full(self.n_ids + 1, -1, dtype=np.int64)
        index[kept] = np.arange(len(kept))
        vocabulary = Vocabulary(
            index={term: i for i, term in enumerate(terms)},
            doc_freq=dict(zip(terms, df[kept].tolist())),
            n_docs=self.n_docs,
        )
        return vocabulary, index


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Read a stoplist file: one term per line, '#' starts a comment."""
    terms = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        term = line.split("#", 1)[0].strip().lower()
        if term:
            terms.add(term)
    return frozenset(terms)


# Fixed English function-word list, applied before n-gram formation in the
# topic-modeling pipeline (not in the TF-IDF classifiers, where function-word
# bigrams can carry signal).
DEFAULT_STOPLIST: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are aren't as at
    be because been before being below between both but by
    can cannot could couldn't
    did didn't do does doesn't doing don't down during
    each few for from further
    had hadn't has hasn't have haven't having he he'd he'll he's her here
    here's hers herself him himself his how how's
    i i'd i'll i'm i've if in into is isn't it it's its itself
    let's me more most mustn't my myself
    no nor not of off on once only or other ought our ours ourselves out
    over own
    same shan't she she'd she'll she's should shouldn't so some such
    than that that's the their theirs them themselves then there there's
    these they they'd they'll they're they've this those through to too
    under until up very
    was wasn't we we'd we'll we're we've were weren't what what's when
    when's where where's which while who who's whom why why's with won't
    would wouldn't
    you you'd you'll you're you've your yours yourself yourselves
    """.split()
)
