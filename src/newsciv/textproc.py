r"""Tokenization and the integer n-gram encoder.

Everything downstream (TF-IDF features, topic models, phrase mining) works
on the output of this module, so the rules here are deliberately small and
fixed: lowercase tokens made of letters/digits with internal apostrophes,
stop words dropped before n-grams are formed, n-grams spelled with single
spaces, and vocabularies as tuples of their terms in lexicographic order,
a term's column or id being its position.

A token is a maximal run of characters that are ``str.isalnum()`` or "'",
taken from the lowercased text, with its leading and trailing apostrophes
removed; a run of apostrophes alone is no token. This is exactly what the
regex ``[^\W_']+(?:'+[^\W_']+)*`` finds, because its class ``[^\W_']``
holds exactly the characters for which ``str.isalnum()`` is true (the tests
check every code point), but it is computed without a match per token:
non-ASCII characters that are not letters or digits become spaces (one
``re.sub`` with few matches, run only on non-ASCII text), each ASCII byte
but a letter, a digit, "'" or "\n" becomes a space through one 256-byte
``bytes.translate`` table (the UTF-8 bytes of non-ASCII characters are all
>= 0x80 and pass unchanged). Spaces and newlines are then the only
whitespace left, so ``str.split`` finds the tokens.

The batch encoder below gives the n-grams as integer ids. Tokens are
numbered, and n-grams are then found level by level with integer keys: the
k-gram at a position has key ``prefix * U + token``, where ``prefix`` is
the id of its first k - 1 tokens among the (k - 1)-grams of that level,
``token`` the id of its last token and ``U`` the number of distinct tokens.
Ids stay below the number of distinct n-grams, so keys fit int64 for every
n. Only the n-grams a caller keeps are ever spelled out as strings.

No other module knows these keys: :class:`Ngrams` numbers the n-grams of
texts, counts the texts that hold each, finds them in other texts and looks
phrases up by them.
"""

from __future__ import annotations

import re
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# A non-ASCII character that is not a letter or digit ("_" is ASCII).
_NON_ASCII_SEPARATOR = re.compile(r"[^\x00-\x7f\w]")
# UTF-8 bytes to spaces: every ASCII byte but letters, digits, "'" and "\n".
_SEPARATOR_BYTES = bytes(b if chr(b).isalnum() or chr(b) in "'\n" else 32
                         for b in range(128)) + bytes(range(128, 256))

# Texts encoded at a time. Texts are independent, so the chunk size changes
# no output bit; it bounds the token strings alive at once.
_CHUNK = 4096

# Raw ids of the text end and of a stop word, before ``_mark_ends``.
_END, _STOP = -2, -3

TokenSequence = list[str]


def tokenize(text: str) -> TokenSequence:
    """Lowercase ``text`` and split it into tokens, dropping punctuation."""
    return tokenize_texts([text])[:-1]


def tokenize_texts(texts: Sequence[str]) -> TokenSequence:
    """``tokenize`` of every text, concatenated, with "\\n" after each
    text's tokens.

    The texts are joined by newlines and lowercased as one string, and
    every character but letters, digits, "'" and newlines becomes a space,
    as the module docstring says. The string is then split at its newlines
    and each text at its spaces. A newline inside a text becomes a space
    first: both split tokens alike, and lowercasing, whose final-sigma rule
    looks at the letters around a "Σ", stops at either. Lone surrogates are
    not letters or digits, so they are spaces before the text is encoded.
    """
    joined = "\n".join([*texts, ""])
    if joined.count("\n") != len(texts):
        joined = "\n".join([*(t.replace("\n", " ") for t in texts), ""])
    joined = joined.lower()
    if not joined.isascii():
        joined = _NON_ASCII_SEPARATOR.sub(" ", joined)
    joined = joined.encode().translate(_SEPARATOR_BYTES).decode()
    apostrophes = "'" in joined
    lines = joined.split("\n")[:-1]
    del joined  # one copy of the chunk at a time keeps the peak memory down
    tokens: TokenSequence = []
    for line in lines:
        tokens += line.split()
        tokens.append("\n")
    if apostrophes:
        tokens = list(filter(None, map(str.strip, tokens, repeat("'"))))
    return tokens


def tokenize_each(texts: Iterable[str]) -> Iterator[TokenSequence]:
    """``tokenize`` of each text in turn, from one ``tokenize_texts`` call
    per chunk of texts."""
    for chunk in chunks(texts):
        tokens, start = tokenize_texts(chunk), 0
        for _ in chunk:
            end = tokens.index("\n", start)
            yield tokens[start:end]
            start = end + 1


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


def _lookup_texts(texts: Sequence[str], lookup: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the tokens of ``texts`` under a fixed ``lookup`` (stop
    words at ``_STOP``, "\\n" at ``_END``), -1 for a token it lacks and
    after each text, and the positions of the text ends. The token strings
    are freed on return."""
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


class Ngrams:
    """The n-grams of texts, for each n in [n_min, n_max], as integer ids,
    stop words removed before n-grams are formed.

    Occurrence i is n-gram ``ids[i]`` of text ``docs[i]``. Occurrences come
    level by level (n ascending), each level in position order. The
    n-grams of level ``levels[i]`` have the ids from ``offsets[i]`` on, in
    the order of their keys in ``tables``.
    """

    def __init__(self, texts: Iterable[str], n_min: int, n_max: int,
                 stoplist: Iterable[str] = ()) -> None:
        tokens, ends, self.words = encode_texts(texts, stoplist)
        self.n_docs = len(ends)
        self.tables = {1: np.arange(len(self.words))}
        grams = [gram for _, gram in gram_ids(tokens, n_max, len(self.words), self._number)]
        self.levels = range(n_min, len(grams) + 1)
        self.offsets = np.cumsum([0, *(len(self.tables[k]) for k in self.levels)])
        self.n_ids = int(self.offsets[-1])
        self.docs, self.ids = self._collect(enumerate(grams, start=1), ends)

    def _number(self, k: int, keys: np.ndarray) -> np.ndarray:
        """Number the distinct level-k ``keys`` in key order: ``tables[k]``
        holds them sorted, and the id of each key is returned."""
        self.tables[k], inverse = np.unique(keys, return_inverse=True)
        return inverse

    def _collect(self, grams: Iterable[tuple[int, np.ndarray]],
                 ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The texts and ids of the known n-grams of the levels in
        ``levels``, from pairs (k, level-k id at each position) and the
        positions of the text ends."""
        docs, ids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for k, gram in grams:
            if k in self.levels:
                pos = (gram >= 0).nonzero()[0]
                ids.append(gram[pos] + self.offsets[k - self.levels.start])
                docs.append(ends.searchsorted(pos))
        return np.concatenate(docs), np.concatenate(ids)

    def _find(self, k: int, keys: np.ndarray) -> np.ndarray:
        """The level-k ids of the k-gram ``keys``, -1 for a key no text holds."""
        table = self.tables[k]
        at = np.minimum(table.searchsorted(keys), len(table) - 1)
        return np.where(table[at] == keys, at, -1)

    def occurrences(self, texts: Sequence[str],
                    stoplist: Iterable[str] = ()) -> tuple[np.ndarray, np.ndarray]:
        """The texts and ids of this object's n-grams found in ``texts``,
        one entry per occurrence, as ``docs`` and ``ids`` are for its own.
        Stop words are dropped first, even where ``words`` holds them."""
        lookup = {**dict(zip(self.words, range(len(self.words)))),
                  **dict.fromkeys(stoplist, _STOP), "\n": _END}
        tokens, ends = _lookup_texts(texts, lookup)
        return self._collect(gram_ids(tokens, len(self.tables), len(self.words), self._find), ends)

    def find(self, phrases: Iterable[str]) -> list[int]:
        """The id of each n-gram given as tokens joined by single spaces,
        or -1 for one that no text holds.

        The phrases' parts are looked up as they are, -1 between phrases,
        and each phrase's id is read at its first part on its own level."""
        word_id = dict(zip(self.words, range(len(self.words))))
        parts = [phrase.split(" ") for phrase in phrases]
        sizes = np.array([len(p) for p in parts], dtype=np.int64)
        at = np.cumsum(sizes + 1) - sizes - 1
        # "" is no word, so -1 follows each phrase
        tokens = np.array([word_id.get(t, -1) for p in parts for t in (*p, "")], dtype=np.int64)
        found = np.full(len(parts), -1, dtype=np.int64)
        for k, gram in gram_ids(tokens, len(self.tables), len(self.words), self._find):
            if k in self.levels:
                of_k = (sizes == k).nonzero()[0]
                ids = gram[at[of_k]]
                found[of_k] = np.where(ids >= 0, ids + self.offsets[k - self.levels.start], -1)
        return found.tolist()

    def document_frequency(self) -> np.ndarray:
        """For each id, the number of distinct texts that hold it.

        Distinct (text, id) pairs are found by a sort and a comparison of
        neighbours: on 200,000 pairs that took about 3 ms, and ``np.unique``,
        which hashes them in numpy 2.4, about 65 ms (2-core x86 VM)."""
        pairs = np.sort(self.docs * self.n_ids + self.ids)
        first = np.ones(len(pairs), dtype=bool)
        np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
        return np.bincount(pairs[first] % self.n_ids, minlength=self.n_ids)

    def vocabulary(self, kept: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """The terms of the n-grams with the sorted ids ``kept``, in
        lexicographic order, and the index among them of each id: -1 for an
        id not kept, and at an extra last position that id -1 indexes.

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
        index = np.full(self.n_ids + 1, -1, dtype=np.int64)
        index[kept[order]] = np.arange(len(kept))
        return tuple(terms[i] for i in order), index


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
