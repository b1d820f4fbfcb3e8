"""Reference text helpers for tests.

The regex tokenizer that ``newsciv.textproc`` ran before its byte-table
tokenizer: ``tokenize`` finds one regex match per token, and
``tokenize_texts`` runs one ``findall`` over the texts joined by newlines,
with a newline alternative that marks each text's end.

The string helpers that ``newsciv.textproc`` had before its integer n-gram
encoder: ``remove_stopwords``, ``ngrams`` and ``build_vocabulary``, with
the ``Vocabulary`` record that ``build_vocabulary`` returns (the library's
vocabulary is the tuple of its terms, ``Vocabulary.terms`` here as a list). The
string-path oracles of ``features_reference`` and ``subtext_reference`` are
built from them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

TokenSequence = list[str]

# A token is a maximal run of Unicode letters/digits, optionally joined by
# internal apostrophes ("don't" is one token, "'tis" loses the leading mark).
_TOKEN_RE = re.compile(r"[^\W_']+(?:'+[^\W_']+)*")
# The same tokens, or the newline that ends a text in a joined batch.
_TOKEN_OR_END_RE = re.compile(_TOKEN_RE.pattern + r"|\n")


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


@dataclass(frozen=True)
class Vocabulary:
    """Term-to-index mapping with document frequencies, indices 0..V-1 in
    lexicographic term order."""

    index: dict[str, int]
    doc_freq: dict[str, int]
    n_docs: int

    def __len__(self) -> int:
        return len(self.index)

    @property
    def terms(self) -> list[str]:
        """Terms in index order."""
        return sorted(self.index, key=self.index.__getitem__)


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
