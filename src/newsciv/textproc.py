"""Tokenization, stop-word removal, n-gram extraction, and vocabularies.

Everything downstream (TF-IDF features, topic models, phrase mining) works
on the output of these functions, so the rules here are deliberately small
and fixed: lowercase tokens made of letters/digits with internal
apostrophes, n-grams joined by single spaces, and vocabularies with
deterministic (lexicographic) index order.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

# A token is a maximal run of Unicode letters/digits, optionally joined by
# internal apostrophes ("don't" is one token, "'tis" loses the leading mark).
_TOKEN_RE = re.compile(r"[^\W_']+(?:'+[^\W_']+)*")

TokenSequence = list[str]


def tokenize(text: str) -> TokenSequence:
    """Lowercase ``text`` and split it into tokens, dropping punctuation."""
    return _TOKEN_RE.findall(text.lower())


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
    for n in range(n_min, n_max + 1):
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

    @property
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
