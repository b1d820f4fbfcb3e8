"""Reference phrase bags for tests: the string path that ``newsciv.subtext``
ran before its integer phrase ids. Each text becomes a list of n-gram
strings, excluded phrases and rare phrases are filtered out of those lists,
and the topic model's vocabulary and token arrays are built from them with
``textproc_reference.build_vocabulary``. ``topic_terms`` ranked terms with
``sorted``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from newsciv.lda import LdaConfig
from newsciv.textproc import DEFAULT_STOPLIST, tokenize
from textproc_reference import Vocabulary, build_vocabulary, ngrams, remove_stopwords


def phrase_documents(
    texts: Iterable[str],
    config: LdaConfig,
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> list[list[str]]:
    """Tokenize texts, drop stop words, and expand into n-gram bags."""
    return [
        ngrams(remove_stopwords(tokenize(t), stoplist), config.n_min, config.n_max)
        for t in texts
    ]


def _prune_rare(documents: list[list[str]], min_df: int) -> list[list[str]]:
    if min_df <= 1:
        return documents
    df: Counter[str] = Counter()
    for doc in documents:
        df.update(set(doc))
    return [[p for p in doc if df[p] >= min_df] for doc in documents]


def modelled_documents(
    texts: Sequence[str],
    config: LdaConfig,
    exclude: Iterable[str] = (),
    min_phrase_df: int = 5,
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> list[list[str]]:
    """The documents ``extract_topic_phrases`` handed to ``fit_lda``."""
    excluded = {" ".join(tokenize(p)) for p in exclude}
    documents = phrase_documents(texts, config, stoplist)
    if excluded and any(documents):
        documents = [[p for p in doc if p not in excluded] for doc in documents]
        if not any(documents):
            raise ValueError("phrase exclusion removed every phrase in the corpus")
    documents = _prune_rare(documents, min_phrase_df)
    if not any(documents):
        raise ValueError(
            "no phrases left to model (documents empty after pruning "
            f"at min_df={min_phrase_df})"
        )
    return documents


def model_arrays(documents: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray, Vocabulary]:
    """``words``, ``docs`` and ``vocabulary`` as ``LdaModel`` built them
    from string documents."""
    vocabulary = build_vocabulary(documents, min_df=1)
    index = vocabulary.index
    lengths = np.array([len(doc) for doc in documents], dtype=np.int64)
    n_tokens = int(lengths.sum())
    words = np.fromiter(
        (index[t] for doc in documents for t in doc), dtype=np.int64, count=n_tokens
    )
    docs = np.repeat(np.arange(len(documents), dtype=np.int64), lengths)
    return words, docs, vocabulary


def ranked_terms(phi: np.ndarray, terms: list[str], t: int) -> list[tuple[str, float]]:
    """The top ``t`` (term, probability) pairs as ``topic_terms`` ranked
    them: by probability, descending, then by term."""
    ranked = sorted(zip(phi, terms), key=lambda pair: (-pair[0], pair[1]))
    return [(term, float(p)) for p, term in ranked[:t]]
