"""Reference LDA samplers for tests, and the :class:`Bags` of string
documents.

``bags_of`` numbers the terms of documents given as lists of strings in
lexicographic order, as ``subtext`` numbers the phrases it keeps, so tests
can fit small hand-written corpora.

``collapsed_sweeps`` is the per-token collapsed Gibbs loop of Griffiths &
Steyvers (2004) that ``newsciv.lda`` ran before its blocked sampler. It
resamples every token's topic from leave-one-out counts, in document and
token order, drawing one batch of uniforms per sweep from the model's
stream.

``per_topic_sweeps`` is the blocked sampler as it stood before its topic
weights were formed in token blocks: every weight is gathered once for the
total and again for the running sums, each over all tokens at once. It
draws the same stream, so it must give the same bits.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from newsciv.lda import Bags, LdaModel
from newsciv.textproc import Vocabulary


def bags_of(documents: Sequence[Sequence[str]]) -> Bags:
    """The :class:`Bags` of documents given as lists of string terms."""
    if len(documents) == 0:
        raise ValueError("cannot fit LDA on zero documents")
    df = Counter(term for doc in documents for term in set(doc))
    terms = sorted(df)
    index = {term: i for i, term in enumerate(terms)}
    vocabulary = Vocabulary(index=index, doc_freq={term: df[term] for term in terms},
                            n_docs=len(documents))
    lengths = np.array([len(doc) for doc in documents], dtype=np.int64)
    words = np.fromiter(
        (index[t] for doc in documents for t in doc), dtype=np.int64, count=int(lengths.sum())
    )
    docs = np.repeat(np.arange(len(documents), dtype=np.int64), lengths)
    return Bags(words=words, docs=docs, vocabulary=vocabulary)


def collapsed_sweeps(model: LdaModel, n_sweeps: int) -> None:
    """Run ``n_sweeps`` collapsed sweeps on ``model``'s state in place,
    appending to ``model.log_likelihoods`` after each sweep like
    :meth:`LdaModel.sweep` does."""
    k = model.n_topics
    alpha = model.config.alpha
    beta = model.config.beta
    v_beta = beta * len(model.vocabulary)
    last = k - 1
    topic_range = range(k)

    doc_topic = model.doc_topic.tolist()
    term_topic = model.term_topic.tolist()
    totals = model.topic_totals.tolist()
    denom = [t + v_beta for t in totals]
    tokens = list(zip(model.docs.tolist(), model.words.tolist()))
    zs = model.z.tolist()
    cum = [0.0] * k

    for _ in range(n_sweeps):
        uniforms = model._rng.random(model.n_tokens).tolist()
        for i, (d, w) in enumerate(tokens):
            z = zs[i]
            dt = doc_topic[d]
            tt = term_topic[w]
            dt[z] -= 1
            tt[z] -= 1
            totals[z] -= 1
            denom[z] -= 1.0

            total = 0.0
            for j in topic_range:
                total += (dt[j] + alpha) * (tt[j] + beta) / denom[j]
                cum[j] = total
            target = uniforms[i] * total
            z = 0
            while z < last and cum[z] <= target:
                z += 1

            zs[i] = z
            dt[z] += 1
            tt[z] += 1
            totals[z] += 1
            denom[z] += 1.0

        model.z = np.array(zs, dtype=np.int64)
        model._recount()
        model.log_likelihoods.append(model.log_likelihood())


def per_topic_sweeps(model: LdaModel, n_sweeps: int) -> None:
    """Run ``n_sweeps`` blocked sweeps on ``model``'s state in place, one
    topic weight over all tokens at a time, appending to
    ``model.log_likelihoods`` after each sweep."""
    # A token's current topic has a count of at least 1 in both draws,
    # so its weights are not all zero. They are accumulated one topic
    # at a time: a tokens x topics matrix would dominate peak memory.
    k = model.n_topics
    rng = model._rng
    for _ in range(n_sweeps):
        # Row j of phi is topic j's term distribution. A Dirichlet draw
        # is a normalized gamma draw; an all-zero row (every gamma
        # underflowed) stays zero and its topic is not chosen.
        phi = rng.standard_gamma(model.config.beta + model.term_topic.T)
        phi /= np.maximum(phi.sum(axis=1, keepdims=True), np.finfo(float).tiny)
        # theta stays unnormalized: a document's scale cancels in p(k).
        theta = rng.standard_gamma(model.config.alpha + model.doc_topic.T)

        def weight(j: int) -> np.ndarray:
            return theta[j].take(model.docs) * phi[j].take(model.words)

        total = weight(0)
        for j in range(1, k):
            total += weight(j)
        target = rng.random(model.n_tokens) * total
        # The topic is the first j whose cumulative weight exceeds the
        # target, or the last topic: cum is nondecreasing in j, so that
        # is the number of j < k - 1 with cum <= target.
        z = np.zeros(model.n_tokens, dtype=np.int64)
        cum = np.zeros(model.n_tokens)
        for j in range(k - 1):
            cum += weight(j)
            z += cum <= target
        model.z = z
        model._recount()
        model.log_likelihoods.append(model.log_likelihood())
