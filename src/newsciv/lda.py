"""Latent Dirichlet allocation by blocked Gibbs sampling over bags of
n-gram phrases, with deterministic top-term extraction.

The sampler is uncollapsed. Each sweep draws every topic's term
distribution phi ~ Dir(beta + term counts) and every document's topic
distribution theta ~ Dir(alpha + document counts), then redraws all token
topics at once from p(k) proportional to theta[d, k] * phi[w, k] and
recounts. The weights are formed once per sweep, in blocks of tokens, so
working memory stays small. It has the same model and the same posterior
over token topics as the collapsed sampler of Griffiths & Steyvers
(2004), but a sweep is a few numpy array operations rather than a Python
loop over tokens. One pseudorandom stream drives the initialization and the
sweeps, so a fixed seed reproduces the final state bit for bit.

The sampler reads its documents as :class:`Bags`: integer term ids with
the tuple of the terms in lexicographic order. ``subtext`` builds them
from integer phrase ids and spells out only the phrases it keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_field_types

# Tokens whose topic weights one sweep forms at a time.
_BLOCK = 16384


@dataclass(frozen=True)
class LdaConfig:
    n_topics: int = 5
    alpha: float = 0.1       # symmetric document-topic prior
    beta: float = 0.01       # symmetric topic-term prior
    iterations: int = 1000
    seed: int = 0
    n_min: int = 2           # n-gram range used when preparing documents
    n_max: int = 3

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_topics < 1:
            raise ValueError(f"n_topics must be >= 1, got {self.n_topics}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError(f"invalid n-gram range [{self.n_min}, {self.n_max}]")


@dataclass(frozen=True)
class TopicSummary:
    topic_id: int
    terms: tuple[tuple[str, float], ...]  # (phrase, probability), descending


@dataclass(frozen=True, eq=False)
class Bags:
    """Documents as term ids: token i is term ``words[i]`` of document
    ``docs[i]``, tokens in document order. Term id w is ``vocabulary[w]``,
    the terms in lexicographic order, so ids rank ties as the terms would,
    and ``n_docs`` counts every document, empty ones too."""

    words: np.ndarray
    docs: np.ndarray
    vocabulary: tuple[str, ...]
    n_docs: int


class LdaModel:
    """Sampler state: the tokens, their topics and the three count arrays.

    Token i is term ``words[i]`` of document ``docs[i]`` and has topic
    ``z[i]``; tokens are stored in document order. ``doc_topic[d, k]``
    counts tokens of document d assigned to topic k, ``term_topic[w, k]``
    counts tokens of term w assigned to topic k, and ``topic_totals[k]`` is the
    column sum of ``term_topic``. ``log_likelihoods`` holds log p(w | z)
    after each sweep. The state is mutated by :meth:`sweep` and should be
    treated as read-only once fitted.
    """

    def __init__(self, bags: Bags, config: LdaConfig) -> None:
        self.config = config
        self.vocabulary, self.n_docs = bags.vocabulary, bags.n_docs
        self.words, self.docs = bags.words, bags.docs
        self.n_tokens = len(self.words)
        if self.n_tokens == 0:
            raise ValueError("all documents are empty")
        n_docs, n_terms = self.n_docs, len(self.vocabulary)
        # beta * V + n_tokens is the largest argument log_likelihood gives
        # lgamma and about what a row of phi sums to; past a finite lgamma
        # of it, a run ends in a math range error or NaN traces.
        try:
            finite = math.isfinite(math.lgamma(config.beta * n_terms + self.n_tokens))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"beta {config.beta:g} is too large for {n_terms} terms")
        # The count arrays hold (documents + terms + 1) x n_topics integers.
        self._too_large = (f"n_topics {config.n_topics} is too large for {n_docs} documents "
                           f"and {n_terms} terms")
        if (n_docs + n_terms + 1) * config.n_topics > np.iinfo(np.intp).max:
            raise ValueError(self._too_large)
        # A token's topic weights sum to at most n_topics * (alpha + the
        # longest document's length), give or take the spread of the gamma
        # draws. Unless that bound stays finite with a factor of 2 to spare,
        # a sweep's running sums can overflow to inf.
        longest = int(np.bincount(self.docs).max())
        if not math.isfinite(2.0 * config.n_topics * (config.alpha + longest)):
            raise ValueError(f"alpha {config.alpha:g} is too large for {config.n_topics} topics")
        # log Gamma(n + beta) - log Gamma(beta) for every count a term can
        # reach. A table of math.lgamma keeps scipy.special, which takes
        # about 0.1 s to import, out of the start-up of every CLI command.
        lgamma_beta = math.lgamma(config.beta)
        self._lgamma_beta = np.array([
            math.lgamma(n + config.beta) - lgamma_beta
            for n in range(int(np.bincount(self.words).max()) + 1)
        ])
        # _recount's keys: topic k of document d counts at d * n_topics + k.
        self._doc_keys = self.docs * config.n_topics
        self._word_keys = self.words * config.n_topics
        self._rng = np.random.default_rng(config.seed)
        self.z = self._rng.integers(0, config.n_topics, size=self.n_tokens)
        self.log_likelihoods: list[float] = []
        try:
            self._recount()
        except MemoryError:  # more counts than the machine can hold
            raise ValueError(self._too_large) from None

    @property
    def n_topics(self) -> int:
        return self.config.n_topics

    def _recount(self) -> None:
        k = self.n_topics
        n_docs, n_terms = self.n_docs, len(self.vocabulary)
        self.doc_topic = np.bincount(self._doc_keys + self.z, minlength=n_docs * k).reshape(n_docs, k)
        self.term_topic = np.bincount(self._word_keys + self.z, minlength=n_terms * k).reshape(n_terms, k)
        self.topic_totals = np.bincount(self.z, minlength=k)

    def log_likelihood(self) -> float:
        """Collapsed log p(w | z) of the current token topics."""
        v_beta = self.config.beta * len(self.vocabulary)
        topics = sum(math.lgamma(n + v_beta) for n in self.topic_totals.tolist())
        return float(
            self._lgamma_beta.take(self.term_topic).sum()
            - topics + self.n_topics * math.lgamma(v_beta)
        )

    def sweep(self, n_sweeps: int = 1) -> None:
        """Draw theta and phi, then every token's topic, ``n_sweeps`` times."""
        try:
            self._sweeps(n_sweeps)
        except MemoryError:  # topic-sized buffers larger than the machine can hold
            raise ValueError(self._too_large) from None

    def _sweeps(self, n_sweeps: int) -> None:
        # A token's current topic has a count of at least 1 in both draws,
        # so its weights are not all zero. They are formed once per sweep,
        # _BLOCK tokens at a time: a tokens x topics matrix would dominate
        # peak memory.
        k, n = self.n_topics, self.n_tokens
        rng = self._rng
        block = min(_BLOCK, n)
        sums = np.empty((k, block))
        scratch = np.empty(block)
        for _ in range(n_sweeps):
            # Row j of phi is topic j's term distribution. A Dirichlet draw
            # is a normalized gamma draw; an all-zero row (every gamma
            # underflowed) stays zero and its topic is not chosen.
            phi = rng.standard_gamma(self.config.beta + self.term_topic.T)
            phi /= np.maximum(phi.sum(axis=1, keepdims=True), np.finfo(float).tiny)
            # theta stays unnormalized: a document's scale cancels in p(k).
            theta = rng.standard_gamma(self.config.alpha + self.doc_topic.T)
            # One call after theta, whatever the block size: the stream a
            # fixed seed reproduces.
            u = rng.random(n)
            z = np.empty(n, dtype=np.int64)
            for start in range(0, n, block):
                stop = min(start + block, n)
                docs, words = self.docs[start:stop], self.words[start:stop]
                cum, tmp = sums[:, :stop - start], scratch[:stop - start]
                # A token's running sums add its weights left to right, as
                # an all-token pass adds them, so every sum and the total
                # cum[k - 1] has that pass's bits.
                # Every index is in range, so mode="wrap" takes the same
                # elements as "raise" without buffering out.
                for j in range(k):
                    theta[j].take(docs, out=cum[j], mode="wrap")
                    cum[j] *= phi[j].take(words, out=tmp, mode="wrap")
                    if j:
                        cum[j] += cum[j - 1]
                target = np.multiply(u[start:stop], cum[k - 1], out=tmp)
                # The topic is the first j whose cumulative weight exceeds
                # the target, or the last topic: cum is nondecreasing in j,
                # so that is the number of j < k - 1 with cum <= target.
                np.sum(cum[:k - 1] <= target, axis=0, out=z[start:stop])
            self.z = z
            self._recount()
            self.log_likelihoods.append(self.log_likelihood())

    def topic_distribution(self, topic: int) -> np.ndarray:
        """Smoothed term distribution of one topic (sums to 1)."""
        if not 0 <= topic < self.n_topics:
            raise ValueError(f"topic {topic} out of range [0, {self.n_topics})")
        beta = self.config.beta
        counts = self.term_topic[:, topic]
        return (counts + beta) / (self.topic_totals[topic] + beta * len(self.vocabulary))


def fit_lda(bags: Bags, config: LdaConfig | None = None) -> LdaModel:
    """Run blocked Gibbs sampling and return the final-state point estimate."""
    if config is None:
        config = LdaConfig()
    model = LdaModel(bags, config)
    model.sweep(config.iterations)
    return model


def topic_terms(model: LdaModel, topic: int, t: int = 5) -> TopicSummary:
    """Top ``t`` terms of a topic by smoothed probability.

    Equal probabilities break ties lexicographically (term ids are in
    lexicographic order), so output is fully deterministic. Asking for more
    terms than the vocabulary holds returns all of them.
    """
    phi = model.topic_distribution(topic)
    top = np.argsort(-phi, kind="stable")[:t].tolist()
    return TopicSummary(
        topic_id=topic,
        terms=tuple((model.vocabulary[w], float(phi[w])) for w in top),
    )


def topics_by_size(model: LdaModel) -> list[int]:
    """Topic ids ordered by total assigned tokens, largest first."""
    totals = model.topic_totals
    return sorted(range(model.n_topics), key=lambda k: (-totals[k], k))
