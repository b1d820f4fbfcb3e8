"""Latent Dirichlet allocation by blocked Gibbs sampling over bags of
n-gram phrases, with deterministic top-term extraction.

The sampler is uncollapsed. Each sweep draws every topic's term
distribution phi ~ Dir(beta + term counts) and every document's topic
distribution theta ~ Dir(alpha + document counts), then redraws all token
topics at once from p(k) proportional to theta[d, k] * phi[w, k] and
recounts. It has the same model and the same posterior over topic
assignments as the collapsed sampler of Griffiths & Steyvers (2004), but a
sweep is a few numpy array operations rather than a Python loop over
tokens. One pseudorandom stream drives the initialization and the sweeps,
so a fixed seed reproduces the final state bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import check_field_types
from .textproc import Vocabulary, build_vocabulary


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
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError(f"invalid n-gram range [{self.n_min}, {self.n_max}]")


@dataclass(frozen=True)
class TopicSummary:
    topic_id: int
    terms: tuple[tuple[str, float], ...]  # (phrase, probability), descending


class LdaModel:
    """Sampler state: the tokens, their topics and the three count arrays.

    Token i is term ``words[i]`` of document ``docs[i]`` and has topic
    ``z[i]``; tokens are stored in document order. ``doc_topic[d, k]``
    counts tokens of document d assigned to topic k, ``term_topic[w, k]``
    counts assignments of term w to topic k, and ``topic_totals[k]`` is the
    column sum of ``term_topic``. ``log_likelihoods`` holds log p(w | z)
    after each sweep. The state is mutated by :meth:`sweep` and should be
    treated as read-only once fitted.
    """

    def __init__(
        self,
        documents: Sequence[Sequence[str]],
        config: LdaConfig,
    ) -> None:
        if len(documents) == 0:
            raise ValueError("cannot fit LDA on zero documents")
        self.config = config
        self.vocabulary: Vocabulary = build_vocabulary(documents, min_df=1)
        index = self.vocabulary.index
        lengths = np.array([len(doc) for doc in documents], dtype=np.int64)
        self.n_tokens = int(lengths.sum())
        if self.n_tokens == 0:
            raise ValueError("all documents are empty")
        self.words = np.fromiter(
            (index[t] for doc in documents for t in doc), dtype=np.int64, count=self.n_tokens
        )
        self.docs = np.repeat(np.arange(len(documents), dtype=np.int64), lengths)
        self._doc_ends = np.cumsum(lengths)[:-1]
        # beta * V + n_tokens is the largest argument log_likelihood gives
        # lgamma and about what a row of phi sums to; past a finite lgamma
        # of it, a run ends in a math range error or NaN traces.
        try:
            finite = math.isfinite(math.lgamma(config.beta * len(index) + self.n_tokens))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"beta {config.beta:g} is too large for {len(index)} terms")
        # log Gamma(n + beta) - log Gamma(beta) for every count a term can
        # reach. A table of math.lgamma keeps scipy.special, which takes
        # about 0.1 s to import, out of the start-up of every CLI command.
        lgamma_beta = math.lgamma(config.beta)
        self._lgamma_beta = np.array([
            math.lgamma(n + config.beta) - lgamma_beta
            for n in range(int(np.bincount(self.words).max()) + 1)
        ])
        self._rng = np.random.default_rng(config.seed)
        self.z = self._rng.integers(0, config.n_topics, size=self.n_tokens)
        self.log_likelihoods: list[float] = []
        self._recount()

    @property
    def n_topics(self) -> int:
        return self.config.n_topics

    @property
    def assignments(self) -> list[np.ndarray]:
        """Topic of every token, one array per document."""
        return np.split(self.z, self._doc_ends)

    def _recount(self) -> None:
        k = self.n_topics
        n_docs, n_terms = len(self._doc_ends) + 1, len(self.vocabulary)
        self.doc_topic = np.bincount(self.docs * k + self.z, minlength=n_docs * k).reshape(n_docs, k)
        self.term_topic = np.bincount(self.words * k + self.z, minlength=n_terms * k).reshape(n_terms, k)
        self.topic_totals = np.bincount(self.z, minlength=k)

    def log_likelihood(self) -> float:
        """Collapsed log p(w | z) of the current assignments."""
        v_beta = self.config.beta * len(self.vocabulary)
        topics = sum(math.lgamma(n + v_beta) for n in self.topic_totals.tolist())
        return float(
            self._lgamma_beta.take(self.term_topic).sum()
            - topics + self.n_topics * math.lgamma(v_beta)
        )

    def sweep(self) -> None:
        """Draw theta and phi, then every token's topic, once."""
        self._run_sweeps(1)

    def _run_sweeps(self, n_sweeps: int) -> None:
        # A token's current topic has a count of at least 1 in both draws,
        # so its weights are not all zero. They are accumulated one topic
        # at a time: a tokens x topics matrix would dominate peak memory.
        k = self.n_topics
        rng = self._rng
        for _ in range(n_sweeps):
            # Row j of phi is topic j's term distribution. A Dirichlet draw
            # is a normalized gamma draw; an all-zero row (every gamma
            # underflowed) stays zero and its topic is not chosen.
            phi = rng.standard_gamma(self.config.beta + self.term_topic.T)
            phi /= np.maximum(phi.sum(axis=1, keepdims=True), np.finfo(float).tiny)
            # theta stays unnormalized: a document's scale cancels in p(k).
            theta = rng.standard_gamma(self.config.alpha + self.doc_topic.T)

            def weight(j: int) -> np.ndarray:
                return theta[j].take(self.docs) * phi[j].take(self.words)

            total = weight(0)
            for j in range(1, k):
                total += weight(j)
            target = rng.random(self.n_tokens) * total
            # The topic is the first j whose cumulative weight exceeds the
            # target, or the last topic: cum is nondecreasing in j, so that
            # is the number of j < k - 1 with cum <= target.
            z = np.zeros(self.n_tokens, dtype=np.int64)
            cum = np.zeros(self.n_tokens)
            for j in range(k - 1):
                cum += weight(j)
                z += cum <= target
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


def fit_lda(documents: Sequence[Sequence[str]], config: LdaConfig | None = None) -> LdaModel:
    """Run blocked Gibbs sampling and return the final-state point estimate."""
    if config is None:
        config = LdaConfig()
    model = LdaModel(documents, config)
    model._run_sweeps(config.iterations)
    return model


def topic_terms(model: LdaModel, topic: int, t: int = 5) -> TopicSummary:
    """Top ``t`` terms of a topic by smoothed probability.

    Equal probabilities break ties lexicographically, so output is fully
    deterministic. Asking for more terms than the vocabulary holds returns
    all of them.
    """
    phi = model.topic_distribution(topic)
    terms = model.vocabulary.terms
    ranked = sorted(zip(phi, terms), key=lambda pair: (-pair[0], pair[1]))
    return TopicSummary(
        topic_id=topic,
        terms=tuple((term, float(p)) for p, term in ranked[:t]),
    )


def topics_by_size(model: LdaModel) -> list[int]:
    """Topic ids ordered by total assigned tokens, largest first."""
    totals = model.topic_totals
    return sorted(range(model.n_topics), key=lambda k: (-totals[k], k))
