from __future__ import annotations

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from newsciv import lda
from newsciv.lda import LdaConfig, LdaModel, fit_lda, topic_terms, topics_by_size

import subtext_reference
from lda_reference import bags_of, collapsed_sweeps, per_topic_sweeps

UNIGRAM = dict(n_min=1, n_max=1)


def two_block_corpus(rng: random.Random, n_docs=40, doc_len=20, block_size=8):
    """Documents drawing from one of two disjoint vocabularies."""
    block_a = [f"a{i}" for i in range(block_size)]
    block_b = [f"b{i}" for i in range(block_size)]
    docs = []
    for i in range(n_docs):
        pool = block_a if i % 2 == 0 else block_b
        docs.append([rng.choice(pool) for _ in range(doc_len)])
    return docs, block_a, block_b


def check_conservation(model: LdaModel, doc_lengths: list[int]) -> None:
    assert model.doc_topic.sum(axis=1).tolist() == doc_lengths
    assert (model.term_topic.sum(axis=0) == model.topic_totals).all()
    assert model.doc_topic.min() >= 0
    assert model.term_topic.min() >= 0
    assert model.topic_totals.sum() == model.n_tokens


# String terms, some repeated, some non-ASCII, some empty or spaced.
TERMS = st.sampled_from(["a", "b", "a b", "B", "é", "e\u0301", "Σ", "ς", "z z", ""]) \
    | st.text(max_size=3)


class TestBagsOf:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(TERMS, max_size=6), min_size=1, max_size=8))
    def test_matches_the_string_vocabulary(self, docs):
        """``bags_of`` builds the arrays and vocabulary that
        ``build_vocabulary`` gave, doc_freq order included."""
        bags = bags_of(docs)
        words, doc_ids, vocabulary = subtext_reference.model_arrays(docs)
        assert bags.words.dtype == words.dtype and bags.words.tolist() == words.tolist()
        assert bags.docs.dtype == doc_ids.dtype and bags.docs.tolist() == doc_ids.tolist()
        assert list(bags.vocabulary.index.items()) == list(vocabulary.index.items())
        assert list(bags.vocabulary.doc_freq.items()) == list(vocabulary.doc_freq.items())
        assert bags.vocabulary.n_docs == vocabulary.n_docs == len(docs)

    def test_zero_documents(self):
        with pytest.raises(ValueError, match="zero documents"):
            bags_of([])


class TestFit:
    def test_single_topic_degenerate_case(self):
        docs = [["x", "y", "x"], ["y", "z"]]
        model = fit_lda(bags_of(docs), LdaConfig(n_topics=1, iterations=3, seed=0, **UNIGRAM))
        assert (model.z == 0).all()
        counts = Counter(t for d in docs for t in d)
        for term, count in counts.items():
            assert model.term_topic[model.vocabulary.index[term], 0] == count

    def test_count_conservation_after_every_sweep(self):
        rng = random.Random(5)
        docs = [[rng.choice("abcdefgh") for _ in range(rng.randint(1, 15))] for _ in range(25)]
        lengths = [len(d) for d in docs]
        model = LdaModel(bags_of(docs), LdaConfig(n_topics=4, iterations=1, seed=1, **UNIGRAM))
        check_conservation(model, lengths)
        for _ in range(20):
            model.sweep()
            check_conservation(model, lengths)

    def test_fixed_seed_reproduces_assignments_bitwise(self):
        rng = random.Random(6)
        docs = [[rng.choice("abcdef") for _ in range(10)] for _ in range(15)]
        cfg = LdaConfig(n_topics=3, iterations=30, seed=42, **UNIGRAM)
        m1, m2 = fit_lda(bags_of(docs), cfg), fit_lda(bags_of(docs), cfg)
        assert (m1.z == m2.z).all()
        assert (m1.doc_topic == m2.doc_topic).all()
        assert (m1.term_topic == m2.term_topic).all()

    def test_two_block_corpus_separates(self):
        docs, block_a, _ = two_block_corpus(random.Random(1))
        model = fit_lda(bags_of(docs), LdaConfig(n_topics=2, iterations=200, seed=3, **UNIGRAM))
        idx_a = [model.vocabulary.index[w] for w in block_a]
        for k in range(2):
            mass_a = model.term_topic[idx_a, k].sum() / model.topic_totals[k]
            assert mass_a >= 0.9 or mass_a <= 0.1

    def test_empty_documents_error(self):
        with pytest.raises(ValueError):
            fit_lda(bags_of([[], []]), LdaConfig(n_topics=2, iterations=1, **UNIGRAM))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LdaConfig(n_topics=0)
        with pytest.raises(ValueError):
            LdaConfig(iterations=0)
        with pytest.raises(ValueError):
            LdaConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LdaConfig(beta=-1.0)
        with pytest.raises(ValueError):
            LdaConfig(n_min=3, n_max=2)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            LdaConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("n_topics", 2.5), ("n_topics", True), ("n_topics", "five"),
        ("iterations", 2.5), ("iterations", None), ("seed", 1.0), ("seed", False),
        ("n_min", "1"), ("n_max", True), ("alpha", "0.1"), ("alpha", True),
        ("beta", None), ("alpha", float("nan")), ("beta", float("inf")),
    ])
    def test_config_rejects_wrong_types(self, field, value):
        with pytest.raises(ValueError, match=field):
            LdaConfig(**{field: value})

    def test_config_accepts_numpy_scalars(self):
        cfg = LdaConfig(n_topics=np.int64(3), alpha=np.float32(0.5), seed=np.uint8(4))
        assert cfg.n_topics == 3

    def test_document_counts_follow_token_topics(self):
        """An empty document keeps its row of ``doc_topic``, the last one
        too, and each row counts the topics of that document's tokens."""
        docs = [["a", "b", "a"], [], ["c"], ["b", "c"], []]
        model = fit_lda(bags_of(docs), LdaConfig(n_topics=3, iterations=4, seed=2, **UNIGRAM))
        assert model.docs.tolist() == [0, 0, 0, 2, 3, 3]
        assert model.doc_topic.shape == (5, 3)
        for d in range(len(docs)):
            zs = model.z[model.docs == d]
            assert np.bincount(zs, minlength=3).tolist() == model.doc_topic[d].tolist()


def dense_log_likelihood(model: LdaModel) -> float:
    """log p(w | z) by the textbook formula, over every (term, topic) cell."""
    beta = model.config.beta
    v = len(model.vocabulary)
    per_topic = (
        gammaln(v * beta) - v * gammaln(beta)
        + gammaln(model.term_topic + beta).sum(axis=0)
        - gammaln(model.topic_totals + v * beta)
    )
    return float(per_topic.sum())


class TestLogLikelihood:
    def test_one_entry_per_sweep(self):
        rng = random.Random(4)
        docs = [[rng.choice("abcdef") for _ in range(9)] for _ in range(10)]
        model = fit_lda(bags_of(docs), LdaConfig(n_topics=3, iterations=7, seed=0, **UNIGRAM))
        assert len(model.log_likelihoods) == 7
        model.sweep()
        assert len(model.log_likelihoods) == 8

    def test_matches_dense_formula(self):
        rng = random.Random(12)
        docs = [[rng.choice("abcdefghij") for _ in range(15)] for _ in range(20)]
        model = LdaModel(bags_of(docs), LdaConfig(n_topics=4, iterations=1, seed=6, **UNIGRAM))
        assert model.log_likelihood() == pytest.approx(dense_log_likelihood(model), rel=1e-12)
        for _ in range(5):
            model.sweep()
            assert model.log_likelihoods[-1] == pytest.approx(
                dense_log_likelihood(model), rel=1e-12
            )

    def test_rises_on_two_block_corpus(self):
        docs, _, _ = two_block_corpus(random.Random(1))
        config = LdaConfig(n_topics=2, iterations=50, seed=3, **UNIGRAM)
        trace = fit_lda(bags_of(docs), config).log_likelihoods
        assert len(trace) == 50
        assert max(trace[:5]) < min(trace[-5:])


# Block sizes for the blocked weights, as functions of the token count n.
BLOCKS = {
    "1": lambda n: 1,
    "7": lambda n: 7,
    "n - 1": lambda n: max(n - 1, 1),
    "n": lambda n: n,
    "n + 1": lambda n: n + 1,
}


class TestBlockedWeights:
    """The sampler forms its topic weights in token blocks. It must give the
    bits of the per-topic sampler it replaced, which draws the same stream
    and forms each weight over all tokens at once."""

    @staticmethod
    def assert_same_chain(bags, config, n_sweeps):
        model, oracle = LdaModel(bags, config), LdaModel(bags, config)
        model.sweep(n_sweeps)
        per_topic_sweeps(oracle, n_sweeps)
        assert np.array_equal(model.z, oracle.z)
        assert model.log_likelihoods == oracle.log_likelihoods

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        docs=st.lists(st.lists(st.sampled_from("abcdefg"), max_size=12), min_size=1, max_size=8)
        .filter(lambda docs: any(docs)),
        n_topics=st.sampled_from([1, 2, 3, 5, 8]),
        # 1e-300 lets the gamma draws of an empty topic or document underflow
        # to zero, so weights are zero and running sums tie.
        alpha=st.sampled_from([0.1, 1e-300]),
        beta=st.sampled_from([0.01, 1e-300]),
        seed=st.integers(0, 2**32 - 1),
        n_sweeps=st.integers(1, 30),
        block=st.sampled_from(sorted(BLOCKS)),
    )
    def test_matches_per_topic_sampler(self, docs, n_topics, alpha, beta, seed, n_sweeps, block):
        bags = bags_of(docs)
        config = LdaConfig(n_topics=n_topics, alpha=alpha, beta=beta, seed=seed, **UNIGRAM)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lda, "_BLOCK", BLOCKS[block](len(bags.words)))
            self.assert_same_chain(bags, config, n_sweeps)

    def test_a_zero_uniform_takes_the_first_topic_with_weight(self):
        """A uniform of 0 makes the target 0, and ``cum <= target`` then
        holds for exactly the topics before the first with nonzero weight.
        With priors of 1e-300 the gamma draws of unused counts underflow to
        zero, so that is the first topic the token's document and term both
        use."""

        class ZeroUniforms:
            def __init__(self, rng):
                self.standard_gamma = rng.standard_gamma

            def random(self, size):
                return np.zeros(size)

        rng = random.Random(8)
        docs = [[rng.choice("abcdef") for _ in range(rng.randint(1, 9))] for _ in range(12)]
        model = LdaModel(bags_of(docs), LdaConfig(n_topics=4, alpha=1e-300, beta=1e-300, seed=2,
                                         **UNIGRAM))
        used = (model.doc_topic[model.docs] > 0) & (model.term_topic[model.words] > 0)
        expected = used.argmax(axis=1)
        assert expected.any()
        model._rng = ZeroUniforms(model._rng)
        model.sweep()
        assert np.array_equal(model.z, expected)

    def test_matches_per_topic_sampler_across_default_blocks(self):
        """Several full blocks of the default size and a partial last one."""
        rng = random.Random(3)
        docs = [[rng.choice("abcdefghijklmnop") for _ in range(rng.randint(0, 40))]
                for _ in range(2000)]
        bags = bags_of(docs)
        assert len(bags.words) > 2 * lda._BLOCK and len(bags.words) % lda._BLOCK
        self.assert_same_chain(bags, LdaConfig(n_topics=5, seed=7, **UNIGRAM), 3)


# Two documents, five tokens and two topics: 2**5 assignments, few enough to
# enumerate p(z | w) exactly.
POSTERIOR_DOCS = [["a", "a", "b"], ["b", "c"]]
POSTERIOR_CONFIG = dict(n_topics=2, alpha=0.5, beta=0.2, iterations=1, **UNIGRAM)
POSTERIOR_CHAINS = 1000
POSTERIOR_SWEEPS = 10


def exact_posterior(model: LdaModel) -> dict[tuple[int, ...], float]:
    """p(z | w) for every assignment z of the model's tokens, by enumeration."""
    k, alpha, beta = model.n_topics, model.config.alpha, model.config.beta
    v, n_docs = len(model.vocabulary), int(model.docs.max()) + 1
    states = list(itertools.product(range(k), repeat=model.n_tokens))
    log_joint = []
    for state in states:
        z = np.array(state)
        doc_topic = np.bincount(model.docs * k + z, minlength=n_docs * k)
        term_topic = np.bincount(model.words * k + z, minlength=v * k).reshape(v, k)
        log_joint.append(
            gammaln(doc_topic + alpha).sum() + gammaln(term_topic + beta).sum()
            - gammaln(term_topic.sum(axis=0) + v * beta).sum()
        )
    p = np.exp(np.array(log_joint) - max(log_joint))
    return dict(zip(states, p / p.sum()))


class TestPosterior:
    @pytest.mark.parametrize("sampler", ["blocked", "collapsed"])
    def test_final_states_follow_exact_posterior(self, sampler):
        bags = bags_of(POSTERIOR_DOCS)
        exact = exact_posterior(LdaModel(bags, LdaConfig(**POSTERIOR_CONFIG)))
        n = POSTERIOR_CHAINS
        # The tolerance comes from the Monte Carlo error alone. For n
        # independent exact draws, E[TV] <= 0.5 * sum_s sqrt(p_s (1 - p_s) / n)
        # by Jensen's inequality. Twice that bound covers the spread of TV
        # (about a tenth of the bound here) and the chains' finite length.
        # A sampler with a wrong conditional sits at TV 0.2 to 0.4 here.
        p = np.array(list(exact.values()))
        tolerance = 2 * 0.5 * np.sqrt(p * (1 - p) / n).sum()

        finals: Counter[tuple[int, ...]] = Counter()
        for seed in range(n):
            config = LdaConfig(**{**POSTERIOR_CONFIG, "seed": seed})
            model = LdaModel(bags, config)
            if sampler == "blocked":
                model.sweep(POSTERIOR_SWEEPS)
            else:
                collapsed_sweeps(model, POSTERIOR_SWEEPS)
            finals[tuple(model.z.tolist())] += 1
        tv = 0.5 * sum(abs(finals[s] / n - ps) for s, ps in exact.items())
        assert tv <= tolerance


class TestTopicTerms:
    def test_top_term_follows_counts(self):
        docs = [["a", "a", "a", "b"]]
        model = fit_lda(bags_of(docs), LdaConfig(n_topics=1, iterations=2, beta=1e-6, **UNIGRAM))
        summary = topic_terms(model, 0, t=1)
        assert summary.terms[0][0] == "a"

    def test_truncates_to_vocabulary(self):
        model = fit_lda(bags_of([["a", "b"]]), LdaConfig(n_topics=1, iterations=1, **UNIGRAM))
        assert len(topic_terms(model, 0, t=10).terms) == 2

    def test_distribution_sums_to_one(self):
        rng = random.Random(9)
        docs = [[rng.choice("abcdefghij") for _ in range(12)] for _ in range(20)]
        model = fit_lda(bags_of(docs), LdaConfig(n_topics=4, iterations=10, seed=2, **UNIGRAM))
        for k in range(4):
            phi = model.topic_distribution(k)
            assert phi.sum() == pytest.approx(1.0, abs=1e-9)
            assert (phi > 0).all()

    def test_lexicographic_tie_break(self):
        # All terms occur once in a single-topic model: equal probabilities.
        model = fit_lda(bags_of([["d", "c", "b", "a"]]),
                        LdaConfig(n_topics=1, iterations=1, **UNIGRAM))
        summary = topic_terms(model, 0, t=4)
        assert [term for term, _ in summary.terms] == ["a", "b", "c", "d"]

    def test_probabilities_descending(self):
        rng = random.Random(11)
        docs = [[rng.choice("abcde") for _ in range(10)] for _ in range(10)]
        model = fit_lda(bags_of(docs), LdaConfig(n_topics=2, iterations=5, seed=0, **UNIGRAM))
        for k in range(2):
            probs = [p for _, p in topic_terms(model, k, t=5).terms]
            assert probs == sorted(probs, reverse=True)

    def test_topic_out_of_range(self):
        model = fit_lda(bags_of([["a"]]), LdaConfig(n_topics=1, iterations=1, **UNIGRAM))
        with pytest.raises(ValueError):
            topic_terms(model, 1)
        with pytest.raises(ValueError):
            topic_terms(model, -1)


class TestTopicUtilities:
    def test_topics_by_size_ordering(self):
        rng = random.Random(3)
        docs = [[rng.choice("abcdef") for _ in range(8)] for _ in range(12)]
        model = fit_lda(bags_of(docs), LdaConfig(n_topics=3, iterations=5, seed=1, **UNIGRAM))
        order = topics_by_size(model)
        totals = [model.topic_totals[k] for k in order]
        assert totals == sorted(totals, reverse=True)
        assert sorted(order) == [0, 1, 2]
