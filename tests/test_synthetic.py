from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic_reference
from newsciv.synthetic import (
    CHATTER_WORDS,
    CONTENT_WORDS,
    UNCIVIL_TOKENS,
    SyntheticConfig,
    _uniform_below,
    generate_corpus,
)

SMALL = SyntheticConfig(n_articles=30, comments_per_article=5, n_annotated=40, seed=11)


class TestConfig:
    def test_rejects_bad_rates_and_sizes(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_articles=-1)
        with pytest.raises(ValueError):
            SyntheticConfig(uncivil_rate_tame=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(marker_bigram="single")
        with pytest.raises(ValueError):
            SyntheticConfig(sources=())

    def test_planted_words_disjoint_from_base_vocab(self):
        cfg = SyntheticConfig()
        base = set(CONTENT_WORDS) | set(CHATTER_WORDS) | set(UNCIVIL_TOKENS)
        assert not (set(cfg.marker_bigram.split()) & base)
        assert not (set(cfg.subtext_phrase.split()) & base)

    @pytest.mark.parametrize("field, phrase, what", [
        ("subtext_phrase", "crimson ledger", "the generated words or marker_bigram"),
        ("subtext_phrase", "ledger kite", "the generated words or marker_bigram"),
        ("subtext_phrase", "Council budget", "the generated words or marker_bigram"),
        ("subtext_phrase", "granite folks", "the generated words or marker_bigram"),
        ("subtext_phrase", "nitwit, kite", "the generated words or marker_bigram"),
        ("marker_bigram", "harbor glass", "the generated words"),
        ("marker_bigram", "glass DOLT", "the generated words"),
    ])
    def test_rejects_planted_phrase_sharing_a_token(self, field, phrase, what):
        with pytest.raises(ValueError) as info:
            SyntheticConfig(**{field: phrase})
        assert str(info.value) == f"{field} must share no token with {what}, got {phrase!r}"

    def test_accepts_planted_phrases_of_new_tokens(self):
        cfg = SyntheticConfig(marker_bigram="amber kite", subtext_phrase="velvet Quarry")
        articles, comments, _ = generate_corpus(dataclasses.replace(
            cfg, n_articles=10, comments_per_article=4, n_annotated=0, subtext_rate=1.0))
        assert not any("velvet" in a.body.split() for a in articles)
        assert all("velvet Quarry" in c.text for c in comments)


class TestDraws:
    """The generator draws through ``getrandbits`` as CPython's ``Random``
    does, and so builds what the ``choice``/``randint`` generator built."""

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
    def test_below_draws_as_randbelow_choice_and_randint(self, seed):
        ns = list(range(1, 301)) * 3
        rng, reference = random.Random(seed), random.Random(seed)
        below = _uniform_below(rng)
        assert [below(n) for n in ns] == [reference._randbelow(n) for n in ns]
        seqs = [tuple(range(n)) for n in ns]
        assert [seq[below(len(seq))] for seq in seqs] == [reference.choice(seq) for seq in seqs]
        ends = [(-n // 2, n - 1 - n // 2) for n in ns]
        assert ([a + below(b - a + 1) for a, b in ends]
                == [reference.randint(a, b) for a, b in ends])
        assert rng.getstate() == reference.getstate()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**70),
        n_articles=st.integers(0, 7),
        comments_per_article=st.integers(0, 5),
        n_annotated=st.integers(0, 6),
        n_annotators=st.integers(1, 5),
        rates=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                       min_size=4, max_size=4),
        sources=st.lists(st.text(max_size=3), min_size=1, max_size=4),
    )
    def test_generate_corpus_matches_reference(self, seed, n_articles, comments_per_article,
                                               n_annotated, n_annotators, rates, sources):
        provoking, uncivil_provoking, uncivil_tame, subtext = rates
        cfg = SyntheticConfig(
            n_articles=n_articles, comments_per_article=comments_per_article,
            n_annotated=n_annotated, n_annotators=n_annotators,
            provoking_fraction=provoking, uncivil_rate_provoking=uncivil_provoking,
            uncivil_rate_tame=uncivil_tame, subtext_rate=subtext,
            sources=tuple(sources), seed=seed,
        )
        assert generate_corpus(cfg) == synthetic_reference.generate_corpus(cfg)


class TestGeneratedCorpus:
    def test_requested_counts(self):
        articles, comments, annotated = generate_corpus(SMALL)
        assert len(articles) == 30
        assert len(comments) == 30 * 5
        assert len(annotated) == 40
        assert len({a.id for a in articles}) == 30
        assert len({c.id for c in comments}) == 150

    def test_marker_only_in_provoking_articles(self):
        articles, _, _ = generate_corpus(SMALL)
        marker = SMALL.marker_bigram
        with_marker = [a for a in articles if marker in a.body]
        without = [a for a in articles if marker not in a.body]
        assert len(with_marker) == round(30 * SMALL.provoking_fraction)
        for a in without:
            for word in marker.split():
                assert word not in a.body.split()

    def test_subtext_phrase_absent_from_every_article(self):
        articles, comments, _ = generate_corpus(SMALL)
        for word in SMALL.subtext_phrase.split():
            for a in articles:
                assert word not in a.body.split()
                assert word not in a.title.split()
        assert any(SMALL.subtext_phrase in c.text for c in comments)

    def test_uncivil_rate_elevated_on_provoking_articles(self):
        cfg = SyntheticConfig(n_articles=60, comments_per_article=20, n_annotated=1, seed=5)
        articles, comments, _ = generate_corpus(cfg)
        uncivil_words = set(UNCIVIL_TOKENS)
        provoking_ids = {a.id for a in articles if cfg.marker_bigram in a.body}

        def uncivil_share(ids):
            selected = [c for c in comments if c.article_id in ids]
            flagged = sum(1 for c in selected if set(c.text.split()) & uncivil_words)
            return flagged / len(selected)

        tame_ids = {a.id for a in articles} - provoking_ids
        assert uncivil_share(provoking_ids) > uncivil_share(tame_ids) + 0.3

    def test_annotations_in_range_with_configured_annotators(self):
        _, _, annotated = generate_corpus(SMALL)
        for ac in annotated:
            assert len(ac.toxicity_ratings) == SMALL.n_annotators
            assert len(ac.aggression_ratings) == SMALL.n_annotators
            assert len(ac.attack_flags) == SMALL.n_annotators
            assert all(1 <= r <= 5 for r in ac.toxicity_ratings)
            assert all(1 <= r <= 5 for r in ac.aggression_ratings)

    def test_same_seed_reproduces_everything(self):
        first = generate_corpus(SMALL)
        second = generate_corpus(SMALL)
        assert first == second

    def test_different_seed_differs(self):
        other = SyntheticConfig(n_articles=30, comments_per_article=5, n_annotated=40, seed=12)
        assert generate_corpus(SMALL) != generate_corpus(other)

    def test_articles_carry_the_configured_tag_and_sources(self):
        cfg = SyntheticConfig(
            n_articles=10, comments_per_article=1, n_annotated=1,
            tag="harbor", sources=("alpha", "beta"), seed=0,
        )
        articles, _, _ = generate_corpus(cfg)
        assert all("harbor" in a.tags for a in articles)
        assert {a.source for a in articles} == {"alpha", "beta"}
