from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subtext_reference as reference
from newsciv.corpus import Article, Comment
from newsciv.lda import Bags, LdaConfig, LdaModel, fit_lda, topic_terms
from newsciv.subtext import (
    TOP_TERMS,
    TOP_TOPICS,
    _phrase_bags,
    extract_topic_phrases,
    mine_subtext,
    phrase_documents,
    report_to_dict,
    report_to_markdown,
    save_report,
)
from newsciv.textproc import DEFAULT_STOPLIST, tokenize
from lda_reference import bags_of
from textproc_reference import remove_stopwords

FAST = LdaConfig(n_topics=3, iterations=40, seed=0, n_min=2, n_max=2)


def random_texts(rng: random.Random, n: int, vocab, length=12) -> list[str]:
    return [" ".join(rng.choices(vocab, k=length)) for _ in range(n)]


VOCAB = [f"term{i}" for i in range(10)]


class TestPhraseDocuments:
    def test_stopwords_removed_before_ngram_formation(self):
        docs = phrase_documents(["build the wall now"], LdaConfig(n_min=2, n_max=2))
        assert docs == [["build wall", "wall now"]]

    def test_ngram_range_follows_config(self):
        docs = phrase_documents(["alpha beta gamma"], LdaConfig(n_min=2, n_max=3))
        assert docs == [["alpha beta", "beta gamma", "alpha beta gamma"]]


# Words for the reference tests: stop words, Unicode letters whose
# lowercasing is special ("Σ" at a word's end, "İ"), apostrophes and "_",
# which splits tokens.
REF_WORDS = ["alpha", "beta", "gamma", "the", "and", "don't", "Don't", "rock'n'roll",
             "naïve", "ΣΟΦΟΣ", "İstanbul", "日本", "foo_bar", "x2", "2016"]
REF_GAPS = [" ", "  ", "\n", ", ", "! ", " -- ", "\t", "'"]


@st.composite
def ref_texts(draw):
    """A text of REF_WORDS joined by assorted gaps; some are empty or have
    no token at all."""
    words = draw(st.lists(st.sampled_from(REF_WORDS), max_size=12))
    text = ""
    for word in words:
        text += word + draw(st.sampled_from(REF_GAPS))
    return draw(st.sampled_from([text, text, text, "", "!!! ..."]))


@st.composite
def ref_exclusions(draw, texts, config, stoplist):
    """Phrases to exclude, with odd spacing, case, punctuation or stop
    words: runs of words from REF_WORDS, or from ``texts`` with or without
    their stop words, most with a length in the config's n range, so that
    many of them occur."""
    pools = [REF_WORDS]
    for text in texts:
        pools += [text.split(), remove_stopwords(tokenize(text), stoplist)]
    pools = [pool for pool in pools if pool]
    phrases = []
    for _ in range(draw(st.integers(0, 4))):
        pool = draw(st.sampled_from(pools))
        start = draw(st.integers(0, len(pool) - 1))
        words = pool[start:start + draw(st.integers(config.n_min, config.n_max) | st.integers(1, 4))]
        gap = draw(st.sampled_from([" ", "   ", " , ", "\t"]))
        phrase = gap.join(words)
        phrases.append(draw(st.sampled_from([phrase, phrase, phrase.upper(), f"  {phrase}!", ""])))
    return phrases


@st.composite
def ref_configs(draw):
    n_min = draw(st.integers(1, 4))
    n_max = draw(st.integers(n_min, 4))
    return LdaConfig(n_topics=2, iterations=2, seed=draw(st.integers(0, 3)),
                     n_min=n_min, n_max=n_max)


def assert_same_bags(texts, config, exclude, min_df, stoplist):
    try:
        expected = reference.modelled_documents(texts, config, exclude, min_df, stoplist)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _phrase_bags(texts, config, exclude, min_df, stoplist)
        assert str(raised.value) == str(exc)
        return
    bags = _phrase_bags(texts, config, exclude, min_df, stoplist)
    words, docs, vocabulary = reference.model_arrays(expected)
    for got, want in ((bags.words, words), (bags.docs, docs)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert bags.vocabulary == tuple(vocabulary.terms)
    assert bags.n_docs == vocabulary.n_docs
    # The sampler reads nothing else, so two sweeps must agree bit for bit.
    if len(words):
        want = Bags(words=words, docs=docs, vocabulary=tuple(vocabulary.terms),
                    n_docs=vocabulary.n_docs)
        got_model, want_model = LdaModel(bags, config), LdaModel(want, config)
        got_model.sweep(2)
        want_model.sweep(2)
        assert np.array_equal(got_model.z, want_model.z)
        assert got_model.log_likelihoods == want_model.log_likelihoods


class TestMatchesStringReference:
    """Integer phrase bags against ``subtext_reference``, the string path
    they replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), texts=st.lists(ref_texts(), max_size=8), config=ref_configs(),
           min_df=st.sampled_from([0, 1, 1, 2, 3]),
           stoplist=st.sampled_from([DEFAULT_STOPLIST, frozenset(), frozenset({"beta", "日本"})]))
    def test_bags_and_errors_match(self, data, texts, config, min_df, stoplist):
        exclude = data.draw(ref_exclusions(texts, config, stoplist))
        assert_same_bags(texts, config, exclude, min_df, stoplist)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(texts=st.lists(ref_texts(), max_size=8), config=ref_configs(),
           stoplist=st.sampled_from([DEFAULT_STOPLIST, frozenset()]))
    def test_phrase_documents_match(self, texts, config, stoplist):
        expected = reference.phrase_documents(texts, config, stoplist)
        assert phrase_documents(texts, config, stoplist) == expected
        assert phrase_documents(iter(texts), config, stoplist) == expected

    @pytest.mark.parametrize("exclude", [(), ("granite firewall",)])
    def test_synthetic_phases_match(self, exclude):
        bodies, texts = build_texts(random.Random(3), planted="granite firewall")
        config = LdaConfig(n_topics=3, iterations=2, n_min=1, n_max=3)
        assert_same_bags(bodies, config, exclude, 3, DEFAULT_STOPLIST)
        assert_same_bags(texts, config, exclude, 3, DEFAULT_STOPLIST)

    def test_error_messages(self):
        config = LdaConfig(n_topics=1, iterations=1, n_min=2, n_max=2)
        with pytest.raises(ValueError, match="exclusion"):
            _phrase_bags(["alpha beta", "Alpha, BETA"], config, ["ALPHA  beta"], 1,
                         DEFAULT_STOPLIST)
        with pytest.raises(ValueError, match="min_df=3"):
            _phrase_bags(["alpha beta", "gamma delta"], config, (), 3, DEFAULT_STOPLIST)
        # A phase with no phrase to exclude reports the empty phase, not the exclusion.
        with pytest.raises(ValueError, match="min_df=1"):
            _phrase_bags(["the", "!!!"], config, ["!!!"], 1, DEFAULT_STOPLIST)


class TestTopicTermsRanking:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(docs=st.lists(st.lists(st.sampled_from(["b a", "a", "c", "a b", "d", "e e"]),
                                  max_size=6), min_size=1, max_size=6),
           n_topics=st.integers(1, 3), t=st.integers(0, 8))
    def test_ties_break_as_sorted_did(self, docs, n_topics, t):
        if not any(docs):
            return
        config = LdaConfig(n_topics=n_topics, iterations=3, n_min=1, n_max=1)
        model = fit_lda(bags_of(docs), config)
        for k in range(n_topics):
            summary = topic_terms(model, k, t)
            assert list(summary.terms) == reference.ranked_terms(
                model.topic_distribution(k), model.vocabulary, t)


class TestExtractTopicPhrases:
    def test_excluded_phrases_never_in_output(self):
        rng = random.Random(0)
        texts = random_texts(rng, 30, VOCAB)
        baseline, _ = extract_topic_phrases(texts, FAST, min_phrase_df=2)
        excluded = set(list(baseline)[:3])
        for seed in range(3):
            cfg = LdaConfig(n_topics=3, iterations=40, seed=seed, n_min=2, n_max=2)
            phrases, _ = extract_topic_phrases(
                texts, cfg, exclude=excluded, min_phrase_df=2
            )
            assert not (phrases & excluded)

    def test_single_topic_gives_its_top_terms(self):
        rng = random.Random(1)
        texts = random_texts(rng, 10, VOCAB)
        cfg = LdaConfig(n_topics=1, iterations=10, seed=0, n_min=2, n_max=2)
        phrases, summaries = extract_topic_phrases(texts, cfg, min_phrase_df=1)
        assert len(summaries) == 1
        assert len(summaries[0].terms) == TOP_TERMS
        assert phrases == {term for term, _ in summaries[0].terms}

    def test_phrase_set_bounded_by_topics_times_terms(self):
        rng = random.Random(2)
        texts = random_texts(rng, 40, VOCAB)
        cfg = LdaConfig(n_topics=TOP_TOPICS + 3, iterations=40, seed=0, n_min=2, n_max=2)
        phrases, summaries = extract_topic_phrases(texts, cfg, min_phrase_df=2)
        assert len(summaries) == TOP_TOPICS
        assert len(phrases) <= TOP_TOPICS * TOP_TERMS

    def test_exclusion_emptying_corpus_errors(self):
        texts = ["alpha beta", "alpha beta"]
        cfg = LdaConfig(n_topics=1, iterations=5, seed=0, n_min=2, n_max=2)
        with pytest.raises(ValueError, match="exclusion"):
            extract_topic_phrases(texts, cfg, exclude={"alpha beta"}, min_phrase_df=1)

    def test_pruning_emptying_corpus_errors(self):
        texts = ["alpha beta", "gamma delta"]
        cfg = LdaConfig(n_topics=1, iterations=5, seed=0, n_min=2, n_max=2)
        with pytest.raises(ValueError, match="min_df"):
            extract_topic_phrases(texts, cfg, min_phrase_df=5)

    def test_exclusions_are_normalized_before_matching(self):
        texts = ["alpha beta"] * 6 + ["gamma delta"] * 6
        cfg = LdaConfig(n_topics=1, iterations=5, seed=0, n_min=2, n_max=2)
        phrases, _ = extract_topic_phrases(
            texts, cfg, exclude={"  Alpha   BETA!"}, min_phrase_df=1
        )
        assert "alpha beta" not in phrases


def build_corpus(rng: random.Random, planted: str | None = None):
    """Articles and comments over a shared vocabulary; comments optionally
    carry a planted phrase that never occurs in articles."""
    articles = [
        Article(
            id=f"a{i}",
            source="daily",
            title="t",
            body=" ".join(rng.choices(VOCAB, k=20)),
            tags=frozenset({"theme"}),
        )
        for i in range(25)
    ]
    comments = []
    cid = 0
    for a in articles:
        for _ in range(6):
            words = rng.choices(a.body.split(), k=4) + rng.choices(VOCAB, k=4)
            rng.shuffle(words)
            if planted and rng.random() < 0.5:
                pos = rng.randint(0, len(words))
                words[pos:pos] = planted.split()
            comments.append(Comment(id=f"c{cid}", article_id=a.id, text=" ".join(words)))
            cid += 1
    return articles, comments


def build_texts(rng: random.Random, planted: str | None = None):
    """The article bodies and comment texts of :func:`build_corpus`."""
    articles, comments = build_corpus(rng, planted)
    return [a.body for a in articles], [c.text for c in comments]


class TestMineSubtext:
    def test_planted_comment_phrase_recovered_and_disjoint(self):
        rng = random.Random(7)
        bodies, texts = build_texts(rng, planted="quartz meadow")
        report = mine_subtext(bodies, texts, config=FAST, min_phrase_df=3)
        assert "quartz meadow" in report.comment_phrases
        assert not (report.content_phrases & report.comment_phrases)

    def test_disjoint_for_many_seeds(self):
        rng = random.Random(8)
        bodies, texts = build_texts(rng)
        for seed in range(4):
            cfg = LdaConfig(n_topics=3, iterations=30, seed=seed, n_min=2, n_max=2)
            report = mine_subtext(bodies, texts, config=cfg, min_phrase_df=3)
            assert not (report.content_phrases & report.comment_phrases)
            assert len(report.content_phrases) <= 15
            assert len(report.comment_phrases) <= 15

    def test_identical_corpora_still_disjoint(self):
        rng = random.Random(9)
        bodies, _ = build_texts(rng)
        report = mine_subtext(bodies, bodies, config=FAST, min_phrase_df=3)
        assert not (report.content_phrases & report.comment_phrases)

    def test_deterministic_for_fixed_seeds(self):
        rng = random.Random(10)
        bodies, texts = build_texts(rng, planted="quartz meadow")
        r1 = mine_subtext(bodies, texts, config=FAST, min_phrase_df=3)
        r2 = mine_subtext(bodies, texts, config=FAST, min_phrase_df=3)
        assert r1 == r2
        assert report_to_dict(r1) == report_to_dict(r2)

    def test_phase_two_seed_is_derived(self):
        rng = random.Random(11)
        bodies, texts = build_texts(rng)
        report = mine_subtext(bodies, texts, config=FAST, min_phrase_df=3)
        dump = report_to_dict(report)
        assert dump["content_topics"]["seed"] == FAST.seed
        assert dump["comment_topics"]["seed"] == FAST.seed + 1

    def test_empty_inputs_error(self):
        rng = random.Random(12)
        bodies, texts = build_texts(rng)
        with pytest.raises(ValueError):
            mine_subtext([], texts, config=FAST)
        with pytest.raises(ValueError):
            mine_subtext(bodies, [], config=FAST)


class TestReportRendering:
    @pytest.fixture
    def report(self):
        rng = random.Random(13)
        bodies, texts = build_texts(rng, planted="quartz meadow")
        return mine_subtext(bodies, texts, config=FAST, min_phrase_df=3)

    def test_json_shape(self, report):
        dump = report_to_dict(report)
        assert dump["content_phrases"] == sorted(report.content_phrases)
        assert dump["comment_phrases"] == sorted(report.comment_phrases)
        for key in ("K", "alpha", "beta", "iterations", "seed", "topics"):
            assert key in dump["content_topics"]
        topic = dump["content_topics"]["topics"][0]
        assert set(topic) == {"id", "terms"}

    def test_markdown_two_columns(self, report):
        md = report_to_markdown(report)
        lines = md.strip().splitlines()
        assert lines[0] == "| Content Topic Phrases | Comment Topic Phrases |"
        assert len(lines) == 2 + max(len(report.content_phrases), len(report.comment_phrases))

    def test_save_report_files(self, report, tmp_path):
        save_report(report, tmp_path / "subtext.json", tmp_path / "subtext.md")
        loaded = json.loads((tmp_path / "subtext.json").read_text())
        assert loaded["comment_phrases"] == sorted(report.comment_phrases)
        assert (tmp_path / "subtext.md").read_text().startswith("| Content")
