from __future__ import annotations

import math
import random

import numpy as np
import pytest

from newsciv.corpus import AnnotatedComment, Article, Comment
from newsciv.features import fit_tfidf, TfidfConfig
from newsciv.incivility import (
    ArticleIncivility,
    AspectClassifiers,
    SourceThreshold,
    article_weight,
    article_weights,
    binarize_aspect,
    label_articles,
    predict_provoking,
    score_comment,
    score_comments,
    source_median,
    train_aspect_classifiers,
    train_provoking_classifier,
    weights_by_source,
)
from newsciv.linmodel import LogisticModel, TrainConfig


def logit(p: float) -> float:
    return math.log(p / (1 - p))


@pytest.fixture
def crafted_classifiers() -> AspectClassifiers:
    """Classifiers with hand-set weights: the words low/mid/high score
    0.1/0.3/0.5 on toxicity; aggression and attack are pinned near zero."""
    tfidf = fit_tfidf(["low", "mid", "high"], TfidfConfig(n_min=1, n_max=1))
    idx = tfidf.vocabulary.index
    w = np.zeros(3)
    w[idx["low"]] = logit(0.1)
    w[idx["mid"]] = logit(0.3)
    w[idx["high"]] = logit(0.5)
    off = LogisticModel(weights=np.zeros(3), bias=-30.0)
    return AspectClassifiers(
        tfidf=tfidf,
        toxicity=LogisticModel(weights=w, bias=0.0),
        aggression=off,
        attack=off,
    )


def make_annotated(rng: random.Random, n: int) -> list[AnnotatedComment]:
    """Planted-signal corpus: uncivil comments contain the token 'slur'."""
    chatter = ["one", "two", "three", "four", "five", "six", "seven", "eight"]
    out = []
    for i in range(n):
        uncivil = i % 2 == 0
        words = [rng.choice(chatter) for _ in range(8)]
        if uncivil:
            words.insert(rng.randrange(len(words)), "slur")
        ratings = lambda low: tuple(
            rng.choice((1, 2)) if low else rng.choice((3, 4, 5)) for _ in range(3)
        )
        out.append(
            AnnotatedComment(
                id=f"w{i}",
                text=" ".join(words),
                toxicity_ratings=ratings(uncivil),
                aggression_ratings=ratings(uncivil),
                attack_flags=tuple(uncivil for _ in range(3)),
            )
        )
    return out


class TestBinarize:
    def make(self, tox=(3,), agg=(3,), att=(False,)):
        return AnnotatedComment("w", "text", tox, agg, att)

    def test_majority_below_neutral_is_positive(self):
        assert binarize_aspect(self.make(tox=(1, 2, 4)), "toxicity") is True

    def test_all_neutral_is_negative(self):
        assert binarize_aspect(self.make(tox=(3, 3, 3)), "toxicity") is False

    def test_attack_tie_is_negative(self):
        assert binarize_aspect(self.make(att=(True, False)), "attack") is False

    def test_attack_majority_positive(self):
        assert binarize_aspect(self.make(att=(True, True, False)), "attack") is True

    def test_aggression_uses_its_own_ratings(self):
        ac = self.make(tox=(5, 5), agg=(1, 1))
        assert binarize_aspect(ac, "toxicity") is False
        assert binarize_aspect(ac, "aggression") is True

    def test_threshold_is_strict(self):
        ac = self.make(tox=(1, 4))
        assert binarize_aspect(ac, "toxicity", rule_threshold=0.5) is False
        assert binarize_aspect(ac, "toxicity", rule_threshold=0.49) is True

    def test_unknown_aspect(self):
        with pytest.raises(ValueError):
            binarize_aspect(self.make(), "sarcasm")


class TestScoreComment:
    def test_value_is_max_of_components(self, crafted_classifiers):
        score = score_comment(crafted_classifiers, "high")
        assert score.value == max(score.toxicity, score.aggression, score.attack)
        assert score.toxicity == pytest.approx(0.5, abs=1e-12)
        assert score.value == score.toxicity

    def test_all_oov_text_scores_sigmoid_of_bias(self, crafted_classifiers):
        score = score_comment(crafted_classifiers, "zzz qqq")
        assert score.toxicity == pytest.approx(0.5, abs=1e-12)  # bias 0
        assert score.attack == pytest.approx(1 / (1 + math.exp(30)), rel=1e-9)

    def test_max_dominance_over_random_texts(self, crafted_classifiers):
        rng = random.Random(0)
        words = ["low", "mid", "high", "zzz"]
        for _ in range(100):
            text = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            s = score_comment(crafted_classifiers, text)
            assert 0.0 <= s.value <= 1.0
            assert s.value >= s.toxicity
            assert s.value >= s.aggression
            assert s.value >= s.attack

    def test_batch_matches_single(self, crafted_classifiers):
        texts = ["low", "mid high", "zzz", "high high low"]
        batch = score_comments(crafted_classifiers, texts)
        assert batch == [score_comment(crafted_classifiers, text) for text in texts]


class TestArticleWeight:
    def comments(self, texts):
        return [Comment(id=f"c{i}", article_id="a1", text=t) for i, t in enumerate(texts)]

    def test_weight_is_mean_of_scores(self, crafted_classifiers):
        w = article_weight(crafted_classifiers, self.comments(["low", "mid", "high"]))
        assert w.weight == pytest.approx((0.1 + 0.3 + 0.5) / 3, abs=1e-9)
        assert w.n_comments == 3
        assert w.article_id == "a1"
        assert w.label is None

    def test_single_comment(self, crafted_classifiers):
        w = article_weight(crafted_classifiers, self.comments(["mid"]))
        assert w.weight == pytest.approx(0.3, abs=1e-12)

    def test_all_equal_scores_give_that_value_exactly(self, crafted_classifiers):
        scores = [
            score_comment(crafted_classifiers, "mid").value for _ in range(3)
        ]
        w = article_weight(crafted_classifiers, self.comments(["mid"] * 3))
        assert w.weight == scores[0]

    def test_weight_within_score_range(self, crafted_classifiers):
        comments = self.comments(["low", "high", "mid", "low mid"])
        values = [score_comment(crafted_classifiers, c.text).value for c in comments]
        w = article_weight(crafted_classifiers, comments)
        assert min(values) <= w.weight <= max(values)

    def test_zero_comments_error(self, crafted_classifiers):
        with pytest.raises(ValueError):
            article_weight(crafted_classifiers, [])

    def test_grouped_weights_match_per_article_weights(self, crafted_classifiers):
        texts = ["low", "high", "mid", "low mid", "zzz"]
        comments = [
            Comment(id=f"c{i}", article_id=("a2", "a1")[i % 2], text=t)
            for i, t in enumerate(texts)
        ]
        columns, weights = article_weights(crafted_classifiers, comments)
        scores = score_comments(crafted_classifiers, texts)
        assert columns == tuple([getattr(s, field) for s in scores]
                                for field in ("toxicity", "aggression", "attack", "value"))
        assert [w.article_id for w in weights] == ["a2", "a1"]
        for w in weights:
            group = [c for c in comments if c.article_id == w.article_id]
            assert w == article_weight(crafted_classifiers, group)

    def test_mixed_articles_error(self, crafted_classifiers):
        mixed = [
            Comment(id="c1", article_id="a1", text="low"),
            Comment(id="c2", article_id="a2", text="mid"),
        ]
        with pytest.raises(ValueError):
            article_weight(crafted_classifiers, mixed)


class TestSourceMedian:
    def weights(self, values):
        return [
            ArticleIncivility(article_id=f"a{i}", weight=v, n_comments=1)
            for i, v in enumerate(values)
        ]

    def test_odd_count_middle(self):
        t = source_median(self.weights([0.1, 0.3, 0.2]), "daily")
        assert t.median_weight == 0.2
        assert t.n_articles == 3

    def test_even_count_mean_of_middle_two(self):
        t = source_median(self.weights([0.1, 0.3]), "daily")
        assert t.median_weight == 0.2

    def test_median_within_range(self):
        rng = random.Random(5)
        values = [rng.random() for _ in range(9)]
        t = source_median(self.weights(values), "s")
        assert min(values) <= t.median_weight <= max(values)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            source_median([], "daily")


class TestLabelArticles:
    def weights(self, values):
        return [
            ArticleIncivility(article_id=f"a{i}", weight=v, n_comments=1)
            for i, v in enumerate(values)
        ]

    def test_strictly_above_median(self):
        threshold = SourceThreshold(source="s", median_weight=0.089, n_articles=3)
        labeled = label_articles(self.weights([0.10, 0.089, 0.05]), threshold)
        assert [w.label for w in labeled] == [True, False, False]

    def test_distinct_weights_give_half_positives(self):
        rng = random.Random(2)
        for n in (4, 5, 9, 10, 101):
            values = rng.sample([i / 1000 for i in range(1000)], n)
            ws = self.weights(values)
            labeled = label_articles(ws, source_median(ws, "s"))
            assert sum(1 for w in labeled if w.label) == n // 2

    def test_constant_shift_leaves_labels_unchanged(self):
        rng = random.Random(3)
        values = [rng.random() for _ in range(20)]
        ws = self.weights(values)
        base = [w.label for w in label_articles(ws, source_median(ws, "s"))]
        shifted = self.weights([v + 0.25 for v in values])
        moved = [w.label for w in label_articles(shifted, source_median(shifted, "s"))]
        assert base == moved

    def test_source_mismatch_errors(self):
        threshold = SourceThreshold(source="daily", median_weight=0.1, n_articles=1)
        with pytest.raises(ValueError):
            label_articles(self.weights([0.2]), threshold, source="weekly")
        # matching source passes
        label_articles(self.weights([0.2]), threshold, source="daily")


class TestTrainAspects:
    def test_planted_signal_reaches_high_auc(self):
        annotated = make_annotated(random.Random(0), 240)
        classifiers, reports = train_aspect_classifiers(
            annotated, train_config=TrainConfig(max_iterations=200), split_seed=1
        )
        for aspect, report in reports.items():
            assert report.auc >= 0.95, f"{aspect} auc {report.auc}"
        uncivil = score_comment(classifiers, "one slur two")
        civil = score_comment(classifiers, "one two three")
        assert uncivil.value > civil.value

    def test_zero_iterations_scores_are_chance(self):
        annotated = make_annotated(random.Random(1), 60)
        _, reports = train_aspect_classifiers(
            annotated, train_config=TrainConfig(max_iterations=0), split_seed=0
        )
        for report in reports.values():
            assert report.auc == 0.5  # constant scores, ties rule

    def test_single_class_aspect_named_in_error(self):
        rng = random.Random(2)
        annotated = [
            AnnotatedComment(
                id=f"w{i}",
                text=" ".join(rng.choices("abcdef", k=6)),
                toxicity_ratings=(1, 1) if i % 2 else (5, 5),
                aggression_ratings=(1, 1) if i % 2 else (5, 5),
                attack_flags=(False, False),  # never positive
            )
            for i in range(40)
        ]
        with pytest.raises(ValueError, match="attack"):
            train_aspect_classifiers(annotated)


def make_articles(rng: random.Random, n: int, marker: str | None):
    """Articles where even indices carry the planted marker bigram."""
    vocab = [f"word{i}" for i in range(30)]
    articles, labels = [], []
    for i in range(n):
        words = rng.choices(vocab, k=30)
        provoking = i % 2 == 0
        if provoking and marker:
            pos = rng.randint(0, len(words))
            words[pos:pos] = marker.split()
        articles.append(
            Article(id=f"a{i}", source="daily", title="t", body=" ".join(words))
        )
        labels.append(provoking)
    return articles, labels


class TestProvokingClassifier:
    def test_planted_marker_reaches_high_auc(self):
        articles, labels = make_articles(random.Random(0), 200, "zebra quartz")
        pipeline, report = train_provoking_classifier(
            articles, labels, train_config=TrainConfig(max_iterations=200), split_seed=3
        )
        assert report.auc >= 0.9
        proba_pos, label_pos = predict_provoking(pipeline, "zebra quartz filler")
        proba_neg, label_neg = predict_provoking(pipeline, "word1 word2 word3")
        assert proba_pos > proba_neg

    def test_random_labels_are_chance_level(self):
        articles, _ = make_articles(random.Random(4), 200, marker=None)
        rng = random.Random(7)
        labels = [rng.random() < 0.5 for _ in range(200)]
        labels[0], labels[1] = True, False
        _, report = train_provoking_classifier(
            articles, labels, train_config=TrainConfig(max_iterations=100), split_seed=0
        )
        assert 0.35 <= report.auc <= 0.65

    def test_oov_body_scores_sigmoid_of_bias(self):
        articles, labels = make_articles(random.Random(1), 60, "zebra quartz")
        pipeline, _ = train_provoking_classifier(
            articles, labels, train_config=TrainConfig(max_iterations=50)
        )
        proba, _ = predict_provoking(pipeline, "zzz")
        expected = 1 / (1 + math.exp(-pipeline.model.bias))
        assert proba == pytest.approx(expected, abs=1e-12)

    def test_deterministic_across_calls(self):
        articles, labels = make_articles(random.Random(2), 80, "zebra quartz")
        p1, r1 = train_provoking_classifier(articles, labels, split_seed=5)
        p2, r2 = train_provoking_classifier(articles, labels, split_seed=5)
        assert r1 == r2
        assert p1.model.weights.tolist() == p2.model.weights.tolist()
        body = "word1 zebra quartz"
        assert predict_provoking(p1, body) == predict_provoking(p2, body)

    def test_single_class_errors(self):
        articles, _ = make_articles(random.Random(3), 10, None)
        with pytest.raises(ValueError):
            train_provoking_classifier(articles, [True] * 10)


class TestWeightsBySource:
    def test_groups_by_article_source(self):
        articles = [
            Article(id="a1", source="daily", title="t", body="b"),
            Article(id="a2", source="weekly", title="t", body="b"),
        ]
        ws = [
            ArticleIncivility(article_id="a1", weight=0.1, n_comments=1),
            ArticleIncivility(article_id="a2", weight=0.2, n_comments=1),
        ]
        grouped = weights_by_source(articles, ws)
        assert set(grouped) == {"daily", "weekly"}
        assert grouped["daily"][0].article_id == "a1"

    def test_unknown_article_errors(self):
        with pytest.raises(ValueError):
            weights_by_source([], [ArticleIncivility(article_id="x", weight=0.1, n_comments=1)])
