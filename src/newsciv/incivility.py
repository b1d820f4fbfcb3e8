"""The core pipeline: aspect-label binarization, per-comment incivility
scoring, per-article incivility weights, median-threshold labeling, and the
classifier that predicts provocation from article text alone.

A comment's incivility score is the maximum of its toxicity, aggression,
and personal-attack probabilities. An article's incivility weight is the
mean score of its comments. Per source, articles whose weight strictly
exceeds the source's median weight are labeled as provoking, which makes
the two classes balanced by construction whenever weights are distinct.
Both pipelines, the aspect models and the provoking model, are one type,
:class:`Classifier`, and are trained and reported by one path, ``_train``.
Scoring runs in batches, a block of comments at a time;
:func:`score_comment`, :func:`article_weight` and :func:`predict_provoking`
run a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import AnnotatedComment, Article, Comment, train_test_split
from .features import TfidfConfig, TfidfModel, fit_transform
from .linmodel import (DECISION_THRESHOLD, EvalReport, LogisticModel, TrainConfig,
                       evaluate, train_logistic)

ASPECTS = ("toxicity", "aggression", "attack")

# Feature settings for the comment-aspect classifiers: word unigrams and
# bigrams with a light document-frequency floor.
ASPECT_TFIDF_CONFIG = TfidfConfig(n_min=1, n_max=2, min_df=3, max_df_ratio=1.0)

# The article classifier uses bigrams of the article body only.
ARTICLE_TFIDF_CONFIG = TfidfConfig(n_min=2, n_max=2, min_df=1, max_df_ratio=1.0)

ASPECT_RULE_THRESHOLD = 0.5  # the share of votes an aspect label must exceed


@dataclass(frozen=True, eq=False)
class Classifier:
    """A fitted vectorizer and the logistic models sharing it, by name: the
    three ``ASPECTS``, or ``"provoking"``. ``models`` is held as a read-only
    copy, so the dimension check holds for the object's whole life."""

    tfidf: TfidfModel
    models: Mapping[str, LogisticModel]

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", MappingProxyType(dict(self.models)))
        for name, model in self.models.items():
            if model.dimension != self.tfidf.dimension:
                raise ValueError(f"{name} model dimension {model.dimension} does not match "
                                 f"vectorizer dimension {self.tfidf.dimension}")

    def predict_proba(self, texts: Sequence[str]) -> dict[str, np.ndarray]:
        """Each model's probabilities for ``texts``, transformed once."""
        x = self.tfidf.transform(texts)
        return {name: model.predict_proba(x) for name, model in self.models.items()}

    def evaluate(self, texts: Sequence[str],
                 labels_by_name: Mapping[str, Sequence[bool]]) -> dict[str, EvalReport]:
        """Each named model's ``linmodel.evaluate`` report on its labels for
        ``texts``; labels of a single class have no ROC AUC, so they raise."""
        for name, labels in labels_by_name.items():
            if len(set(labels)) == 1:
                raise ValueError(f"{name} labels contain a single class")
        x = self.tfidf.transform(texts)
        return {name: evaluate(self.models[name], x, labels)
                for name, labels in labels_by_name.items()}


@dataclass(frozen=True)
class IncivilityScore:
    """Per-comment score: the three aspect probabilities and their max."""

    toxicity: float
    aggression: float
    attack: float
    value: float


@dataclass(frozen=True)
class ArticleIncivility:
    """Mean incivility of one article's comments, with the optional
    above-median label."""

    article_id: str
    weight: float
    n_comments: int
    label: bool | None = None


@dataclass(frozen=True)
class SourceThreshold:
    """Per-source labeling threshold: the median article weight."""

    source: str
    median_weight: float
    n_articles: int


def binarize_aspect(ac: AnnotatedComment, aspect: str) -> bool:
    """Collapse per-annotator judgements to one binary aspect label.

    For the 1..5 scales (3 neutral) the positive class is "below neutral":
    the fraction of annotators rating < 3 must strictly exceed
    ``ASPECT_RULE_THRESHOLD``; for the attack flags, the fraction of True
    flags. ``AnnotatedComment`` holds at least one vote per aspect.
    """
    if aspect == "attack":
        votes = ac.attack_flags
    elif aspect in ("toxicity", "aggression"):
        votes = [r < 3 for r in getattr(ac, f"{aspect}_ratings")]
    else:
        raise ValueError(f"unknown aspect {aspect!r}")
    return sum(votes) / len(votes) > ASPECT_RULE_THRESHOLD


def aspect_labels(annotated: Sequence[AnnotatedComment]) -> dict[str, list[bool]]:
    """Each aspect's :func:`binarize_aspect` label of every comment, by aspect."""
    return {aspect: [binarize_aspect(ac, aspect) for ac in annotated] for aspect in ASPECTS}


def _train(texts: Sequence[str], labels_by_name: Mapping[str, Sequence[bool]],
           stratify: Sequence[bool] | None, tfidf_config: TfidfConfig,
           train_config: TrainConfig | None, split_seed: int,
           test_fraction: float) -> tuple[Classifier, dict[str, EvalReport]]:
    """Split ``texts`` (stratified on ``stratify``, if given); check before any
    fit that each side holds items and each name's labels both classes on it;
    fit one vectorizer and one model per name; report on the test side."""
    for name, labels in labels_by_name.items():
        if len(set(labels)) == 1:
            raise ValueError(f"{name} labels contain a single class")
    train, test = train_test_split(range(len(texts)), test_fraction, split_seed, labels=stratify)
    for side, part in (("training", train), ("test", test)):
        if not part:
            raise ValueError(f"the {side} split is empty: test_fraction {test_fraction} "
                             f"of {len(texts)} texts")
        for name, labels in labels_by_name.items():
            if len({labels[i] for i in part}) < 2:
                raise ValueError(f"{name} labels have a single class in the {side} split")
    tfidf, x_train = fit_transform([texts[i] for i in train], tfidf_config)
    if tfidf.dimension == 0:  # a model with no terms would score every text alike
        raise ValueError(f"TF-IDF keeps no terms at min_df={tfidf_config.min_df}, max_df_ratio="
                         f"{tfidf_config.max_df_ratio} over {len(train)} training texts")
    classifier = Classifier(tfidf, {
        name: train_logistic(x_train, [labels[i] for i in train], train_config)
        for name, labels in labels_by_name.items()})
    return classifier, classifier.evaluate([texts[i] for i in test], {
        name: [labels[i] for i in test] for name, labels in labels_by_name.items()})


def train_aspect_classifiers(
    annotated: Sequence[AnnotatedComment],
    tfidf_config: TfidfConfig = ASPECT_TFIDF_CONFIG,
    train_config: TrainConfig | None = None,
    split_seed: int = 0,
    test_fraction: float = 0.2,
) -> tuple[Classifier, dict[str, EvalReport]]:
    """Fit the three aspect classifiers and report held-out metrics.

    One TF-IDF model is fitted on the training texts and shared by all
    three logistic models. Any aspect that collapses to a single class on
    either side of the split raises, naming the aspect.
    """
    return _train([ac.text for ac in annotated], aspect_labels(annotated), None,
                  tfidf_config, train_config, split_seed, test_fraction)


def _score_columns(
    classifiers: Classifier, texts: Sequence[str]
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Score ``texts`` in one batch: the toxicity, aggression, attack and
    incivility (the max of the three) of each text, as four lists."""
    probabilities = classifiers.predict_proba(texts)
    toxicity, aggression, attack = (probabilities[aspect].tolist() for aspect in ASPECTS)
    return toxicity, aggression, attack, list(map(max, toxicity, aggression, attack))


def score_comments(classifiers: Classifier, texts: Sequence[str]) -> list[IncivilityScore]:
    """Score comments in one batch; each value is the max aspect score."""
    return list(map(IncivilityScore, *_score_columns(classifiers, texts)))


def score_comment(classifiers: Classifier, text: str) -> IncivilityScore:
    """Score one comment: :func:`score_comments` on a batch of one."""
    return score_comments(classifiers, [text])[0]


def mean_score(values: Sequence[float]) -> float:
    """Article-weight mean: fsum then clamp into [min, max] of the inputs,
    so the exact range bound survives floating-point rounding."""
    if len(values) == 0:
        raise ValueError("mean of zero scores is undefined")
    mean = math.fsum(values) / len(values)
    return min(max(mean, min(values)), max(values))


def fold_scores(classifiers: Classifier, texts: Sequence[str],
                article_ids: Sequence[str], by_article: dict[str, list[float]]):
    """Score one block of ``texts`` (see :func:`article_weights`), append each
    incivility to its article's list in ``by_article`` and return the block's
    four score columns; folding blocks in file order keeps the lists in order."""
    if len(texts) != len(article_ids):
        raise ValueError(f"got {len(texts)} texts but {len(article_ids)} article ids")
    columns = _score_columns(classifiers, texts)
    _fold(by_article, article_ids, columns[3])
    return columns


def _fold(by_article: dict[str, list[float]], article_ids, values) -> None:
    """Append each of ``values`` to the list of its article in ``by_article``."""
    for article_id, value in zip(article_ids, values):
        by_article.setdefault(article_id, []).append(value)


def article_means(by_article: Mapping[str, Sequence[float]]) -> list[ArticleIncivility]:
    """The :func:`mean_score` weight of each article of ``by_article``, in order."""
    return [ArticleIncivility(article_id=a, weight=mean_score(v), n_comments=len(v))
            for a, v in by_article.items()]


def article_weights(
    classifiers: Classifier, texts: Sequence[str], article_ids: Sequence[str]
) -> tuple[tuple[list[float], list[float], list[float], list[float]],
           list[ArticleIncivility]]:
    """Score comment ``texts`` in one batch and average the scores per
    article, ``article_ids[i]`` being the article of ``texts[i]``.

    Returns the toxicity, aggression, attack and incivility lists in comment
    order (the fields of :func:`score_comments`' scores, as columns) and one
    weight per article, in order of the article's first comment.
    """
    by_article: dict[str, list[float]] = {}
    return fold_scores(classifiers, texts, article_ids, by_article), article_means(by_article)


def article_weight(classifiers: Classifier, comments: Sequence[Comment]) -> ArticleIncivility:
    """Mean incivility score of one article's comments (a batch of one).

    Undefined for zero comments; callers should drop comment-less articles
    before computing source medians.
    """
    if len(comments) == 0:
        raise ValueError("article weight is undefined for zero comments")
    ids = {c.article_id for c in comments}
    if len(ids) > 1:
        raise ValueError(f"comments span multiple articles: {sorted(ids)}")
    texts = [c.text for c in comments]
    return article_weights(classifiers, texts, [c.article_id for c in comments])[1][0]


def source_median(
    weights: Sequence[ArticleIncivility], source: str
) -> SourceThreshold:
    """Median incivility weight of one source's articles.

    Even counts take the mean of the two middle order statistics.
    """
    if len(weights) == 0:
        raise ValueError(f"no article weights for source {source!r}")
    values = sorted(w.weight for w in weights)
    mid = len(values) // 2
    if len(values) % 2:
        median = values[mid]
    else:
        median = (values[mid - 1] + values[mid]) / 2.0
    return SourceThreshold(source=source, median_weight=median, n_articles=len(values))


def label_articles(
    weights: Sequence[ArticleIncivility],
    threshold: SourceThreshold,
    source: str | None = None,
) -> list[ArticleIncivility]:
    """Attach the provoking label: weight strictly above the source median.

    Passing ``source`` asserts that the threshold was computed from the
    same source as the weights being labeled.
    """
    if source is not None and source != threshold.source:
        raise ValueError(
            f"threshold was computed for source {threshold.source!r}, "
            f"not {source!r}"
        )
    return [replace(w, label=w.weight > threshold.median_weight) for w in weights]


def label_by_source(
    weights: Sequence[ArticleIncivility], sources: Sequence[str]
) -> tuple[list[SourceThreshold], list[ArticleIncivility]]:
    """Label each weight against the median of its source, ``sources[i]``
    for ``weights[i]``: one threshold per source, sources sorted, and the
    labeled weights in input order."""
    if len(weights) != len(sources):
        raise ValueError(f"got {len(weights)} weights but {len(sources)} sources")
    at: dict[str, list[int]] = {}
    for i, source in enumerate(sources):
        at.setdefault(source, []).append(i)
    thresholds = []
    labeled = list(weights)  # labeled in place, so input order is kept
    for source in sorted(at):
        group = [weights[i] for i in at[source]]
        thresholds.append(source_median(group, source))
        for i, w in zip(at[source], label_articles(group, thresholds[-1], source=source)):
            labeled[i] = w
    return thresholds, labeled


def train_provoking_classifier(
    articles: Sequence[Article],
    labels: Sequence[bool],
    tfidf_config: TfidfConfig = ARTICLE_TFIDF_CONFIG,
    train_config: TrainConfig | None = None,
    split_seed: int = 0,
    test_fraction: float = 0.2,
) -> tuple[Classifier, EvalReport]:
    """Train the provoking-article classifier on article bodies only.

    The split is stratified on the labels; features are fitted on the
    training bodies and never see comment text.
    """
    if len(articles) != len(labels):
        raise ValueError(f"got {len(articles)} articles but {len(labels)} labels")
    pipeline, reports = _train([a.body for a in articles], {"provoking": labels}, labels,
                               tfidf_config, train_config, split_seed, test_fraction)
    return pipeline, reports["provoking"]


def predict_provoking(pipeline: Classifier, body: str) -> tuple[float, bool]:
    """Probability and label (above ``DECISION_THRESHOLD``) of one body."""
    proba = float(pipeline.predict_proba([body])["provoking"][0])
    return proba, proba > DECISION_THRESHOLD


def weights_by_source(
    articles: Iterable[Article],
    weights: Iterable[ArticleIncivility],
) -> dict[str, list[ArticleIncivility]]:
    """Group article weights by their article's source."""
    source_of: Mapping[str, str] = {a.id: a.source for a in articles}
    grouped: dict[str, list[ArticleIncivility]] = {}
    for w in weights:
        if w.article_id not in source_of:
            raise ValueError(f"weight references unknown article {w.article_id!r}")
        grouped.setdefault(source_of[w.article_id], []).append(w)
    return grouped
