"""Two-phase phrase mining: topics are fitted on article bodies first, and
their top phrases are then excluded from a second topic model fitted on the
reader comments. Whatever surfaces in phase two is vocabulary the
commenters use that the articles' own top phrases do not cover.

Exclusion removes whole n-gram phrases from each document's bag before
fitting; the words inside an excluded phrase still participate in other
n-grams. Because phase two never sees the excluded phrases, the two phrase
sets are disjoint by construction.

A phase's phrase bags are integer ids from the n-gram encoder of
:mod:`newsciv.textproc`. Exclusion looks phrases up by key, rare phrases
are pruned by counting texts per id, and only the phrases that are kept are
spelled out, sorted as strings and renumbered, so the topic model sees the
same terms in the same lexicographic order as it would from string bags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._output import write_json, write_lines
from .lda import Bags, LdaConfig, TopicSummary, fit_lda, topic_terms, topics_by_size
from .textproc import DEFAULT_STOPLIST, Ngrams, document_frequency, tokenize

# Phrases rarer than this across the phase corpus are pruned as noise.
DEFAULT_MIN_PHRASE_DF = 5

TOP_TOPICS = 5  # topics each phase reports, largest first
TOP_TERMS = 5  # terms reported per topic

SUBTEXT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class SubtextReport:
    content_phrases: frozenset[str]
    comment_phrases: frozenset[str]
    content_topics: tuple[TopicSummary, ...]
    comment_topics: tuple[TopicSummary, ...]
    lda_config: LdaConfig
    min_phrase_df: int


def _bags(grams: Ngrams, ids: np.ndarray, docs: np.ndarray, min_df: int) -> Bags:
    """The occurrences (``ids[i]`` in text ``docs[i]``) of the phrases in at
    least ``min_df`` texts, ordered by text, then n, then position, over
    their lexicographic vocabulary."""
    df = document_frequency(docs, ids, grams.n_ids)
    vocabulary, index = grams.vocabulary((df >= max(min_df, 1)).nonzero()[0], df)
    keep = index[ids] >= 0
    order = docs[keep].argsort(kind="stable")
    return Bags(words=index[ids[keep][order]], docs=docs[keep][order], vocabulary=vocabulary)


def phrase_documents(
    texts: Iterable[str],
    config: LdaConfig,
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> list[list[str]]:
    """Tokenize texts, drop stop words, and expand into n-gram bags: the
    integer bags the subtext phases model, spelled out."""
    grams = Ngrams(texts, config.n_min, config.n_max, stoplist)
    bags = _bags(grams, grams.ids, grams.docs, 1)
    terms = bags.vocabulary.terms
    spelled = [terms[w] for w in bags.words.tolist()]
    bounds = np.bincount(bags.docs, minlength=grams.n_docs).cumsum().tolist()
    return [spelled[a:b] for a, b in zip([0, *bounds], bounds)]


def _phrase_bags(
    texts: Iterable[str],
    config: LdaConfig,
    exclude: Iterable[str],
    min_phrase_df: int,
    stoplist: frozenset[str],
) -> Bags:
    """The bags one phase models: phrase bags without the excluded phrases
    (normalized by ``tokenize``) and without phrases in fewer than
    ``min_phrase_df`` texts."""
    excluded = {" ".join(tokenize(p)) for p in exclude}
    grams = Ngrams(texts, config.n_min, config.n_max, stoplist)
    ids, docs = grams.ids, grams.docs
    if excluded:
        keep = ~np.isin(ids, grams.find(excluded))
        ids, docs = ids[keep], docs[keep]
        if len(ids) == 0:
            raise ValueError("phrase exclusion removed every phrase in the corpus")
    bags = _bags(grams, ids, docs, min_phrase_df)
    if len(bags.words) == 0:
        raise ValueError(
            "no phrases left to model (documents empty after pruning "
            f"at min_df={min_phrase_df})"
        )
    return bags


def extract_topic_phrases(
    texts: Sequence[str],
    config: LdaConfig,
    exclude: Iterable[str] = (),
    min_phrase_df: int = DEFAULT_MIN_PHRASE_DF,
) -> tuple[frozenset[str], tuple[TopicSummary, ...]]:
    """Fit LDA on phrase bags (stop words dropped) and collect the top
    ``TOP_TERMS`` terms of the top ``TOP_TOPICS`` topics.

    Excluded phrases are removed from every document before fitting, so
    they can never reappear in the output. Topics are ranked by total
    assigned tokens; the deduplicated union of their top terms is returned
    together with the per-topic summaries.
    """
    bags = _phrase_bags(texts, config, exclude, min_phrase_df, DEFAULT_STOPLIST)
    model = fit_lda(bags, config)
    summaries = tuple(
        topic_terms(model, k, TOP_TERMS) for k in topics_by_size(model)[:TOP_TOPICS]
    )
    phrases = frozenset(term for s in summaries for term, _ in s.terms)
    return phrases, summaries


def mine_subtext(
    article_texts: Sequence[str],
    comment_texts: Sequence[str],
    config: LdaConfig | None = None,
    min_phrase_df: int = DEFAULT_MIN_PHRASE_DF,
) -> SubtextReport:
    """Run both phases and return the content/comment phrase sets.

    Phase one models the article texts with no exclusions; phase two
    models the comment texts under the same configuration (with the seed
    advanced by one so the chains are independent) while excluding every
    phase-one phrase.
    """
    if config is None:
        config = LdaConfig()
    if len(article_texts) == 0:
        raise ValueError("subtext mining needs at least one article")
    if len(comment_texts) == 0:
        raise ValueError("subtext mining needs at least one comment")

    content_phrases, content_topics = extract_topic_phrases(
        article_texts, config, min_phrase_df=min_phrase_df
    )
    phase_two = replace(config, seed=config.seed + 1)
    comment_phrases, comment_topics = extract_topic_phrases(
        comment_texts, phase_two, exclude=content_phrases,
        min_phrase_df=min_phrase_df,
    )
    return SubtextReport(
        content_phrases=content_phrases,
        comment_phrases=comment_phrases,
        content_topics=content_topics,
        comment_topics=comment_topics,
        lda_config=config,
        min_phrase_df=min_phrase_df,
    )


def report_to_dict(report: SubtextReport) -> dict:
    """JSON-ready form of a subtext report (phrases sorted for stability)."""
    cfg = report.lda_config

    def topic_dump(summaries: Sequence[TopicSummary], seed: int) -> dict:
        return {
            "K": cfg.n_topics,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "iterations": cfg.iterations,
            "seed": seed,
            "topics": [
                {"id": s.topic_id, "terms": [[term, p] for term, p in s.terms]}
                for s in summaries
            ],
        }

    return {
        "format_version": SUBTEXT_FORMAT_VERSION,
        "content_phrases": sorted(report.content_phrases),
        "comment_phrases": sorted(report.comment_phrases),
        "content_topics": topic_dump(report.content_topics, cfg.seed),
        "comment_topics": topic_dump(report.comment_topics, cfg.seed + 1),
        "min_phrase_df": report.min_phrase_df,
        "top_topics": TOP_TOPICS,
        "top_terms": TOP_TERMS,
    }


def report_to_markdown(report: SubtextReport) -> str:
    """Two-column Markdown table of content vs. comment phrases."""
    content = sorted(report.content_phrases)
    comment = sorted(report.comment_phrases)
    lines = [
        "| Content Topic Phrases | Comment Topic Phrases |",
        "| --- | --- |",
    ]
    for i in range(max(len(content), len(comment))):
        left = content[i] if i < len(content) else ""
        right = comment[i] if i < len(comment) else ""
        lines.append(f"| {left} | {right} |")
    return "\n".join(lines) + "\n"


def save_report(report: SubtextReport, json_path: str | Path, markdown_path: str | Path) -> None:
    write_json(json_path, report_to_dict(report))
    write_lines(markdown_path, report_to_markdown(report).splitlines())
