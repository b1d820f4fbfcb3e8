"""Two-phase phrase mining: topics are fitted on article bodies first, and
their top phrases are then excluded from a second topic model fitted on the
reader comments. Whatever surfaces in phase two is vocabulary the
commenters use that the articles' own top phrases do not cover.

Exclusion removes whole n-gram phrases from each document's bag before
fitting; the words inside an excluded phrase still participate in other
n-grams. Because phase two never sees the excluded phrases, the two phrase
sets are disjoint by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from ._output import write_json, write_lines
from .corpus import Article, Comment
from .lda import LdaConfig, TopicSummary, fit_lda, topic_terms, topics_by_size
from .textproc import DEFAULT_STOPLIST, ngrams, remove_stopwords, tokenize

# Phrases rarer than this across the phase corpus are pruned as noise.
DEFAULT_MIN_PHRASE_DF = 5

SUBTEXT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class SubtextReport:
    content_phrases: frozenset[str]
    comment_phrases: frozenset[str]
    content_topics: tuple[TopicSummary, ...]
    comment_topics: tuple[TopicSummary, ...]
    lda_config: LdaConfig
    min_phrase_df: int
    top_topics: int
    top_terms: int


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


def extract_topic_phrases(
    texts: Sequence[str],
    config: LdaConfig,
    exclude: Iterable[str] = (),
    min_phrase_df: int = DEFAULT_MIN_PHRASE_DF,
    top_topics: int = 5,
    top_terms: int = 5,
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> tuple[frozenset[str], tuple[TopicSummary, ...]]:
    """Fit LDA on phrase bags and collect the top terms of the top topics.

    Excluded phrases are removed from every document before fitting, so
    they can never reappear in the output. Topics are ranked by total
    assigned tokens; the deduplicated union of their top terms is returned
    together with the per-topic summaries.
    """
    excluded = {" ".join(tokenize(p)) for p in exclude}
    documents = phrase_documents(texts, config, stoplist)
    if excluded:
        documents = [[p for p in doc if p not in excluded] for doc in documents]
        if not any(documents):
            raise ValueError("phrase exclusion removed every phrase in the corpus")
    documents = _prune_rare(documents, min_phrase_df)
    if not any(documents):
        raise ValueError(
            "no phrases left to model (documents empty after pruning "
            f"at min_df={min_phrase_df})"
        )

    model = fit_lda(documents, config)
    summaries = tuple(
        topic_terms(model, k, top_terms) for k in topics_by_size(model)[:top_topics]
    )
    phrases = frozenset(term for s in summaries for term, _ in s.terms)
    return phrases, summaries


def mine_subtext(
    articles: Sequence[Article],
    comments: Sequence[Comment],
    config: LdaConfig | None = None,
    min_phrase_df: int = DEFAULT_MIN_PHRASE_DF,
    top_topics: int = 5,
    top_terms: int = 5,
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> SubtextReport:
    """Run both phases and return the content/comment phrase sets.

    Phase one models the article bodies with no exclusions; phase two
    models the comment texts under the same configuration (with the seed
    advanced by one so the chains are independent) while excluding every
    phase-one phrase.
    """
    if config is None:
        config = LdaConfig()
    if len(articles) == 0:
        raise ValueError("subtext mining needs at least one article")
    if len(comments) == 0:
        raise ValueError("subtext mining needs at least one comment")

    content_phrases, content_topics = extract_topic_phrases(
        [a.body for a in articles], config,
        min_phrase_df=min_phrase_df, top_topics=top_topics, top_terms=top_terms,
        stoplist=stoplist,
    )
    phase_two = replace(config, seed=config.seed + 1)
    comment_phrases, comment_topics = extract_topic_phrases(
        [c.text for c in comments], phase_two, exclude=content_phrases,
        min_phrase_df=min_phrase_df, top_topics=top_topics, top_terms=top_terms,
        stoplist=stoplist,
    )
    return SubtextReport(
        content_phrases=content_phrases,
        comment_phrases=comment_phrases,
        content_topics=content_topics,
        comment_topics=comment_topics,
        lda_config=config,
        min_phrase_df=min_phrase_df,
        top_topics=top_topics,
        top_terms=top_terms,
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
        "top_topics": report.top_topics,
        "top_terms": report.top_terms,
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
