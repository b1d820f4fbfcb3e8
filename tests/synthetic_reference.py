"""Reference synthetic corpus generator for tests.

``generate_corpus`` and its two helpers as ``newsciv.synthetic`` ran them
before its draws went through ``getrandbits`` directly: every uniform
integer comes from ``Random.choice`` or ``Random.randint``. The new
generator must draw the same stream and so build the same corpus.
"""

from __future__ import annotations

import random
from typing import Sequence

from newsciv.corpus import AnnotatedComment, Article, Comment
from newsciv.synthetic import (
    CHATTER_WORDS,
    CONTENT_WORDS,
    UNCIVIL_TOKENS,
    SyntheticConfig,
    _date_for,
    _weighted,
)


def generate_corpus(
    config: SyntheticConfig,
) -> tuple[list[Article], list[Comment], list[AnnotatedComment]]:
    """Build the articles, comments, and annotated comments in one pass."""
    rng = random.Random(config.seed)
    content_weights = _weighted(CONTENT_WORDS)
    marker = config.marker_bigram.split()
    subtext = config.subtext_phrase.split()

    n_provoking = round(config.n_articles * config.provoking_fraction)
    provoking_flags = [i < n_provoking for i in range(config.n_articles)]
    rng.shuffle(provoking_flags)

    articles: list[Article] = []
    comments: list[Comment] = []
    comment_no = 0
    for i in range(config.n_articles):
        provoking = provoking_flags[i]
        body_words = rng.choices(
            CONTENT_WORDS, weights=content_weights, k=rng.randint(45, 70)
        )
        if provoking:
            for _ in range(rng.randint(2, 3)):
                pos = rng.randint(0, len(body_words))
                body_words[pos:pos] = marker
        title = " ".join(
            rng.choices(CONTENT_WORDS, weights=content_weights, k=rng.randint(3, 5))
        )
        article = Article(
            id=f"a{i:05d}",
            source=config.sources[i % len(config.sources)],
            title=title,
            body=" ".join(body_words),
            tags=frozenset({config.tag}),
            date=_date_for(i),
        )
        articles.append(article)

        uncivil_rate = (
            config.uncivil_rate_provoking if provoking else config.uncivil_rate_tame
        )
        for _ in range(config.comments_per_article):
            text = _comment_text(
                rng,
                body_words=body_words,
                uncivil=rng.random() < uncivil_rate,
                subtext=subtext if rng.random() < config.subtext_rate else None,
            )
            comments.append(
                Comment(id=f"c{comment_no:06d}", article_id=article.id, text=text)
            )
            comment_no += 1

    annotated = [
        _annotated_comment(rng, f"w{j:05d}", config.n_annotators)
        for j in range(config.n_annotated)
    ]
    return articles, comments, annotated


def _comment_text(
    rng: random.Random,
    body_words: Sequence[str],
    uncivil: bool,
    subtext: Sequence[str] | None,
) -> str:
    words = [
        rng.choice(body_words) if rng.random() < 0.45 else rng.choice(CHATTER_WORDS)
        for _ in range(rng.randint(8, 16))
    ]
    if uncivil:
        for _ in range(rng.randint(1, 3)):
            words.insert(rng.randint(0, len(words)), rng.choice(UNCIVIL_TOKENS))
    if subtext is not None:
        pos = rng.randint(0, len(words))
        words[pos:pos] = subtext
    return " ".join(words)


def _annotated_comment(rng: random.Random, cid: str, n_annotators: int) -> AnnotatedComment:
    uncivil = rng.random() < 0.5
    words = [rng.choice(CHATTER_WORDS) for _ in range(rng.randint(8, 16))]
    if uncivil:
        for _ in range(rng.randint(1, 3)):
            words.insert(rng.randint(0, len(words)), rng.choice(UNCIVIL_TOKENS))

    toxicity = []
    aggression = []
    attack = []
    for _ in range(n_annotators):
        if uncivil:
            toxicity.append(rng.choice((1, 1, 2)) if rng.random() < 0.85 else rng.choice((3, 4)))
            aggression.append(rng.choice((1, 2, 2)) if rng.random() < 0.85 else rng.choice((3, 4)))
            attack.append(rng.random() < 0.8)
        else:
            toxicity.append(rng.choice((3, 4, 4, 5)) if rng.random() < 0.9 else rng.choice((1, 2)))
            aggression.append(rng.choice((3, 3, 4, 5)) if rng.random() < 0.9 else rng.choice((1, 2)))
            attack.append(rng.random() < 0.05)

    return AnnotatedComment(
        id=cid,
        text=" ".join(words),
        toxicity_ratings=tuple(toxicity),
        aggression_ratings=tuple(aggression),
        attack_flags=tuple(attack),
    )
