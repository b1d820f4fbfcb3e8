"""Seeded synthetic corpus generator with planted signals.

The generator emits the three corpus files the pipeline consumes, built so
that every stage has a recoverable ground truth:

* a marker bigram appears only in the bodies of "provoking" articles;
* comments on provoking articles carry insult tokens at an elevated rate,
  so those articles accumulate higher incivility weights;
* annotated training comments use the same insult tokens, with annotator
  ratings skewed accordingly;
* one subtext phrase appears only in comments, never in any article.

Everything is driven by a single explicit seed; equal configurations
produce byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ._checks import check_field_types
from .corpus import AnnotatedComment, Article, Comment
from .textproc import tokenize

CONTENT_WORDS = (
    "council", "budget", "harbor", "reform", "transit", "zoning", "ballot",
    "charter", "audit", "levy", "precinct", "mayor", "deputy", "statute",
    "hearing", "permit", "contract", "bridge", "tunnel", "census",
    "district", "petition", "ordinance", "treasury", "pension", "surplus",
    "deficit", "revenue", "board", "commission", "inspector", "survey",
    "easement", "corridor", "depot", "terminal", "franchise", "quorum",
    "session", "docket",
)

CHATTER_WORDS = (
    "folks", "really", "agree", "point", "story", "reading", "thread",
    "opinion", "guess", "wonder", "curious", "honestly", "figured", "seems",
    "plenty", "worth", "sharing", "noticed", "detail", "angle", "take",
    "exactly", "completely", "nonsense",
)

# Stand-ins for abusive vocabulary; what matters is that they are tokens
# the aspect classifiers can latch onto.
UNCIVIL_TOKENS = ("buffoon", "windbag", "nitwit", "crank", "dolt")


@dataclass(frozen=True)
class SyntheticConfig:
    n_articles: int = 400
    comments_per_article: int = 20
    n_annotated: int = 1200
    n_annotators: int = 3
    provoking_fraction: float = 0.5
    uncivil_rate_provoking: float = 0.6
    uncivil_rate_tame: float = 0.08
    marker_bigram: str = "crimson ledger"
    subtext_phrase: str = "granite firewall"
    subtext_rate: float = 0.35
    tag: str = "transit"
    sources: tuple[str, ...] = ("daily",)
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_articles < 0 or self.comments_per_article < 0 or self.n_annotated < 0:
            raise ValueError("corpus sizes must be >= 0")
        if self.n_annotators < 1:
            raise ValueError("need at least one annotator")
        for name in ("provoking_fraction", "uncivil_rate_provoking",
                     "uncivil_rate_tame", "subtext_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if len(self.marker_bigram.split()) != 2 or len(self.subtext_phrase.split()) != 2:
            raise ValueError("marker_bigram and subtext_phrase must be two words")
        # A planted token that the other draws can also produce would put the
        # marker into tame articles, or the subtext phrase into articles.
        base = set(CONTENT_WORDS + CHATTER_WORDS + UNCIVIL_TOKENS)
        marker = set(tokenize(self.marker_bigram))
        for name, tokens, taken, what in (
            ("marker_bigram", marker, base, "the generated words"),
            ("subtext_phrase", set(tokenize(self.subtext_phrase)), base | marker,
             "the generated words or marker_bigram"),
        ):
            if tokens & taken:
                raise ValueError(f"{name} must share no token with {what}, "
                                 f"got {getattr(self, name)!r}")
        if not self.sources:
            raise ValueError("at least one source is required")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "sources", tuple(self.sources))


def _weighted(words: Sequence[str]) -> list[float]:
    # Mild Zipf-like skew so some phrases recur often enough for LDA.
    return [1.0 / (rank + 1) for rank in range(len(words))]


def _date_for(i: int) -> str:
    return f"2016-{(i % 12) + 1:02d}-{(i % 28) + 1:02d}"


def _uniform_below(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``: a uniform int in ``[0, n)`` drawn from ``rng`` exactly
    as CPython's ``Random._randbelow`` draws it for ``choice`` and
    ``randint``: ``k = n.bit_length()`` bits from ``getrandbits``, drawn
    again while the result is ``>= n``. So ``seq[below(len(seq))]`` is
    ``rng.choice(seq)`` and ``a + below(b - a + 1)`` is ``rng.randint(a, b)``,
    each in one Python frame instead of three or four."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def generate_corpus(
    config: SyntheticConfig,
) -> tuple[list[Article], list[Comment], list[AnnotatedComment]]:
    """Build the articles, comments, and annotated comments in one pass."""
    rng = random.Random(config.seed)
    below, random_ = _uniform_below(rng), rng.random
    content_weights = _weighted(CONTENT_WORDS)
    marker = config.marker_bigram.split()
    subtext = config.subtext_phrase.split()

    n_provoking = round(config.n_articles * config.provoking_fraction)
    provoking_flags = [i < n_provoking for i in range(config.n_articles)]
    rng.shuffle(provoking_flags)

    articles: list[Article] = []
    comments: list[Comment] = []
    for i in range(config.n_articles):
        provoking = provoking_flags[i]
        body_words = rng.choices(CONTENT_WORDS, weights=content_weights, k=45 + below(26))
        if provoking:
            for _ in range(2 + below(2)):
                pos = below(len(body_words) + 1)
                body_words[pos:pos] = marker
        title = " ".join(
            rng.choices(CONTENT_WORDS, weights=content_weights, k=3 + below(3))
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
            uncivil = random_() < uncivil_rate
            planted = subtext if random_() < config.subtext_rate else None
            text = _comment_text(rng, below, body_words, uncivil, planted)
            comments.append(
                Comment(id=f"c{len(comments):06d}", article_id=article.id, text=text)
            )

    annotated = [
        _annotated_comment(rng, below, f"w{j:05d}", config.n_annotators)
        for j in range(config.n_annotated)
    ]
    return articles, comments, annotated


def _insert_insults(below: Callable[[int], int], words: list[str]) -> None:
    """Insert one to three insult tokens into ``words`` at drawn places."""
    for _ in range(1 + below(3)):
        words.insert(below(len(words) + 1), UNCIVIL_TOKENS[below(len(UNCIVIL_TOKENS))])


def _comment_text(
    rng: random.Random,
    below: Callable[[int], int],
    body_words: Sequence[str],
    uncivil: bool,
    subtext: Sequence[str] | None,
) -> str:
    random_, n_body, n_chatter = rng.random, len(body_words), len(CHATTER_WORDS)
    words = [
        body_words[below(n_body)] if random_() < 0.45 else CHATTER_WORDS[below(n_chatter)]
        for _ in range(8 + below(9))
    ]
    if uncivil:
        _insert_insults(below, words)
    if subtext is not None:
        pos = below(len(words) + 1)
        words[pos:pos] = subtext
    return " ".join(words)


def _annotated_comment(
    rng: random.Random, below: Callable[[int], int], cid: str, n_annotators: int
) -> AnnotatedComment:
    random_, n_chatter = rng.random, len(CHATTER_WORDS)
    uncivil = random_() < 0.5
    words = [CHATTER_WORDS[below(n_chatter)] for _ in range(8 + below(9))]
    if uncivil:
        _insert_insults(below, words)

    toxicity = []
    aggression = []
    attack = []
    for _ in range(n_annotators):
        if uncivil:
            toxicity.append((1, 1, 2)[below(3)] if random_() < 0.85 else (3, 4)[below(2)])
            aggression.append((1, 2, 2)[below(3)] if random_() < 0.85 else (3, 4)[below(2)])
            attack.append(random_() < 0.8)
        else:
            toxicity.append((3, 4, 4, 5)[below(4)] if random_() < 0.9 else (1, 2)[below(2)])
            aggression.append((3, 3, 4, 5)[below(4)] if random_() < 0.9 else (1, 2)[below(2)])
            attack.append(random_() < 0.05)

    return AnnotatedComment(
        id=cid,
        text=" ".join(words),
        toxicity_ratings=tuple(toxicity),
        aggression_ratings=tuple(aggression),
        attack_flags=tuple(attack),
    )
