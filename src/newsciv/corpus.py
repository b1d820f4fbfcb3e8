"""Data model and ingestion for news articles, reader comments, and
annotated training comments.

All corpora are JSON-lines files (one object per line, UTF-8). Loaders are
strict: every malformed line (a byte that is not UTF-8 included), missing
field, out-of-range rating and duplicate id raises :class:`CorpusError`
naming the offending line or id.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from ._checks import _KINDS, loads
from ._output import write_jsonl
from . import textproc

T = TypeVar("T")

# A code point that UTF-8 cannot encode. A JSON "\ud800" escape loads as one,
# and a byte that is not UTF-8 reads as one with errors="surrogateescape".
_SURROGATE = re.compile("[\ud800-\udfff]")


class CorpusError(ValueError):
    """Raised for malformed or inconsistent corpus files."""


@dataclass(frozen=True)
class Article:
    id: str
    source: str
    title: str
    body: str
    tags: frozenset[str] = frozenset()
    date: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("article id must be non-empty")
        if not self.body:
            raise ValueError(f"article {self.id!r} has an empty body")
        for name in ("id", "source"):  # output files hold them as UTF-8, unescaped
            if _SURROGATE.search(value := getattr(self, name)):
                raise ValueError(f"article {name} {value!r} holds a lone surrogate")
        object.__setattr__(self, "tags", frozenset(self.tags))


@dataclass(frozen=True)
class Comment:
    id: str
    article_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("comment id must be non-empty")
        if not self.text:
            raise ValueError(f"comment {self.id!r} has empty text")


@dataclass(frozen=True)
class AnnotatedComment:
    """A training comment with one rating/flag per annotator.

    Toxicity and aggression use a 1..5 scale with 3 neutral; the attack
    judgement is a per-annotator boolean.
    """

    id: str
    text: str
    toxicity_ratings: tuple[int, ...]
    aggression_ratings: tuple[int, ...]
    attack_flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "toxicity_ratings", tuple(self.toxicity_ratings))
        object.__setattr__(self, "aggression_ratings", tuple(self.aggression_ratings))
        object.__setattr__(self, "attack_flags", tuple(self.attack_flags))
        if not self.id:
            raise ValueError("annotated comment id must be non-empty")
        for name, ratings in (
            ("toxicity", self.toxicity_ratings),
            ("aggression", self.aggression_ratings),
        ):
            if len(ratings) == 0:
                raise ValueError(f"comment {self.id!r} has no {name} ratings")
            for r in ratings:
                if not 1 <= r <= 5:
                    raise ValueError(
                        f"comment {self.id!r}: {name} rating {r} outside [1, 5]"
                    )
        if len(self.attack_flags) == 0:
            raise ValueError(f"comment {self.id!r} has no attack annotations")


@dataclass(frozen=True)
class Corpus:
    """Comments joined to articles by article id.

    ``by_article`` maps each article id to its comments in input order;
    comments whose article is not given are left out.
    """

    by_article: dict[str, tuple[Comment, ...]]

    @classmethod
    def build(cls, articles: Iterable[Article], comments: Iterable[Comment]) -> "Corpus":
        by_article: dict[str, list[Comment]] = {a.id: [] for a in articles}
        for c in comments:
            if c.article_id in by_article:
                by_article[c.article_id].append(c)
        return cls(by_article={k: tuple(v) for k, v in by_article.items()})

    def comments_for(self, article_id: str) -> list[Comment]:
        return list(self.by_article.get(article_id, ()))


def _require(obj: dict, fields: dict[str, str | None], lineno: int) -> None:
    """Raise CorpusError naming the line unless ``obj`` holds every field
    of ``fields``, each of the kind (a key of ``_checks._KINDS``, such as
    ``"float"``) it maps to; a field mapped to None may hold anything."""
    for name, kind in fields.items():
        if name not in obj:
            raise CorpusError(f"line {lineno}: missing field {name}")
        if kind is None:
            continue
        ok, what = _KINDS[kind]
        if not ok(obj[name]):
            raise CorpusError(f"line {lineno}: invalid {name} {obj[name]!r}, must be {what}")


# Rows that ``_rows`` checks a column at a time; only one chunk is held.
_CHUNK = 1024


def _check_utf8(line: str, lineno: int) -> None:
    """Raise CorpusError naming the line if ``line``, read from a file with
    errors="surrogateescape", holds a byte that is not UTF-8."""
    if not line.isascii() and (byte := _SURROGATE.search(line)):
        raise CorpusError(f"line {lineno}: invalid UTF-8 byte 0x{ord(byte[0]) - 0xDC00:02x}")


def _check_row(row, fields: dict[str, str | None], key: str | None, seen: set,
               lineno: int) -> None:
    """Raise CorpusError naming the line unless ``row`` is an object that
    holds ``fields`` (see ``_require``) and, with ``key``, has a ``key`` value
    not in ``seen``, which is then added to it. A line that did not decode
    comes here as the ValueError ``loads`` raised."""
    if isinstance(row, json.JSONDecodeError):
        raise CorpusError(f"line {lineno}: invalid JSON: {row.msg}") from row
    if isinstance(row, ValueError):  # ``loads`` named the line
        raise CorpusError(str(row)) from None
    if not isinstance(row, dict):
        raise CorpusError(f"line {lineno}: expected a JSON object")
    _require(row, fields, lineno)
    if key is not None:
        if row[key] in seen:
            raise CorpusError(f"line {lineno}: duplicate {key} {row[key]!r}")
        seen.add(row[key])


def _columns_pass(rows: list, fields: dict[str, str | None], key: str | None,
                  seen: set) -> bool:
    """Whether every row of ``rows`` would pass ``_check_row``, checked a
    field at a time over all of them; ``seen`` is left as it was."""
    if not all(map(isinstance, rows, repeat(dict))):
        return False
    for name, kind in fields.items():
        try:
            column = list(map(itemgetter(name), rows))
        except KeyError:
            return False
        if kind is not None and not all(map(_KINDS[kind][0], column)):
            return False
        if name == key and (len(set(column)) < len(column) or not seen.isdisjoint(column)):
            return False
    return True


def _checked(linenos: list[int], rows: list, fields: dict[str, str | None],
             key: str | None, seen: set) -> Iterator[tuple[list[int], list]]:
    """(line numbers, rows) of one chunk, in file order: the whole chunk if
    it passes its column checks, else one row at a time, each checked just
    before it is handed out, so the first bad line, in file order, is the
    one named."""
    if _columns_pass(rows, fields, key, seen):
        if key is not None:
            seen.update(map(itemgetter(key), rows))
        yield linenos, rows
        return
    for lineno, row in zip(linenos, rows):
        _check_row(row, fields, key, seen, lineno)
        yield [lineno], [row]


def _chunks(path: str | Path, fields: dict[str, str | None],
            key: str | None = None) -> Iterator[tuple[list[int], list[dict]]]:
    """(line numbers, objects) of the non-blank lines of JSONL file ``path``,
    up to ``_CHUNK`` rows at a time, each row checked to hold ``fields`` (see
    ``_require``). With ``key``, a string field of ``fields``, a row whose
    ``key`` value an earlier row had is rejected.

    Lines are decoded one at a time and checked a chunk at a time; an error
    names the same line, with the same message, as checking each row as it
    is read would."""
    seen: set = set()
    scan = json.JSONDecoder().scan_once
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        numbered = enumerate(fh, start=1)
        while True:
            linenos: list[int] = []
            rows: list = []
            for lineno, line in numbered:
                try:  # the fast path: one value from column 0, then the line end
                    row, end = scan(line, 0)
                    _check_utf8(line, lineno)
                    clean = line[end:] in ("\n", "")
                except (StopIteration, ValueError, RecursionError):
                    clean = False
                if not clean:
                    if not line.strip():
                        continue
                    try:
                        _check_utf8(line, lineno)
                        row = loads(line, f"line {lineno}")
                    except ValueError as exc:
                        row = exc
                linenos.append(lineno)
                rows.append(row)
                if len(rows) == _CHUNK:
                    break
            if not rows:
                return
            yield from _checked(linenos, rows, fields, key, seen)


def _rows(path: str | Path, fields: dict[str, str | None],
          key: str | None = None) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each row that ``_chunks`` hands out."""
    for linenos, rows in _chunks(path, fields, key):
        yield from zip(linenos, rows)


def read_rows(path: str | Path, fields: dict[str, str], key: str | None = None) -> list[dict]:
    """Read JSONL objects that each hold ``fields`` (see ``_require``),
    rejecting a repeated ``key`` value if ``key`` is given."""
    return [row for _, row in _rows(path, fields, key)]


_ARTICLE_FIELDS = {"id": "str", "source": "str", "title": "str", "body": "str",
                   "tags": "tuple[str, ...]", "date": "str"}
_COMMENT_FIELDS = {"id": "str", "article_id": "str", "text": "str"}
_ANNOTATED_FIELDS = {"id": "str", "text": "str", "toxicity": None, "aggression": None,
                     "attack": None}


def _load_rows(rows: Iterable[tuple[int, dict]], fields: dict[str, str],
               cls: type[T]) -> list[T]:
    """One ``cls`` per (line number, row) of ``rows``, built from the values
    of ``fields`` in order; an error ``cls`` raises names the line."""
    values = itemgetter(*fields)
    items = []
    for lineno, row in rows:
        try:
            items.append(cls(*values(row)))
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc
    return items


def load_articles(path: str | Path) -> list[Article]:
    """Load an articles.jsonl file, preserving file order; ids must be unique."""
    return _load_rows(_rows(path, _ARTICLE_FIELDS, key="id"), _ARTICLE_FIELDS, Article)


def comment_blocks(path: str | Path, min_words: int = 0
                   ) -> Iterator[tuple[list[str], list[str], list[str]]]:
    """The ids, article ids and texts of a comments.jsonl file, in file order,
    as three lists of at most ``textproc._CHUNK`` rows at a time, each row
    checked as :class:`Comment` checks it and no id repeated in the file.
    ``min_words`` optionally drops comments with fewer tokens (off by default)."""
    held: tuple[list[str], list[str], list[str]] = ([], [], [])
    for linenos, rows in _chunks(path, _COMMENT_FIELDS, key="id"):
        chunk = [list(map(itemgetter(name), rows)) for name in _COMMENT_FIELDS]
        if not (all(chunk[0]) and all(chunk[2])):  # name the first empty id or text
            _load_rows(zip(linenos, rows), _COMMENT_FIELDS, Comment)
        if min_words > 0:
            keep = [len(tokens) >= min_words for tokens in textproc.tokenize_each(chunk[2])]
            chunk = [list(compress(column, keep)) for column in chunk]
        for column, part in zip(held, chunk):
            column += part
        while len(held[0]) >= (size := textproc._CHUNK):
            yield tuple(column[:size] for column in held)
            held = tuple(column[size:] for column in held)
    if held[0]:
        yield held


def load_comments(path: str | Path, min_words: int = 0) -> list[Comment]:
    """Load a comments.jsonl file, preserving file order; ``min_words`` is
    as for :func:`comment_blocks`."""
    return [Comment(*row) for block in comment_blocks(path, min_words) for row in zip(*block)]


def _as_rating_list(value, lineno: int, name: str) -> list[int]:
    items = value if isinstance(value, list) else [value]
    ratings = []
    for r in items:
        if not isinstance(r, int) or isinstance(r, bool):
            raise CorpusError(f"line {lineno}: {name} rating {r!r} is not an integer")
        if not 1 <= r <= 5:
            raise CorpusError(f"line {lineno}: {name} rating {r} outside [1, 5]")
        ratings.append(r)
    return ratings


def _as_flag_list(value, lineno: int) -> list[bool]:
    items = value if isinstance(value, list) else [value]
    flags = []
    for f in items:
        if isinstance(f, bool):
            flags.append(f)
        elif f in (0, 1):
            flags.append(bool(f))
        else:
            raise CorpusError(f"line {lineno}: attack flag {f!r} is not a boolean")
    return flags


def _tsv_rating(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError("non-integer rating") from exc


def _tsv_flag(raw: str) -> bool:
    flag = raw.strip().lower()
    if flag not in ("0", "1", "true", "false"):
        raise ValueError(f"attack flag {flag!r} is not a boolean")
    return flag in ("1", "true")


_ANNOTATED_TSV_FIELDS = {"id": str, "text": str, "toxicity": _tsv_rating,
                         "aggression": _tsv_rating, "attack": _tsv_flag}


def _tsv_rows(path: str | Path, fields: dict[str, Callable]) -> Iterator[tuple[int, dict]]:
    """(line number, row) for each non-blank line after the header of the
    tab-separated file ``path``. The header must name every field of
    ``fields``; a row maps each field to its column parsed by ``fields[name]``,
    whose ValueError becomes a CorpusError naming the line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        _check_utf8(first := fh.readline(), 1)
        header = first.rstrip("\n").split("\t")
        for name in fields:
            if name not in header:
                raise CorpusError(f"line 1: missing field {name}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            _check_utf8(line, lineno)
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise CorpusError(f"line {lineno}: expected {len(header)} columns, "
                                  f"got {len(parts)}")
            columns = dict(zip(header, parts))
            try:
                row = {name: parse(columns[name]) for name, parse in fields.items()}
            except ValueError as exc:
                raise CorpusError(f"line {lineno}: {exc}") from exc
            yield lineno, row


def load_annotated(path: str | Path) -> list[AnnotatedComment]:
    """Load annotated comments, aggregating per-annotator rows by id.

    Two layouts are accepted, and may be mixed within a .jsonl file:
    one line per comment with rating arrays ({"toxicity": [3, 4], ...}),
    or one line per annotator with scalars ({"toxicity": 3, ...}).
    A .tsv file with header columns id/text/toxicity/aggression/attack is
    read as per-annotator rows. Rows that repeat an id must repeat its text.
    """
    if Path(path).suffix.lower() == ".tsv":
        rows = _tsv_rows(path, _ANNOTATED_TSV_FIELDS)
    else:
        rows = _rows(path, _ANNOTATED_FIELDS)
    grouped: dict[str, tuple[str, list, list, list]] = {}
    for lineno, row in rows:
        text, tox, agg, att = grouped.setdefault(row["id"], (row["text"], [], [], []))
        if row["text"] != text:
            raise CorpusError(f"line {lineno}: id {row['id']!r} repeats with another text")
        tox.extend(_as_rating_list(row["toxicity"], lineno, "toxicity"))
        agg.extend(_as_rating_list(row["aggression"], lineno, "aggression"))
        att.extend(_as_flag_list(row["attack"], lineno))

    out = []
    for cid, (text, tox, agg, att) in grouped.items():
        if not (tox and agg and att):
            raise CorpusError(f"comment {cid!r} has zero annotators for some aspect")
        try:
            out.append(AnnotatedComment(cid, text, tuple(tox), tuple(agg), tuple(att)))
        except ValueError as exc:
            raise CorpusError(str(exc)) from exc
    return out


def save_articles(articles: Iterable[Article], path: str | Path) -> None:
    """Write articles.jsonl; tags are serialized sorted for reproducibility."""
    write_jsonl(path, _ARTICLE_FIELDS,
                ((a.id, a.source, a.title, a.body, sorted(a.tags), a.date) for a in articles))


def save_comments(comments: Iterable[Comment], path: str | Path) -> None:
    write_jsonl(path, _COMMENT_FIELDS, ((c.id, c.article_id, c.text) for c in comments))


def save_annotated(annotated: Iterable[AnnotatedComment], path: str | Path) -> None:
    write_jsonl(path, _ANNOTATED_FIELDS,
                ((ac.id, ac.text, ac.toxicity_ratings, ac.aggression_ratings, ac.attack_flags)
                 for ac in annotated))


def filter_by_keywords(articles: Iterable[Article], keywords: Iterable[str]) -> list[Article]:
    """Articles whose title or body contains at least one keyword.

    Matching is case-insensitive on whole tokens, so a keyword "election"
    does not match "electioneering".
    """
    keyset = {k.lower() for k in keywords}
    if not keyset:
        raise ValueError("keyword set must be non-empty")
    articles = list(articles)
    tokens = textproc.tokenize_each(text for a in articles for text in (a.title, a.body))
    return [a for a, title, body in zip(articles, tokens, tokens)
            if not keyset.isdisjoint(title + body)]


def filter_by_tag(articles: Iterable[Article], tag: str) -> list[Article]:
    """Articles carrying ``tag`` (case-insensitive) in their tag set."""
    want = tag.lower()
    return [a for a in articles if want in {t.lower() for t in a.tags}]


def train_test_split(
    items: Sequence[T],
    test_fraction: float,
    seed: int,
    labels: Sequence[bool] | None = None,
) -> tuple[list[T], list[T]]:
    """Deterministic seeded split; stratified by class when labels are given.

    Each side preserves the original item order. With labels, every class
    contributes round(test_fraction * class size) items to the test set,
    which keeps each class's share within one item of the target fraction.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(items) < 2:
        raise ValueError("need at least 2 items to split")
    if labels is not None and len(labels) != len(items):
        raise ValueError(f"got {len(items)} items but {len(labels)} labels")

    rng = random.Random(seed)
    if labels is None:
        groups = [list(range(len(items)))]
    else:
        pos = [i for i, lab in enumerate(labels) if lab]
        neg = [i for i, lab in enumerate(labels) if not lab]
        groups = [g for g in (neg, pos) if g]

    test_idx: set[int] = set()
    for group in groups:
        rng.shuffle(group)
        test_idx.update(group[: round(test_fraction * len(group))])

    train = [items[i] for i in range(len(items)) if i not in test_idx]
    test = [items[i] for i in sorted(test_idx)]
    return train, test

