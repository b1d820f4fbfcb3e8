"""Reference JSONL row reader for tests: the per-line path that
``newsciv.corpus._rows`` ran before it checked rows a column at a time.
Each line is decoded with ``json.loads`` and checked on its own, in file
order, so the first bad line is the one named. A line nested too deep to
decode, or holding an integer too long to convert, is a CorpusError naming
it, as in ``newsciv.corpus``. The comment loaders build one ``Comment`` per
row, as ``newsciv.corpus`` did before it read comments as columns.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from newsciv._checks import _KINDS
from newsciv.corpus import Comment, CorpusError
from textproc_reference import tokenize

COMMENT_FIELDS = {"id": "str", "article_id": "str", "text": "str"}


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


def _rows(path: str | Path, fields: dict[str, str | None],
          key: str | None = None) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of JSONL file ``path``,
    each checked to hold ``fields`` (see ``_require``). With ``key``, a string
    field of ``fields``, a row whose ``key`` value an earlier row had is rejected."""
    seen: set = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
            except RecursionError:
                raise CorpusError(f"line {lineno}: JSON nested too deep") from None
            except ValueError as exc:  # an integer too long to convert
                raise CorpusError(f"line {lineno}: {exc}") from None
            if not isinstance(row, dict):
                raise CorpusError(f"line {lineno}: expected a JSON object")
            _require(row, fields, lineno)
            if key is not None:
                if row[key] in seen:
                    raise CorpusError(f"line {lineno}: duplicate {key} {row[key]!r}")
                seen.add(row[key])
            yield lineno, row


def load_comments(path: str | Path, min_words: int = 0) -> list[Comment]:
    """One ``Comment`` per row, in file order, an error it raises naming its
    line; those with fewer than ``min_words`` tokens are dropped."""
    comments = []
    for lineno, row in _rows(path, COMMENT_FIELDS, "id"):
        try:
            comments.append(Comment(row["id"], row["article_id"], row["text"]))
        except ValueError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc
    return [c for c in comments if len(tokenize(c.text)) >= min_words]


def load_comment_columns(path: str | Path,
                         min_words: int = 0) -> tuple[list[str], list[str], list[str]]:
    """The ids, article ids and texts of :func:`load_comments`' comments."""
    comments = load_comments(path, min_words)
    return ([c.id for c in comments], [c.article_id for c in comments],
            [c.text for c in comments])
