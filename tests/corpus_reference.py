"""Reference JSONL row reader for tests: the per-line path that
``newsciv.corpus._rows`` ran before it checked rows a column at a time.
Each line is decoded with ``json.loads`` and checked on its own, in file
order, so the first bad line is the one named. A line nested too deep to
decode, or holding an integer too long to convert, is a CorpusError naming
it, as in ``newsciv.corpus``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from newsciv._checks import _KINDS
from newsciv.corpus import CorpusError


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
