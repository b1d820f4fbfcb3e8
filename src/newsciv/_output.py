"""The one writer of every file newsciv produces: UTF-8 text and an atomic
replace, so a crash or an exception part-way through a write leaves the
previous file (or none), never a truncated one for the next stage to read.
``write_jsonl`` and ``write_json`` write JSON without ``\\u`` escapes;
``write_lines`` writes its lines as given, so the ``\\u``-escaped ids that
``cli`` formats into two files stay escaped."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` plus a newline to ``path``, atomically.

    The lines stream into a dot-named temp file in the target's directory,
    which ``os.replace`` then renames onto ``path``; a missing directory is
    made first. Any exception removes the temp file and leaves ``path`` as it
    was. The temp file is made by plain ``open``, so a new file's mode
    follows the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """One JSON value per line."""
    write_lines(path, (json.dumps(row, ensure_ascii=False) for row in rows))


def write_json(path: str | Path, payload) -> None:
    """One indented JSON document, keys in insertion order."""
    write_lines(path, [json.dumps(payload, indent=2, ensure_ascii=False)])
