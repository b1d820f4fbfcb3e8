"""The one writer of every file newsciv produces: UTF-8 text and an atomic
replace, so a crash or an exception part-way through a write leaves the
previous file (or none), never a truncated one for the next stage to read.
``write_jsonl`` and ``write_json`` write JSON without ``\\u`` escapes, the
rows of ``write_jsonl`` from one fixed template each, byte for byte as
``json.dumps(row, ensure_ascii=False)`` writes them;
``write_lines`` writes its lines as given, so the ``\\u``-escaped ids that
``cli`` formats into two files stay escaped."""

from __future__ import annotations

import json
import os
from itertools import islice
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Sequence

# Lines joined into one string for each write.
_BLOCK = 1024


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
            lines = iter(lines)
            while block := list(islice(lines, _BLOCK)):
                block.append("")  # so the join ends the last line too
                fh.write("\n".join(block))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json(value) -> str:
    """``value`` as ``json.dumps(value, ensure_ascii=False)`` writes it, for
    the kinds the JSONL files hold: a string, a bool, an int, a finite
    float, or a list or tuple of these."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(_json, value))}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_jsonl(path: str | Path, keys: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One JSON object per line: each row's values under ``keys``, in order.
    The line is ``json.dumps(dict(zip(keys, row)), ensure_ascii=False)``,
    formed from one ``%`` template of the keys without a JSON encoder per row."""
    line = "{" + ", ".join(f"{encode_basestring(key).replace('%', '%%')}: %s"
                           for key in keys) + "}"
    write_lines(path, (line % tuple(map(_json, row)) for row in rows))


def write_json(path: str | Path, payload) -> None:
    """One indented JSON document, keys in insertion order."""
    write_lines(path, [json.dumps(payload, indent=2, ensure_ascii=False)])
