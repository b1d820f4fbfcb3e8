"""The one writer of every file newsciv produces: UTF-8 text and an atomic
replace, so a crash or an exception part-way through a write leaves the
previous file (or none, and no directory it made), never a truncated one.
``write_jsonl`` and ``write_json`` write JSON without ``\\u`` escapes, the
rows of ``write_jsonl`` from one fixed template each, byte for byte as
``json.dumps(row, ensure_ascii=False)`` writes them;
``write_lines`` writes its lines as given, so the ``\\u``-escaped ids that
``cli`` formats into two files stay escaped."""

from __future__ import annotations

import json
import os
from contextlib import suppress
from itertools import islice, takewhile
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Iterable, Sequence

# Lines joined into one string for each write.
_BLOCK = 1024


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` plus a newline to ``path``, atomically.

    The lines stream into a dot-named temp file in the target's directory,
    which ``os.replace`` then renames onto ``path``; a missing directory is
    made first. Any exception removes the temp file and every directory it
    made, and leaves ``path`` as it was. The temp file is made by plain
    ``open``, so a new file's mode follows the umask."""
    path = Path(path)
    made = list(takewhile(lambda d: not d.exists(), path.parents))  # deepest first
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            lines = iter(lines)
            while block := list(islice(lines, _BLOCK)):
                block.append("")  # so the join ends the last line too
                fh.write("\n".join(block))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        for directory in made:  # one not made after all, or no longer empty, stays
            with suppress(OSError):
                directory.rmdir()
        raise


# json.dumps(value, ensure_ascii=False)'s own C encoder, to write a list in one call.
_encode_list = c_make_encoder(None, json.JSONEncoder().default, encode_basestring, None,
                              ": ", ", ", False, False, True)


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
        return "".join(_encode_list(value, 0))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_jsonl(path: str | Path, keys: Iterable[str], rows: Iterable[Sequence]) -> None:
    """One JSON object per line: each row's values under ``keys``, in order.
    The line is ``json.dumps(dict(zip(keys, row)), ensure_ascii=False)``,
    formed from one ``%`` template of the keys without a JSON encoder per row."""
    line = "{" + ", ".join(f"{encode_basestring(key).replace('%', '%%')}: %s"
                           for key in keys) + "}"
    write_lines(path, (line % tuple(map(_json, row)) for row in rows))


def write_json(path: str | Path, payload) -> None:
    """One indented JSON document, keys in insertion order."""
    write_lines(path, [json.dumps(payload, indent=2, ensure_ascii=False)])
