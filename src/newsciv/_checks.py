"""Checks shared by the config dataclasses, the JSONL row readers and the
model-file loaders, so that a mistyped value from a JSON config, a ``--set``
item, an input row or a damaged model file raises ValueError (exit 2 at the
CLI) instead of a RecursionError, TypeError, KeyError or IndexError."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import re
from pathlib import Path

# A code point that UTF-8 cannot encode. A JSON "\ud800" escape loads as one,
# and a byte that is not UTF-8 reads as one with errors="surrogateescape".
_SURROGATE = re.compile("[\ud800-\udfff]")


def is_finite_number(value) -> bool:
    """A real number that is not a bool and converts to a finite float
    (numpy scalars count)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def is_nonnegative_int(value, below: int | None = None) -> bool:
    """A non-negative integer that is not a bool, less than ``below`` if given."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value and (below is None or value < below))


# Annotation (a string, as annotations are postponed) or row field kind ->
# (check, wording).
_KINDS = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
            "an integer"),
    "float": (is_finite_number, "a finite number"),
    "float in [0, 1]": (lambda v: is_finite_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "int >= 1": (lambda v: is_nonnegative_int(v) and v >= 1, "an integer >= 1"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    # ``isinstance(v, str)`` without a Python frame per value: row readers
    # check a column of values at a time.
    "str": (str.__instancecheck__, "a string"),
    # A string that an output file can hold as UTF-8, unescaped.
    "utf-8 str": (lambda v: isinstance(v, str) and not _SURROGATE.search(v),
                  "a string with no lone surrogate"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[str, ...]": (lambda v: isinstance(v, (list, tuple))
                        and all(isinstance(s, str) for s in v), "a list of strings"),
}


def check_field_types(config) -> None:
    """Raise ValueError unless every field of dataclass ``config`` whose
    annotation is a kind in ``_KINDS`` holds that kind. Bools are not
    numbers, numpy scalars count as numbers, and floats must be finite."""
    for field in dataclasses.fields(config):
        if field.type not in _KINDS:
            continue
        ok, what = _KINDS[field.type]
        value = getattr(config, field.name)
        if not ok(value):
            raise ValueError(f"{field.name} must be {what}, got {value!r}")


def loads(text: str, where: str):
    """``json.loads(text)``, but JSON nested too deep to decode, or an
    integer too long to convert, raises ValueError naming ``where`` (a file,
    a line or a key). A JSONDecodeError passes through as it is."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{where}: JSON nested too deep") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_json(path: str | Path):
    """The JSON value in file ``path``, as :func:`loads` decodes it, but
    text that is not UTF-8 or not JSON raises ValueError naming the file."""
    try:
        return loads(Path(path).read_text(encoding="utf-8"), str(path))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def check_object(value, keys: tuple[str, ...], where: str) -> dict:
    """``value``, checked to be a JSON object holding every key in ``keys``;
    otherwise ValueError naming ``where`` (a model file, or a part of one)."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: must be a JSON object")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    return value
