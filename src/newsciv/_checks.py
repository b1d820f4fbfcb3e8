"""Field type checks shared by the config dataclasses, so that a mistyped
value from a JSON config or a ``--set`` item raises ValueError (exit 2 at
the CLI) instead of a TypeError later on."""

from __future__ import annotations

import dataclasses
import math
import numbers

# Annotation (a string, as annotations are postponed) -> (kind, wording).
_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a finite number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def check_field_types(config) -> None:
    """Raise ValueError unless every ``int``, ``float``, ``bool`` and ``str``
    field of dataclass ``config`` holds that kind. Bools are not numbers,
    numpy scalars count as numbers, and floats must be finite."""
    for field in dataclasses.fields(config):
        if field.type not in _KINDS:
            continue
        kind, what = _KINDS[field.type]
        value = getattr(config, field.name)
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
        if not ok or (kind is numbers.Real and not math.isfinite(value)):
            raise ValueError(f"{field.name} must be {what}, got {value!r}")
