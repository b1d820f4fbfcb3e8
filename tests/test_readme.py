"""README's library quickstart stays in step with the package: its
``python`` block compiles, and every name it imports from ``newsciv``
exists. Removing or renaming a public name that the quickstart uses fails
here instead of leaving the README stale. The block is not run; it fits
models on a default-size corpus, and the demos cover running the API.
The package root exports exactly the names that the quickstart and the
demos import from it, so an export that nothing documents cannot return.
README's config covering every stage loads as a ``RunConfig``, so a renamed
or retyped config field fails here as well. The keys and format version
that README's data formats give for the model files, and for their parts,
are those that ``cli`` writes."""

from __future__ import annotations

import ast
import importlib
import json
import re
import types
from pathlib import Path

import numpy as np

import newsciv
from newsciv import cli
from newsciv.features import fit_transform
from newsciv.incivility import Classifier
from newsciv.linmodel import LogisticModel

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
FULL_CONFIG = re.search(r"^A config covering every stage:\n\n```json\n(.*?)^```",
                        README, re.S | re.M)


def test_readme_has_one_python_block():
    assert len(BLOCKS) == 1


def test_quickstart_compiles():
    compile(BLOCKS[0], "README.md quickstart", "exec")


def _imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each ``from module import name`` in ``source``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_quickstart_imports_resolve():
    imported = _imports(BLOCKS[0])
    assert imported, "the quickstart imports nothing"
    for module, name in imported:
        assert module == "newsciv" or module.startswith("newsciv."), module
        assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"


def test_root_exports_only_what_quickstart_and_demos_import():
    sources = [BLOCKS[0]] + [path.read_text(encoding="utf-8")
                             for path in sorted((ROOT / "demos").glob("*.py"))]
    used = {name for source in sources for module, name in _imports(source)
            if module == "newsciv"}
    bound = {name for name, value in vars(newsciv).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == used


def test_full_config_loads():
    """The config that README says covers every stage names only fields
    that RunConfig and its sub-configs still have, each of its kind."""
    assert FULL_CONFIG, "README has no full config block"
    data = json.loads(FULL_CONFIG[1])
    assert cli._from_dict(cli.RunConfig(), data).synthetic.n_articles == 400


def _listed_model_file(name: str) -> tuple[str, list[list[str]]]:
    """The data formats bullet that starts with model file ``name``, and
    the keys of each ``{"key", ...}`` in it, in order."""
    bullet = re.search(rf"^ *\* `{re.escape(name)}`.*?(?=^ *\*|^$)", README, re.S | re.M)
    assert bullet, f"README lists no model file {name}"
    return bullet[0], [re.findall(r'"(\w+)"', keys)
                       for keys in re.findall(r"`\{(.*?)\}`", bullet[0], re.S)]


def test_model_file_keys_match_the_writers(tmp_path):
    """The bullet gives the file's keys, then its ``tfidf`` part's, then a
    model part's."""
    tfidf = fit_transform(["a b", "a c"])[0]
    model = LogisticModel(weights=np.arange(tfidf.dimension) / 2, bias=0.5)
    cli._save_classifier(Classifier(tfidf, {"provoking": model}), "provoking", tmp_path)
    payload = json.loads((tmp_path / "provoking.json").read_text())
    bullet, keys = _listed_model_file("aspects.json")
    assert keys == [list(payload), list(payload["tfidf"]),
                    list(payload["models"]["provoking"])]
    assert f"format {payload['format_version']}:" in bullet
