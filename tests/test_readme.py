"""README's library quickstart stays in step with the package: its
``python`` block compiles, and every name it imports from ``newsciv``
exists. Removing or renaming a public name that the quickstart uses fails
here instead of leaving the README stale. The block is not run; it fits
models on a default-size corpus, and the demos cover running the API.
The package root exports exactly the names that the quickstart and the
demos import from it, so an export that nothing documents cannot return.
README's config covering every stage loads as a ``RunConfig``, so a renamed
or retyped config field fails here as well."""

from __future__ import annotations

import ast
import importlib
import json
import re
import types
from pathlib import Path

import newsciv
from newsciv import cli

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
