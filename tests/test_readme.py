"""README's library quickstart stays in step with the package: its
``python`` block compiles, and every name it imports from ``newsciv``
exists. Removing or renaming a public name that the quickstart uses fails
here instead of leaving the README stale. The block is not run; it fits
models on a default-size corpus, and the demos cover running the API."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.S | re.M)


def test_readme_has_one_python_block():
    assert len(BLOCKS) == 1


def test_quickstart_compiles():
    compile(BLOCKS[0], "README.md quickstart", "exec")


def test_quickstart_imports_resolve():
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(BLOCKS[0]))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported, "the quickstart imports nothing"
    for module, name in imported:
        assert module == "newsciv" or module.startswith("newsciv."), module
        assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"
