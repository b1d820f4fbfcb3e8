"""The writer module: a failed write leaves no trace, a new file gets the
mode plain ``open`` gives it, a missing directory is made on the first
write into it, and no other module writes files or makes directories.
The layering guard keeps the topic model and subtext mining off the corpus
types: they take plain texts."""

from __future__ import annotations

import ast
import json
import os
import stat
from pathlib import Path

import pytest

from newsciv import _output
from newsciv.corpus import Comment, save_comments

PACKAGE = Path(_output.__file__).parent


def comments(n: int, fail_after: int | None = None):
    for i in range(n):
        if i == fail_after:
            raise RuntimeError("stream broke")
        yield Comment(id=f"c{i}", article_id="a0", text=f"text {i}")


B = _output._BLOCK  # lines per write


@pytest.mark.parametrize("fail_after", [2, B + 2], ids=["first-block", "second-block"])
@pytest.mark.parametrize("existing", [True, False], ids=["replace", "new"])
def test_failed_write_leaves_previous_file_and_no_temp_file(tmp_path, existing, fail_after):
    path = tmp_path / "comments.jsonl"
    if existing:
        save_comments(comments(3), path)
    before = sorted(os.listdir(tmp_path)), path.read_bytes() if existing else None
    with pytest.raises(RuntimeError, match="stream broke"):
        save_comments(comments(fail_after + 3, fail_after=fail_after), path)
    assert (sorted(os.listdir(tmp_path)), path.read_bytes() if existing else None) == before


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_write_into_missing_nested_directory_makes_it(tmp_path, n):
    """Lines written a block at a time come out as one ``f"{line}\\n"`` per
    line would write them, whatever the count's place among the blocks."""
    path = tmp_path / "a" / "b" / "comments.jsonl"
    save_comments(comments(n), path)
    expected = "".join(f"{json.dumps(row, ensure_ascii=False)}\n" for row in (
        {"id": c.id, "article_id": c.article_id, "text": c.text} for c in comments(n)))
    assert path.read_bytes() == expected.encode("utf-8")
    assert os.listdir(path.parent) == ["comments.jsonl"]


def test_failed_write_into_missing_directory_leaves_no_temp_file(tmp_path):
    path = tmp_path / "a" / "b" / "comments.jsonl"
    with pytest.raises(RuntimeError, match="stream broke"):
        save_comments(comments(5, fail_after=2), path)
    assert os.listdir(path.parent) == []


def test_new_file_mode_follows_the_umask_like_plain_open(tmp_path):
    old = os.umask(0o022)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        save_comments(comments(1), tmp_path / "written.jsonl")
    finally:
        os.umask(old)
    mode = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
            for name in ("plain", "written.jsonl")]
    assert mode[0] == mode[1] == 0o644


def _file_writes(tree: ast.AST):
    """(line, call) of every call in ``tree`` that can write a file: an
    ``open`` whose mode is not a constant read mode, ``os.open``,
    ``write_text``, ``write_bytes``, and ``mkdir`` or ``makedirs`` by any
    owner (``Path.mkdir``, ``os.mkdir``, ``os.makedirs``)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
            yield node.lineno, name
        elif name == "open":
            owner = getattr(func, "value", None)
            module = owner.id if isinstance(owner, ast.Name) and owner.id in ("io", "os") else None
            if module == "os":
                yield node.lineno, "os.open"
                continue
            # open(file, mode) and io.open(file, mode), but Path(...).open(mode)
            at = 0 if isinstance(func, ast.Attribute) and module is None else 1
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
            if not all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                       and not set(m.value) & set("wax+") for m in modes):
                yield node.lineno, "open"


def test_only_the_writer_module_writes_files():
    writes = {
        path.name: list(_file_writes(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert writes.pop("_output.py"), "the guard no longer sees the writer's own open"
    assert {name: found for name, found in writes.items() if found} == {}


def _package_imports(tree: ast.AST) -> set[str]:
    """The ``newsciv`` modules that ``tree`` imports, by their names in the
    package: ``from .corpus import X``, ``from . import corpus``,
    ``import newsciv.corpus`` and ``from newsciv.corpus import X``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "newsciv" and not module.startswith("newsciv."):
                    continue
                module = module.removeprefix("newsciv").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("newsciv."))
    return found


def test_topic_model_and_subtext_take_plain_texts():
    imports = {
        name: _package_imports(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
        for name in ("lda", "subtext")
    }
    assert imports["lda"] <= {"_checks", "textproc"}, imports["lda"]
    assert "corpus" not in imports["subtext"], imports["subtext"]


@pytest.mark.parametrize("source, found", [
    ("from .corpus import Comment", {"corpus"}),
    ("from . import corpus, textproc", {"corpus", "textproc"}),
    ("from .corpus.sub import x", {"corpus"}),
    ("import newsciv.corpus", {"corpus"}),
    ("from newsciv.corpus import Comment", {"corpus"}),
    ("from newsciv import corpus", {"corpus"}),
    ("import numpy as np", set()),
    ("from collections import Counter", set()),
])
def test_import_guard_sees_each_way_to_import(source, found):
    assert _package_imports(ast.parse(source)) == found


@pytest.mark.parametrize("source, flagged", [
    ("open(p, 'w')", True),
    ("open(p, mode='a', encoding='utf-8')", True),
    ("open(p, 'rb+')", True),
    ("open(p, m)", True),
    ("Path(p).open('x')", True),
    ("os.open(p, os.O_RDONLY)", True),
    ("Path(p).write_text(s)", True),
    ("p.write_bytes(b)", True),
    ("Path(p).mkdir(parents=True, exist_ok=True)", True),
    ("out_dir.mkdir()", True),
    ("os.mkdir(p)", True),
    ("os.makedirs(p, exist_ok=True)", True),
    ("makedirs(p)", True),
    ("open(p)", False),
    ("open(p, encoding='utf-8')", False),
    ("open(p, 'rb')", False),
    ("Path(p).open()", False),
    ("p.read_text()", False),
    ("p.exists()", False),
])
def test_write_guard_sees_each_way_to_write(source, flagged):
    assert bool(list(_file_writes(ast.parse(source)))) == flagged
