"""The writer module: a failed write leaves no trace, not even a directory
it made, a new file gets the mode plain ``open`` gives it, a missing
directory is made on the first write into it, a JSONL row is the bytes
``json.dumps(row, ensure_ascii=False)`` gives, and no other module writes
files, makes directories or encodes JSON one value at a time with
``json.dumps``.
The layering guard keeps the topic model and subtext mining off the corpus
types: they take plain texts; only ``textproc`` knows n-gram keys;
comment lines are decoded only in ``corpus.block_comments``; no module
imports a thread or process pool, nor forks outside ``cli``; ``cli`` reads
no private name of another module; and no private top-level name is left
unread."""

from __future__ import annotations

import ast
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    assert not (tmp_path / "a").exists()


def test_failed_write_removes_only_the_directories_it_made(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "kept.txt").write_text("kept")
    path = tmp_path / "a" / "b" / "c" / "comments.jsonl"
    with pytest.raises(RuntimeError, match="stream broke"):
        save_comments(comments(5, fail_after=2), path)
    assert os.listdir(tmp_path / "a") == ["kept.txt"]


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


# Strings rich in what JSON escapes, or that ``ensure_ascii=False`` keeps as is.
TEXTS = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028\u2029é\U0001f600%'),
                          st.characters()))
SCALARS = st.one_of(TEXTS, st.booleans(), st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.one_of(SCALARS, st.lists(st.one_of(TEXTS, st.integers(), st.booleans()), max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), keys=st.lists(TEXTS, unique=True, max_size=5))
def test_jsonl_rows_are_the_bytes_of_json_dumps(tmp_path, data, keys):
    rows = data.draw(st.lists(st.tuples(*[VALUES] * len(keys)), max_size=4))
    _output.write_jsonl(tmp_path / "rows.jsonl", keys, rows)
    expected = "".join(f"{json.dumps(dict(zip(keys, row)), ensure_ascii=False)}\n"
                       for row in rows)
    assert (tmp_path / "rows.jsonl").read_bytes() == expected.encode("utf-8")


def test_lone_surrogate_fails_the_write_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "comments.jsonl"
    save_comments(comments(3), path)
    before = path.read_bytes()
    lone = Comment(id="c9", article_id="a0", text="half \ud800 pair")
    with pytest.raises(UnicodeEncodeError):
        save_comments([*comments(3), lone], path)
    assert os.listdir(tmp_path) == ["comments.jsonl"]
    assert path.read_bytes() == before


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


def _transform_calls(tree: ast.AST) -> list[str]:
    """The enclosing top-level class (``"<module>"`` outside one) of every
    call of a ``.transform`` attribute in ``tree``."""
    return [top.name if isinstance(top, ast.ClassDef) else "<module>"
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "transform"]


def test_only_the_classifier_transforms_texts():
    """One scoring path: in ``incivility`` and ``cli``, texts become features
    only inside ``incivility.Classifier``."""
    calls = {name: _transform_calls(ast.parse((PACKAGE / f"{name}.py").read_text("utf-8")))
             for name in ("incivility", "cli")}
    assert "Classifier" in calls["incivility"], "the guard no longer sees the classifier's calls"
    calls["incivility"] = [where for where in calls["incivility"] if where != "Classifier"]
    assert calls == {"incivility": [], "cli": []}


@pytest.mark.parametrize("source, found", [
    ("x = tfidf.transform(texts)", ["<module>"]),
    ("def f(c, t):\n    return c.tfidf.transform(t)", ["<module>"]),
    ("class Classifier:\n    def p(self, t):\n        return self.tfidf.transform(t)",
     ["Classifier"]),
    ("class A:\n    class Classifier:\n        def p(self, t):\n            return t.transform()",
     ["A"]),
    ("TfidfModel.transform(tfidf, texts)", ["<module>"]),
    ("fit_transform(texts, config)", []),
    ("x = model.transform", []),
])
def test_transform_guard_sees_each_call(source, found):
    assert _transform_calls(ast.parse(source)) == found


_TRAIN_STEPS = ("fit_transform", "train_logistic", "train_test_split")


def _train_step_calls(tree: ast.AST) -> list[tuple[str, str]]:
    """Each call of a ``_TRAIN_STEPS`` name or attribute in ``tree``, with its
    enclosing top-level definition (``"<module>"`` outside one)."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in _TRAIN_STEPS:
                    found.append((name, getattr(top, "name", "<module>")))
    return found


def test_one_train_path_splits_and_fits():
    """In ``incivility`` and ``cli``, the split, the TF-IDF fit and the
    logistic fit are each called once, inside ``incivility._train``."""
    calls = {name: _train_step_calls(ast.parse((PACKAGE / f"{name}.py").read_text("utf-8")))
             for name in ("incivility", "cli")}
    assert sorted(calls["incivility"]) == [(step, "_train") for step in _TRAIN_STEPS]
    assert calls["cli"] == []


@pytest.mark.parametrize("source, found", [
    ("model = train_logistic(x, y)", [("train_logistic", "<module>")]),
    ("def _train(t):\n    return corpus.train_test_split(t, 0.2, 0)",
     [("train_test_split", "_train")]),
    ("def f(t, c):\n    def _train():\n        return fit_transform(t, c)",
     [("fit_transform", "f")]),
    ("class C:\n    def m(self, x, y):\n        return train_logistic(x, y)",
     [("train_logistic", "C")]),
    ("fit = train_logistic", []),
    ("x = tfidf.transform(texts)", []),
])
def test_train_path_guard_sees_each_call(source, found):
    assert _train_step_calls(ast.parse(source)) == found


# The readers through which a row reaches ``corpus._numbered_chunks``.
_DECODERS = ("_numbered_chunks", "_chunks", "_rows", "read_rows")


def _comment_decodes(tree: ast.AST) -> list[tuple[str, str]]:
    """Each call in ``tree`` of a ``_DECODERS`` name or attribute that is
    passed ``_COMMENT_FIELDS`` (a name or an attribute, by position or by
    keyword), with its enclosing top-level definition (``"<module>"``
    outside one)."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                args = node.args + [kw.value for kw in node.keywords]
                if name in _DECODERS and any(
                        getattr(arg, "attr", getattr(arg, "id", None)) == "_COMMENT_FIELDS"
                        for arg in args):
                    found.append((name, getattr(top, "name", "<module>")))
    return found


def test_one_comment_decode_path():
    """Comment lines are decoded and checked only inside
    ``corpus.block_comments``, which every comment reader calls."""
    calls = {path.name: _comment_decodes(ast.parse(path.read_text("utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert calls.pop("corpus.py") == [("_numbered_chunks", "block_comments")]
    assert {name: found for name, found in calls.items() if found} == {}


@pytest.mark.parametrize("source, found", [
    ("rows = _numbered_chunks(lines, _COMMENT_FIELDS, 'id', seen)",
     [("_numbered_chunks", "<module>")]),
    ("def block_comments(n, s):\n    return list(_numbered_chunks(n, _COMMENT_FIELDS, 'id', s))",
     [("_numbered_chunks", "block_comments")]),
    ("def f(p):\n    return corpus._rows(p, corpus._COMMENT_FIELDS, key='id')",
     [("_rows", "f")]),
    ("class C:\n    def m(self, p):\n        return read_rows(p, fields=_COMMENT_FIELDS)",
     [("read_rows", "C")]),
    ("def f(p):\n    def block_comments():\n        return _chunks(p, _COMMENT_FIELDS)",
     [("_chunks", "f")]),
    ("rows = _chunks(path, _ARTICLE_FIELDS, key='id')", []),
    ("names = list(_COMMENT_FIELDS)", []),
])
def test_comment_decode_guard_sees_each_call(source, found):
    assert _comment_decodes(ast.parse(source)) == found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, name) for each ``_``-prefixed name of another newsciv module
    that ``tree`` reads: imported by ``from .module import _name`` (or
    ``from newsciv.module``), or read as ``module._name`` through a module
    that ``from . import module`` or ``import newsciv.module as m`` binds."""
    modules: dict[str, str] = {}  # the local name of each newsciv module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "newsciv"
                                                 or node.module.startswith("newsciv.")):
            module = (node.module or "").removeprefix("newsciv").lstrip(".")
            for alias in node.names:
                if not module:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append((module, alias.name))
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.removeprefix("newsciv."))
                           for alias in node.names
                           if alias.asname and alias.name.startswith("newsciv."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((modules[node.value.id], node.attr))
    return found


def test_cli_reads_no_private_name_of_another_module():
    """``cli`` goes through the other modules' public names, so a helper
    behind them can change without a second caller to keep in step."""
    assert _private_reads(ast.parse((PACKAGE / "cli.py").read_text("utf-8"))) == []


@pytest.mark.parametrize("source, found", [
    ("from . import incivility\nincivility._fold(b, a, v)", [("incivility", "_fold")]),
    ("from . import incivility as inc\ndef f(c, t):\n    return inc._score_columns(c, t)",
     [("incivility", "_score_columns")]),
    ("from .corpus import _rows, read_rows", [("corpus", "_rows")]),
    ("from newsciv.corpus import _rows as rows", [("corpus", "_rows")]),
    ("import newsciv.textproc as tp\nn = tp._CHUNK", [("textproc", "_CHUNK")]),
    ("from ._checks import loads\nfrom . import _output\n_output.write_json(p, x)", []),
    ("from . import incivility\nincivility.fold_scores(c, t, a, b)", []),
    ("from . import incivility\nname = incivility.__name__", []),
    ("import os\nos._exit(1)", []),
    ("self._cache = args._x", []),
])
def test_private_read_guard_sees_each_read(source, found):
    assert _private_reads(ast.parse(source)) == found


def _dead_private_names(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(file, name) for each ``_``-prefixed top-level name defined in
    ``trees``, by file name, that no other top-level statement of any of
    them reads, as a name, an attribute or an imported name."""
    readers: dict[str, set] = {}  # name -> each (file, statement index) reading it
    defined: list[tuple[str, int, str]] = []
    for file, tree in trees.items():
        for i, top in enumerate(tree.body):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((file, i, top.name))
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                defined.extend((file, i, node.id)
                               for target in ([top.target] if isinstance(top, ast.AnnAssign)
                                              else top.targets)
                               for node in ast.walk(target) if isinstance(node, ast.Name))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    readers.setdefault(name, set()).add((file, i))
    return [(file, name) for file, i, name in defined
            if _private(name) and not readers.get(name, set()) - {(file, i)}]


def test_no_private_top_level_name_is_dead():
    """Every private helper, constant and class of the package is read
    somewhere besides its own definition."""
    trees = {path.name: ast.parse(path.read_text("utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_names(trees) == []


@pytest.mark.parametrize("sources, found", [
    ({"a.py": "def _f():\n    return _f()"}, [("a.py", "_f")]),
    ({"a.py": "def _f():\n    pass\ndef g():\n    return _f()"}, []),
    ({"a.py": "_X = 1\ndef g():\n    return _X"}, []),
    ({"a.py": "_X: int = 1\nclass _C:\n    pass"}, [("a.py", "_X"), ("a.py", "_C")]),
    ({"a.py": "_A, _B = 1, 2\nprint(_A)"}, [("a.py", "_B")]),
    ({"a.py": "def _f():\n    pass", "b.py": "from .a import _f"}, []),
    ({"a.py": "def _f():\n    pass", "b.py": "a._f()"}, []),
    ({"a.py": "def f():\n    _local = 1\n    return _local"}, []),
    ({"a.py": "def __getattr__(name):\n    pass\n__all__ = []"}, []),
])
def test_dead_private_guard_sees_each_name(sources, found):
    assert _dead_private_names({f: ast.parse(s) for f, s in sources.items()}) == found


def _dumps_calls(tree: ast.AST) -> list[str]:
    """The enclosing function (``"<module>"`` at the top level) of every call
    of ``json.dumps`` in ``tree``: through the module under any name
    (``json.dumps``, ``import json as j; j.dumps``) or by its own
    (``from json import dumps [as d]``)."""
    modules, names = {"json"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name == "dumps")
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "dumps"
                    and isinstance(func.value, ast.Name) and func.value.id in modules
                    or isinstance(func, ast.Name) and func.id in names):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_write_json_calls_json_dumps():
    """Rows go through ``write_jsonl``'s template: a ``json.dumps`` per row
    builds an encoder each time."""
    calls = {
        (path.name, where)
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _dumps_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert calls == {("_output.py", "write_json")}


@pytest.mark.parametrize("source, found", [
    ("json.dumps(x)", ["<module>"]),
    ("def f(x):\n    return json.dumps(x, indent=2)", ["f"]),
    ("import json as j\ndef f(x):\n    return j.dumps(x)", ["f"]),
    ("from json import dumps\nclass C:\n    def f(self, x):\n        return dumps(x)", ["f"]),
    ("from json import dumps as d\nd(x)", ["<module>"]),
    ("def f():\n    def g(x):\n        return json.dumps(x)\n    return g", ["g"]),
    ("lines = (json.dumps(r) for r in rows)", ["<module>"]),
    ("json.loads(x)", []),
    ("pickle.dumps(x)", []),
    ("from json import loads\nloads(x)", []),
    ("dumps(x)", []),
])
def test_dumps_guard_sees_each_way_to_call_it(source, found):
    assert _dumps_calls(ast.parse(source)) == found


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


_NGRAM_ENCODER = ("gram_ids", "_number", "encode_texts")


def _ngram_key_uses(tree: ast.AST) -> list[str]:
    """Each use in ``tree`` of what only ``textproc`` should know of n-gram
    keys: an import or attribute of an ``_NGRAM_ENCODER`` name, and a call
    of ``searchsorted`` (method, ``np.searchsorted`` or imported by name)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names if alias.name in _NGRAM_ENCODER]
        elif isinstance(node, ast.Attribute) and node.attr in _NGRAM_ENCODER:
            found.append(node.attr)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "searchsorted"):
            found.append("searchsorted")
    return sorted(found)


def test_only_textproc_knows_ngram_keys():
    """One n-gram lookup: other modules go through ``textproc.Ngrams``, which
    alone numbers, keys and looks up n-grams."""
    uses = {path.name: _ngram_key_uses(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))}
    assert uses.pop("textproc.py"), "the guard no longer sees textproc's own lookups"
    assert {name: found for name, found in uses.items() if found} == {}


@pytest.mark.parametrize("source, found", [
    ("from .textproc import Ngrams, gram_ids", ["gram_ids"]),
    ("from newsciv.textproc import (\n    encode_texts,\n    _number as ng,\n)",
     ["_number", "encode_texts"]),
    ("ids = grams._number(k, keys)", ["_number"]),
    ("from . import textproc\nids = textproc.encode_texts(texts)", ["encode_texts"]),
    ("at = table.searchsorted(keys)", ["searchsorted"]),
    ("def f(t, k):\n    return np.searchsorted(t, k)", ["searchsorted"]),
    ("from numpy import searchsorted\nsearchsorted(t, k)", ["searchsorted"]),
    ("from .textproc import DEFAULT_STOPLIST, Ngrams, chunks", []),
    ("ids = grams.find(terms)", []),
])
def test_ngram_key_guard_sees_each_use(source, found):
    assert _ngram_key_uses(ast.parse(source)) == found


_CONCURRENCY = ("threading", "multiprocessing", "concurrent")


def _concurrency_uses(tree: ast.AST) -> list[str]:
    """Each import in ``tree`` of a ``_CONCURRENCY`` module or one of its
    submodules, and each call of ``os.fork`` (``"os.fork"``): through the
    module under any name or imported by its own."""
    found, modules, forks = [], {"os"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] in _CONCURRENCY]
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "os")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in _CONCURRENCY:
                found.append(node.module)
            elif node.module == "os":
                forks.update(alias.asname or alias.name for alias in node.names
                             if alias.name == "fork")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "fork"
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
                or isinstance(node.func, ast.Name) and node.func.id in forks):
            found.append("os.fork")
    return sorted(found)


def test_no_module_starts_threads_and_only_cli_forks():
    """``score``'s workers are plain forks driven by ``cli``: no module
    imports a thread or process pool, and no other module forks."""
    uses = {path.name: _concurrency_uses(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))}
    assert uses.pop("cli.py") == ["os.fork"], "the guard no longer sees the workers' fork"
    assert {name: found for name, found in uses.items() if found} == {}


@pytest.mark.parametrize("source, found", [
    ("import threading", ["threading"]),
    ("import multiprocessing.pool as pools", ["multiprocessing.pool"]),
    ("from concurrent.futures import ProcessPoolExecutor", ["concurrent.futures"]),
    ("from concurrent import futures", ["concurrent"]),
    ("def f():\n    import threading as t\n    return t.Thread", ["threading"]),
    ("import os\npid = os.fork()", ["os.fork"]),
    ("import os as o\nif o.fork() == 0:\n    pass", ["os.fork"]),
    ("from os import fork\nfork()", ["os.fork"]),
    ("from os import fork as spawn\nspawn()", ["os.fork"]),
    ("import os\nr, w = os.pipe()", []),
    ("pid = os.getpid()", []),
    ("fork = os.fork", []),
    ("fork()", []),
    ("from .threading import x", []),
    ("import subprocess, pickle", []),
])
def test_concurrency_guard_sees_each_way_to_use_it(source, found):
    assert _concurrency_uses(ast.parse(source)) == found


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
