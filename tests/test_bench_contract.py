"""The benchmark in ``perfbench/`` calls newsciv by name: ``child.py``
through module attributes (``subtext.phrase_documents``, ``lda.LdaConfig``,
...) and ``tracer.py`` through the function names it wraps. Both files are
read here with ``ast``, and one test runs the tracer from its source over a
subtext run; neither file is changed or imported as a module. A refactor
that renames or removes one of those names, or reshapes the signature of a
call child.py makes, fails here instead of breaking the benchmark's output
checks or zeroing its per-layer metrics."""

from __future__ import annotations

import ast
import importlib
import inspect
import random
import types
from pathlib import Path

import pytest

from newsciv import subtext
from newsciv.lda import LdaConfig

from test_subtext import build_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


CHILD_TREE = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
# The modules child.py imports with ``from newsciv import ...``.
CHILD_MODULES = {
    alias.asname or alias.name
    for node in ast.walk(CHILD_TREE)
    if isinstance(node, ast.ImportFrom) and node.module == "newsciv"
    for alias in node.names
}


def _child_attributes() -> list[tuple[str, str]]:
    """(module, attribute) for every ``module.attribute`` that child.py
    reads from a module in ``CHILD_MODULES``."""
    tree, modules = CHILD_TREE, CHILD_MODULES
    return sorted({
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


def _child_calls() -> list[tuple[str, int, tuple[str, ...]]]:
    """(dotted name, positional count, keyword names) of every call child.py
    makes to a name under a module in ``CHILD_MODULES``, such as
    ``corpus.Corpus.build(articles, comments)``."""
    calls = set()
    for node in ast.walk(CHILD_TREE):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if parts and isinstance(func, ast.Name) and func.id in CHILD_MODULES:
            calls.add((".".join([func.id, *reversed(parts)]), len(node.args),
                       tuple(keyword.arg for keyword in node.keywords)))
    return sorted(calls)


def _boundaries() -> dict[str, tuple[str, ...]]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "BOUNDARIES"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no BOUNDARIES")


CHILD_ATTRIBUTES = _child_attributes()
CHILD_CALLS = _child_calls()
TRACED = [(layer, name) for layer, names in _boundaries().items()
          if layer in ("lda", "subtext", "textproc") for name in names]
# Traced names that newsciv no longer has: the string n-gram helpers, which
# live on only as test oracles in ``textproc_reference``. The tracer lists
# them as missing; any other traced name that disappears still fails here.
RETIRED = [("textproc", "ngrams"), ("textproc", "remove_stopwords"),
           ("textproc", "build_vocabulary")]


def test_child_reads_the_names_the_checks_need():
    assert ("subtext", "phrase_documents") in CHILD_ATTRIBUTES
    assert ("subtext", "DEFAULT_MIN_PHRASE_DF") in CHILD_ATTRIBUTES
    assert ("lda", "LdaConfig") in CHILD_ATTRIBUTES
    assert ("cli", "main") in CHILD_ATTRIBUTES


@pytest.mark.parametrize("module, attribute", CHILD_ATTRIBUTES,
                         ids=[f"{m}.{a}" for m, a in CHILD_ATTRIBUTES])
def test_child_attribute_resolves(module, attribute):
    assert hasattr(importlib.import_module(f"newsciv.{module}"), attribute)


def test_child_calls_include_dotted_names():
    assert ("corpus.Corpus.build", 2, ()) in CHILD_CALLS
    assert ("incivility.label_articles", 2, ("source",)) in CHILD_CALLS


@pytest.mark.parametrize("dotted, n_positional, keywords", CHILD_CALLS,
                         ids=[f"{d}/{n}/{','.join(k)}" for d, n, k in CHILD_CALLS])
def test_child_call_binds_to_the_signature(dotted, n_positional, keywords):
    """Each call child.py makes binds, by its positional count and keyword
    names, to the current signature of what it calls."""
    assert None not in keywords, "a **mapping argument cannot be checked"
    module, *path = dotted.split(".")
    target = importlib.import_module(f"newsciv.{module}")
    for part in path:
        target = getattr(target, part)
    inspect.signature(target).bind(*range(n_positional), **dict.fromkeys(keywords))


@pytest.mark.parametrize("layer, qualname", TRACED, ids=[f"{l}.{q}" for l, q in TRACED])
def test_traced_name_resolves(layer, qualname):
    if (layer, qualname) in RETIRED:
        pytest.skip(f"newsciv.{layer}.{qualname} is retired")
    owner = importlib.import_module(f"newsciv.{layer}")
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"newsciv.{layer}.{qualname} is gone"
    assert callable(owner)


def test_traced_subtext_run_fills_the_lda_and_subtext_counters():
    """The tracer's lda and subtext counters read the model that
    ``fit_lda`` returns and the ``exclude`` argument of
    ``extract_topic_phrases``, so both must still be called by name."""
    source = PERFBENCH / "tracer.py"
    tracer_module = types.ModuleType("perfbench_tracer")
    exec(compile(source.read_text(encoding="utf-8"), str(source), "exec"),
         tracer_module.__dict__)
    tracer = tracer_module.Tracer()
    articles, comments = build_corpus(random.Random(7), planted="quartz meadow")
    config = LdaConfig(n_topics=3, iterations=4, seed=0, n_min=2, n_max=2)
    tracer.install()
    try:
        subtext.mine_subtext([a.body for a in articles], [c.text for c in comments],
                             config=config, min_phrase_df=3)
    finally:
        tracer.uninstall()
    assert [m for m in tracer.missing if m.split(".")[0] in ("lda", "subtext", "textproc")] \
        == [f"{layer}.{name}" for layer, name in RETIRED]
    metrics = tracer.layer_metrics()
    assert metrics["lda.sweeps"] == 2 * config.iterations
    assert metrics["lda.tokens"] > 0 and metrics["lda.vocab_size"] > 0
    assert metrics["subtext.phase1_s"] > 0 and metrics["subtext.phase2_s"] > 0
    assert tracer.calls["lda.topics_by_size"] == 2
    assert tracer.calls["lda.topic_terms"] > 0
