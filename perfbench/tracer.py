"""Outside-in tracing of newsciv's layers for the traced benchmark run.

The tracer wraps the functions that are called across a module boundary,
plus the few inside one that a counter needs (``linmodel.loss`` and
``fit_with_history``, ``subtext.extract_topic_phrases``), all listed in
BOUNDARIES. It patches every name a caller looks them up by: ``cli``,
``incivility`` and ``subtext`` bind most of them with ``from ... import``,
so the module that defines a function is only one of the places patched.
Each call records a span (name, start, end, parent) in memory; per-name call
counts, total time and self time (span time minus the time of its child
spans) are kept alongside, plus a few work counters read from arguments and
results. ``layer_metrics`` turns those into the per-layer metrics named in
BENCHMARK.json.

Names missing from the package (a later version may delete or rename them)
are skipped and listed in ``missing``, so the tracer keeps working; the
metrics that depend on them then read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

BOUNDARIES = {
    "textproc": ("tokenize", "ngrams", "remove_stopwords", "build_vocabulary"),
    "synthetic": ("generate_corpus",),
    "corpus": (
        "load_articles", "load_comments", "load_annotated",
        "save_articles", "save_comments", "save_annotated",
        "Corpus.build", "Corpus.comments_for",
        "train_test_split", "filter_by_keywords", "filter_by_tag",
    ),
    "features": ("fit_tfidf", "TfidfModel.transform", "save_tfidf", "load_tfidf"),
    "linmodel": (
        "train_logistic", "fit_with_history", "loss", "scores_for",
        "LogisticModel.predict_proba", "evaluate", "save_logistic", "load_logistic",
    ),
    "incivility": (
        "train_aspect_classifiers", "score_comment", "score_comments", "mean_score",
        "article_weight", "source_median", "label_articles",
        "train_provoking_classifier", "predict_provoking",
    ),
    "lda": ("fit_lda", "topic_terms", "topics_by_size"),
    "subtext": ("mine_subtext", "extract_topic_phrases", "save_report"),
    "cli": (
        "main", "cmd_train_aspects", "cmd_score", "cmd_label_train_provoking",
        "cmd_predict_provoking", "cmd_mine_subtext",
    ),
}


class Tracer:
    """Span recorder installed over the newsciv package for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[int] = []        # indices of open spans, innermost last
        self._child: list[float] = []     # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary function at each binding in newsciv.*."""
        import newsciv  # noqa: F401 - loads every submodule

        modules = {n: m for n, m in sys.modules.items()
                   if n == "newsciv" or n.startswith("newsciv.")}
        replaced: dict[int, tuple[object, object]] = {}
        for layer, names in BOUNDARIES.items():
            module = modules.get(f"newsciv.{layer}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{layer}.{qualname}")
                    continue
                span_name = f"{layer}.{qualname}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    wrapped = self._wrap(span_name, raw)
                    replaced[id(raw)] = (raw, wrapped)
                self._set(owner, attr, wrapped)
        # Re-point every other binding of a wrapped function (from-imports).
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def uninstall(self) -> None:
        """Restore every binding that install() replaced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        on_result = _COUNTERS.get(name)
        spans, calls, total, self_time = self.spans, self.calls, self.total, self.self_time
        stack, child_time = self._open, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                children = child_time.pop()
                duration = end - start
                if child_time:
                    child_time[-1] += duration
                spans[index] = (name, start, end, parent)
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - children
            if on_result is not None:
                on_result(self.counters, args, kwargs, result, duration)
            return result

        return traced

    # -- results -------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in self.self_time.items() if n.startswith(prefix))

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json uses."""
        calls, total, c = self.calls, self.total, self.counters

        def per_call(name: str, scale: float) -> float:
            return total[name] / calls[name] * scale if calls[name] else 0.0

        token_sweeps = c["lda.token_sweeps"]
        loss_evals = calls["linmodel.loss"]
        score_rows = c["linmodel.score_rows"]
        transforms = calls["features.TfidfModel.transform"]
        return {
            "lda.fit_s": total["lda.fit_lda"],
            "lda.us_per_token_sweep":
                total["lda.fit_lda"] / token_sweeps * 1e6 if token_sweeps else 0.0,
            "lda.tokens": c["lda.tokens"],
            "lda.sweeps": c["lda.sweeps"],
            "lda.vocab_size": c["lda.vocab_size"],
            "subtext.phase1_s": c["subtext.phase1_s"],
            "subtext.phase2_s": c["subtext.phase2_s"],
            "subtext.self_s": self.layer_self("subtext"),
            "features.fit_s": total["features.fit_tfidf"],
            "features.transform_calls": transforms,
            "features.transform_us": per_call("features.TfidfModel.transform", 1e6),
            "features.nnz_per_doc": c["features.nnz"] / transforms if transforms else 0.0,
            "linmodel.train_s": total["linmodel.train_logistic"],
            "linmodel.train_iterations": c["linmodel.accepted_steps"],
            "linmodel.loss_evals": loss_evals,
            "linmodel.accepted_step_ratio":
                c["linmodel.accepted_steps"] / loss_evals if loss_evals else 0.0,
            "linmodel.score_us_per_row":
                (total["linmodel.scores_for"] + total["linmodel.LogisticModel.predict_proba"])
                / score_rows * 1e6 if score_rows else 0.0,
            "linmodel.evaluate_s": total["linmodel.evaluate"],
            "incivility.train_aspects_s": total["incivility.train_aspect_classifiers"],
            "incivility.score_comments_s": total["incivility.score_comments"],
            "incivility.train_provoking_s": total["incivility.train_provoking_classifier"],
            "incivility.score_comment_us": per_call("incivility.score_comment", 1e6),
            "incivility.article_weight_ms": per_call("incivility.article_weight", 1e3),
            "incivility.predict_provoking_us": per_call("incivility.predict_provoking", 1e6),
            "incivility.self_s": self.layer_self("incivility"),
            "corpus.load_s": sum(total[f"corpus.load_{k}"]
                                 for k in ("articles", "comments", "annotated")),
            "corpus.save_s": sum(total[f"corpus.save_{k}"]
                                 for k in ("articles", "comments", "annotated")),
            "corpus.rows": c["corpus.rows"],
            "corpus.comments_for_us": per_call("corpus.Corpus.comments_for", 1e6),
            "textproc.calls": sum(n for k, n in calls.items() if k.startswith("textproc.")),
            "textproc.self_s": self.layer_self("textproc"),
            "synthetic.generate_s": total["synthetic.generate_corpus"],
            "cli.train_aspects_s": total["cli.cmd_train_aspects"],
            "cli.score_s": total["cli.cmd_score"],
            "cli.label_train_provoking_s": total["cli.cmd_label_train_provoking"],
            "cli.predict_provoking_s": total["cli.cmd_predict_provoking"],
            "cli.mine_subtext_s": total["cli.cmd_mine_subtext"],
            "cli.self_s": self.layer_self("cli"),
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path: Path) -> None:
        """Dump every span as [name id, start us, end us, parent index]."""
        names: dict[str, int] = {}
        base = self.spans[0][1] if self.spans else 0.0
        rows = [
            [names.setdefault(n, len(names)), round((s - base) * 1e6, 1),
             round((e - base) * 1e6, 1), p]
            for n, s, e, p in self.spans
        ]
        payload = {"names": list(names), "columns": ["name", "start_us", "end_us", "parent"],
                   "spans": rows}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


# -- work counters read from arguments and results ------------------------

def _count_fit_lda(c, args, kwargs, model, duration) -> None:
    sweeps = model.config.iterations
    c["lda.tokens"] += model.n_tokens
    c["lda.sweeps"] += sweeps
    c["lda.token_sweeps"] += model.n_tokens * sweeps
    c["lda.vocab_size"] += len(model.vocabulary)


def _count_phase(c, args, kwargs, result, duration) -> None:
    excluded = kwargs.get("exclude", args[2] if len(args) > 2 else ())
    c["subtext.phase2_s" if excluded else "subtext.phase1_s"] += duration


def _count_transform(c, args, kwargs, vector, duration) -> None:
    nnz = getattr(vector, "nnz", None)
    c["features.nnz"] += nnz if nnz is not None else len(vector.indices)


def _count_history(c, args, kwargs, result, duration) -> None:
    c["linmodel.accepted_steps"] += len(result[1]) - 1


def _count_score_rows(c, args, kwargs, result, duration) -> None:
    c["linmodel.score_rows"] += len(result)


def _count_one_row(c, args, kwargs, result, duration) -> None:
    c["linmodel.score_rows"] += 1


def _count_rows(c, args, kwargs, result, duration) -> None:
    c["corpus.rows"] += len(result)


_COUNTERS = {
    "lda.fit_lda": _count_fit_lda,
    "subtext.extract_topic_phrases": _count_phase,
    "features.TfidfModel.transform": _count_transform,
    "linmodel.fit_with_history": _count_history,
    "linmodel.scores_for": _count_score_rows,
    "linmodel.LogisticModel.predict_proba": _count_one_row,
    "corpus.load_articles": _count_rows,
    "corpus.load_comments": _count_rows,
    "corpus.load_annotated": _count_rows,
}
