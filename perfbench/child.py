"""One benchmark child in a fresh interpreter: set-up, timed passes, checks.

perfbench/run.py starts this file several times per run, with ./src on
PYTHONPATH, and reads the JSON it writes to --result. Set-up (import, corpus
generation and writing, and for library-3x the classifier training) ends at
the ``setup_end`` timestamp on the system-wide monotonic clock, so run.py can
add the interpreter start to it.

The timed region of a workload is a pass: a fixed list of steps (CLI
subcommands or library loops). The child runs passes back to back until
--pass-deadline, at least one. Before the first step and after every step
it times a fixed pure-Python calibration loop on the same core, so every
step has a measure of the host's speed taken seconds before and after it.
That lets run.py scale each step to a reference host speed (see
``calibrate``). Output checks run between passes and after the last one,
untimed and, in a traced child, untraced. A traced child runs one pass.

Every call into newsciv goes through a module attribute (``cli.main``,
``incivility.score_comment``, ...) so that the tracer's wrappers are the
ones called.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy
import scipy

from newsciv import cli, corpus, incivility, lda, subtext, synthetic

PLANTED = synthetic.SyntheticConfig().subtext_phrase
SUBTEXT_SWEEPS = 10
LIBRARY_SAMPLE_STRIDE = 97     # score_comment vs score_comments agreement sample
AGREEMENT_TOL = 1e-12
MIN_ASPECT_AUC = 0.9
CAL_ITERATIONS = 200_000       # one calibration loop: 14 to 22 ms on a 2-core x86 VM
CAL_LOOPS = 5                  # a calibration is the median of this many loops


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes now: the host's current speed.

    On a shared host the speed of a core drifts by tens of percent over
    seconds to minutes, and it moves the interpreter-bound steps of every
    workload with it. Timing this loop right before and after a step
    measures the speed that step ran at.
    """
    clock = time.perf_counter
    times = []
    for _ in range(CAL_LOOPS):
        t0 = clock()
        acc = 0
        for i in range(CAL_ITERATIONS):
            acc += i * i % 7
        times.append(clock() - t0)
    return statistics.median(times)


class Outcome:
    """Operations attempted in the timed passes and which of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set[object] = set()
        self.messages: list[str] = []
        self.extra: dict[str, object] = {}
        self.digests: list[str] = []

    def fail(self, op: object, message: str) -> None:
        self.failed.add(op)
        if len(self.messages) < 10:
            self.messages.append(f"{op}: {message}")

    def same_output(self, op: str, digest: str) -> None:
        """Every pass reruns the same inputs, so it must write the same output."""
        self.digests.append(digest)
        if digest != self.digests[0]:
            self.fail((op, len(self.digests)), "output differs from the first pass's")


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _save_corpus(cfg, out: Path, annotated: bool) -> dict:
    articles, comments, ann = synthetic.generate_corpus(cfg)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"articles": out / "articles.jsonl", "comments": out / "comments.jsonl"}
    corpus.save_articles(articles, paths["articles"])
    corpus.save_comments(comments, paths["comments"])
    if annotated:
        paths["annotated"] = out / "annotated.jsonl"
        corpus.save_annotated(ann, paths["annotated"])
    return {"paths": {k: str(v) for k, v in paths.items()},
            "n_articles": len(articles), "n_comments": len(comments),
            "articles": articles, "comments": comments}


def _cli(outcome: Outcome, name: str, argv: list[str]) -> None:
    outcome.attempted += 1
    try:
        code = cli.main([name, *argv])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - main() should catch these itself
        code = f"{type(exc).__name__}: {exc}"
    if code != 0:
        outcome.fail((name, outcome.attempted), f"exit code {code}")


# -- classify-10x: the batch CLI chain ---------------------------------------

def setup_classify(seed: int, work: Path) -> dict:
    cfg = synthetic.SyntheticConfig(
        seed=seed, n_articles=4000, comments_per_article=20, n_annotated=12000)
    return _save_corpus(cfg, work / "corpus", annotated=True)


def steps_classify(state: dict, work: Path, outcome: Outcome) -> list:
    p = state["paths"]
    common = ["--model-dir", str(work / "models"), "--out", str(work / "out")]
    chain = [
        ("train-aspects", ["--annotated", p["annotated"]]),
        ("score", ["--articles", p["articles"], "--comments", p["comments"]]),
        ("label-train-provoking", ["--articles", p["articles"]]),
        ("predict-provoking", ["--articles", p["articles"]]),
    ]
    return [(name, lambda n=name, a=argv: _cli(outcome, n, [*a, *common]))
            for name, argv in chain]


def after_pass_classify(state: dict, work: Path, outcome: Outcome) -> None:
    out = work / "out"
    outcome.same_output("classify", _digest(sorted(out.iterdir())))


def check_classify(state: dict, work: Path, outcome: Outcome) -> None:
    out = work / "out"
    try:
        reports = json.loads((out / "aspect_reports.json").read_text(encoding="utf-8"))
        auc_min = min(r["auc"] for r in reports.values())
        outcome.extra["aspect_auc_min"] = auc_min
        if len(reports) != 3 or not auc_min >= MIN_ASPECT_AUC:
            outcome.fail("train-aspects", f"aspect AUC {auc_min:.4f} < {MIN_ASPECT_AUC}")
    except (OSError, ValueError, KeyError) as exc:
        outcome.fail("train-aspects", f"unreadable aspect_reports.json: {exc}")

    try:
        scores = _read_jsonl(out / "scores.jsonl")
        weights = _read_jsonl(out / "article_weights.jsonl")
        fields = ("toxicity", "aggression", "attack", "incivility")
        bad = sum(1 for row in scores for f in fields if not 0.0 <= row[f] <= 1.0)
        if len(scores) != state["n_comments"] or bad:
            outcome.fail("score", f"{len(scores)} score rows for {state['n_comments']} "
                                  f"comments, {bad} values outside [0, 1]")
        if len(weights) != state["n_articles"]:
            outcome.fail("score", f"{len(weights)} weights for {state['n_articles']} articles")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome.fail("score", f"unreadable scores: {exc}")
        weights = []

    try:
        source_of = {row["article_id"]: row["source"] for row in weights}
        balance: Counter[str] = Counter()
        for row in _read_jsonl(out / "article_labels.jsonl"):
            balance[source_of[row["article_id"]]] += 1 if row["label"] else -1
        report = json.loads((out / "provoking_report.json").read_text(encoding="utf-8"))
        outcome.extra["provoking_auc"] = report["auc"]
        skewed = {s: d for s, d in balance.items() if abs(d) > 1}
        if not balance or skewed:
            outcome.fail("label-train-provoking",
                         f"labels not balanced per source (positives - negatives): {skewed}")
    except (OSError, ValueError, KeyError) as exc:
        outcome.fail("label-train-provoking", f"unreadable labels: {exc}")

    try:
        preds = _read_jsonl(out / "provoking_predictions.jsonl")
        bad = sum(1 for row in preds if not 0.0 <= row["probability"] <= 1.0
                  or not isinstance(row["label"], bool))
        if len(preds) != state["n_articles"] or bad:
            outcome.fail("predict-provoking",
                         f"{len(preds)} predictions, {bad} inconsistent")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome.fail("predict-provoking", f"unreadable predictions: {exc}")


# -- subtext-1x: two-phase LDA through the CLI ---------------------------------

def setup_subtext(seed: int, work: Path) -> dict:
    cfg = synthetic.SyntheticConfig(seed=seed, n_annotated=0)
    return _save_corpus(cfg, work / "corpus", annotated=False)


def steps_subtext(state: dict, work: Path, outcome: Outcome) -> list:
    p = state["paths"]
    argv = ["--articles", p["articles"], "--comments", p["comments"],
            "--out", str(work / "out"), "--set", f"lda.iterations={SUBTEXT_SWEEPS}"]
    return [("mine-subtext", lambda: _cli(outcome, "mine-subtext", argv))]


def after_pass_subtext(state: dict, work: Path, outcome: Outcome) -> None:
    path = work / "out" / "subtext.json"
    if path.is_file():
        outcome.same_output("mine-subtext", hashlib.sha256(path.read_bytes()).hexdigest())


def _modelled_tokens(texts: list[str], exclude: set[str]) -> int:
    """Tokens one phase hands to LDA: phrase bags minus exclusions, then
    phrases below the document-frequency floor dropped, as subtext does."""
    cfg = lda.LdaConfig(iterations=SUBTEXT_SWEEPS)
    docs = [[p for p in doc if p not in exclude] for doc in subtext.phrase_documents(texts, cfg)]
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    return sum(1 for doc in docs for p in doc if df[p] >= subtext.DEFAULT_MIN_PHRASE_DF)


def check_subtext(state: dict, work: Path, outcome: Outcome) -> None:
    try:
        raw = (work / "out" / "subtext.json").read_bytes()
        report = json.loads(raw)
        content = set(report["content_phrases"])
        comment = set(report["comment_phrases"])
    except (OSError, ValueError, KeyError) as exc:
        outcome.fail("mine-subtext", f"unreadable subtext.json: {exc}")
        return
    outcome.extra["subtext_sha256"] = hashlib.sha256(raw).hexdigest()
    if PLANTED not in comment:
        outcome.fail("mine-subtext", f"planted {PLANTED!r} missing from comment phrases")
    if content & comment:
        outcome.fail("mine-subtext", f"phrase sets overlap: {sorted(content & comment)}")
    tokens = (_modelled_tokens([a.body for a in state["articles"]], set())
              + _modelled_tokens([c.text for c in state["comments"]], content))
    outcome.extra["lda_tokens"] = tokens
    outcome.extra["token_sweeps"] = tokens * SUBTEXT_SWEEPS


# -- library-3x: the in-process library loop -----------------------------------

def setup_library(seed: int, work: Path) -> dict:
    cfg = synthetic.SyntheticConfig(
        seed=seed, n_articles=1200, comments_per_article=20, n_annotated=3600)
    articles, comments, annotated = synthetic.generate_corpus(cfg)
    index = corpus.Corpus.build(articles, comments)
    classifiers, _ = incivility.train_aspect_classifiers(annotated)
    batch = incivility.score_comments(classifiers, [c.text for c in comments])
    by_article: dict[str, list[float]] = {}
    for comment, score in zip(comments, batch):
        by_article.setdefault(comment.article_id, []).append(score.value)
    weights = [incivility.ArticleIncivility(a, incivility.mean_score(v), len(v))
               for a, v in by_article.items()]
    labeled = []
    for source, group in incivility.weights_by_source(articles, weights).items():
        threshold = incivility.source_median(group, source)
        labeled.extend(incivility.label_articles(group, threshold, source=source))
    body_of = {a.id: a for a in articles}
    provoking, _ = incivility.train_provoking_classifier(
        [body_of[w.article_id] for w in labeled], [bool(w.label) for w in labeled])
    return {"articles": articles, "comments": comments, "corpus": index,
            "classifiers": classifiers, "provoking": provoking, "batch": batch,
            "batch_by_article": by_article, "score_lat": [], "article_lat": [],
            "n_articles": len(articles), "n_comments": len(comments)}


def steps_library(state: dict, work: Path, outcome: Outcome) -> list:
    clf, index = state["classifiers"], state["corpus"]
    clock = time.perf_counter

    def score_loop() -> None:
        scores, lat = [], state["score_lat"]
        for i, comment in enumerate(state["comments"]):
            t0 = clock()
            try:
                scores.append(incivility.score_comment(clf, comment.text))
            except Exception as exc:  # noqa: BLE001 - a raised exception is a failed operation
                scores.append(None)
                outcome.fail(("score_comment", outcome.attempted + i), repr(exc))
            lat.append(clock() - t0)
        outcome.attempted += len(scores)
        state["scores"] = scores

    def article_loop() -> None:
        weights, lat = [], state["article_lat"]
        for i, article in enumerate(state["articles"]):
            t0 = clock()
            try:
                weights.append(incivility.article_weight(clf, index.comments_for(article.id)))
            except Exception as exc:  # noqa: BLE001
                weights.append(None)
                outcome.fail(("article_weight", outcome.attempted + i), repr(exc))
            lat.append(clock() - t0)
        outcome.attempted += len(weights)
        state["weights"] = weights

    def predict_loop() -> None:
        predictions = []
        for i, article in enumerate(state["articles"]):
            try:
                predictions.append(incivility.predict_provoking(state["provoking"], article.body))
            except Exception as exc:  # noqa: BLE001
                predictions.append(None)
                outcome.fail(("predict_provoking", outcome.attempted + i), repr(exc))
        outcome.attempted += len(predictions)
        state["predictions"] = predictions

    return [("score_comment", score_loop), ("article_weight", article_loop),
            ("predict_provoking", predict_loop)]


def after_pass_library(state: dict, work: Path, outcome: Outcome) -> None:
    batch = state["batch"]
    fields = ("toxicity", "aggression", "attack", "value")
    for i, score in enumerate(state["scores"]):
        if score is None:
            continue
        if not all(0.0 <= getattr(score, f) <= 1.0 for f in fields):
            outcome.fail(("score_comment", outcome.attempted, i), "score outside [0, 1]")
        elif i % LIBRARY_SAMPLE_STRIDE == 0:
            diff = max(abs(getattr(score, f) - getattr(batch[i], f)) for f in fields)
            if diff > AGREEMENT_TOL:
                outcome.fail(("score_comment", outcome.attempted, i),
                             f"differs from score_comments by {diff:.3g}")
    by_article = state["batch_by_article"]
    for i, (article, weight) in enumerate(zip(state["articles"], state["weights"])):
        if weight is None:
            continue
        values = by_article[article.id]
        expected = incivility.mean_score(values)
        if (weight.article_id != article.id or weight.n_comments != len(values)
                or abs(weight.weight - expected) > AGREEMENT_TOL):
            outcome.fail(("article_weight", outcome.attempted, i),
                         f"weight {weight.weight!r} over {weight.n_comments} comments, "
                         f"batch mean {expected!r} over {len(values)}")
    for i, pred in enumerate(state["predictions"]):
        if pred is not None and not (0.0 <= pred[0] <= 1.0 and pred[1] == (pred[0] > 0.5)):
            outcome.fail(("predict_provoking", outcome.attempted, i),
                         f"inconsistent prediction {pred!r}")


def check_library(state: dict, work: Path, outcome: Outcome) -> None:
    score_lat, article_lat = state["score_lat"], state["article_lat"]
    outcome.extra.update({
        "score_call_p50_us": _percentile(score_lat, 0.50) * 1e6,
        "score_call_p99_us": _percentile(score_lat, 0.99) * 1e6,
        "article_call_p50_ms": _percentile(article_lat, 0.50) * 1e3,
        "article_call_p99_ms": _percentile(article_lat, 0.99) * 1e3,
        "score_call_samples": len(score_lat),
        "article_call_samples": len(article_lat),
    })


# name -> (set-up, steps of one pass, check after each pass, check after the last)
WORKLOADS = {
    "classify-10x": (setup_classify, steps_classify, after_pass_classify, check_classify),
    "subtext-1x": (setup_subtext, steps_subtext, after_pass_subtext, check_subtext),
    "library-3x": (setup_library, steps_library, after_pass_library, check_library),
}


def run_passes(steps: list, after_pass, state: dict, work: Path, outcome: Outcome,
               deadline: float, max_passes: int) -> tuple[list[dict], float]:
    """Run passes until the next one would end after ``deadline``.

    Each step's record holds its wall and CPU time and the mean of the
    calibrations taken right before and right after it. Also returns the
    peak RSS in MB through set-up and the first pass, which does not depend
    on how many passes fit before the deadline.
    """
    passes = []
    peak_rss_mb = 0.0
    cal = calibrate()
    while len(passes) < max_passes:
        start = time.monotonic()
        records = []
        for name, step in steps:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            step()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            cal_after = calibrate()
            records.append({"step": name, "wall_s": wall, "cpu_s": cpu,
                            "cal_s": (cal + cal_after) / 2})
            cal = cal_after
        after_pass(state, work, outcome)
        passes.append({"steps": records})
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.monotonic() + (time.monotonic() - start) > deadline:
            break
    return passes, peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-deadline", required=True, type=float,
                        help="time.monotonic() after which no further pass starts")
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    setup, steps_of, after_pass, check = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    import_end = time.monotonic()
    state = setup(args.seed, args.work)
    setup_end = time.monotonic()

    outcome = Outcome()
    steps = steps_of(state, args.work, outcome)
    # A traced child runs one pass, so its counters describe one pass.
    passes, peak_rss_mb = run_passes(steps, after_pass, state, args.work, outcome,
                                     args.pass_deadline,
                                     1 if tracer is not None else sys.maxsize)

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        if args.spans is not None:
            tracer.write_spans(args.spans)
    check(state, args.work, outcome)

    result = {
        "import_end": import_end,
        "setup_end": setup_end,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "n_comments": state["n_comments"],
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "failures": outcome.messages,
        "extra": outcome.extra,
        "layers": layers,
        "missing_boundaries": tracer.missing if tracer is not None else [],
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_cap": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        },
    }
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    shutil.rmtree(args.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
