"""Batch command-line interface.

Subcommands cover the whole pipeline: ``train-aspects``, ``score``,
``label-train-provoking``, ``predict-provoking``, ``mine-subtext``,
``generate-synthetic``, and ``evaluate``. Every run is configured by a
single JSON document (``--config``), then by ``--set dotted.key=value``
items, then by the dedicated flags, each of which is shorthand for the
config key(s) it names in ``_FLAGS``; all randomness comes from explicit seeds
in that configuration. Only this module knows that each classifier is
saved as one model file, ``model_dir/aspects.json`` or ``provoking.json``.

Exit codes: 0 success, 1 internal error, 2 input or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pickle
import sys
from contextlib import closing, suppress
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from . import incivility, textproc
from ._checks import check_field_types, check_object, loads, read_json
from ._output import write_json, write_jsonl, write_lines
from .corpus import (
    CorpusError,
    block_comments,
    comment_blocks,
    filter_by_keywords,
    filter_by_tag,
    line_blocks,
    load_annotated,
    load_articles,
    read_rows,
    save_annotated,
    save_articles,
    save_comments,
)
from .features import TfidfConfig, load_tfidf, save_tfidf
from .lda import LdaConfig
from .linmodel import (DECISION_THRESHOLD, EvalReport, LogisticModel, TrainConfig,
                       load_logistic, save_logistic)
from .subtext import DEFAULT_MIN_PHRASE_DF, mine_subtext, save_report
from .synthetic import SyntheticConfig, generate_corpus


@dataclass(frozen=True)
class RunConfig:
    """One reproducibility artifact per run: paths, sub-configs, seeds."""

    articles: str | None = None
    comments: str | None = None
    annotated: str | None = None
    model_dir: str = "models"
    out_dir: str = "out"
    aspect_tfidf: TfidfConfig = incivility.ASPECT_TFIDF_CONFIG
    article_tfidf: TfidfConfig = incivility.ARTICLE_TFIDF_CONFIG
    train: TrainConfig = TrainConfig()
    lda: LdaConfig = LdaConfig()
    keywords: tuple[str, ...] = ()
    tag: str | None = None
    split_seed: int = 0
    test_fraction: float = 0.2
    min_phrase_df: int = DEFAULT_MIN_PHRASE_DF
    min_comment_words: int = 0
    synthetic: SyntheticConfig = SyntheticConfig()

    def __post_init__(self) -> None:
        check_field_types(self)  # the sub-configs check their own fields
        for name in ("split_seed", "min_phrase_df", "min_comment_words"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "keywords", tuple(self.keywords))
        for keyword in self.keywords:
            if textproc.tokenize(keyword) != [keyword.lower()]:
                raise ValueError(f"keyword {keyword!r} can never match: "
                                 "keywords match single tokens")


def _from_dict(base, data: dict, what: str = "config keys"):
    """Config dataclass ``base`` with the entries of JSON object ``data``
    replaced, recursing into every field that holds a dataclass, so a
    partial sub-config keeps the rest of its default."""
    unknown = set(data) - {f.name for f in dataclasses.fields(base)}
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")
    kwargs = dict(data)
    for key, value in data.items():
        if dataclasses.is_dataclass(getattr(base, key)):
            if not isinstance(value, dict):
                raise ValueError(f"config key {key!r} must be an object")
            kwargs[key] = _from_dict(getattr(base, key), value, f"keys under {key!r}")
    return dataclasses.replace(base, **kwargs)


# Each dedicated flag: its value type, help text and the config key(s) it is
# shorthand for. Flags are applied after the --set items, through the same
# setter, so a flag wins. The option is the name with dashes (--model-dir).
_FLAGS = {
    "seed": (int, "override every seed the command uses",
             ("split_seed", "lda.seed", "synthetic.seed")),
    "out": (str, "output directory", ("out_dir",)),
    "model_dir": (str, "model directory", ("model_dir",)),
    "articles": (str, "articles.jsonl", ("articles",)),
    "comments": (str, "comments.jsonl", ("comments",)),
    "annotated": (str, "annotated comments (.jsonl or .tsv)", ("annotated",)),
    "tag": (str, "restrict articles to this tag", ("tag",)),
    "test_fraction": (float, "held-out share of the training items", ("test_fraction",)),
    "min_phrase_df": (int, "least document frequency of a mined phrase", ("min_phrase_df",)),
    "min_comment_words": (int, "drop comments with fewer tokens", ("min_comment_words",)),
    "n_articles": (int, "synthetic articles", ("synthetic.n_articles",)),
    "comments_per_article": (int, "synthetic comments per article",
                             ("synthetic.comments_per_article",)),
    "n_annotated": (int, "synthetic annotated comments", ("synthetic.n_annotated",)),
}


def _set_path(data: dict, key: str, value) -> None:
    """Set the dotted config ``key`` to ``value`` in the raw config."""
    node = data
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"config key {key!r} descends into a non-object value")
    node[parts[-1]] = value


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        data = read_json(args.config)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
    for item in args.set or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {item!r}")
        try:
            value = loads(raw, f"--set {key}")
        except json.JSONDecodeError:
            value = raw  # bare strings need no quoting
        _set_path(data, key, value)
    for flag, (_, _, keys) in _FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            for key in keys:
                _set_path(data, key, value)
    return _from_dict(RunConfig(), data)


def _require_paths(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if value is None:
            raise ValueError(f"no {name} path configured (set {name!r} or --{name})")
        if not Path(value).exists():
            raise ValueError(f"{name} file not found: {value}")


def _warn_unconverged(name: str, model: LogisticModel, train: TrainConfig) -> None:
    """One stderr line for a fit that stopped before its gradient tolerance."""
    fit = model.convergence
    if fit.stop != "gradient":
        print(f"warning: {name} model stopped on {fit.stop} after {fit.iterations} "
              f"iterations with max |gradient| {fit.grad_max:.3g} "
              f"(tolerance {train.tolerance:g})", file=sys.stderr)


def _write_reports(path: Path, reports: dict[str, EvalReport]) -> None:
    """Write ``{name: report}`` to ``path`` and print one line per report."""
    write_json(path, {name: dataclasses.asdict(report) for name, report in reports.items()})
    for name, report in reports.items():
        print(f"{name}: auc={report.auc:.3f} accuracy={report.accuracy:.3f}")


def _select_articles(cfg: RunConfig):
    """The articles that ``score`` and ``mine-subtext`` work on: those carrying
    the tag, if set (an error when none does), and holding a keyword, if set."""
    articles = load_articles(cfg.articles)
    if cfg.tag is not None:
        articles = filter_by_tag(articles, cfg.tag)
        if not articles:
            raise ValueError(f"no articles carry tag {cfg.tag!r}")
    if cfg.keywords:
        articles = filter_by_keywords(articles, cfg.keywords)
    return articles


MODEL_FORMAT_VERSION = 3

# Each classifier's model names, and the command that writes its one file,
# so one write replaces the vectorizer and its models together.
_CLASSIFIERS = {"aspects": (incivility.ASPECTS, "train-aspects"),
                "provoking": (("provoking",), "label-train-provoking")}


def _save_classifier(classifier: incivility.Classifier, kind: str, model_dir: Path) -> None:
    write_json(model_dir / f"{kind}.json", {
        "format_version": MODEL_FORMAT_VERSION,
        "tfidf": save_tfidf(classifier.tfidf),
        "models": {name: save_logistic(model) for name, model in classifier.models.items()},
    })


def _load_classifier(kind: str, model_dir: Path) -> incivility.Classifier:
    names, command = _CLASSIFIERS[kind]
    path = model_dir / f"{kind}.json"
    if not path.exists():
        raise ValueError(f"model file not found: {path} (run '{command}')")
    payload = check_object(read_json(path), ("format_version",), str(path))
    if (version := payload["format_version"]) != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version: {version!r}")
    check_object(payload, ("tfidf", "models"), str(path))
    tfidf = load_tfidf(payload["tfidf"], f"{path}: tfidf")
    models = check_object(payload["models"], names, f"{path}: models")
    if len(models) > len(names):
        raise ValueError(f"{path}: models: unknown names {sorted(set(models) - set(names))}")
    return incivility.Classifier(tfidf, {
        name: load_logistic(models[name], tfidf.dimension, f"{path}: models.{name}")
        for name in names})


# The exceptions that ``main`` reports as input errors, with exit code 2.
_INPUT_ERRORS = (ValueError, OSError)


def _fork_worker(work, workers: list) -> tuple:
    """Fork a worker that answers each item on its pipe with ``(True,
    work(item))``, or ``(False, (is_input_error, message))`` if it raises,
    until EOF. It closes the pipe ends it inherits to and from the earlier
    ``workers``, so a pipe that the parent closes ends there and then."""
    tasks, to_worker = os.pipe()
    from_worker, results = os.pipe()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        stream.flush()
    try:
        pid = os.fork()
    except OSError:
        for fd in (tasks, to_worker, from_worker, results):
            os.close(fd)
        raise
    if pid:
        os.close(tasks)
        os.close(results)
        return pid, os.fdopen(to_worker, "wb"), os.fdopen(from_worker, "rb")
    code = 1  # in the worker, which never returns
    try:
        for fd in (to_worker, from_worker, *(f.fileno() for _, *ends in workers for f in ends)):
            os.close(fd)
        reader, writer = os.fdopen(tasks, "rb"), os.fdopen(results, "wb")
        while reader.peek(1):
            try:
                result = True, work(pickle.load(reader))
            except Exception as exc:  # noqa: BLE001 - raised again in the parent
                result = False, (isinstance(exc, _INPUT_ERRORS), str(exc))
            pickle.dump(result, writer)
            writer.flush()
        code = 0
    finally:
        os._exit(code)


def _result(worker: tuple):
    """The next result that ``worker`` sends; an exception it sends is raised
    as a ``ValueError`` or ``RuntimeError``, which ``main`` reports as inline."""
    ok, value = pickle.load(worker[2])
    if not ok:
        input_error, message = value
        raise (ValueError if input_error else RuntimeError)(message)
    return value


def _in_workers(work, items):
    """``work(item)`` for each of ``items``, in order: inline on one usable
    core, on one item or without ``os.fork``, else in forked workers, one
    per core. A worker gets its next item once its last result is read, so
    at most one item per worker is in flight. A worker's exception is raised
    in item order, by ``_result``, and a worker that dies is a ``RuntimeError``;
    on any exit the pipes are closed and every worker is reaped."""
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    items = iter(items)
    head = list(islice(items, 2)) if cores > 1 else []
    items = chain(head, items)
    if len(head) < 2:
        yield from map(work, items)
        return
    del head  # the chain drops the first two items once it passes them
    workers: list[tuple] = []  # (pid, pipe to it, pipe from it), in order forked
    busy: list[tuple] = []  # the workers holding an item, in the order they got it
    try:
        for item in items:
            if len(workers) < cores:
                workers.append(worker := _fork_worker(work, workers))
            else:
                yield _result(worker := busy.pop(0))
            pickle.dump(item, worker[1])
            worker[1].flush()
            busy.append(worker)
        while busy:
            yield _result(busy.pop(0))
    except (EOFError, pickle.UnpicklingError, BrokenPipeError) as exc:
        raise RuntimeError("a worker ended without its result") from exc
    finally:
        for _, to_worker, from_worker in workers:
            with suppress(OSError):  # a dead worker leaves bytes unsent
                to_worker.close()
            from_worker.close()
        for pid, _, _ in workers:
            os.waitpid(pid, 0)


# --- subcommands -----------------------------------------------------------

def cmd_train_aspects(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require_paths(cfg, "annotated")
    annotated = load_annotated(cfg.annotated)
    classifiers, reports = incivility.train_aspect_classifiers(
        annotated,
        tfidf_config=cfg.aspect_tfidf,
        train_config=cfg.train,
        split_seed=cfg.split_seed,
        test_fraction=cfg.test_fraction,
    )
    _save_classifier(classifiers, "aspects", Path(cfg.model_dir))
    _write_reports(Path(cfg.out_dir) / "aspect_reports.json", reports)
    for aspect, model in classifiers.models.items():
        _warn_unconverged(f"aspect {aspect}", model, cfg.train)
    return 0


# article_weights.jsonl, as ``score`` writes and ``label-train-provoking`` reads it.
_WEIGHT_FIELDS = {"article_id": "str", "weight": "float in [0, 1]",
                  "n_comments": "int >= 1", "source": "utf-8 str"}


def cmd_score(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require_paths(cfg, "articles", "comments")
    classifiers = _load_classifier("aspects", Path(cfg.model_dir))
    articles = _select_articles(cfg)
    out_dir = Path(cfg.out_dir)
    # Ids are strings, for which json.dumps is exactly encode_basestring_ascii.
    line = ('{"comment_id": %s, "toxicity": %.6f, "aggression": %.6f, "attack": %.6f, '
            '"incivility": %.6f}')

    def score(block):
        """A line block's ids, dropped ones too, its comments' incivility
        by article and their scores.jsonl lines, decoded and checked here."""
        seen: set = set()
        first, block_lines = block
        ids, article_ids, texts = block_comments(enumerate(block_lines, start=first), seen,
                                                 cfg.min_comment_words)
        by_block_article: dict[str, list[float]] = {}
        columns = incivility.fold_scores(classifiers, texts, article_ids, by_block_article)
        return list(seen), by_block_article, [
            line % row for row in zip(map(encode_basestring_ascii, ids), *columns)]

    # Line blocks stream from the file to workers to writer; the parent
    # checks each block's ids against those of the blocks before it and
    # folds its incivility, in file order, and only the article scores stay.
    by_article: dict[str, list[float]] = {}
    seen: set = set()  # the ids of the blocks folded so far
    folded = 0  # blocks

    def lines(scored):
        nonlocal folded
        for ids, by_block_article, block_lines in scored:
            if not seen.isdisjoint(ids):
                raise CorpusError("an id repeats an earlier block's")  # named below
            seen.update(ids)
            folded += 1
            for article_id, values in by_block_article.items():
                by_article.setdefault(article_id, []).extend(values)
            yield from block_lines

    try:
        with closing(_in_workers(score, line_blocks(cfg.comments))) as scored:
            write_lines(out_dir / "scores.jsonl", lines(scored))
    except Exception:
        # Checked inline after the blocks before it, the first block not
        # folded raises the error that reading the file in order names first.
        for first, block_lines in islice(line_blocks(cfg.comments), folded, folded + 1):
            block_comments(enumerate(block_lines, start=first), seen)
        raise
    weight_of = {w.article_id: w for w in incivility.article_means(by_article)}
    kept = [(a, weight_of[a.id]) for a in articles if a.id in weight_of]
    write_jsonl(out_dir / "article_weights.jsonl", _WEIGHT_FIELDS,
                ((w.article_id, w.weight, w.n_comments, article.source) for article, w in kept))
    if len(kept) < len(articles):
        print(f"excluded {len(articles) - len(kept)} articles with zero comments",
              file=sys.stderr)
    print(f"scored {sum(map(len, by_article.values()))} comments; weighted {len(kept)} "
          f"articles holding {sum(w.n_comments for _, w in kept)} of them")
    return 0


def cmd_label_train_provoking(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require_paths(cfg, "articles")
    out_dir = Path(cfg.out_dir)
    weights_path = Path(getattr(args, "weights", None) or out_dir / "article_weights.jsonl")
    if not weights_path.exists():
        raise ValueError(f"article weights file not found: {weights_path} (run 'score' first)")

    body_of = {a.id: a for a in load_articles(cfg.articles)}
    rows = read_rows(weights_path, _WEIGHT_FIELDS, key="article_id")
    if not rows:
        raise ValueError("article weights file is empty")
    missing = [row["article_id"] for row in rows if row["article_id"] not in body_of]
    if missing:
        raise ValueError(f"weights reference unknown article ids: {missing[:5]}")

    weights = [
        incivility.ArticleIncivility(row["article_id"], float(row["weight"]), row["n_comments"])
        for row in rows
    ]
    thresholds, labeled = incivility.label_by_source(weights, [row["source"] for row in rows])
    pipeline, report = incivility.train_provoking_classifier(
        [body_of[w.article_id] for w in labeled],
        [bool(w.label) for w in labeled],
        tfidf_config=cfg.article_tfidf,
        train_config=cfg.train,
        split_seed=cfg.split_seed,
        test_fraction=cfg.test_fraction,
    )
    # Written only once training succeeded, so a rejected run leaves no labels.
    write_json(out_dir / "thresholds.json", [dataclasses.asdict(t) for t in thresholds])
    write_jsonl(out_dir / "article_labels.jsonl",
                ("article_id", "weight", "n_comments", "label"),
                ((w.article_id, w.weight, w.n_comments, w.label) for w in labeled))

    _save_classifier(pipeline, "provoking", Path(cfg.model_dir))
    write_json(out_dir / "provoking_report.json", dataclasses.asdict(report))
    _warn_unconverged("provoking", pipeline.models["provoking"], cfg.train)
    positives = sum(1 for w in labeled if w.label)
    print(f"labeled {positives}/{len(labeled)} articles provoking; "
          f"held-out auc={report.auc:.3f} accuracy={report.accuracy:.3f}")
    return 0


def cmd_predict_provoking(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require_paths(cfg, "articles")
    pipeline = _load_classifier("provoking", Path(cfg.model_dir))
    articles = load_articles(cfg.articles)
    probs = pipeline.predict_proba([a.body for a in articles])["provoking"]
    write_lines(Path(cfg.out_dir) / "provoking_predictions.jsonl", (
        f'{{"article_id": {encode_basestring_ascii(article.id)}, '
        f'"probability": {proba:.6f}, '
        f'"label": {"true" if proba > DECISION_THRESHOLD else "false"}}}'
        for article, proba in zip(articles, probs.tolist())
    ))
    print(f"predicted {len(articles)} articles")
    return 0


def cmd_mine_subtext(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require_paths(cfg, "articles", "comments")
    articles = _select_articles(cfg)
    kept = {a.id for a in articles}
    # Only the kept articles' comment texts are held, a block at a time.
    texts = [text for _, article_ids, block in comment_blocks(cfg.comments, cfg.min_comment_words)
             for article_id, text in zip(article_ids, block) if article_id in kept]
    report = mine_subtext([a.body for a in articles], texts, config=cfg.lda,
                          min_phrase_df=cfg.min_phrase_df)
    out_dir = Path(cfg.out_dir)
    save_report(report, out_dir / "subtext.json", out_dir / "subtext.md")
    print(f"{len(report.content_phrases)} content phrases, "
          f"{len(report.comment_phrases)} comment phrases")
    return 0


def cmd_generate_synthetic(cfg: RunConfig, args: argparse.Namespace) -> int:
    articles, comments, annotated = generate_corpus(cfg.synthetic)
    out_dir = Path(cfg.out_dir)
    save_articles(articles, out_dir / "articles.jsonl")
    save_comments(comments, out_dir / "comments.jsonl")
    save_annotated(annotated, out_dir / "annotated.jsonl")
    print(f"wrote {len(articles)} articles, {len(comments)} comments, "
          f"{len(annotated)} annotated comments to {out_dir}")
    return 0


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    out_dir = Path(cfg.out_dir)
    if args.target == "aspects":
        _require_paths(cfg, "annotated")
        annotated = load_annotated(cfg.annotated)
        texts, labels = [ac.text for ac in annotated], incivility.aspect_labels(annotated)
    else:
        _require_paths(cfg, "articles")
        labels_path = Path(getattr(args, "labels", None) or out_dir / "article_labels.jsonl")
        if not labels_path.exists():
            raise ValueError(f"labels file not found: {labels_path}")
        rows = read_rows(labels_path, {"article_id": "str", "label": "bool"}, key="article_id")
        label_of = {row["article_id"]: row["label"] for row in rows}
        articles = load_articles(cfg.articles)
        ids = {a.id for a in articles}
        missing = [article_id for article_id in label_of if article_id not in ids]
        if missing:
            raise ValueError(f"labels reference unknown article ids: {missing[:5]}")
        articles = [a for a in articles if a.id in label_of]
        if not articles:
            raise ValueError("no labeled articles to evaluate")
        texts = [a.body for a in articles]
        labels = {"provoking": [label_of[a.id] for a in articles]}
    reports = _load_classifier(args.target, Path(cfg.model_dir)).evaluate(texts, labels)
    _write_reports(out_dir / "evaluation.json", reports)
    return 0


# --- parser ----------------------------------------------------------------

_COMMON = ("seed", "out", "model_dir")  # the dedicated flags every subcommand takes

# The subcommands that build no TF-IDF matrix, so never import scipy.
_SCIPY_FREE = ("generate-synthetic", "mine-subtext")

# Subcommand -> (help text, its dedicated flags besides _COMMON). ``main``
# runs the module's ``cmd_<name>`` function, looked up by name at each call.
_COMMANDS = {
    "train-aspects": ("train the three comment-aspect classifiers",
                      ("annotated", "test_fraction")),
    "score": ("score comments and compute article weights",
              ("articles", "comments", "min_comment_words")),
    "label-train-provoking": (
        "label articles by source-median weight and train the provoking classifier",
        ("articles", "test_fraction")),
    "predict-provoking": ("predict provocation from article text", ("articles",)),
    "mine-subtext": ("mine comment-only topic phrases",
                     ("articles", "comments", "tag", "min_phrase_df", "min_comment_words")),
    "generate-synthetic": ("emit a planted-signal synthetic corpus",
                           ("n_articles", "comments_per_article", "n_annotated")),
    "evaluate": ("re-evaluate saved models on a corpus", ("annotated", "articles")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsciv",
        description="Incivility scoring, provocation prediction, and "
                    "comment-subtext mining for news comment corpora.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override any config value by dotted path, e.g. --set lda.iterations=200",
        )
        for flag in _COMMON + flags:
            kind, flag_help, _ = _FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, type=kind, help=flag_help)
        if command == "label-train-provoking":
            p.add_argument("--weights", help="article_weights.jsonl from 'score'")
        elif command == "evaluate":
            p.add_argument("--target", choices=("aspects", "provoking"), required=True)
            p.add_argument("--labels", help="article_labels.jsonl for --target provoking")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A command's rows hold no reference cycles, so the cyclic collector
    # would only walk them over and over; it is paused for the command and
    # left as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command not in _SCIPY_FREE:
            # Loaded before the command allocates anything: loaded inside
            # the first fit instead, scipy's objects land among that fit's
            # freed arrays and the process peaks about 4 MB higher.
            import scipy.sparse  # noqa: F401
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(_load_run_config(args), args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
