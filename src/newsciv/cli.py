"""Batch command-line interface.

Subcommands cover the whole pipeline: ``train-aspects``, ``score``,
``label-train-provoking``, ``predict-provoking``, ``mine-subtext``,
``generate-synthetic``, and ``evaluate``. Every run is configured by a
single JSON document (``--config``) whose values individual flags may
override; all randomness comes from explicit seeds in that configuration.

Exit codes: 0 success, 1 internal error, 2 input or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import incivility
from .corpus import (
    Corpus,
    CorpusError,
    filter_by_keywords,
    filter_by_tag,
    load_annotated,
    load_articles,
    load_comments,
    save_annotated,
    save_articles,
    save_comments,
    _read_jsonl,
    _require,
)
from .features import TfidfConfig, load_tfidf, save_tfidf
from .lda import LdaConfig
from .linmodel import TrainConfig, evaluate, load_logistic, save_logistic
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

    _NESTED = {
        "aspect_tfidf": TfidfConfig,
        "article_tfidf": TfidfConfig,
        "train": TrainConfig,
        "lda": LdaConfig,
        "synthetic": SyntheticConfig,
    }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        for key, value in data.items():
            nested = cls._NESTED.get(key)
            if nested is not None:
                if not isinstance(value, dict):
                    raise ValueError(f"config key {key!r} must be an object")
                sub_known = {f.name for f in dataclasses.fields(nested)}
                sub_unknown = set(value) - sub_known
                if sub_unknown:
                    raise ValueError(
                        f"unknown keys under {key!r}: {sorted(sub_unknown)}"
                    )
                if nested is SyntheticConfig and "sources" in value:
                    value = {**value, "sources": tuple(value["sources"])}
                kwargs[key] = nested(**value)
            elif key == "keywords":
                kwargs[key] = tuple(value)
            else:
                kwargs[key] = value
        return cls(**kwargs)


def _apply_set_overrides(data: dict, sets: Sequence[str]) -> dict:
    """Apply repeatable ``--set dotted.key=value`` flags onto the raw config."""
    for item in sets:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings need no quoting
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"--set {key!r} descends into a non-object value")
        node[parts[-1]] = value
    return data


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    cfg = RunConfig.from_dict(_apply_set_overrides(data, getattr(args, "set", None) or ()))
    updates: dict = {}
    for field in ("articles", "comments", "annotated", "model_dir", "tag",
                  "test_fraction", "min_phrase_df", "min_comment_words"):
        value = getattr(args, field, None)
        if value is not None:
            updates[field] = value
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        # --seed re-seeds whatever the command randomizes.
        updates["split_seed"] = args.seed
        updates["lda"] = dataclasses.replace(cfg.lda, seed=args.seed)
        updates["synthetic"] = dataclasses.replace(cfg.synthetic, seed=args.seed)
    synth_updates = {}
    for flag, field in (("n_articles", "n_articles"),
                        ("comments_per_article", "comments_per_article"),
                        ("n_annotated", "n_annotated")):
        value = getattr(args, flag, None)
        if value is not None:
            synth_updates[field] = value
    if synth_updates:
        base = updates.get("synthetic", cfg.synthetic)
        updates["synthetic"] = dataclasses.replace(base, **synth_updates)
    return dataclasses.replace(cfg, **updates)


def _require_paths(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if value is None:
            raise ValueError(f"no {name} path configured (set {name!r} or --{name})")
        if not Path(value).exists():
            raise ValueError(f"{name} file not found: {value}")


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _read_rows(path: Path, fields: dict[str, type | tuple[type, ...]]) -> list[dict]:
    """Read JSONL objects that each hold ``fields`` with the given types.

    A bool only counts as ``bool`` (not as a number) and a float must be
    finite; anything else raises CorpusError naming the line.
    """
    rows = []
    for lineno, row in _read_jsonl(path):
        _require(row, tuple(fields), lineno)
        for name, kind in fields.items():
            value = row[name]
            if (not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)
                    or isinstance(value, float) and not math.isfinite(value)):
                raise CorpusError(f"line {lineno}: invalid {name} {value!r}")
        rows.append(row)
    return rows


def _maybe_filter_keywords(articles, cfg: RunConfig):
    if cfg.keywords:
        return filter_by_keywords(articles, cfg.keywords)
    return articles


# --- subcommands -----------------------------------------------------------

def cmd_train_aspects(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    _require_paths(cfg, "annotated")
    annotated = load_annotated(cfg.annotated)
    classifiers, reports = incivility.train_aspect_classifiers(
        annotated,
        tfidf_config=cfg.aspect_tfidf,
        train_config=cfg.train,
        split_seed=cfg.split_seed,
        test_fraction=cfg.test_fraction,
    )
    model_dir = Path(cfg.model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    save_tfidf(classifiers.tfidf, model_dir / "aspects_tfidf.json")
    for aspect in incivility.ASPECTS:
        save_logistic(getattr(classifiers, aspect), model_dir / f"aspect_{aspect}.json")
    _write_json(
        out_dir / "aspect_reports.json",
        {aspect: report.to_dict() for aspect, report in reports.items()},
    )
    for aspect in incivility.ASPECTS:
        print(f"{aspect}: auc={reports[aspect].auc:.3f} accuracy={reports[aspect].accuracy:.3f}")
    return 0


def _load_aspect_classifiers(model_dir: Path) -> incivility.AspectClassifiers:
    return incivility.AspectClassifiers(
        tfidf=load_tfidf(model_dir / "aspects_tfidf.json"),
        toxicity=load_logistic(model_dir / "aspect_toxicity.json"),
        aggression=load_logistic(model_dir / "aspect_aggression.json"),
        attack=load_logistic(model_dir / "aspect_attack.json"),
    )


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    _require_paths(cfg, "articles", "comments")
    classifiers = _load_aspect_classifiers(Path(cfg.model_dir))
    articles = _maybe_filter_keywords(load_articles(cfg.articles), cfg)
    comments = load_comments(cfg.comments, min_words=cfg.min_comment_words)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scores, weights = incivility.article_weights(classifiers, comments)
    with open(out_dir / "scores.jsonl", "w", encoding="utf-8") as fh:
        for comment, score in zip(comments, scores):
            fh.write(
                f'{{"comment_id": {json.dumps(comment.id)}, '
                f'"toxicity": {score.toxicity:.6f}, '
                f'"aggression": {score.aggression:.6f}, '
                f'"attack": {score.attack:.6f}, '
                f'"incivility": {score.value:.6f}}}\n'
            )

    weight_of = {w.article_id: w for w in weights}
    written = 0
    with open(out_dir / "article_weights.jsonl", "w", encoding="utf-8") as fh:
        for article in articles:
            w = weight_of.get(article.id)
            if w is None:
                continue
            written += 1
            fh.write(
                json.dumps(
                    {
                        "article_id": w.article_id,
                        "weight": w.weight,
                        "n_comments": w.n_comments,
                        "source": article.source,
                    }
                )
                + "\n"
            )
    if written < len(articles):
        print(f"excluded {len(articles) - written} articles with zero comments",
              file=sys.stderr)
    print(f"scored {len(comments)} comments across {written} articles")
    return 0


def cmd_label_train_provoking(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    _require_paths(cfg, "articles")
    out_dir = Path(cfg.out_dir)
    weights_path = Path(getattr(args, "weights", None) or out_dir / "article_weights.jsonl")
    if not weights_path.exists():
        raise ValueError(f"article weights file not found: {weights_path} (run 'score' first)")

    articles = load_articles(cfg.articles)
    body_of = {a.id: a for a in articles}

    rows = _read_rows(
        weights_path,
        {"article_id": str, "weight": (int, float), "n_comments": int, "source": str},
    )
    if not rows:
        raise ValueError("article weights file is empty")

    by_source: dict[str, list[incivility.ArticleIncivility]] = {}
    for row in rows:
        w = incivility.ArticleIncivility(
            article_id=row["article_id"],
            weight=float(row["weight"]),
            n_comments=row["n_comments"],
        )
        by_source.setdefault(row["source"], []).append(w)

    out_dir.mkdir(parents=True, exist_ok=True)
    thresholds = []
    labeled: list[incivility.ArticleIncivility] = []
    for source in sorted(by_source):
        threshold = incivility.source_median(by_source[source], source)
        thresholds.append(
            {
                "source": threshold.source,
                "median_weight": threshold.median_weight,
                "n_articles": threshold.n_articles,
            }
        )
        labeled.extend(
            incivility.label_articles(by_source[source], threshold, source=source)
        )
    _write_json(out_dir / "thresholds.json", thresholds)

    order = {row["article_id"]: i for i, row in enumerate(rows)}
    labeled.sort(key=lambda w: order[w.article_id])
    with open(out_dir / "article_labels.jsonl", "w", encoding="utf-8") as fh:
        for w in labeled:
            fh.write(
                json.dumps(
                    {
                        "article_id": w.article_id,
                        "weight": w.weight,
                        "n_comments": w.n_comments,
                        "label": w.label,
                    }
                )
                + "\n"
            )

    missing = [w.article_id for w in labeled if w.article_id not in body_of]
    if missing:
        raise ValueError(f"weights reference unknown article ids: {missing[:5]}")
    pipeline, report = incivility.train_provoking_classifier(
        [body_of[w.article_id] for w in labeled],
        [bool(w.label) for w in labeled],
        tfidf_config=cfg.article_tfidf,
        train_config=cfg.train,
        split_seed=cfg.split_seed,
        test_fraction=cfg.test_fraction,
    )
    model_dir = Path(cfg.model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    save_tfidf(pipeline.tfidf, model_dir / "provoking_tfidf.json")
    save_logistic(pipeline.model, model_dir / "provoking_model.json")
    _write_json(out_dir / "provoking_report.json", report.to_dict())
    positives = sum(1 for w in labeled if w.label)
    print(f"labeled {positives}/{len(labeled)} articles provoking; "
          f"held-out auc={report.auc:.3f} accuracy={report.accuracy:.3f}")
    return 0


def cmd_predict_provoking(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    _require_paths(cfg, "articles")
    model_dir = Path(cfg.model_dir)
    pipeline = incivility.ProvokingClassifier(
        tfidf=load_tfidf(model_dir / "provoking_tfidf.json"),
        model=load_logistic(model_dir / "provoking_model.json"),
    )
    articles = load_articles(cfg.articles)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probs = pipeline.model.predict_proba(pipeline.tfidf.transform([a.body for a in articles]))
    with open(out_dir / "provoking_predictions.jsonl", "w", encoding="utf-8") as fh:
        for article, proba in zip(articles, probs.tolist()):
            fh.write(
                f'{{"article_id": {json.dumps(article.id)}, '
                f'"probability": {proba:.6f}, '
                f'"label": {"true" if proba > 0.5 else "false"}}}\n'
            )
    print(f"predicted {len(articles)} articles")
    return 0


def cmd_mine_subtext(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    _require_paths(cfg, "articles", "comments")
    articles = _maybe_filter_keywords(load_articles(cfg.articles), cfg)
    if cfg.tag:
        articles = filter_by_tag(articles, cfg.tag)
        if not articles:
            raise ValueError(f"no articles carry tag {cfg.tag!r}")
    comments = load_comments(cfg.comments, min_words=cfg.min_comment_words)
    corpus = Corpus.build(articles, comments)
    selected = [c for c in comments if c.article_id in corpus.index]
    report = mine_subtext(
        articles,
        selected,
        config=cfg.lda,
        min_phrase_df=cfg.min_phrase_df,
    )
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_report(report, out_dir / "subtext.json", out_dir / "subtext.md")
    print(f"{len(report.content_phrases)} content phrases, "
          f"{len(report.comment_phrases)} comment phrases")
    return 0


def cmd_generate_synthetic(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    articles, comments, annotated = generate_corpus(cfg.synthetic)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_articles(articles, out_dir / "articles.jsonl")
    save_comments(comments, out_dir / "comments.jsonl")
    save_annotated(annotated, out_dir / "annotated.jsonl")
    print(f"wrote {len(articles)} articles, {len(comments)} comments, "
          f"{len(annotated)} annotated comments to {out_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    model_dir = Path(cfg.model_dir)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.target == "aspects":
        _require_paths(cfg, "annotated")
        annotated = load_annotated(cfg.annotated)
        classifiers = _load_aspect_classifiers(model_dir)
        x = classifiers.tfidf.transform([ac.text for ac in annotated])
        payload = {}
        for aspect in incivility.ASPECTS:
            y = [incivility.binarize_aspect(ac, aspect) for ac in annotated]
            report = evaluate(getattr(classifiers, aspect), x, y)
            payload[aspect] = report.to_dict()
            print(f"{aspect}: auc={report.auc:.3f} accuracy={report.accuracy:.3f}")
    else:
        _require_paths(cfg, "articles")
        labels_path = Path(getattr(args, "labels", None) or out_dir / "article_labels.jsonl")
        if not labels_path.exists():
            raise ValueError(f"labels file not found: {labels_path}")
        label_of = {
            row["article_id"]: row["label"]
            for row in _read_rows(labels_path, {"article_id": str, "label": bool})
        }
        pipeline = incivility.ProvokingClassifier(
            tfidf=load_tfidf(model_dir / "provoking_tfidf.json"),
            model=load_logistic(model_dir / "provoking_model.json"),
        )
        articles = [a for a in load_articles(cfg.articles) if a.id in label_of]
        if not articles:
            raise ValueError("no labeled articles to evaluate")
        x = pipeline.tfidf.transform([a.body for a in articles])
        y = [label_of[a.id] for a in articles]
        report = evaluate(pipeline.model, x, y)
        payload = {"provoking": report.to_dict()}
        print(f"provoking: auc={report.auc:.3f} accuracy={report.accuracy:.3f}")

    _write_json(out_dir / "evaluation.json", payload)
    return 0


# --- parser ----------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration")
    sub.add_argument("--seed", type=int, help="override every seed the command uses")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--model-dir", dest="model_dir", help="model directory")
    sub.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override any config value by dotted path, e.g. --set lda.iterations=200",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsciv",
        description="Incivility scoring, provocation prediction, and "
                    "comment-subtext mining for news comment corpora.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train-aspects", help="train the three comment-aspect classifiers")
    _add_common(p)
    p.add_argument("--annotated", help="annotated comments (.jsonl or .tsv)")
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.set_defaults(func=cmd_train_aspects)

    p = subs.add_parser("score", help="score comments and compute article weights")
    _add_common(p)
    p.add_argument("--articles", help="articles.jsonl")
    p.add_argument("--comments", help="comments.jsonl")
    p.add_argument("--min-comment-words", dest="min_comment_words", type=int)
    p.set_defaults(func=cmd_score)

    p = subs.add_parser(
        "label-train-provoking",
        help="label articles by source-median weight and train the provoking classifier",
    )
    _add_common(p)
    p.add_argument("--articles", help="articles.jsonl")
    p.add_argument("--weights", help="article_weights.jsonl from 'score'")
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.set_defaults(func=cmd_label_train_provoking)

    p = subs.add_parser("predict-provoking", help="predict provocation from article text")
    _add_common(p)
    p.add_argument("--articles", help="articles.jsonl")
    p.set_defaults(func=cmd_predict_provoking)

    p = subs.add_parser("mine-subtext", help="mine comment-only topic phrases")
    _add_common(p)
    p.add_argument("--articles", help="articles.jsonl")
    p.add_argument("--comments", help="comments.jsonl")
    p.add_argument("--tag", help="restrict articles to this tag")
    p.add_argument("--min-phrase-df", dest="min_phrase_df", type=int)
    p.add_argument("--min-comment-words", dest="min_comment_words", type=int)
    p.set_defaults(func=cmd_mine_subtext)

    p = subs.add_parser("generate-synthetic", help="emit a planted-signal synthetic corpus")
    _add_common(p)
    p.add_argument("--n-articles", dest="n_articles", type=int)
    p.add_argument("--comments-per-article", dest="comments_per_article", type=int)
    p.add_argument("--n-annotated", dest="n_annotated", type=int)
    p.set_defaults(func=cmd_generate_synthetic)

    p = subs.add_parser("evaluate", help="re-evaluate saved models on a corpus")
    _add_common(p)
    p.add_argument("--target", choices=("aspects", "provoking"), required=True)
    p.add_argument("--annotated", help="annotated comments for --target aspects")
    p.add_argument("--articles", help="articles.jsonl for --target provoking")
    p.add_argument("--labels", help="article_labels.jsonl for --target provoking")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
