"""Golden fixtures: a fixed seed must keep producing the same bytes.

``subtext_*.json`` pin the topic sampler and the subtext report;
``classify_small/`` holds every file the classifier chain writes
(``train-aspects``, ``score``, ``label-train-provoking``,
``predict-provoking``, ``evaluate --target aspects|provoking``) on a small
seeded synthetic corpus. Any change that moves them is deliberate: bump the
format version it touches, regenerate every fixture with

    PYTHONPATH=src python tests/test_golden.py

and record why the bytes changed.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from newsciv.cli import main
from newsciv.subtext import mine_subtext, save_report

from test_subtext import FAST, build_texts

GOLDEN = Path(__file__).parent / "golden"


def a5_subtext(work: Path) -> bytes:
    """``subtext.json`` of the A-5 acceptance configuration, through the CLI."""
    data = work / "data"
    config = work / "run.json"
    config.write_text(json.dumps({
        "articles": str(data / "articles.jsonl"),
        "comments": str(data / "comments.jsonl"),
        "tag": "transit",
        "min_phrase_df": 5,
        "lda": {"n_topics": 5, "alpha": 0.1, "beta": 0.01,
                "iterations": 200, "seed": 13, "n_min": 2, "n_max": 3},
        "synthetic": {"n_articles": 90, "comments_per_article": 6,
                      "n_annotated": 1, "seed": 23},
    }))
    assert main(["generate-synthetic", "--config", str(config), "--out", str(data)]) == 0
    assert main(["mine-subtext", "--config", str(config), "--out", str(work / "out")]) == 0
    return (work / "out" / "subtext.json").read_bytes()


def small_subtext(work: Path) -> bytes:
    """``subtext.json`` of the planted ``quartz meadow`` corpus of test_subtext."""
    bodies, texts = build_texts(random.Random(7), planted="quartz meadow")
    report = mine_subtext(bodies, texts, config=FAST, min_phrase_df=3)
    save_report(report, work / "subtext.json", work / "subtext.md")
    return (work / "subtext.json").read_bytes()


def classify_small(work: Path) -> Path:
    """Run the classifier chain through the CLI; return the directory that
    holds everything it wrote (``models/``, ``out/`` and one directory per
    ``evaluate`` target)."""
    data, result = work / "data", work / "result"
    config = str(work / "run.json")
    Path(config).write_text(json.dumps({
        "articles": str(data / "articles.jsonl"),
        "comments": str(data / "comments.jsonl"),
        "annotated": str(data / "annotated.jsonl"),
        "model_dir": str(result / "models"),
        "out_dir": str(result / "out"),
        "train": {"max_iterations": 150},
        "split_seed": 1,
        "synthetic": {"n_articles": 40, "comments_per_article": 6,
                      "n_annotated": 160, "seed": 3},
    }))
    assert main(["generate-synthetic", "--config", config, "--out", str(data)]) == 0
    for command in ("train-aspects", "score", "label-train-provoking", "predict-provoking"):
        assert main([command, "--config", config]) == 0
    for target in ("aspects", "provoking"):
        assert main(["evaluate", "--config", config, "--target", target,
                     "--labels", str(result / "out" / "article_labels.jsonl"),
                     "--out", str(result / f"evaluate_{target}")]) == 0
    return result


def relative_files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


CASES = {"subtext_a5.json": a5_subtext, "subtext_small.json": small_subtext}
CLASSIFY_GOLDEN = GOLDEN / "classify_small"
CLASSIFY_FILES = relative_files(CLASSIFY_GOLDEN) if CLASSIFY_GOLDEN.is_dir() else []


@pytest.mark.parametrize("name", sorted(CASES))
def test_subtext_matches_golden_bytes(name, tmp_path):
    assert CASES[name](tmp_path) == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def classify_result(tmp_path_factory) -> Path:
    return classify_small(tmp_path_factory.mktemp("classify_small"))


def test_classify_writes_exactly_the_golden_files(classify_result):
    assert CLASSIFY_FILES
    assert relative_files(classify_result) == CLASSIFY_FILES


@pytest.mark.parametrize("name", CLASSIFY_FILES)
def test_classify_matches_golden_bytes(name, classify_result):
    assert (classify_result / name).read_bytes() == (CLASSIFY_GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, produce in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(produce(Path(tmp)))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.rmtree(CLASSIFY_GOLDEN, ignore_errors=True)
        shutil.copytree(classify_small(Path(tmp)), CLASSIFY_GOLDEN)
    print(f"wrote {CLASSIFY_GOLDEN}/", file=sys.stderr)
