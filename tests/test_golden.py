"""Golden fixtures: a fixed seed must keep producing the same bytes.

``subtext_*.json`` pin the topic sampler and the subtext report;
``classify_small/`` holds every file the classifier chain writes
(``train-aspects``, ``score``, ``label-train-provoking``,
``predict-provoking``, ``evaluate --target aspects|provoking``) on a small
seeded synthetic corpus; ``synthetic/`` holds the three files
``generate-synthetic`` writes for each of ``SYNTHETIC_CASES``. Any change
that moves them is deliberate: bump the format version it touches,
regenerate every fixture with

    PYTHONPATH=src python tests/test_golden.py

and record why the bytes changed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
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


# A small corpus at the default seed, and one that sets every field the
# generator branches on: several sources and annotators, another tag, and
# the rates at their ends, 0 and 1.
SYNTHETIC_CASES = {
    "default_seed": {"n_articles": 12, "comments_per_article": 4, "n_annotated": 10},
    "edge_rates": {"n_articles": 9, "comments_per_article": 3, "n_annotated": 8,
                   "n_annotators": 5, "sources": ["alpha", "beta", "gamma"],
                   "tag": "harbor", "uncivil_rate_provoking": 1.0,
                   "uncivil_rate_tame": 0.0, "subtext_rate": 1.0, "seed": 8},
}
SYNTHETIC_GOLDEN = GOLDEN / "synthetic"


def generate_synthetic(work: Path, name: str) -> Path:
    """Run ``generate-synthetic`` on ``SYNTHETIC_CASES[name]``; return the
    directory it wrote."""
    config = work / "run.json"
    config.write_text(json.dumps({"synthetic": SYNTHETIC_CASES[name]}))
    out = work / name
    assert main(["generate-synthetic", "--config", str(config), "--out", str(out)]) == 0
    return out


def relative_files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


CASES = {"subtext_a5.json": a5_subtext, "subtext_small.json": small_subtext}
CLASSIFY_GOLDEN = GOLDEN / "classify_small"
CLASSIFY_FILES = relative_files(CLASSIFY_GOLDEN) if CLASSIFY_GOLDEN.is_dir() else []


@pytest.mark.parametrize("name", sorted(CASES))
def test_subtext_matches_golden_bytes(name, tmp_path):
    assert CASES[name](tmp_path) == (GOLDEN / name).read_bytes()


def test_small_subtext_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """``small_subtext`` writes the golden bytes under ``PYTHONHASHSEED`` 0 and
    4242, each in a fresh interpreter: a process's hash seed is set at start."""
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    for seed in ("0", "4242"):
        work = tmp_path / seed
        work.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        run = subprocess.run(
            [sys.executable, "-c", "import pathlib, sys, test_golden; "
             "test_golden.small_subtext(pathlib.Path(sys.argv[1]))", str(work)],
            capture_output=True, text=True, env=env, timeout=300, check=False)
        assert run.returncode == 0, run.stderr
        assert (work / "subtext.json").read_bytes() == (GOLDEN / "subtext_small.json").read_bytes()


@pytest.fixture(scope="module")
def classify_result(tmp_path_factory) -> Path:
    return classify_small(tmp_path_factory.mktemp("classify_small"))


def test_classify_writes_exactly_the_golden_files(classify_result):
    assert CLASSIFY_FILES
    assert relative_files(classify_result) == CLASSIFY_FILES


@pytest.mark.parametrize("name", CLASSIFY_FILES)
def test_classify_matches_golden_bytes(name, classify_result):
    assert (classify_result / name).read_bytes() == (CLASSIFY_GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
def test_generate_synthetic_matches_golden_bytes(name, tmp_path):
    out, golden = generate_synthetic(tmp_path, name), SYNTHETIC_GOLDEN / name
    files = relative_files(golden)
    assert files == ["annotated.jsonl", "articles.jsonl", "comments.jsonl"]
    assert relative_files(out) == files
    for file in files:
        assert (out / file).read_bytes() == (golden / file).read_bytes(), file


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
    shutil.rmtree(SYNTHETIC_GOLDEN, ignore_errors=True)
    for name in SYNTHETIC_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(generate_synthetic(Path(tmp), name), SYNTHETIC_GOLDEN / name)
    print(f"wrote {SYNTHETIC_GOLDEN}/", file=sys.stderr)
