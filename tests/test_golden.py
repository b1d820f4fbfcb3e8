"""Golden ``subtext.json`` fixtures: a fixed seed must keep producing the
same bytes. Any change to the sampler or the report format that moves them
is deliberate: bump ``SUBTEXT_FORMAT_VERSION``, regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and record why the bytes changed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from newsciv.cli import main
from newsciv.subtext import mine_subtext, save_report

from test_subtext import FAST, build_corpus

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
    articles, comments = build_corpus(random.Random(7), planted="quartz meadow")
    report = mine_subtext(articles, comments, config=FAST, min_phrase_df=3)
    save_report(report, work / "subtext.json", work / "subtext.md")
    return (work / "subtext.json").read_bytes()


CASES = {"subtext_a5.json": a5_subtext, "subtext_small.json": small_subtext}


@pytest.mark.parametrize("name", sorted(CASES))
def test_subtext_matches_golden_bytes(name, tmp_path):
    assert CASES[name](tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, produce in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(produce(Path(tmp)))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
