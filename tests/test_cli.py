from __future__ import annotations

import gc
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import dataclasses
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsciv import cli, corpus, incivility, textproc
from newsciv.cli import RunConfig, _load_run_config, build_parser, main
from newsciv.corpus import Article, save_articles
from newsciv.features import TfidfConfig
from newsciv.incivility import score_comments
from newsciv.lda import LdaConfig
from newsciv.subtext import mine_subtext, save_report
from newsciv.textproc import tokenize


def write_config(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory) -> Path:
    """Run the whole CLI flow once on a small synthetic corpus."""
    root = tmp_path_factory.mktemp("cli_flow")
    data = root / "data"
    config = write_config(
        root / "run.json",
        {
            "articles": str(data / "articles.jsonl"),
            "comments": str(data / "comments.jsonl"),
            "annotated": str(data / "annotated.jsonl"),
            "model_dir": str(root / "models"),
            "out_dir": str(root / "out"),
            "train": {"max_iterations": 150},
            "lda": {"n_topics": 3, "iterations": 40, "seed": 0, "n_min": 2, "n_max": 2},
            "tag": "transit",
            "min_phrase_df": 3,
            "split_seed": 1,
            "synthetic": {
                "n_articles": 40,
                "comments_per_article": 6,
                "n_annotated": 160,
                "seed": 3,
            },
        },
    )
    assert main(["generate-synthetic", "--config", config, "--out", str(data)]) == 0
    assert main(["train-aspects", "--config", config]) == 0
    assert main(["score", "--config", config]) == 0
    assert main(["label-train-provoking", "--config", config]) == 0
    assert main(["predict-provoking", "--config", config]) == 0
    assert main(["mine-subtext", "--config", config]) == 0
    (root / "config_path.txt").write_text(config)
    return root


def jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def f_string_score_line(comment_id: str, score) -> str:
    """A scores.jsonl line as ``score`` wrote it with one f-string per comment."""
    return (f'{{"comment_id": {json.dumps(comment_id)}, '
            f'"toxicity": {score.toxicity:.6f}, '
            f'"aggression": {score.aggression:.6f}, '
            f'"attack": {score.attack:.6f}, '
            f'"incivility": {score.value:.6f}}}')


# Comments in a file of more than two blocks, the third one short.
LATE_ROWS = 2 * textproc._CHUNK + 100


def many_comments(pipeline_dir: Path, path: Path, n: int, bad: dict | None = None) -> Path:
    """Write ``n`` comments on the pipeline's articles, their texts reused
    under new ids, with the fields of ``bad[i]`` put into row ``i``."""
    base = jsonl(pipeline_dir / "data" / "comments.jsonl")
    rows = [{**base[i % len(base)], "id": f"c{i}"} for i in range(n)]
    for i, fields in (bad or {}).items():
        rows[i].update(fields)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


class TestGenerateSynthetic:
    def test_writes_three_files_with_requested_counts(self, tmp_path):
        out = tmp_path / "corpus"
        assert main([
            "generate-synthetic", "--out", str(out), "--seed", "9",
            "--n-articles", "12", "--comments-per-article", "2", "--n-annotated", "7",
        ]) == 0
        assert len(jsonl(out / "articles.jsonl")) == 12
        assert len(jsonl(out / "comments.jsonl")) == 24
        assert len(jsonl(out / "annotated.jsonl")) == 7

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["generate-synthetic", "--seed", "4", "--n-articles", "8",
                "--comments-per-article", "3", "--n-annotated", "5"]
        assert main(args + ["--out", str(tmp_path / "one")]) == 0
        assert main(args + ["--out", str(tmp_path / "two")]) == 0
        for name in ("articles.jsonl", "comments.jsonl", "annotated.jsonl"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class TestTrainAspects:
    def test_writes_five_files(self, pipeline_dir):
        models = pipeline_dir / "models"
        for name in ("aspects_tfidf.json", "aspect_toxicity.json",
                     "aspect_aggression.json", "aspect_attack.json"):
            assert (models / name).exists()
        report = json.loads((pipeline_dir / "out" / "aspect_reports.json").read_text())
        assert set(report) == {"toxicity", "aggression", "attack"}
        for aspect in report.values():
            assert 0.0 <= aspect["auc"] <= 1.0

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["train-aspects", "--annotated", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_rerun_reports_byte_identical(self, pipeline_dir, tmp_path):
        config = (pipeline_dir / "config_path.txt").read_text()
        out2 = tmp_path / "out2"
        assert main(["train-aspects", "--config", config, "--out", str(out2),
                     "--model-dir", str(tmp_path / "models2")]) == 0
        assert (out2 / "aspect_reports.json").read_bytes() == \
            (pipeline_dir / "out" / "aspect_reports.json").read_bytes()

    def test_tfidf_config_keeping_no_terms_exits_2(self, pipeline_dir, tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["train-aspects", "--config", config, "--out", str(tmp_path / "out"),
                     "--model-dir", str(tmp_path / "models"),
                     "--set", "aspect_tfidf.min_df=100000"]) == 2
        err = capsys.readouterr().err
        assert "min_df=100000" in err and "max_df_ratio=1.0" in err
        assert "over 128 training texts" in err  # 160 annotated, 20% held out
        assert not (tmp_path / "models").exists()
        assert not (tmp_path / "out").exists()

    def test_warns_once_per_unconverged_model(self, pipeline_dir, tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        argv = ["--config", config, "--out", str(tmp_path / "out"),
                "--model-dir", str(tmp_path / "models")]
        assert main(["train-aspects", *argv]) == 0
        assert "warning" not in capsys.readouterr().err
        assert main(["train-aspects", *argv, "--set", "train.max_iterations=1"]) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 3
        for line, aspect in zip(lines, ("toxicity", "aggression", "attack")):
            assert line.startswith(f"warning: aspect {aspect} model stopped on "
                                   "max_iterations after 1 iterations with max |gradient| ")
            assert line.endswith("(tolerance 1e-06)")


    @pytest.mark.parametrize("field, value", [
        ("text", None), ("text", {"x": 1}), ("text", 7), ("id", 12), ("id", None),
    ])
    def test_non_string_field_exits_2(self, pipeline_dir, tmp_path, capsys, field, value):
        rows = jsonl(pipeline_dir / "data" / "annotated.jsonl")
        rows[2][field] = value
        path = tmp_path / "annotated.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["train-aspects", "--annotated", str(path), "--out", str(tmp_path / "out"),
                     "--model-dir", str(tmp_path / "models")]) == 2
        assert f"line 3: invalid {field} {value!r}, must be a string" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()

    def test_repeated_id_with_another_text_exits_2(self, pipeline_dir, tmp_path, capsys):
        """A later row for an id must not add its ratings to another text."""
        rows = jsonl(pipeline_dir / "data" / "annotated.jsonl")
        rows.append({**rows[0], "text": rows[0]["text"] + " but longer"})
        path = tmp_path / "annotated.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["train-aspects", "--annotated", str(path), "--out", str(tmp_path / "out"),
                     "--model-dir", str(tmp_path / "models")]) == 2
        assert (f"line {len(rows)}: id {rows[0]['id']!r} repeats with another text"
                in capsys.readouterr().err)
        assert not (tmp_path / "models").exists()
        assert not (tmp_path / "out").exists()


class TestScore:
    def test_scores_per_comment_in_unit_interval(self, pipeline_dir):
        scores = jsonl(pipeline_dir / "out" / "scores.jsonl")
        comments = jsonl(pipeline_dir / "data" / "comments.jsonl")
        assert len(scores) == len(comments)
        assert [s["comment_id"] for s in scores] == [c["id"] for c in comments]
        for s in scores:
            for key in ("toxicity", "aggression", "attack", "incivility"):
                assert 0.0 <= s[key] <= 1.0
            assert s["incivility"] == max(s["toxicity"], s["aggression"], s["attack"])

    def test_weights_cover_commented_articles(self, pipeline_dir):
        weights = jsonl(pipeline_dir / "out" / "article_weights.jsonl")
        articles = jsonl(pipeline_dir / "data" / "articles.jsonl")
        assert len(weights) == len(articles)  # every article has comments here
        for w in weights:
            assert 0.0 <= w["weight"] <= 1.0
            assert w["n_comments"] == 6

    def test_empty_comments_file_is_ok(self, pipeline_dir, tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out_empty"
        assert main(["score", "--config", config, "--comments", str(empty),
                     "--out", str(out)]) == 0
        assert (out / "scores.jsonl").read_text() == ""
        assert (out / "article_weights.jsonl").read_text() == ""

    @pytest.mark.parametrize("name, damage, message", [
        ("aspect_attack.json", lambda m: {**m, "weights": m["weights"] + [[10**6, 1.0]]},
         "weights must be [index, finite value] pairs"),
        ("aspect_attack.json", lambda m: {**m, "weights": [["3", 0.5]]},
         "weights must be [index, finite value] pairs"),
        ("aspects_tfidf.json", lambda m: [1, 2], "a model file must hold a JSON object"),
        ("aspects_tfidf.json", lambda m: {"format_version": 2}, "missing keys ['config'"),
        ("aspects_tfidf.json", lambda m: {**m, "format_version": 1, "doc_freq": [], "n_docs": 1},
         "unsupported model format version: 1"),
        ("aspect_attack.json", lambda m: {**m, "dimension": 10**12},
         "dimension 1000000000000 is too large"),
    ], ids=["index-out-of-range", "string-index", "tfidf-list", "tfidf-no-keys",
            "tfidf-format-1", "huge-dimension"])
    def test_damaged_model_file_exits_2(self, pipeline_dir, tmp_path, capsys,
                                        name, damage, message):
        models = tmp_path / "models"
        shutil.copytree(pipeline_dir / "models", models)
        (models / name).write_text(json.dumps(damage(json.loads((models / name).read_text()))))
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--model-dir", str(models),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{models / name}: {message}" in err

    def test_model_file_byte_not_utf8_names_the_file(self, pipeline_dir, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(pipeline_dir / "models", models)
        path = models / "aspect_attack.json"
        path.write_bytes(b"\xff" + path.read_bytes())
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--model-dir", str(models),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["id", "source"])
    def test_lone_surrogate_in_article_exits_2_before_writing(self, pipeline_dir, tmp_path,
                                                               capsys, field):
        """Article ids and sources are written unescaped, so one that UTF-8
        cannot encode is rejected at its line, before any file is written."""
        rows = jsonl(pipeline_dir / "data" / "articles.jsonl")
        rows[2][field] += "\ud800"
        path = tmp_path / "articles.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--articles", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: line 3: article {field} {rows[2][field]!r} holds a lone surrogate" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("text", None), ("text", {"x": 1}), ("text", ["a", "b"]), ("article_id", 3),
        ("id", True),
    ])
    def test_non_string_comment_field_exits_2(self, pipeline_dir, tmp_path, capsys,
                                              field, value):
        rows = jsonl(pipeline_dir / "data" / "comments.jsonl")
        rows[4][field] = value
        path = tmp_path / "comments.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--comments", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"line 5: invalid {field} {value!r}, must be a string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lone_surrogate_in_text_is_a_separator(self, pipeline_dir, tmp_path):
        """A JSON "\\ud800" escape loads as a lone surrogate, which UTF-8
        cannot encode; the tokenizer must drop it like punctuation."""
        rows = jsonl(pipeline_dir / "data" / "comments.jsonl")
        config = (pipeline_dir / "config_path.txt").read_text()
        scores = {}
        for name, mark in (("surrogate", "\ud800"), ("space", " ")):
            rows[4]["text"] = rows[4]["text"].replace(" ", mark, 1)
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))
            assert main(["score", "--config", config, "--comments", str(path),
                         "--min-comment-words", "2", "--out", str(tmp_path / name)]) == 0
            scores[name] = (tmp_path / name / "scores.jsonl").read_bytes()
            rows[4]["text"] = rows[4]["text"].replace(mark, " ")
        assert scores["surrogate"] == scores["space"]

    def test_comment_ids_are_written_byte_for_byte(self, pipeline_dir, tmp_path):
        """Ids that JSON must escape, or may write raw, come out as json.dumps
        writes them, in the line format that one f-string per comment wrote."""
        rows = jsonl(pipeline_dir / "data" / "comments.jsonl")
        ids = ["caf\u00e9 \u00fc\u00df \u4e2d", 'say "hi"', "back\\slash \\u0041",
               "tab\tnul\x00bell\x07del\x7f", "line\u2028para\u2029", "\U0001f642",
               "\ud800 lone", "nl\nend"]
        for row, cid in zip(rows, ids):
            row["id"] = cid
        path = tmp_path / "comments.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--comments", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        classifiers = cli._load_classifier("aspects", pipeline_dir / "models")
        scores = score_comments(classifiers, [row["text"] for row in rows])
        expected = "".join(f_string_score_line(row["id"], score) + "\n"
                           for row, score in zip(rows, scores))
        assert (tmp_path / "out" / "scores.jsonl").read_bytes() == expected.encode("utf-8")

    def test_builds_no_comment_object(self, pipeline_dir, tmp_path, monkeypatch):
        """score carries comments as columns from file to file: with
        ``corpus.Comment`` made to raise, it writes the same files."""
        def refuse(*args):
            raise RuntimeError("score built a Comment")

        monkeypatch.setattr(corpus, "Comment", refuse)
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--out", str(tmp_path / "out")]) == 0
        for name in ("scores.jsonl", "article_weights.jsonl"):
            assert (tmp_path / "out" / name).read_bytes() == \
                (pipeline_dir / "out" / name).read_bytes()

    def test_main_runs_the_module_attribute(self, pipeline_dir, tmp_path, monkeypatch):
        """A wrapper put on cli.cmd_score, as a tracer does, is the one main runs."""
        calls = []
        original = cli.cmd_score

        def counting(cfg, args):
            calls.append(args.command)
            return original(cfg, args)

        monkeypatch.setattr(cli, "cmd_score", counting)
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert calls == ["score"]

    def test_scores_one_block_of_comments_at_a_time(self, pipeline_dir, tmp_path,
                                                    monkeypatch):
        """No scoring call gets more than one block of texts, so ``score``
        holds one block of comments however long the file is."""
        sizes = []
        original = incivility._score_columns

        def recording(classifiers, texts):
            sizes.append(len(texts))
            return original(classifiers, texts)

        monkeypatch.setattr(incivility, "_score_columns", recording)
        path = many_comments(pipeline_dir, tmp_path / "comments.jsonl", LATE_ROWS)
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--comments", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        block = textproc._CHUNK
        assert sizes == [block, block, LATE_ROWS - 2 * block]
        assert len(jsonl(tmp_path / "out" / "scores.jsonl")) == LATE_ROWS

    @pytest.mark.parametrize("bad, message", [
        ({"text": None}, "invalid text None, must be a string"),
        ({"id": "c5"}, "duplicate id 'c5'"),
    ], ids=["bad-type", "repeated-id"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_bad_row_in_a_late_block_exits_2_and_writes_nothing(
            self, pipeline_dir, tmp_path, capsys, bad, message, existing):
        """A bad row found after two blocks were scored and written is named
        as before, and leaves no new directory, no temp file and an older
        ``scores.jsonl`` byte for byte."""
        lineno = 2 * textproc._CHUNK + 50
        path = many_comments(pipeline_dir, tmp_path / "comments.jsonl", LATE_ROWS,
                             bad={lineno - 1: bad})
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "scores.jsonl").write_text("older scores\n")
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--comments", str(path),
                     "--out", str(out)]) == 2
        assert f"line {lineno}: {message}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["comments.jsonl"] + ["out"] * existing
        if existing:
            assert os.listdir(out) == ["scores.jsonl"]
            assert (out / "scores.jsonl").read_bytes() == b"older scores\n"

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 50), n_articles=st.integers(1, 5),
           per_article=st.integers(1, 6), data=st.data())
    def test_block_size_changes_no_output_byte(self, pipeline_dir, seed, n_articles,
                                               per_article, data):
        """Scored a block of 1, 7, n - 1, n or n + 1 comments at a time, the
        files are those of scoring all n comments in one batch, with short
        comments dropped and a keyword filter on the articles."""
        n = n_articles * per_article
        short = data.draw(st.sets(st.integers(0, n - 1)))
        config = (pipeline_dir / "config_path.txt").read_text()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            assert main(["generate-synthetic", "--seed", str(seed), "--out", str(root),
                         "--n-articles", str(n_articles), "--comments-per-article",
                         str(per_article), "--n-annotated", "2"]) == 0
            rows = jsonl(root / "comments.jsonl")
            for i in short:
                rows[i]["text"] = rows[i]["text"].split()[0]
            (root / "comments.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))

            def files(block: int) -> list[bytes]:
                out = root / f"out{block}"
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(textproc, "_CHUNK", block)
                    assert main(["score", "--config", config, "--articles",
                                 str(root / "articles.jsonl"), "--comments",
                                 str(root / "comments.jsonl"), "--out", str(out),
                                 "--min-comment-words", "2",
                                 "--set", 'keywords=["tunnel"]']) == 0
                return [(out / name).read_bytes()
                        for name in ("scores.jsonl", "article_weights.jsonl")]

            one_batch = files(n + 1)
            assert one_batch[0].count(b"\n") == n - len(short)
            for block in {1, 7, max(n - 1, 1), n}:
                assert files(block) == one_batch, block

    @pytest.mark.parametrize("field", ["id", "source", "title", "body", "date"])
    def test_non_string_article_field_exits_2(self, pipeline_dir, tmp_path, capsys, field):
        rows = jsonl(pipeline_dir / "data" / "articles.jsonl")
        rows[1][field] = None
        path = tmp_path / "articles.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--articles", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"line 2: invalid {field} None, must be a string" in capsys.readouterr().err

    def test_tag_keeps_only_the_tagged_articles(self, pipeline_dir, tmp_path):
        """With ``tag`` set, score writes a weight for each article carrying
        it, and for no other; each is the line the untagged run wrote."""
        rows = jsonl(pipeline_dir / "data" / "articles.jsonl")
        for row in rows[::3]:
            row["tags"] = ["Harbor", "transit"]
        path = tmp_path / "articles.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--articles", str(path),
                     "--set", "tag=harbor", "--out", str(tmp_path / "out")]) == 0
        tagged = {row["id"] for row in rows[::3]}
        lines = (pipeline_dir / "out" / "article_weights.jsonl").read_text().splitlines(True)
        expected = [line for line in lines if json.loads(line)["article_id"] in tagged]
        assert len(expected) == len(tagged) < len(rows)
        assert (tmp_path / "out" / "article_weights.jsonl").read_text() == "".join(expected)

    def test_summary_counts_every_scored_comment_and_the_weighted_ones(self, pipeline_dir,
                                                                       tmp_path, capsys):
        """With ``tag`` set, every comment is still scored, but only those on
        the tagged articles go into the weights written."""
        rows = jsonl(pipeline_dir / "data" / "articles.jsonl")
        for row in rows[::3]:
            row["tags"] = ["Harbor", "transit"]
        path = tmp_path / "articles.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = (pipeline_dir / "config_path.txt").read_text()
        capsys.readouterr()
        assert main(["score", "--config", config, "--articles", str(path),
                     "--set", "tag=harbor", "--out", str(tmp_path / "out")]) == 0
        tagged = {row["id"] for row in rows[::3]}
        comments = jsonl(pipeline_dir / "data" / "comments.jsonl")
        on_tagged = sum(c["article_id"] in tagged for c in comments)
        assert 0 < on_tagged < len(comments)
        assert capsys.readouterr().out == (
            f"scored {len(comments)} comments; weighted {len(tagged)} articles "
            f"holding {on_tagged} of them\n")


@pytest.mark.parametrize("command, tag", [
    pytest.param(command, tag, id=command + suffix)
    for tag, suffix in (("nosuchtag", ""), ("", "-empty-tag"))
    for command in ("score", "mine-subtext")
])
def test_tag_that_no_article_carries_exits_2(pipeline_dir, tmp_path, capsys, command, tag):
    config = (pipeline_dir / "config_path.txt").read_text()
    assert main([command, "--config", config, "--set", f"tag={tag}",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"no articles carry tag {tag!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, model_file, name", [
    (["score"], "aspect_attack.json", "attack"),
    (["predict-provoking"], "provoking_model.json", "provoking"),
    (["evaluate", "--target", "provoking", "--labels", "{out}/article_labels.jsonl"],
     "provoking_model.json", "provoking"),
])
def test_model_wider_than_its_vectorizer_exits_2_naming_it(pipeline_dir, tmp_path, capsys,
                                                             argv, model_file, name):
    models = tmp_path / "models"
    shutil.copytree(pipeline_dir / "models", models)
    payload = json.loads((models / model_file).read_text())
    dimension = payload["dimension"]
    payload["dimension"] = dimension + 1
    (models / model_file).write_text(json.dumps(payload))
    config = (pipeline_dir / "config_path.txt").read_text()
    argv = [arg.replace("{out}", str(pipeline_dir / "out")) for arg in argv]
    assert main([*argv, "--config", config, "--model-dir", str(models),
                 "--out", str(tmp_path / "out")]) == 2
    assert (f"error: {name} model dimension {dimension + 1} does not match "
            f"vectorizer dimension {dimension}") in capsys.readouterr().err


class TestLabelTrainProvoking:
    def test_thresholds_and_balanced_labels(self, pipeline_dir):
        thresholds = json.loads((pipeline_dir / "out" / "thresholds.json").read_text())
        assert [t["source"] for t in thresholds] == ["daily"]
        assert thresholds[0]["n_articles"] == 40

        labels = jsonl(pipeline_dir / "out" / "article_labels.jsonl")
        assert len(labels) == 40
        positives = sum(1 for row in labels if row["label"])
        assert positives == 20  # floor(40 / 2) with distinct weights
        median = thresholds[0]["median_weight"]
        for row in labels:
            assert row["label"] == (row["weight"] > median)

    def test_provoking_model_files_written(self, pipeline_dir):
        assert (pipeline_dir / "models" / "provoking_tfidf.json").exists()
        assert (pipeline_dir / "models" / "provoking_model.json").exists()
        report = json.loads((pipeline_dir / "out" / "provoking_report.json").read_text())
        assert report["tp"] + report["fp"] + report["tn"] + report["fn"] == 8

    def test_single_article_exits_2(self, tmp_path, capsys):
        articles = [Article(id="a0", source="s", title="t", body="alpha beta gamma")]
        save_articles(articles, tmp_path / "articles.jsonl")
        (tmp_path / "weights.jsonl").write_text(
            json.dumps({"article_id": "a0", "weight": 0.5, "n_comments": 1, "source": "s"}) + "\n"
        )
        code = main([
            "label-train-provoking",
            "--articles", str(tmp_path / "articles.jsonl"),
            "--weights", str(tmp_path / "weights.jsonl"),
            "--out", str(tmp_path / "out"),
            "--model-dir", str(tmp_path / "models"),
        ])
        assert code == 2
        assert "contain a single class" in capsys.readouterr().err
        assert not (tmp_path / "out" / "thresholds.json").exists()
        assert not (tmp_path / "out" / "article_labels.jsonl").exists()

    def test_warns_when_the_fit_is_capped(self, pipeline_dir, tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["label-train-provoking", "--config", config,
                     "--weights", str(pipeline_dir / "out" / "article_weights.jsonl"),
                     "--out", str(tmp_path / "out"), "--model-dir", str(tmp_path / "models"),
                     "--set", "train.max_iterations=1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("labeled 20/40 articles provoking")
        assert captured.err.startswith(
            "warning: provoking model stopped on max_iterations after 1 iterations")
        assert len(captured.err.splitlines()) == 1

    def test_tfidf_config_keeping_no_terms_exits_2(self, pipeline_dir, tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["label-train-provoking", "--config", config,
                     "--weights", str(pipeline_dir / "out" / "article_weights.jsonl"),
                     "--out", str(tmp_path / "out"), "--model-dir", str(tmp_path / "models"),
                     "--set", "article_tfidf.min_df=100000"]) == 2
        err = capsys.readouterr().err
        assert "min_df=100000" in err and "max_df_ratio=1.0" in err
        assert "over 32 training texts" in err  # 40 articles, 20% held out
        assert not (tmp_path / "models").exists()
        assert not (tmp_path / "out").exists()

    def test_labels_each_source_against_its_own_median(self, pipeline_dir, tmp_path):
        config = (pipeline_dir / "config_path.txt").read_text()
        rows = jsonl(pipeline_dir / "out" / "article_weights.jsonl")
        for i, row in enumerate(rows):
            row["source"] = ("daily", "weekly")[i % 2]
        (tmp_path / "weights.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["label-train-provoking", "--config", config,
                     "--weights", str(tmp_path / "weights.jsonl"),
                     "--out", str(tmp_path / "out"),
                     "--model-dir", str(tmp_path / "models")]) == 0

        medians = {s: statistics.median(r["weight"] for r in rows if r["source"] == s)
                   for s in ("daily", "weekly")}
        assert medians["daily"] != medians["weekly"]
        thresholds = json.loads((tmp_path / "out" / "thresholds.json").read_text())
        assert thresholds == [{"source": s, "median_weight": medians[s], "n_articles": 20}
                              for s in ("daily", "weekly")]
        labels = jsonl(tmp_path / "out" / "article_labels.jsonl")
        assert [r["article_id"] for r in labels] == [r["article_id"] for r in rows]
        for row, label in zip(rows, labels):
            assert label["weight"] == row["weight"]
            assert label["label"] == (row["weight"] > medians[row["source"]])
        assert sum(r["label"] for r in labels) == 20

    @pytest.mark.parametrize("row, message", [
        ({"article_id": "a0", "weight": 0.5, "source": "s"}, "missing field n_comments"),
        (["a0", 0.5, 1, "s"], "expected a JSON object"),
        ({"article_id": "a0", "weight": "high", "n_comments": 1, "source": "s"},
         "invalid weight"),
        ({"article_id": "a0", "weight": 10**400, "n_comments": 1, "source": "s"},
         "invalid weight"),
        ({"article_id": "a0", "weight": 0.5, "n_comments": 1, "source": "s\ud800"},
         "invalid source 's\\ud800', must be a string with no lone surrogate"),
        ({"article_id": "a0", "weight": 7.5, "n_comments": 1, "source": "s"},
         "invalid weight 7.5, must be a number in [0, 1]"),
        ({"article_id": "a0", "weight": -3.0, "n_comments": 1, "source": "s"},
         "invalid weight -3.0, must be a number in [0, 1]"),
        ({"article_id": "a0", "weight": 0.5, "n_comments": 0, "source": "s"},
         "invalid n_comments 0, must be an integer >= 1"),
        ({"article_id": "a0", "weight": 0.5, "n_comments": -4, "source": "s"},
         "invalid n_comments -4, must be an integer >= 1"),
    ])
    def test_malformed_weights_row_exits_2(self, tmp_path, capsys, row, message):
        save_articles([Article(id="a0", source="s", title="t", body="alpha beta")],
                      tmp_path / "articles.jsonl")
        (tmp_path / "weights.jsonl").write_text(json.dumps(row) + "\n")
        code = main([
            "label-train-provoking",
            "--articles", str(tmp_path / "articles.jsonl"),
            "--weights", str(tmp_path / "weights.jsonl"),
            "--out", str(tmp_path / "out"),
            "--model-dir", str(tmp_path / "models"),
        ])
        assert code == 2
        assert f"line 1: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize("rows, message", [
        ([("a0", "s"), ("zz", "s")], "unknown article ids: ['zz']"),
        ([("a0", "s"), ("a1", "s"), ("a0", "s")], "line 3: duplicate article_id 'a0'"),
    ])
    def test_bad_article_ids_exit_2_before_writing(self, tmp_path, capsys, rows, message):
        save_articles([Article(id=a, source="s", title="t", body="alpha beta")
                       for a in ("a0", "a1")], tmp_path / "articles.jsonl")
        (tmp_path / "weights.jsonl").write_text("".join(
            json.dumps({"article_id": a, "weight": 0.5, "n_comments": 1, "source": src}) + "\n"
            for a, src in rows))
        code = main([
            "label-train-provoking",
            "--articles", str(tmp_path / "articles.jsonl"),
            "--weights", str(tmp_path / "weights.jsonl"),
            "--out", str(tmp_path / "out"),
            "--model-dir", str(tmp_path / "models"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "thresholds.json").exists()
        assert not (tmp_path / "out" / "article_labels.jsonl").exists()


class TestPredictProvoking:
    def test_predictions_for_every_article(self, pipeline_dir):
        predictions = jsonl(pipeline_dir / "out" / "provoking_predictions.jsonl")
        assert len(predictions) == 40
        for p in predictions:
            assert 0.0 <= p["probability"] <= 1.0
            # probability is rounded to 6 decimals in the file; the label was
            # computed at full precision, so only check away from the boundary
            if abs(p["probability"] - 0.5) > 1e-6:
                assert p["label"] == (p["probability"] > 0.5)


class TestMineSubtext:
    def test_report_files_and_disjointness(self, pipeline_dir):
        report = json.loads((pipeline_dir / "out" / "subtext.json").read_text())
        content = set(report["content_phrases"])
        comment = set(report["comment_phrases"])
        assert not (content & comment)
        md = (pipeline_dir / "out" / "subtext.md").read_text()
        assert md.startswith("| Content Topic Phrases | Comment Topic Phrases |")

    def test_unmatched_tag_exits_2(self, pipeline_dir, tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        code = main(["mine-subtext", "--config", config, "--tag", "nosuchtag",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nosuchtag" in capsys.readouterr().err

    def test_rerun_byte_identical(self, pipeline_dir, tmp_path):
        config = (pipeline_dir / "config_path.txt").read_text()
        out2 = tmp_path / "out2"
        assert main(["mine-subtext", "--config", config, "--out", str(out2)]) == 0
        assert (out2 / "subtext.json").read_bytes() == \
            (pipeline_dir / "out" / "subtext.json").read_bytes()
        assert (out2 / "subtext.md").read_bytes() == \
            (pipeline_dir / "out" / "subtext.md").read_bytes()

    def test_builds_no_comment_object(self, pipeline_dir, tmp_path, monkeypatch):
        """mine-subtext reads comment texts as columns: with
        ``corpus.Comment`` made to raise, it writes the same files."""
        def refuse(*args):
            raise RuntimeError("mine-subtext built a Comment")

        monkeypatch.setattr(corpus, "Comment", refuse)
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["mine-subtext", "--config", config, "--out", str(tmp_path / "out")]) == 0
        for name in ("subtext.json", "subtext.md"):
            assert (tmp_path / "out" / name).read_bytes() == \
                (pipeline_dir / "out" / name).read_bytes()

    def test_filters_select_the_comments_of_kept_articles(self, pipeline_dir, tmp_path):
        """Keyword, tag and length filters keep the texts, in file order, of
        the comments that the library selects from ``load_comments``.
        "tunnel" is in about half of the articles, and 10 words drop about a
        tenth of the comments."""
        config = (pipeline_dir / "config_path.txt").read_text()
        cfg = json.loads(Path(config).read_text())
        argv = ["--set", 'keywords=["tunnel"]', "--min-comment-words", "10"]
        assert main(["mine-subtext", "--config", config, "--out", str(tmp_path / "cli"),
                     *argv]) == 0
        articles = corpus.filter_by_tag(
            corpus.filter_by_keywords(corpus.load_articles(cfg["articles"]), ["tunnel"]),
            cfg["tag"])
        kept = {a.id for a in articles}
        comments = corpus.load_comments(cfg["comments"], min_words=10)
        report = mine_subtext([a.body for a in articles],
                              [c.text for c in comments if c.article_id in kept],
                              config=LdaConfig(**cfg["lda"]),
                              min_phrase_df=cfg["min_phrase_df"])
        save_report(report, tmp_path / "lib" / "subtext.json", tmp_path / "lib" / "subtext.md")
        for name in ("subtext.json", "subtext.md"):
            assert (tmp_path / "cli" / name).read_bytes() == \
                (tmp_path / "lib" / name).read_bytes()


class TestEvaluate:
    def test_aspects_target(self, pipeline_dir, tmp_path):
        config = (pipeline_dir / "config_path.txt").read_text()
        out = tmp_path / "eval_out"
        assert main(["evaluate", "--target", "aspects", "--config", config,
                     "--out", str(out)]) == 0
        payload = json.loads((out / "evaluation.json").read_text())
        assert set(payload) == {"toxicity", "aggression", "attack"}

    def test_provoking_target(self, pipeline_dir, tmp_path):
        config = (pipeline_dir / "config_path.txt").read_text()
        out = tmp_path / "eval_out2"
        assert main(["evaluate", "--target", "provoking", "--config", config,
                     "--labels", str(pipeline_dir / "out" / "article_labels.jsonl"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "evaluation.json").read_text())
        assert "provoking" in payload
        assert payload["provoking"]["tp"] + payload["provoking"]["fn"] == 20

    def test_aspects_on_the_held_out_split_write_the_trainer_report(self, pipeline_dir,
                                                                     tmp_path):
        config = (pipeline_dir / "config_path.txt").read_text()
        cfg = cli._from_dict(RunConfig(), json.loads(Path(config).read_text()))
        _, test = corpus.train_test_split(corpus.load_annotated(cfg.annotated),
                                          cfg.test_fraction, cfg.split_seed)
        corpus.save_annotated(test, tmp_path / "held_out.jsonl")
        assert main(["evaluate", "--target", "aspects", "--config", config,
                     "--annotated", str(tmp_path / "held_out.jsonl"),
                     "--out", str(tmp_path / "out")]) == 0
        assert ((tmp_path / "out" / "evaluation.json").read_bytes()
                == (pipeline_dir / "out" / "aspect_reports.json").read_bytes())

    def test_provoking_on_the_held_out_split_gives_the_trainer_report(self, pipeline_dir,
                                                                      tmp_path):
        config = (pipeline_dir / "config_path.txt").read_text()
        cfg = cli._from_dict(RunConfig(), json.loads(Path(config).read_text()))
        rows = jsonl(pipeline_dir / "out" / "article_labels.jsonl")
        _, test = corpus.train_test_split(rows, cfg.test_fraction, cfg.split_seed,
                                          labels=[row["label"] for row in rows])
        (tmp_path / "held_out.jsonl").write_text("".join(json.dumps(r) + "\n" for r in test))
        assert main(["evaluate", "--target", "provoking", "--config", config,
                     "--labels", str(tmp_path / "held_out.jsonl"),
                     "--out", str(tmp_path / "out")]) == 0
        assert (json.loads((tmp_path / "out" / "evaluation.json").read_text())["provoking"]
                == json.loads((pipeline_dir / "out" / "provoking_report.json").read_text()))

    def test_empty_annotated_file_exits_2(self, pipeline_dir, tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["evaluate", "--target", "aspects", "--config", config,
                     "--annotated", str(empty), "--out", str(tmp_path / "out")]) == 2
        assert "cannot evaluate on zero examples" in capsys.readouterr().err

    def test_single_class_aspect_labels_exit_2_naming_the_model(self, pipeline_dir, tmp_path,
                                                                 capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        annotated = [dataclasses.replace(ac, attack_flags=(False,) * len(ac.attack_flags))
                     for ac in corpus.load_annotated(pipeline_dir / "data" / "annotated.jsonl")]
        corpus.save_annotated(annotated, tmp_path / "civil.jsonl")
        assert main(["evaluate", "--target", "aspects", "--config", config,
                     "--annotated", str(tmp_path / "civil.jsonl"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: attack labels contain a single class" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_class_provoking_labels_exit_2_naming_the_model(self, pipeline_dir,
                                                                   tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        rows = jsonl(pipeline_dir / "out" / "article_labels.jsonl")
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps({**row, "label": True}) + "\n" for row in rows))
        assert main(["evaluate", "--target", "provoking", "--config", config,
                     "--labels", str(labels), "--out", str(tmp_path / "out")]) == 2
        assert "error: provoking labels contain a single class" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_labels_for_unknown_articles_exit_2(self, pipeline_dir, tmp_path, capsys):
        """Labels for articles the articles file lacks are an error, not
        dropped: the report would cover fewer articles than labeled."""
        config = (pipeline_dir / "config_path.txt").read_text()
        labels = pipeline_dir / "out" / "article_labels.jsonl"
        labeled = [row["article_id"] for row in jsonl(labels)]
        articles = [a for a in corpus.load_articles(pipeline_dir / "data" / "articles.jsonl")
                    if a.id in labeled]
        corpus.save_articles(articles[:len(articles) // 2], tmp_path / "articles.jsonl")
        unknown = [a.id for a in articles[len(articles) // 2:]]
        unknown.sort(key=labeled.index)
        assert main(["evaluate", "--target", "provoking", "--config", config,
                     "--articles", str(tmp_path / "articles.jsonl"), "--labels", str(labels),
                     "--out", str(tmp_path / "out")]) == 2
        assert (f"error: labels reference unknown article ids: {unknown[:5]}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_aspects_without_annotated_exits_2_and_makes_no_directory(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--target", "aspects"]) == 2
        assert "no annotated path configured" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_labels_row_without_label_exits_2(self, pipeline_dir, tmp_path, capsys):
        config = (pipeline_dir / "config_path.txt").read_text()
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps({"article_id": "a0", "label": True}) + "\n"
                          + json.dumps({"article_id": "a1", "weight": 0.5}) + "\n")
        assert main(["evaluate", "--target", "provoking", "--config", config,
                     "--labels", str(labels), "--out", str(tmp_path / "out")]) == 2
        assert "line 2: missing field label" in capsys.readouterr().err

    def test_repeated_label_row_exits_2(self, pipeline_dir, tmp_path, capsys):
        """A second row for one article must not overwrite the first label."""
        config = (pipeline_dir / "config_path.txt").read_text()
        lines = (pipeline_dir / "out" / "article_labels.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        first["label"] = not first["label"]
        labels = tmp_path / "labels.jsonl"
        labels.write_text("\n".join(lines + [json.dumps(first)]) + "\n")
        out = tmp_path / "out"
        assert main(["evaluate", "--target", "provoking", "--config", config,
                     "--labels", str(labels), "--out", str(out)]) == 2
        assert (f"line {len(lines) + 1}: duplicate article_id {first['article_id']!r}"
                in capsys.readouterr().err)
        assert not (out / "evaluation.json").exists()


class TestConfigHandling:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json", {"no_such_key": 1})
        assert main(["generate-synthetic", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate-synthetic", "--config", bad.as_posix()]) == 2

    @pytest.mark.parametrize("text, message", [
        ('{"synthetic": ', "Expecting value"),
        ("[1, 2]", "config file must hold a JSON object"),
        pytest.param('{"out_dir": "\udcff"}', "'utf-8' codec can't decode byte 0xff in position 13",
                     id="not-utf-8"),
    ])
    def test_bad_config_error_names_the_file(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8", errors="surrogateescape")
        assert main(["generate-synthetic", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_set_value_that_is_not_json_is_a_string(self):
        cfg = _load_run_config(build_parser().parse_args([
            "generate-synthetic", "--set", "synthetic.tag=abc",
        ]))
        assert cfg.synthetic.tag == "abc"

    def test_flag_overrides_config_value(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            {"synthetic": {"n_articles": 5, "comments_per_article": 1, "n_annotated": 1}},
        )
        out = tmp_path / "corpus"
        assert main(["generate-synthetic", "--config", config, "--out", str(out),
                     "--n-articles", "9"]) == 0
        assert len(jsonl(out / "articles.jsonl")) == 9

    def test_set_overrides_any_config_value(self, tmp_path):
        out = tmp_path / "corpus"
        assert main([
            "generate-synthetic", "--out", str(out),
            "--set", "synthetic.n_articles=6",
            "--set", "synthetic.comments_per_article=2",
            "--set", "synthetic.n_annotated=3",
            "--set", "synthetic.tag=harbor",
        ]) == 0
        articles = jsonl(out / "articles.jsonl")
        assert len(articles) == 6
        assert articles[0]["tags"] == ["harbor"]

    @pytest.mark.parametrize("item, message", [
        ('synthetic.subtext_phrase="crimson ledger"',
         "subtext_phrase must share no token with the generated words or marker_bigram, "
         "got 'crimson ledger'"),
        ('synthetic.subtext_phrase="Council budget"',
         "subtext_phrase must share no token with the generated words or marker_bigram, "
         "got 'Council budget'"),
        ('synthetic.marker_bigram="harbor glass"',
         "marker_bigram must share no token with the generated words, got 'harbor glass'"),
    ])
    def test_planted_phrase_sharing_a_token_exits_2(self, tmp_path, capsys, item, message):
        out = tmp_path / "o"
        assert main(["generate-synthetic", "--out", str(out), "--set", item,
                     "--set", "synthetic.n_articles=10"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_set_rejects_malformed_items(self, tmp_path, capsys):
        assert main(["generate-synthetic", "--out", str(tmp_path / "o"),
                     "--set", "justakey"]) == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["lda.iterations=2.5", "lda.n_topics=true"])
    def test_mistyped_lda_set_exits_2(self, tmp_path, capsys, item):
        assert main(["mine-subtext", "--out", str(tmp_path / "o"), "--set", item]) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("item, message", [
        ("train.max_iterations=2.5", "max_iterations must be an integer"),
        ("train.max_iterations=true", "max_iterations must be an integer"),
        ("train.l2_lambda=x", "l2_lambda must be a finite number"),
        ("train.tolerance=Infinity", "tolerance must be a finite number"),
        ("train.learning_rate=1.0", "unknown keys under 'train': ['learning_rate']"),
        ("aspect_tfidf.n_max=2.5", "n_max must be an integer"),
        ("aspect_tfidf.min_df=x", "min_df must be an integer"),
        ("aspect_tfidf.use_stoplist=no", "use_stoplist must be true or false"),
        ("synthetic.n_articles=x", "n_articles must be an integer"),
        ("synthetic.sources=daily", "sources must be a list of strings"),
        ("lda.seed=-1", "seed must be >= 0, got -1"),
        ("synthetic.seed=-3", "seed must be >= 0, got -3"),
    ])
    def test_mistyped_sub_config_set_exits_2(self, tmp_path, capsys, item, message):
        assert main(["mine-subtext", "--out", str(tmp_path / "o"), "--set", item]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("item, message", [
        ("keywords=5", "keywords must be a list of strings"),
        ("keywords=[1,2]", "keywords must be a list of strings"),
        ("keywords=election", "keywords must be a list of strings"),
        ("tag=5", "tag must be a string or null"),
        ("min_comment_words=x", "min_comment_words must be an integer"),
        ("min_phrase_df=x", "min_phrase_df must be an integer"),
        ("min_phrase_df=true", "min_phrase_df must be an integer"),
        ("test_fraction=x", "test_fraction must be a finite number"),
        ("model_dir=5", "model_dir must be a string"),
        ("split_seed=x", "split_seed must be an integer"),
        ("split_seed=-1", "split_seed must be >= 0, got -1"),
        ("min_comment_words=-3", "min_comment_words must be >= 0, got -3"),
        ("min_phrase_df=-3", "min_phrase_df must be >= 0, got -3"),
        ("articles=[]", "articles must be a string or null"),
        ('keywords=["Council Budget"]', "'Council Budget' can never match"),
        ('keywords=["U.S."]', "'U.S.' can never match"),
        ("""keywords=["'"]""", "keyword \"'\" can never match"),
        ('keywords=[""]', "keyword '' can never match"),
    ])
    def test_mistyped_run_config_set_exits_2(self, tmp_path, capsys, item, message):
        assert main(["mine-subtext", "--out", str(tmp_path / "o"), "--set", item]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["1e305", "1e308"])
    def test_overflowing_lda_beta_exits_2(self, pipeline_dir, tmp_path, capsys, beta):
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["mine-subtext", "--config", config, "--out", str(tmp_path / "o"),
                     "--set", f"lda.beta={beta}"]) == 2
        assert f"beta {float(beta):g} is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["7e307", "1e308"])
    def test_overflowing_lda_alpha_exits_2(self, pipeline_dir, tmp_path, capsys, alpha):
        """Three topic weights near alpha each could sum past the largest float."""
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["mine-subtext", "--config", config, "--out", str(tmp_path / "o"),
                     "--set", f"lda.alpha={alpha}"]) == 2
        assert f"alpha {float(alpha):g} is too large for 3 topics" in capsys.readouterr().err

    def test_unallocatable_lda_n_topics_exits_2(self, pipeline_dir, tmp_path, capsys):
        """10**9 topics need count arrays of hundreds of GB on this corpus,
        which numpy refuses before it allocates anything."""
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["mine-subtext", "--config", config, "--out", str(tmp_path / "o"),
                     "--set", "lda.n_topics=1000000000"]) == 2
        assert "n_topics 1000000000 is too large" in capsys.readouterr().err

    def test_n_max_past_the_longest_text_changes_nothing(self, pipeline_dir, tmp_path):
        config = (pipeline_dir / "config_path.txt").read_text()
        data = pipeline_dir / "data"
        longest = max(len(tokenize(row[key]))
                      for name, key in (("articles.jsonl", "body"), ("comments.jsonl", "text"))
                      for row in jsonl(data / name))
        reports = []
        for n_max in (longest, 1000000):
            out = tmp_path / str(n_max)
            assert main(["mine-subtext", "--config", config, "--out", str(out),
                         "--set", "lda.iterations=5", "--set", f"lda.n_max={n_max}"]) == 0
            reports.append((out / "subtext.json").read_bytes())
        assert reports[0] == reports[1]

    def test_mistyped_lda_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json", {"lda": {"n_topics": "five"}})
        assert main(["mine-subtext", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "n_topics must be an integer" in capsys.readouterr().err

    def test_removed_train_seed_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "old.json", {"train": {"seed": 0}})
        assert main(["train-aspects", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "unknown keys under 'train': ['seed']" in capsys.readouterr().err

    def test_dedicated_flag_wins_over_set(self, tmp_path):
        out = tmp_path / "corpus"
        assert main([
            "generate-synthetic", "--out", str(out),
            "--set", "synthetic.n_articles=6",
            "--set", "synthetic.comments_per_article=1",
            "--set", "synthetic.n_annotated=1",
            "--n-articles", "4",
        ]) == 0
        assert len(jsonl(out / "articles.jsonl")) == 4

    @pytest.mark.parametrize("argv, expected", [
        (["train-aspects", "--annotated", "ann.tsv", "--test-fraction", "0.3"],
         {"annotated": "ann.tsv", "test_fraction": 0.3}),
        (["score", "--articles", "a.jsonl", "--comments", "c.jsonl",
          "--min-comment-words", "4"],
         {"articles": "a.jsonl", "comments": "c.jsonl", "min_comment_words": 4}),
        (["label-train-provoking", "--articles", "a.jsonl", "--test-fraction", "0.25"],
         {"articles": "a.jsonl", "test_fraction": 0.25}),
        (["predict-provoking", "--articles", "a.jsonl"], {"articles": "a.jsonl"}),
        (["mine-subtext", "--articles", "a.jsonl", "--comments", "c.jsonl", "--tag", "harbor",
          "--min-phrase-df", "7", "--min-comment-words", "2"],
         {"articles": "a.jsonl", "comments": "c.jsonl", "tag": "harbor",
          "min_phrase_df": 7, "min_comment_words": 2}),
        (["generate-synthetic", "--n-articles", "11", "--comments-per-article", "5",
          "--n-annotated", "13"],
         {"synthetic.n_articles": 11, "synthetic.comments_per_article": 5,
          "synthetic.n_annotated": 13}),
        (["evaluate", "--target", "aspects", "--annotated", "ann.jsonl"],
         {"annotated": "ann.jsonl"}),
        (["evaluate", "--target", "provoking", "--articles", "a.jsonl"],
         {"articles": "a.jsonl"}),
        (["mine-subtext", "--seed", "42", "--out", "o", "--model-dir", "m"],
         {"split_seed": 42, "lda.seed": 42, "synthetic.seed": 42,
          "out_dir": "o", "model_dir": "m"}),
        (["generate-synthetic", "--seed", "5", "--set", "lda.seed=9",
          "--set", "synthetic.seed=9", "--set", "split_seed=9"],
         {"split_seed": 5, "lda.seed": 5, "synthetic.seed": 5}),
    ])
    def test_dedicated_flag_sets_its_config_key(self, argv, expected):
        cfg = _load_run_config(build_parser().parse_args(argv))
        for key, value in expected.items():
            node = cfg
            for part in key.split("."):
                node = getattr(node, part)
            assert node == value, key

    def test_partial_sub_config_keeps_its_defaults(self):
        cfg = _load_run_config(build_parser().parse_args([
            "train-aspects", "--set", "aspect_tfidf.use_stoplist=true",
            "--set", "article_tfidf.min_df=2",
        ]))
        assert cfg.aspect_tfidf == TfidfConfig(n_min=1, n_max=2, min_df=3, use_stoplist=True)
        assert cfg.article_tfidf == TfidfConfig(n_min=2, n_max=2, min_df=2)

    @pytest.mark.parametrize("command", [
        "train-aspects", "score", "label-train-provoking", "predict-provoking",
        "mine-subtext", "generate-synthetic", "evaluate",
    ])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--set" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        "train-aspects", "score", "label-train-provoking", "predict-provoking",
        "mine-subtext", "generate-synthetic", "evaluate",
    ])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        """numpy rejects a negative seed without naming it, and
        ``random.Random`` takes its absolute value: every command refuses it
        before it reads or writes a file."""
        argv = [command, "--seed", "-1", "--out", str(tmp_path / "o")]
        if command == "evaluate":
            argv += ["--target", "aspects"]
        assert main(argv) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_inputs_never_mutated(self, pipeline_dir):
        config = (pipeline_dir / "config_path.txt").read_text()
        data = pipeline_dir / "data"
        before = {p.name: p.read_bytes() for p in data.iterdir()}
        assert main(["score", "--config", config]) == 0
        after = {p.name: p.read_bytes() for p in data.iterdir()}
        assert before == after


DEEP = "[" * 100_000  # JSON nested too deep for the decoder to recurse through


class TestDeepNesting:
    """JSON nested too deep to decode is an input error (exit 2) that names
    where it was, at each place the CLI reads JSON; so is an integer too
    long to convert."""

    def test_jsonl_row(self, pipeline_dir, tmp_path, capsys):
        lines = (pipeline_dir / "data" / "comments.jsonl").read_text().splitlines()
        lines[2] = DEEP
        path = tmp_path / "comments.jsonl"
        path.write_text("\n".join(lines) + "\n")
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--comments", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: line 3: JSON nested too deep" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_file(self, pipeline_dir, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(pipeline_dir / "models", models)
        (models / "aspect_attack.json").write_text(DEEP)
        config = (pipeline_dir / "config_path.txt").read_text()
        assert main(["score", "--config", config, "--model-dir", str(models),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"error: {models / 'aspect_attack.json'}: JSON nested too deep" \
            in capsys.readouterr().err

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text(DEEP)
        assert main(["generate-synthetic", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"error: {config}: JSON nested too deep" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_set_value(self, tmp_path, capsys):
        assert main(["generate-synthetic", "--out", str(tmp_path / "out"),
                     "--set", "synthetic.seed=" + DEEP]) == 2
        assert "error: --set synthetic.seed: JSON nested too deep" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_set_value_with_a_long_integer(self, tmp_path, capsys):
        """An integer too long to convert is an input error naming the key."""
        assert main(["generate-synthetic", "--out", str(tmp_path / "out"),
                     "--set", "synthetic.seed=" + "9" * 5000]) == 2
        assert "error: --set synthetic.seed: Exceeds the limit" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome, code", [("ok", 0), ("input", 2), ("internal", 1)])
    def test_collector_is_left_as_found(self, tmp_path, monkeypatch, capsys,
                                        enabled, outcome, code):
        """The cyclic collector is off while a command runs and, whatever the
        exit code, on or off afterwards as it was before ``main``."""
        original = cli.cmd_generate_synthetic
        during = []

        def command(cfg, args):
            during.append(gc.isenabled())
            if outcome == "input":
                raise ValueError("bad input")
            if outcome == "internal":
                raise RuntimeError("bug")
            return original(cfg, args)

        monkeypatch.setattr(cli, "cmd_generate_synthetic", command)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert main(["generate-synthetic", "--out", str(tmp_path), "--n-articles", "8",
                         "--comments-per-article", "3", "--n-annotated", "5"]) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]

    COMMANDS = ("train-aspects", "score", "label-train-provoking", "predict-provoking",
                "mine-subtext")

    def cyclic_garbage(self, config: str, root: Path) -> dict[str, int]:
        """The objects ``gc.collect()`` finds unreachable after each command,
        run in turn with the collector off."""
        argv = ["--config", config, "--out", str(root / "out"),
                "--model-dir", str(root / "models")]
        gc.collect()
        left = {}
        for command in self.COMMANDS:
            assert main([command, *argv]) == 0
            left[command] = gc.collect()
        return left

    def test_commands_leave_no_cycle_per_row(self, pipeline_dir, tmp_path, capsys):
        """Each command leaves a few hundred cyclic objects (argparse and the
        like): fewer than 5,000, and no more on a corpus with 5 times the
        articles and comments and 5 times the annotated rows. A reference
        cycle made per row, which only a collection would free, fails here."""
        config = (pipeline_dir / "config_path.txt").read_text()
        large = json.loads(Path(config).read_text())
        data = tmp_path / "data"
        large.update(articles=str(data / "articles.jsonl"), comments=str(data / "comments.jsonl"),
                     annotated=str(data / "annotated.jsonl"),
                     synthetic={**large["synthetic"], "n_articles": 200, "n_annotated": 800})
        large_config = write_config(tmp_path / "large.json", large)
        assert main(["generate-synthetic", "--config", large_config, "--out", str(data)]) == 0
        was = gc.isenabled()
        gc.disable()
        try:
            left = self.cyclic_garbage(config, tmp_path / "small")
            left_large = self.cyclic_garbage(large_config, tmp_path / "large")
        finally:
            if was:
                gc.enable()
        for command in self.COMMANDS:
            assert left[command] < 5_000, command
            # The large corpus has at least 160 more rows in every input.
            assert left_large[command] - left[command] < 100, command


# Run by a fresh interpreter, since this one has imported scipy already:
# the help text and the two commands that build no matrix, then one fit.
_SCIPY_PROBE = """
import sys
from pathlib import Path

import newsciv, newsciv.cli, newsciv.incivility, newsciv.features, newsciv.linmodel
from newsciv import cli, features

out = Path(sys.argv[1])
try:
    cli.main(["--help"])
except SystemExit:
    pass
assert cli.main(["generate-synthetic", "--out", str(out), "--n-articles", "8",
                 "--comments-per-article", "5", "--n-annotated", "5"]) == 0
assert cli.main(["mine-subtext", "--articles", str(out / "articles.jsonl"),
                 "--comments", str(out / "comments.jsonl"), "--out", str(out),
                 "--set", "lda.iterations=2"]) == 0
print("scipy.sparse" in sys.modules)
features.fit_transform(["a short text", "another short text"])
print("scipy.sparse" in sys.modules)
"""


def test_only_a_feature_matrix_imports_scipy(tmp_path):
    """``--help``, ``generate-synthetic`` and ``mine-subtext`` never load
    scipy.sparse; building a TF-IDF matrix does."""
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-2:] == ["False", "True"]



# Each subcommand's options, written out so that an edit to cli._FLAGS or
# cli._COMMANDS cannot add or drop one unnoticed.
COMMON_OPTIONS = {"--help", "--config", "--set", "--seed", "--out", "--model-dir"}
OPTIONS = {
    "train-aspects": {"--annotated", "--test-fraction"},
    "score": {"--articles", "--comments", "--min-comment-words"},
    "label-train-provoking": {"--articles", "--weights", "--test-fraction"},
    "predict-provoking": {"--articles"},
    "mine-subtext": {"--articles", "--comments", "--tag", "--min-phrase-df",
                     "--min-comment-words"},
    "generate-synthetic": {"--n-articles", "--comments-per-article", "--n-annotated"},
    "evaluate": {"--target", "--annotated", "--articles", "--labels"},
}


class TestFlagTable:
    @pytest.mark.parametrize("flag", sorted(cli._FLAGS))
    def test_config_keys_are_run_config_fields(self, flag):
        for key in cli._FLAGS[flag][2]:
            node = RunConfig()
            for part in key.split("."):
                assert part in {f.name for f in dataclasses.fields(node)}, key
                node = getattr(node, part)

    @pytest.mark.parametrize("flag", sorted(cli._FLAGS))
    def test_flag_belongs_to_a_subcommand(self, flag):
        assert any(flag in cli._COMMON + flags for _, flags in cli._COMMANDS.values())

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_lists_exactly_the_subcommand_options(self, command, capsys):
        assert set(OPTIONS) == set(cli._COMMANDS)
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == COMMON_OPTIONS | OPTIONS[command]


# Any JSON value, with the numbers that break naive checks drawn often.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([0, -1, 2**63, 10**400, 1e305]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@st.composite
def damaged(draw, value, depth=0):
    """``value`` with one part, at most three levels down, replaced by
    arbitrary JSON or (in an object) removed."""
    if isinstance(value, (dict, list)) and value and depth < 3 and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                   else range(len(value))))
        if isinstance(value, dict) and draw(st.booleans()):
            return {k: v for k, v in value.items() if k != key}
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = draw(damaged(value[key], depth + 1))
        return copy
    return draw(JSON_VALUES)


def _config_keys() -> list[str]:
    keys = []
    for field in dataclasses.fields(RunConfig):
        keys.append(field.name)
        default = getattr(RunConfig(), field.name)
        if dataclasses.is_dataclass(default):
            keys += [f"{field.name}.{sub.name}" for sub in dataclasses.fields(default)]
    return keys


# Each input a damaged copy replaces, and a command that reads it from
# {input}; the other inputs come from the pipeline run. The config file is
# read from --config, and ``--set`` items go to the same command.
FUZZ_READERS = {
    "run.json": ["evaluate", "--target", "aspects"],
    "out/article_weights.jsonl": ["label-train-provoking", "--weights", "{input}"],
    "out/article_labels.jsonl": ["evaluate", "--target", "provoking", "--labels", "{input}"],
    "data/articles.jsonl": ["predict-provoking", "--articles", "{input}"],
    "data/annotated.jsonl": ["evaluate", "--target", "aspects", "--annotated", "{input}"],
    "data/annotated.tsv": ["evaluate", "--target", "aspects", "--annotated", "{input}"],
    "models/aspects_tfidf.json": ["evaluate", "--target", "aspects"],
    "models/aspect_toxicity.json": ["evaluate", "--target", "aspects"],
    "models/provoking_tfidf.json": ["predict-provoking"],
    "models/provoking_model.json": ["predict-provoking"],
}


def _annotated_tsv(path: Path) -> str:
    """The annotated comments of JSONL ``path`` as a .tsv file, one row per
    annotator."""
    lines = ["id\ttext\ttoxicity\taggression\tattack"]
    for row in jsonl(path):
        for tox, agg, att in zip(row["toxicity"], row["aggression"], row["attack"]):
            lines.append(f"{row['id']}\t{row['text']}\t{tox}\t{agg}\t{str(att).lower()}")
    return "\n".join(lines) + "\n"


@st.composite
def damaged_tsv_line(draw, line: str) -> str:
    """``line`` with one cell replaced, removed or added, or all replaced."""
    cells = line.split("\t")
    i = draw(st.integers(0, len(cells) - 1))
    how = draw(st.sampled_from(["replace", "remove", "add", "line"]))
    if how == "line":
        return draw(st.text(max_size=20))
    if how == "replace":
        cells[i] = draw(st.text(max_size=8) | st.sampled_from(["", "0", "6", "-1", "yes"]))
    elif how == "remove":
        del cells[i]
    else:
        cells.insert(i, draw(st.text(max_size=8)))
    return "\t".join(cells)


class TestMalformedInput:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_input_exits_0_or_2(self, pipeline_dir, data):
        """A damaged ``--set`` item, config file, JSONL row, .tsv annotated
        row or model file ends in exit 0 or 2, never 1 (internal error)."""
        config = pipeline_dir / "run.json"
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copytree(pipeline_dir / "models", tmp / "models")
            target = data.draw(st.sampled_from(["--set", *FUZZ_READERS]))
            extra = []
            if target == "--set":
                key = data.draw(st.sampled_from(_config_keys()) | st.text(max_size=8))
                value = data.draw(JSON_VALUES.map(json.dumps) | st.text(max_size=8))
                extra = [f"--set={key}={value}"]
                target = "run.json"
            else:
                if target.endswith(".tsv"):
                    lines = _annotated_tsv(pipeline_dir / "data" / "annotated.jsonl").splitlines()
                    i = data.draw(st.integers(0, len(lines) - 1))
                    lines[i] = data.draw(damaged_tsv_line(lines[i]))
                    text = "\n".join(lines) + "\n"
                elif target.endswith(".jsonl"):
                    text = (pipeline_dir / target).read_text(encoding="utf-8")
                    lines = text.splitlines()
                    i = data.draw(st.integers(0, len(lines) - 1))
                    lines[i] = data.draw(damaged(json.loads(lines[i])).map(json.dumps)
                                         | st.text(max_size=20))
                    text = "\n".join(lines) + "\n"
                else:
                    text = (pipeline_dir / target).read_text(encoding="utf-8")
                    text = data.draw(damaged(json.loads(text)).map(json.dumps))
                if data.draw(st.booleans()):  # as a crash mid-write would leave it
                    text = text[:data.draw(st.integers(0, len(text)))]
                (tmp / target).parent.mkdir(exist_ok=True)
                (tmp / target).write_text(text, encoding="utf-8")
                if target == "run.json":
                    config = tmp / target
            argv = [arg.replace("{input}", str(tmp / target)) for arg in FUZZ_READERS[target]]
            argv += ["--config", str(config), "--out", str(tmp / "out"),
                     "--model-dir", str(tmp / "models"), *extra]
            assert main(argv) in (0, 2), argv
