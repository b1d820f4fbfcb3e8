from __future__ import annotations

import json
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_reference
import textproc_reference as reference
from newsciv import corpus as corpus_module
from newsciv.corpus import (
    AnnotatedComment,
    Article,
    Comment,
    Corpus,
    CorpusError,
    comment_blocks,
    filter_by_keywords,
    filter_by_tag,
    load_annotated,
    load_articles,
    load_comments,
    read_rows,
    save_annotated,
    save_articles,
    save_comments,
    train_test_split,
)


def random_texts(n: int, seed: int) -> list[str]:
    """Texts of 1 to 8 pieces: words, apostrophes, separators and
    characters whose lowercasing or tokenizing depends on their neighbours."""
    rng = random.Random(seed)
    pieces = ["vote", "Vote", "tax", "don't", "'", "''", " ", "\n", "_", ".", "Σ", "é", "İ", "7"]
    return ["".join(rng.choices(pieces, k=rng.randint(1, 8))) for _ in range(n)]


def article_line(i: int, **overrides) -> str:
    obj = {
        "id": f"a{i}",
        "source": "daily",
        "title": f"Title {i}",
        "body": f"Body text {i}",
        "tags": ["politics"],
        "date": "2016-05-01",
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestTypes:
    def test_article_requires_id_and_body(self):
        with pytest.raises(ValueError):
            Article(id="", source="s", title="t", body="b")
        with pytest.raises(ValueError):
            Article(id="a1", source="s", title="t", body="")

    def test_comment_requires_text(self):
        with pytest.raises(ValueError):
            Comment(id="c1", article_id="a1", text="")

    def test_annotated_requires_ratings_in_range(self):
        with pytest.raises(ValueError):
            AnnotatedComment("w1", "x", (), (3,), (True,))
        with pytest.raises(ValueError):
            AnnotatedComment("w1", "x", (6,), (3,), (True,))
        with pytest.raises(ValueError):
            AnnotatedComment("w1", "x", (3,), (0,), (True,))
        with pytest.raises(ValueError):
            AnnotatedComment("w1", "x", (3,), (3,), ())

    def test_article_rejects_a_lone_surrogate_in_id_or_source(self):
        for field in ("id", "source"):
            with pytest.raises(ValueError, match=f"article {field} .* holds a lone surrogate"):
                Article(**{"id": "a1", "source": "s", "title": "t", "body": "b",
                           field: "x\udfff"})
        assert Article(id="a1", source="s", title="t\ud800", body="b\ud800").title == "t\ud800"
        assert Comment(id="c\ud800", article_id="a\ud800", text="t").id == "c\ud800"


class TestLoadArticles:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text("")
        assert load_articles(path) == []

    def test_preserves_order(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text(article_line(1) + "\n" + article_line(2) + "\n")
        articles = load_articles(path)
        assert [a.id for a in articles] == ["a1", "a2"]
        assert articles[0].tags == frozenset({"politics"})

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        obj = json.loads(article_line(3))
        del obj["body"]
        path.write_text(article_line(1) + "\n" + article_line(2) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(CorpusError, match="line 3: missing field body"):
            load_articles(path)

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text(article_line(1) + "\n" + article_line(1) + "\n")
        with pytest.raises(CorpusError, match="line 2: duplicate id 'a1'"):
            load_articles(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text(article_line(1) + "\n{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_articles(path)

    @pytest.mark.parametrize("tags", ["transit", ["transit", 5], None])
    def test_tags_must_be_list_of_strings(self, tmp_path, tags):
        path = tmp_path / "articles.jsonl"
        path.write_text(article_line(1, tags=tags) + "\n")
        with pytest.raises(CorpusError, match="line 1: invalid tags .*, must be a list of strings"):
            load_articles(path)


class TestLoadComments:
    def test_empty_and_valid(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        path.write_text("")
        assert load_comments(path) == []
        rows = [{"id": f"c{i}", "article_id": "a1", "text": f"text {i}"} for i in range(3)]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        comments = load_comments(path)
        assert [c.id for c in comments] == ["c0", "c1", "c2"]

    def test_duplicate_comment_id(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        row = json.dumps({"id": "c1", "article_id": "a1", "text": "x"})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(CorpusError, match="line 2: duplicate id 'c1'"):
            load_comments(path)

    def test_optional_min_words_filter(self, tmp_path):
        path = tmp_path / "comments.jsonl"
        rows = [
            {"id": "c1", "article_id": "a1", "text": "too short"},
            {"id": "c2", "article_id": "a1", "text": "this one is long enough to keep"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert len(load_comments(path)) == 2  # off by default
        kept = load_comments(path, min_words=5)
        assert [c.id for c in kept] == ["c2"]

    @pytest.mark.parametrize("load", [
        lambda path, n: [(c.id, c.article_id, c.text) for c in load_comments(path, n)],
        lambda path, n: [row for block in comment_blocks(path, n) for row in zip(*block)],
    ], ids=["comments", "columns"])
    @pytest.mark.parametrize("min_words", [1, 2, 3])
    def test_min_words_matches_per_text_tokenize(self, tmp_path, monkeypatch, min_words,
                                                 load):
        """The batch token count keeps exactly the comments that counting
        the regex tokenizer's tokens text by text keeps, across chunks."""
        monkeypatch.setattr("newsciv.textproc._CHUNK", 7)
        rows = [{"id": f"c{i}", "article_id": f"a{i % 3}", "text": text}
                for i, text in enumerate(random_texts(200, seed=min_words))]
        path = tmp_path / "comments.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        expected = [(r["id"], r["article_id"], r["text"]) for r in rows
                    if len(reference.tokenize(r["text"])) >= min_words]
        assert load(path, min_words) == expected


    @pytest.mark.parametrize("field, value", [
        ("text", None), ("text", {"x": 1}), ("id", 5), ("article_id", ["a1"]),
    ])
    def test_non_string_field_names_line(self, tmp_path, field, value):
        """A null text used to load as the text "None" and be scored."""
        rows = [{"id": "c1", "article_id": "a1", "text": "fine"},
                {"id": "c2", "article_id": "a1", "text": "x", field: value}]
        path = tmp_path / "comments.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(CorpusError, match=f"line 2: invalid {field} .*, must be a string"):
            load_comments(path)


TSV_HEADER = "id\ttext\ttoxicity\taggression\tattack"


class TestLoadAnnotated:
    def test_aggregated_arrays(self, tmp_path):
        path = tmp_path / "annotated.jsonl"
        path.write_text(
            json.dumps(
                {"id": "w1", "text": "x", "toxicity": [3, 3], "aggression": [2, 4], "attack": [True, False]}
            )
            + "\n"
        )
        (ac,) = load_annotated(path)
        assert ac.toxicity_ratings == (3, 3)
        assert ac.aggression_ratings == (2, 4)
        assert ac.attack_flags == (True, False)

    def test_per_annotator_rows_grouped(self, tmp_path):
        path = tmp_path / "annotated.jsonl"
        rows = [
            {"id": "w1", "text": "x", "toxicity": 3, "aggression": 3, "attack": False},
            {"id": "w2", "text": "y", "toxicity": 1, "aggression": 2, "attack": True},
            {"id": "w1", "text": "x", "toxicity": 4, "aggression": 2, "attack": True},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        per_id = {ac.id: ac for ac in load_annotated(path)}
        assert per_id["w1"].toxicity_ratings == (3, 4)
        assert per_id["w1"].attack_flags == (False, True)
        assert per_id["w2"].aggression_ratings == (2,)

    def test_rating_out_of_range(self, tmp_path):
        path = tmp_path / "annotated.jsonl"
        path.write_text(
            json.dumps({"id": "w1", "text": "x", "toxicity": [6], "aggression": [3], "attack": [True]})
            + "\n"
        )
        with pytest.raises(CorpusError, match="outside"):
            load_annotated(path)

    def test_zero_annotators_errors(self, tmp_path):
        path = tmp_path / "annotated.jsonl"
        path.write_text(
            json.dumps({"id": "w1", "text": "x", "toxicity": [], "aggression": [3], "attack": [True]})
            + "\n"
        )
        with pytest.raises(CorpusError, match="zero annotators"):
            load_annotated(path)

    def test_tsv_rows(self, tmp_path):
        path = tmp_path / "annotated.tsv"
        path.write_text(
            "id\ttext\ttoxicity\taggression\tattack\n"
            "w1\thello there\t2\t1\t1\n"
            "w1\thello there\t3\t3\tfalse\n"
        )
        (ac,) = load_annotated(path)
        assert ac.toxicity_ratings == (2, 3)
        assert ac.attack_flags == (True, False)


    @pytest.mark.parametrize("row, columns", [
        ("w1\thello\tthere\t2\t1\t1", 6),  # a tab inside the text
        ("w1\thello there\t2\t1", 4),
    ])
    def test_tsv_row_with_wrong_column_count_names_line(self, tmp_path, row, columns):
        path = tmp_path / "annotated.tsv"
        path.write_text("id\ttext\ttoxicity\taggression\tattack\n"
                        "w0\tfine\t2\t1\t0\n" + row + "\n")
        with pytest.raises(CorpusError, match=f"line 3: expected 5 columns, got {columns}"):
            load_annotated(path)

    @pytest.mark.parametrize("header, row, message", [
        (TSV_HEADER.replace("\tattack", ""), "w1\tx\t2\t1", "line 1: missing field attack"),
        ("", "", "line 1: missing field id"),
        (TSV_HEADER, "w1\tx\tthree\t1\t1", "line 2: non-integer rating"),
        (TSV_HEADER, "w1\tx\t2\t1.5\t1", "line 2: non-integer rating"),
        (TSV_HEADER, "w1\tx\t2\t1\tyes", "line 2: attack flag 'yes' is not a boolean"),
        (TSV_HEADER, "w1\tx\t2\t1\t 2 ", "line 2: attack flag '2' is not a boolean"),
        (TSV_HEADER, "w1\tx\t6\t1\t1", "line 2: toxicity rating 6 outside [1, 5]"),
        (TSV_HEADER, "w1\tx\t2\t0\t1", "line 2: aggression rating 0 outside [1, 5]"),
        # Bytes that are not UTF-8, written through errors="surrogateescape".
        pytest.param(TSV_HEADER, "w1\tfine\t2\t1\t1\nw2\tbad \udcff\t2\t1\t1",
                     "line 3: invalid UTF-8 byte 0xff", id="byte-in-row"),
        pytest.param(TSV_HEADER.replace("text", "text\udcfe"), "w1\tx\t2\t1\t1",
                     "line 1: invalid UTF-8 byte 0xfe", id="byte-in-header"),
        pytest.param(TSV_HEADER, "w1\tx\tthree\t1\t1\nw2\t\udcc3\t2\t1\t1",
                     "line 2: non-integer rating", id="bad-row-then-byte"),
    ])
    def test_tsv_bad_row_names_line(self, tmp_path, header, row, message):
        path = tmp_path / "annotated.tsv"
        path.write_text(f"{header}\n{row}\n", encoding="utf-8", errors="surrogateescape")
        with pytest.raises(CorpusError, match=re.escape(message)):
            load_annotated(path)

    @pytest.mark.parametrize("suffix, line", [(".jsonl", 3), (".tsv", 4)])
    def test_repeated_id_with_another_text_names_line(self, tmp_path, suffix, line):
        rows = [("w1", "first text"), ("w2", "other text"), ("w1", "other text")]
        path = tmp_path / f"annotated{suffix}"
        if suffix == ".tsv":
            path.write_text(TSV_HEADER + "\n" + "".join(f"{i}\t{t}\t3\t3\t0\n" for i, t in rows))
        else:
            path.write_text("".join(json.dumps({"id": i, "text": t, "toxicity": 3,
                                                "aggression": 5, "attack": False}) + "\n"
                                    for i, t in rows))
        with pytest.raises(CorpusError, match=f"line {line}: id 'w1' repeats with another text"):
            load_annotated(path)

    @pytest.mark.parametrize("field, value", [("text", None), ("text", {"x": 1}), ("id", 7)])
    def test_jsonl_non_string_field_names_line(self, tmp_path, field, value):
        row = {"id": "w1", "text": "x", "toxicity": [3], "aggression": [3], "attack": [True]}
        path = tmp_path / "annotated.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: value}) + "\n")
        with pytest.raises(CorpusError, match=f"line 2: invalid {field} .*, must be a string"):
            load_annotated(path)


def comment_line(cid, **overrides) -> str:
    return json.dumps({"id": cid, "article_id": "a1", "text": "some words", **overrides})


def weight_line(aid, **overrides) -> str:
    return json.dumps({"article_id": aid, "weight": 0.25, "n_comments": 2, "source": "s",
                       **overrides})


def annotated_line(wid, **overrides) -> str:
    return json.dumps({"id": wid, "text": "some words", "toxicity": [3], "aggression": 4,
                       "attack": [True], **overrides})


WEIGHT_FIELDS = {"article_id": "str", "weight": "float", "n_comments": "int", "source": "str"}

# An integer with more digits than ``int`` converts from a string by default.
LONG_INT_LINE = '{"id": "c9", "article_id": "a1", "text": "t", "n": ' + "9" * 5000 + "}"

# Lines that damage any JSONL file: values that are not objects, lines that
# are not one JSON value, a byte-order mark, lines that str.strip() empties
# (U+2028 and U+0085 do not end a line when a file is read), and a byte that
# is not UTF-8 ("\udcff" is written as the byte 0xff), nesting too deep to
# decode, and an integer too long to convert.
DAMAGE = [
    "[" * 100_000, LONG_INT_LINE,
    "[1, 2]", '"text"', "7", "null",
    "{not json", '{"a":"}', '{"}', '{"c":1},{"d":2}', '{"id": "c1"} x', "",
    "\ufeff" + comment_line("c9"),
    "   ", "\t", "\x0c", "\u2028", "\x85",
    '{"id": "c9", "article_id": "a1", "text": "bad \udcff byte"}',
]


def comment_columns(path) -> tuple[list[str], list[str], list[str]]:
    """The ids, article ids and texts of the blocks of ``comment_blocks``,
    each joined into one list."""
    columns: tuple[list[str], list[str], list[str]] = ([], [], [])
    for block in comment_blocks(path):
        for column, part in zip(columns, block):
            column += part
    return columns


COMMENT_LINES = [
    comment_line("c1"), comment_line("c2"), comment_line("c3"),
    comment_line('é "q" \\ \x01 \u2028'),
    '{"id": "c4", "article_id": "a1", "text": "raw \u2028 separator"}',
    " \t" + comment_line("c5") + " \t",
    comment_line("c6", score=float("nan")),
    comment_line("c7", text=""), comment_line(""),
    comment_line("c8", text=None), comment_line(8), '{"id": "c8", "text": "t"}',
    comment_line("c10", text="long " * 2000),
]

# (loader, fields of the rows it reads, key, lines it accepts or rejects).
# Ids repeat across lines, so duplicates are drawn often.
CASES = {
    "comments": (load_comments, corpus_module._COMMENT_FIELDS, "id", COMMENT_LINES),
    "comment columns": (comment_columns, corpus_module._COMMENT_FIELDS, "id",
                        COMMENT_LINES),
    "weights": (lambda path: read_rows(path, WEIGHT_FIELDS, key="article_id"), WEIGHT_FIELDS,
                "article_id", [
        weight_line("a1"), weight_line("a2"), weight_line("a3", weight=1),
        weight_line("a4", weight=float("nan")), weight_line("a4", weight=float("inf")),
        weight_line("a5", weight="0.5"), weight_line("a5", n_comments=1.5),
        weight_line("a5", n_comments=True), '{"article_id": "a6", "weight": 1e999}',
        weight_line("a7", weight=10**400),
    ]),
    "annotated": (load_annotated, corpus_module._ANNOTATED_FIELDS, None, [
        annotated_line("w1"), annotated_line("w1", toxicity=2), annotated_line("w2"),
        annotated_line("w1", text="other words"), annotated_line("w3", aggression="x"),
        annotated_line("w3", attack=None), annotated_line("w4", toxicity=[]),
        '{"id": "w5", "text": "t", "toxicity": 3}',
    ]),
}


def read_outcome(read, path) -> str:
    """The repr of what ``read(path)`` returns, or the error it raises."""
    try:
        return repr(read(path))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"


# The comment loaders' references build one ``Comment`` per row.
REFERENCE_LOADERS = {"comments": corpus_reference.load_comments,
                     "comment columns": corpus_reference.load_comment_columns}


def reference_chunks(path, fields, key=None):
    """The per-line reader's rows, each as a chunk of one, as ``_chunks``
    hands out a chunk that fails its column checks."""
    for lineno, row in corpus_reference._rows(path, fields, key):
        yield [lineno], [row]


def reference_outcomes(case: str, path) -> tuple[str, str]:
    """What the per-line reader, and the loader on top of it, make of ``path``."""
    loader, fields, key, _ = CASES[case]
    rows = read_outcome(lambda p: list(corpus_reference._rows(p, fields, key)), path)
    with mock.patch.object(corpus_module, "_chunks", reference_chunks):
        return rows, read_outcome(REFERENCE_LOADERS.get(case, loader), path)


def outcomes(case: str, path) -> tuple[str, str]:
    loader, fields, key, _ = CASES[case]
    return read_outcome(lambda p: list(corpus_module._rows(p, fields, key)), path), \
        read_outcome(loader, path)


class TestColumnReader:
    """``corpus._rows`` checks rows a chunk at a time; the per-line reader in
    ``corpus_reference`` is the oracle for every row and every message."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), chunk=st.sampled_from([2, 3]))
    def test_matches_the_per_line_reader(self, case, data, chunk):
        lines = data.draw(st.lists(st.tuples(
            st.sampled_from(CASES[case][3] * 2 + DAMAGE),
            st.sampled_from(["\n", "\n", "\r\n", "\r", ""])), max_size=12))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.jsonl"
            path.write_bytes("".join(line + end for line, end in lines)
                             .encode("utf-8", "surrogateescape"))
            with mock.patch.object(corpus_module, "_CHUNK", chunk):
                assert outcomes(case, path) == reference_outcomes(case, path)

    @pytest.mark.parametrize("text, chunk, message", [
        # Each line fails on its own, though joined into one JSON array the
        # three decode to three objects.
        ('{"a":"}\n{"}\n{"c":1},{"d":2}\n', 1024,
         "line 1: invalid JSON: Invalid control character at"),
        # A missing field ahead of a repeated id in one chunk is the error
        # named, not a duplicate of ids the chunk itself holds.
        (f'{comment_line("c1")}\n{{"id": "c2", "article_id": "a1"}}\n{comment_line("c1")}\n',
         3, "line 2: missing field text"),
        (f'{comment_line("c1")}\n{{"id": "c2", "article_id": "a1"}}\n', 2,
         "line 2: missing field text"),
        (f'{comment_line("c1")}\n{comment_line("c2")}\n\n{comment_line("c1")}\n', 2,
         "line 4: duplicate id 'c1'"),
        ("\ufeff" + comment_line("c1") + "\n", 2,
         "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (f'{comment_line("c1")}\n[{comment_line("c2")}]\n', 2, "line 2: expected a JSON object"),
        (f'{comment_line("c1", text="")}\n{{not json\n', 1024,
         "line 1: comment 'c1' has empty text"),
        (f'{comment_line("c1")}\n{comment_line("c2")}\n{comment_line("c3", text=None)}\n{{\n', 2,
         "line 3: invalid text None, must be a string"),
        # An integer too long to convert is named, after the lines before it.
        pytest.param(f'{LONG_INT_LINE}\n', 1024, "line 1: Exceeds the limit",
                     id="long-integer"),
        pytest.param(f'{comment_line("c1", text="")}\n{LONG_INT_LINE}\n', 1024,
                     "line 1: comment 'c1' has empty text", id="long-integer-after-empty-text"),
        # A byte that is not UTF-8 (written through errors="surrogateescape")
        # is named in file order with the other line errors: after a line
        # that is not JSON, before one; an encoded surrogate; a sequence cut
        # short by the end of the file.
        pytest.param(f'{comment_line("c1")}\n{{not json\n{{"id": "\udcff"}}\n', 1024,
                     "line 2: invalid JSON: Expecting property name", id="json-then-byte"),
        pytest.param(f'{comment_line("c1")}\n{{"id": "\udcff"}}\n{{not json\n', 1,
                     "line 2: invalid UTF-8 byte 0xff", id="byte-then-json"),
        pytest.param(f'{comment_line("c1")}\n{{"id": "c2", "article_id": "a1", "text": "'
                     '\u00e9 \udced\udca0\udc80"}\n', 2, "line 2: invalid UTF-8 byte 0xed",
                     id="encoded-surrogate"),
        pytest.param(f'{comment_line("c1")}\n{{"id": "c2", "text": "x\udcc3', 1024,
                     "line 2: invalid UTF-8 byte 0xc3", id="cut-short"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, monkeypatch, text, chunk, message):
        monkeypatch.setattr(corpus_module, "_CHUNK", chunk)
        path = tmp_path / "comments.jsonl"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(CorpusError, match=re.escape(message)):
            load_comments(path)
        assert outcomes("comments", path) == reference_outcomes("comments", path)

    def test_deep_line_is_named_after_the_lines_before_it(self, tmp_path):
        """A line nested too deep to decode is a CorpusError naming it, raised
        after the rows, and the errors, of the lines before it."""
        path = tmp_path / "comments.jsonl"
        path.write_text("".join(line + "\n" for line in (
            comment_line("c1"), comment_line("c2"), "[" * 100_000, comment_line("c3"))))
        rows = corpus_module._rows(path, corpus_module._COMMENT_FIELDS, "id")
        assert [next(rows)[0], next(rows)[0]] == [1, 2]
        with pytest.raises(CorpusError, match="^line 3: JSON nested too deep$"):
            next(rows)
        assert outcomes("comments", path) == reference_outcomes("comments", path)
        path.write_text(f'{comment_line("c1", text="")}\n{"[" * 100_000}\n')
        with pytest.raises(CorpusError, match="^line 1: comment 'c1' has empty text$"):
            load_comments(path)
        assert outcomes("comments", path) == reference_outcomes("comments", path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends_whitespace_and_raw_separators(self, tmp_path, monkeypatch, end):
        monkeypatch.setattr(corpus_module, "_CHUNK", 2)
        lines = [" " + comment_line("c1") + " \t", "", "\u2028", "   ",
                 '{"id": "c\u2028", "article_id": "a1", "text": "x\u2028y"}',
                 comment_line("c3", score=float("nan"))]
        path = tmp_path / "comments.jsonl"
        path.write_text(end.join(lines), encoding="utf-8", newline="")
        assert [c.id for c in load_comments(path)] == ["c1", "c\u2028", "c3"]
        assert outcomes("comments", path) == reference_outcomes("comments", path)

    @pytest.mark.parametrize("first", [comment_line("c1", text=None), comment_line("c1", text="")])
    def test_bad_byte_past_the_first_read_comes_after_earlier_lines(self, tmp_path, first):
        """A byte that is not UTF-8 is an error naming its line, raised
        after the errors of every line before it."""
        good = "".join(comment_line(f"c{i}", text="words " * 20) + "\n" for i in range(2, 200))
        path = tmp_path / "comments.jsonl"
        path.write_bytes(f"{first}\n{good}".encode() + b'{"id": "\xff"}\n')
        expected = reference_outcomes("comments", path)
        assert expected[1].startswith("CorpusError: line 1: ")
        assert outcomes("comments", path) == expected
        path.write_bytes(f"{good}".encode() + b'{"id": "\xff"}\n')
        expected = reference_outcomes("comments", path)
        assert expected[1] == "CorpusError: line 199: invalid UTF-8 byte 0xff"
        assert outcomes("comments", path) == expected


class TestRoundTrip:
    def test_articles_comments_annotated(self, tmp_path):
        articles = [
            Article(id="a1", source="daily", title="T", body="B", tags=frozenset({"x", "y"}), date="2016-01-02"),
            Article(id="a2", source="weekly", title="T2", body="B2", tags=frozenset(), date="2016-01-03"),
        ]
        comments = [Comment(id="c1", article_id="a1", text="hi there")]
        annotated = [AnnotatedComment("w1", "text", (1, 5), (3,), (True, False))]

        save_articles(articles, tmp_path / "a.jsonl")
        save_comments(comments, tmp_path / "c.jsonl")
        save_annotated(annotated, tmp_path / "w.jsonl")

        assert load_articles(tmp_path / "a.jsonl") == articles
        assert load_comments(tmp_path / "c.jsonl") == comments
        assert load_annotated(tmp_path / "w.jsonl") == annotated

    def test_second_serialization_is_identical(self, tmp_path):
        articles = [Article(id="a1", source="s", title="t", body="b", tags=frozenset({"b", "a"}), date="d")]
        save_articles(articles, tmp_path / "one.jsonl")
        save_articles(load_articles(tmp_path / "one.jsonl"), tmp_path / "two.jsonl")
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()


class TestFilters:
    def make(self, body, title="nothing here", tags=()):
        return Article(id=body[:24], source="s", title=title, body=body, tags=frozenset(tags))

    def test_keyword_matches_case_insensitive(self):
        articles = [self.make("Trump said something")]
        assert filter_by_keywords(articles, {"trump"}) == articles

    def test_whole_token_rule(self):
        articles = [self.make("electioneering only")]
        assert filter_by_keywords(articles, {"election"}) == []

    def test_empty_articles(self):
        assert filter_by_keywords([], {"x"}) == []

    def test_empty_keywords_errors(self):
        with pytest.raises(ValueError):
            filter_by_keywords([self.make("x")], set())

    def test_title_also_matches(self):
        articles = [self.make("body words", title="Election night")]
        assert filter_by_keywords(articles, {"election"}) == articles

    def test_keyword_union_is_superset(self):
        rng = random.Random(0)
        vocab = ["alpha", "beta", "gamma", "delta"]
        articles = [self.make(" ".join(rng.choices(vocab, k=5)) + f" {i}") for i in range(30)]
        k1, k2 = {"alpha"}, {"delta", "beta"}
        both = {a.id for a in filter_by_keywords(articles, k1 | k2)}
        assert {a.id for a in filter_by_keywords(articles, k1)} <= both
        assert {a.id for a in filter_by_keywords(articles, k2)} <= both

    @pytest.mark.parametrize("keywords", [{"vote"}, {"don't", "7"}, {"σ", "tax"}, {"'"}])
    def test_matches_per_text_tokenize(self, monkeypatch, keywords):
        monkeypatch.setattr("newsciv.textproc._CHUNK", 5)
        texts = random_texts(120, seed=1)
        articles = [Article(id=f"a{i}", source="s", title=title, body=body, tags=frozenset())
                    for i, (title, body) in enumerate(zip(texts[::2], texts[1::2]))]
        expected = [a for a in articles
                    if keywords & (set(reference.tokenize(a.title)) | set(reference.tokenize(a.body)))]
        assert filter_by_keywords(iter(articles), keywords) == expected

    def test_tag_filter(self):
        tagged = self.make("b1", tags={"Immigration", "Border"})
        untagged = self.make("b2")
        assert filter_by_tag([tagged, untagged], "Immigration") == [tagged]
        assert filter_by_tag([tagged], "immigration") == [tagged]
        assert filter_by_tag([untagged], "Immigration") == []


class TestSplit:
    def test_80_20(self):
        train, test = train_test_split(list(range(10)), 0.2, seed=1)
        assert len(train) == 8 and len(test) == 2

    def test_deterministic(self):
        items = list(range(50))
        assert train_test_split(items, 0.3, seed=7) == train_test_split(items, 0.3, seed=7)

    def test_stratified_counts(self):
        items = list(range(10))
        labels = [True] * 5 + [False] * 5
        train, test = train_test_split(items, 0.2, seed=3, labels=labels)
        assert sum(1 for i in test if labels[i]) == 1
        assert sum(1 for i in test if not labels[i]) == 1

    def test_partition_property(self):
        items = list(range(23))
        for seed in range(10):
            train, test = train_test_split(items, 0.25, seed=seed)
            assert sorted(train + test) == items
            assert not set(train) & set(test)

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                train_test_split([1, 2, 3], bad, seed=0)

    def test_needs_two_items(self):
        with pytest.raises(ValueError):
            train_test_split([1], 0.5, seed=0)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            train_test_split([1, 2, 3], 0.5, seed=0, labels=[True])


class TestCorpusIndex:
    def test_index_covers_exactly_known_articles(self):
        articles = [Article(id="a1", source="s", title="t", body="b")]
        comments = [
            Comment(id="c1", article_id="a1", text="x"),
            Comment(id="c2", article_id="missing", text="y"),
        ]
        corpus = Corpus.build(articles, comments)
        assert {k: [c.id for c in v] for k, v in corpus.by_article.items()} == {"a1": ["c1"]}
        assert [c.id for c in corpus.comments_for("a1")] == ["c1"]
        assert corpus.comments_for("missing") == []

    def test_repeated_comment_id_stays_with_its_article(self):
        articles = [Article(id=a, source="s", title="t", body="b") for a in ("a1", "a2")]
        comments = [
            Comment(id="c1", article_id="a1", text="x"),
            Comment(id="c1", article_id="a2", text="y"),
        ]
        corpus = Corpus.build(articles, comments)
        assert {k: [c.id for c in v] for k, v in corpus.by_article.items()} == \
            {"a1": ["c1"], "a2": ["c1"]}
        assert [c.text for c in corpus.comments_for("a1")] == ["x"]
        assert [c.text for c in corpus.comments_for("a2")] == ["y"]

