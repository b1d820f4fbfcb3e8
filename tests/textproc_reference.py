"""Reference tokenizer for tests: the regex path that ``newsciv.textproc``
ran before its byte-table tokenizer. ``tokenize`` finds one regex match per
token, and ``tokenize_texts`` runs one ``findall`` over the texts joined by
newlines, with a newline alternative that marks each text's end.
"""

from __future__ import annotations

import re
from typing import Sequence

TokenSequence = list[str]

# A token is a maximal run of Unicode letters/digits, optionally joined by
# internal apostrophes ("don't" is one token, "'tis" loses the leading mark).
_TOKEN_RE = re.compile(r"[^\W_']+(?:'+[^\W_']+)*")
# The same tokens, or the newline that ends a text in a joined batch.
_TOKEN_OR_END_RE = re.compile(_TOKEN_RE.pattern + r"|\n")


def tokenize(text: str) -> TokenSequence:
    """Lowercase ``text`` and split it into tokens, dropping punctuation."""
    return _TOKEN_RE.findall(text.lower())


def tokenize_texts(texts: Sequence[str]) -> TokenSequence:
    """``tokenize`` of every text, concatenated, with "\\n" after each
    text's tokens.

    One ``findall`` runs over the texts joined by newlines. A newline inside
    a text becomes a space first: both split tokens alike, and lowercasing,
    whose final-sigma rule looks at the letters around a "Σ", stops at
    either.
    """
    joined = "\n".join([*texts, ""])
    if joined.count("\n") != len(texts):
        joined = "\n".join([*(t.replace("\n", " ") for t in texts), ""])
    return _TOKEN_OR_END_RE.findall(joined.lower())
