"""Per-token preprocessing pipeline, kept as the reference for the token table.

This is the cleaner and pipeline that ``sentibench.preprocess`` used
before it cleaned ASCII tweets with one byte-translation table and sent
every token through one memo table: a regular expression blanks ASCII
non-letters, an ``isalpha`` pass blanks the rest of a non-ASCII tweet,
and then each token goes through tokenizing, the stop-word check and
either its exception or the lemmatizer rules in turn. The production
code must produce the same cleaned text and the same token lists.
"""

from __future__ import annotations

import re
from typing import Mapping

from sentibench.preprocess import lemmatize

_ASCII_NON_LETTER = re.compile(r"[\x00-\x40\x5b-\x60\x7b-\x7f]+")


def _keep_letters(text: str) -> str:
    return "".join(ch if ch.isalpha() else " " for ch in text)


def clean_text(raw: str) -> str:
    text = _ASCII_NON_LETTER.sub(" ", raw.lower())
    if not text.isascii():
        text = _keep_letters(text)
    return " ".join(text.split())


def preprocess_tweet(
    raw: str, stopwords: frozenset[str], exceptions: Mapping[str, str]
) -> list[str]:
    tokens = [t for t in clean_text(raw).split() if t not in stopwords]
    return [exceptions[t] if t in exceptions else lemmatize(t) for t in tokens]
