"""Raw tweet text to cleaned, lemmatized, counted tokens.

Pipeline: lowercase and blank every non-letter -> split on whitespace ->
drop stop-words -> lemmatize -> count.
A TweetPreprocessor's only settings are two plain values, a stop-word set
and a token -> lemma exceptions map, which it copies. It runs the
pipeline through one token table of its own, filled the first time each
distinct token is seen: it maps the token to its lemma's id, or to 0 for
a stop-word, so each distinct token is checked and lemmatized once per
instance, not once per occurrence. An exception's lemma is used as it
is; every other token gets ``lemmatize``, the rules alone.

``preprocess_corpus`` extends one flat id list per corpus, leaving out
the stop-words' 0 as it goes, and counts the ids once, into the
``TermCounts`` that both vectorizers weight. This pass sets the peak
memory of a large run, so the ids become one int32 array and the text
ends one integer array. ``__call__`` gives one tweet's tokens as a list.
"""

from __future__ import annotations

from array import array
from importlib import resources
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError
from .vectorize import TermCounts

_VOWELS = set("aeiou")

# Byte translation table for all-ASCII text: ASCII letters stay, every
# other byte becomes a space.
_ASCII_LETTERS = bytes(b if b < 128 and chr(b).isalpha() else 0x20 for b in range(256))

# A stop-word set without these canonical examples is misconfigured.
_REQUIRED_STOPWORDS = frozenset({"he", "she", "the", "is", "that"})


def _words(raw: str) -> list[str]:
    """Lowercase, blank every character that is not a letter, split.

    For an ASCII character, isalpha means an ASCII letter, so an all-ASCII
    text takes one byte translation and any other text the isalpha pass;
    both give the same tokens.
    """
    text = raw.lower()
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_LETTERS).decode("ascii").split()
    return "".join(ch if ch.isalpha() else " " for ch in text).split()


def _read_lines(path, what: str) -> list[tuple[int, str]]:
    """The numbered lines of a UTF-8 file, '#' comments and blank lines
    dropped; an unreadable file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path!r}: {exc}") from exc
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Load a stop-word file (one word per line, '#' comments allowed).

    With no path, the packaged standard English list is used.
    """
    if path is None:
        path = resources.files("sentibench").joinpath("data/stopwords.txt")
    return frozenset(line.lower() for _, line in _read_lines(path, "stop-word"))


def load_lemma_exceptions(path: str) -> dict[str, str]:
    """Load a two-column ``word lemma`` exceptions file ('#' comments allowed)."""
    exceptions: dict[str, str] = {}
    for lineno, line in _read_lines(path, "lemma exceptions"):
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(
                f"{path}: line {lineno}: expected two columns 'word lemma', got {line!r}"
            )
        exceptions[parts[0].lower()] = parts[1].lower()
    return exceptions


def _is_vowel(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return True
    # y acts as a vowel when it follows a consonant ("fly", "city").
    return ch == "y" and i > 0 and not _is_vowel(word, i - 1)


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions (the [VC] count)."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = _is_vowel(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    c1 = not _is_vowel(stem, len(stem) - 3)
    v = _is_vowel(stem, len(stem) - 2)
    c2 = not _is_vowel(stem, len(stem) - 1)
    return c1 and v and c2 and stem[-1] not in "wxy"


def lemmatize(token: str) -> str:
    """Rule-based suffix stripping.

    Handles plural -s/-es and participle -ing/-ed with doubled-consonant
    and silent-e stem repair. The first matching rule is applied,
    repeatedly, until no rule matches, which makes the output a fixed
    point: lemmatize(lemmatize(t)) == lemmatize(t).
    """
    word = token
    while True:
        reduced = _apply_first_rule(word)
        if reduced == word:
            return word
        word = reduced


def _apply_first_rule(word: str) -> str:
    # Plural family first, so stacked suffixes ("meetings") reduce
    # through the singular on the way to the base form.
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("xes", "zes", "ches", "shes")):
        return word[:-2]
    if word.endswith(("ss", "us", "is")):
        return word
    if word.endswith("s") and len(word) >= 4:
        return word[:-1]
    if word.endswith("ing") and len(word) > 4:
        return _strip_participle(word, 3)
    if word.endswith("ed") and len(word) > 3:
        return _strip_participle(word, 2)
    return word


def _strip_participle(word: str, suffix_len: int) -> str:
    stem = word[:-suffix_len]
    if _measure(stem) < 1:  # a measure of 1 or more implies a vowel
        return word
    # Doubled final consonant: running -> run (but fall/miss/buzz keep).
    if (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and not _is_vowel(stem, len(stem) - 1)
        and stem[-1] not in "lsz"
    ):
        return stem[:-1]
    # Silent-e repair: tak(ing) -> take, lov(ed) -> love.
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


class _TokenTable(dict):
    """Token -> lemma id: 0 for every stop-word from the start, any other
    token filled on first sight; ``lemmas`` lists the lemma of each id, in
    the order first seen, after a placeholder at id 0 that is never a
    token's lemma."""

    def __init__(self, stopwords: frozenset[str], exceptions: dict[str, str]):
        super().__init__(dict.fromkeys(stopwords, 0))
        self.exceptions = exceptions
        self.lemmas: list[str] = [""]  # id 0, the stop-words' placeholder
        self._ids: dict[str, int] = {}

    def __missing__(self, token: str) -> int:
        if token in self.exceptions:
            lemma = self.exceptions[token]
        else:
            lemma = lemmatize(token)
        lemma_id = self._ids.setdefault(lemma, len(self.lemmas))
        if lemma_id == len(self.lemmas):
            self.lemmas.append(lemma)
        self[token] = lemma_id
        return lemma_id


class TweetPreprocessor:
    """Stop-word removal, then lemmatization, as one callable.

    ``stopwords`` defaults to the packaged list and must hold he, she,
    the, is and that. ``lemma_exceptions`` maps a token to its lemma in
    place of the rules. Both are copied, into ``.stopwords`` (a frozenset)
    and ``.lemma_exceptions`` (a dict), so a later change to the caller's
    set or dict changes no token.
    """

    def __init__(
        self,
        stopwords: Iterable[str] | None = None,
        lemma_exceptions: Mapping[str, str] | None = None,
    ):
        self.stopwords = frozenset(load_stopwords() if stopwords is None else stopwords)
        missing = _REQUIRED_STOPWORDS - self.stopwords
        if missing:
            raise ConfigError(f"stop-word list is missing required words: {sorted(missing)}")
        self.lemma_exceptions = dict(lemma_exceptions or {})
        self._table = _TokenTable(self.stopwords, self.lemma_exceptions)

    def __call__(self, raw: str) -> list[str]:
        """One tweet's tokens, duplicates kept, in order; may be empty."""
        lemmas = self._table.lemmas
        return [lemmas[i] for i in map(self._table.__getitem__, _words(raw)) if i]

    def preprocess_corpus(self, texts: Iterable[str]) -> TermCounts:
        """The texts' tokens, counted: one row per text, and one column per
        lemma of these texts, in the order they first occur in them. Nothing
        returned refers to the texts, so the caller can free them."""
        lookup = self._table.__getitem__
        ids, ends = [], array("i", [0])  # ends: no int object per text
        for raw in texts:
            ids += filter(None, map(lookup, _words(raw)))  # id 0: a stop-word
            ends.append(len(ids))
        ids = np.array(ids, dtype=np.int32)
        return TermCounts.count(ids, np.diff(ends), self._table.lemmas)
