"""Raw tweet text to cleaned, lemmatized, counted tokens.

Pipeline: lowercase and blank every non-letter -> split on whitespace ->
drop stop-words -> lemmatize -> count.
StopWordList and Lemmatizer are immutable after construction. A
TweetPreprocessor runs the pipeline through one token table of its own,
filled the first time each distinct token is seen: it maps the token to
its lemma's id, or to -1 for a stop-word, so each distinct token is
checked and lemmatized once per instance, not once per occurrence.

``preprocess_corpus`` extends one flat id list per corpus, drops the
stop-words as one array operation and counts the ids once, into the
``TermCounts`` that both vectorizers weight. ``__call__`` gives one
tweet's tokens as a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError
from .vectorize import TermCounts

TokenList = list[str]

_VOWELS = set("aeiou")

# Byte translation table for all-ASCII text: ASCII letters stay, every
# other byte becomes a space.
_ASCII_LETTERS = bytes(b if b < 128 and chr(b).isalpha() else 0x20 for b in range(256))


def _words(raw: str) -> TokenList:
    """Lowercase, blank every character that is not a letter, split.

    For an ASCII character, isalpha means an ASCII letter, so an all-ASCII
    text takes one byte translation and any other text the isalpha pass;
    both give the same tokens.
    """
    text = raw.lower()
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_LETTERS).decode("ascii").split()
    return "".join(ch if ch.isalpha() else " " for ch in text).split()


@dataclass(frozen=True)
class StopWordList:
    """Immutable set of lowercase stop-words.

    The canonical examples (he, she, the, is, that) must always be
    present; a list without them is rejected as misconfigured.
    """

    words: frozenset[str]

    REQUIRED = frozenset({"he", "she", "the", "is", "that"})

    def __post_init__(self) -> None:
        missing = self.REQUIRED - self.words
        if missing:
            raise ConfigError(
                f"stop-word list is missing required words: {sorted(missing)}"
            )

    def __contains__(self, token: str) -> bool:
        return token in self.words

    def __len__(self) -> int:
        return len(self.words)


def _read_word_lines(text: str) -> list[str]:
    words = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            words.append(line.lower())
    return words


def load_stopwords(path: str | None = None) -> StopWordList:
    """Load a stop-word file (one word per line, '#' comments allowed).

    With no path, the packaged standard English list is used.
    """
    if path is None:
        text = (
            resources.files("sentibench").joinpath("data/stopwords.txt").read_text("utf-8")
        )
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read stop-word file {path!r}: {exc}") from exc
    return StopWordList(words=frozenset(_read_word_lines(text)))


def load_lemma_exceptions(path: str) -> dict[str, str]:
    """Load a two-column ``word lemma`` exceptions file ('#' comments allowed)."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read lemma exceptions file {path!r}: {exc}") from exc
    exceptions: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
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


def _has_vowel(stem: str) -> bool:
    return any(_is_vowel(stem, i) for i in range(len(stem)))


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    c1 = not _is_vowel(stem, len(stem) - 3)
    v = _is_vowel(stem, len(stem) - 2)
    c2 = not _is_vowel(stem, len(stem) - 1)
    return c1 and v and c2 and stem[-1] not in "wxy"


class Lemmatizer:
    """Rule-based suffix stripper with a loadable exceptions map.

    Handles plural -s/-es and participle -ing/-ed with doubled-consonant
    and silent-e stem repair. Per token the first matching rule is
    applied, repeatedly, until no rule matches, which makes the output a
    fixed point: lemmatize(lemmatize(t)) == lemmatize(t).
    """

    def __init__(self, exceptions: Mapping[str, str] | None = None):
        self.exceptions = dict(exceptions or {})

    def lemmatize(self, token: str) -> str:
        if token in self.exceptions:
            return self.exceptions[token]
        word = token
        while True:
            reduced = self._apply_first_rule(word)
            if reduced == word:
                return word
            word = reduced

    def _apply_first_rule(self, word: str) -> str:
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
            return self._strip_participle(word, 3)
        if word.endswith("ed") and len(word) > 3:
            return self._strip_participle(word, 2)
        return word

    def _strip_participle(self, word: str, suffix_len: int) -> str:
        stem = word[:-suffix_len]
        if not _has_vowel(stem) or _measure(stem) < 1:
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
    """Token -> lemma id, or -1 for a stop-word, filled on first sight;
    ``lemmas`` lists the lemma of each id, in the order first seen."""

    def __init__(self, stoplist: StopWordList, lemmatizer: Lemmatizer):
        super().__init__()
        self.stoplist = stoplist
        self.lemmatizer = lemmatizer
        self.lemmas: list[str] = []
        self._ids: dict[str, int] = {}

    def __missing__(self, token: str) -> int:
        if token in self.stoplist:
            lemma_id = -1
        else:
            lemma = self.lemmatizer.lemmatize(token)
            lemma_id = self._ids.setdefault(lemma, len(self.lemmas))
            if lemma_id == len(self.lemmas):
                self.lemmas.append(lemma)
        self[token] = lemma_id
        return lemma_id


class TweetPreprocessor:
    """Bundles a stop-word list and lemmatizer into one callable.

    Keeps one token table per instance, so the stop-word list and the
    lemmatizer must not change after construction.
    """

    def __init__(
        self,
        stoplist: StopWordList | None = None,
        lemmatizer: Lemmatizer | None = None,
    ):
        self.stoplist = stoplist if stoplist is not None else load_stopwords()
        self.lemmatizer = lemmatizer if lemmatizer is not None else Lemmatizer()
        self._table = _TokenTable(self.stoplist, self.lemmatizer)

    def __call__(self, raw: str) -> TokenList:
        """One tweet's tokens, duplicates kept, in order; may be empty."""
        lemmas = self._table.lemmas
        return [lemmas[i] for i in map(self._table.__getitem__, _words(raw)) if i >= 0]

    def preprocess_corpus(self, texts: Iterable[str]) -> TermCounts:
        """The texts' tokens, counted: one row per text, and one column per
        lemma of these texts, in the order they first occur in them."""
        lookup = self._table.__getitem__
        ids, ends = [], [0]
        for raw in texts:
            ids += map(lookup, _words(raw))
            ends.append(len(ids))
        ids = np.array(ids, dtype=np.int64)
        known = ids >= 0
        lengths = np.diff(np.concatenate(([0], np.cumsum(known)))[ends])
        ids = ids[known]  # frees the stop-word ids before counting
        return TermCounts.count(ids, lengths, self._table.lemmas)
