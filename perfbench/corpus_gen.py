"""Seeded synthetic airline-style tweet corpus for the benchmark.

`Tweets.csv` cannot be shipped, so the benchmark feeds the CLI a corpus
with the properties the pipeline's cost depends on:

- the airline class prior (62.7 % negative, 21.2 % neutral, 16.1 % positive);
- a Zipfian vocabulary of synthetic stems with -s/-es/-ing/-ed forms, so
  the lemmatizer rules fire and the fitted vocabulary is smaller than the
  surface vocabulary;
- per-class marker terms, with per-tweet label noise, so the classes are
  learnable but not separable and forest trees grow deep;
- stop-words, @mentions, #hashtags, digits, punctuation, a little non-ASCII
  text, and fields holding commas and double quotes, so the cleaner and
  RFC-4180 quoting do real work.

Generation is vectorised with NumPy: the same (rows, seed) gives the same
bytes, and 146,400 rows take a few seconds.

Usage: python3 corpus_gen.py ROWS SEED OUT.csv
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

import numpy as np

LABELS = ("negative", "neutral", "positive")
PRIOR = (0.627, 0.212, 0.161)
AIRLINES = ("united", "usairways", "americanair", "southwestair", "jetblue", "virginamerica")

# Function words, most of them on the packaged stop-word list.
FUNCTION_WORDS = (
    "i the to you a for my on and is it in of me your that was with this be at "
    "have but we are not no just so can get do they what when will from our "
    "an all out about there now been up if how would had why has did or"
).split()

# Real airline words seed each class's marker set; synthetic stems fill it up.
MARKER_SEEDS = (
    "delayed cancelled worst hours lost rude waiting terrible missed hold "
    "stuck refund broken never late",
    "question tomorrow change fleet info schedule status travel policy "
    "route booking aircraft",
    "thanks great love awesome amazing best appreciate helpful excellent "
    "smooth friendly wonderful",
)

N_STEMS = 5000
MARKERS_PER_CLASS = 120
LABEL_NOISE = 0.22
P_MARKER = 0.16
P_FUNCTION = 0.34
ZIPF_EXPONENT = 1.07

_ONSETS = np.array(
    "b c d f g h j k l m n p r s t v w z br cl dr fl gr pl pr sk sl sp st tr".split()
)
_VOWELS = np.array("a e i o u ai ea oo ou".split())
_CODAS = np.array(["", "", "", "n", "r", "l", "t", "k", "m", "nd", "st", "rt"])
_NON_ASCII = ("✈️", "\U0001f621", "\U0001f60a", "❤️", "café", "über")
_PUNCT = np.array([",", ",", "!", "?", "...", ".", "!!", ":", ";", "\""])


def _stems(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct pronounceable stems of two or three syllables."""
    n = count * 2
    syllables = rng.integers(2, 4, size=n)
    parts = [
        _ONSETS[rng.integers(0, _ONSETS.size, size=(n, 3))],
        _VOWELS[rng.integers(0, _VOWELS.size, size=(n, 3))],
    ]
    coda = _CODAS[rng.integers(0, _CODAS.size, size=n)]
    seen: dict[str, None] = {}
    for i in range(n):
        k = syllables[i]
        stem = "".join(parts[0][i, j] + parts[1][i, j] for j in range(k)) + coda[i]
        seen.setdefault(stem, None)
        if len(seen) == count:
            break
    return list(seen)


def _inflect(stem: str, form: int) -> str:
    if form == 1:
        return stem + ("es" if stem.endswith(("s", "x", "ch", "sh")) else "s")
    if form == 2:
        return stem + "ing"
    if form == 3:
        return stem + "ed"
    return stem


def _zipf_draw(rng: np.random.Generator, size: int, n_types: int) -> np.ndarray:
    ranks = np.arange(1, n_types + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-ZIPF_EXPONENT)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(size)), n_types - 1)


def generate_rows(rows: int, seed: int) -> list[tuple[str, str, str, str]]:
    """(tweet_id, airline_sentiment, airline, text) rows for one seed."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    rng = np.random.default_rng([seed, 0x7E37])

    stems = _stems(rng, N_STEMS + 3 * MARKERS_PER_CLASS)
    content_stems, marker_stems = stems[:N_STEMS], stems[N_STEMS:]
    # Each content stem appears as a shuffled mix of its surface forms.
    forms = rng.choice(4, size=N_STEMS, p=(0.55, 0.2, 0.13, 0.12))
    content = [_inflect(s, int(f)) for s, f in zip(content_stems, forms)]
    content = list(np.array(content, dtype=object)[rng.permutation(N_STEMS)])
    markers = []
    for c in range(3):
        own = marker_stems[c * MARKERS_PER_CLASS : (c + 1) * MARKERS_PER_CLASS]
        seeded = MARKER_SEEDS[c].split()
        markers.append(seeded + [_inflect(s, i % 4) for i, s in enumerate(own[len(seeded):])])

    # Surface table: function words, content words, then each class's markers.
    table = np.array(FUNCTION_WORDS + content + sum(markers, []), dtype=object)
    n_func, n_content = len(FUNCTION_WORDS), len(content)
    marker_base = [n_func + n_content + sum(len(m) for m in markers[:c]) for c in range(3)]

    labels = rng.choice(3, size=rows, p=PRIOR)
    flip = rng.random(rows) < LABEL_NOISE
    signal = np.where(flip, (labels + rng.integers(1, 3, size=rows)) % 3, labels)
    lengths = np.clip(rng.poisson(14, size=rows), 3, 30)
    total = int(lengths.sum())
    tok_row = np.repeat(np.arange(rows), lengths)

    kind = rng.random(total)
    ids = n_func + n_content + np.zeros(total, dtype=np.int64)
    is_func = kind < P_FUNCTION
    is_marker = (kind >= P_FUNCTION) & (kind < P_FUNCTION + P_MARKER)
    is_content = ~(is_func | is_marker)
    ids[is_func] = _zipf_draw(rng, int(is_func.sum()), n_func)
    ids[is_content] = n_func + _zipf_draw(rng, int(is_content.sum()), n_content)
    tok_signal = signal[tok_row[is_marker]]
    m_rank = _zipf_draw(rng, int(is_marker.sum()), MARKERS_PER_CLASS)
    ids[is_marker] = np.asarray(marker_base)[tok_signal] + m_rank

    words = table[ids]
    punct_at = rng.random(total) < 0.08
    words[punct_at] = words[punct_at] + _PUNCT[rng.integers(0, _PUNCT.size, int(punct_at.sum()))]
    digit_at = rng.random(total) < 0.02
    words[digit_at] = words[digit_at] + rng.integers(1, 2400, int(digit_at.sum())).astype(str)
    hashtag_at = rng.random(total) < 0.03
    words[hashtag_at] = "#" + words[hashtag_at]
    words = words.tolist()

    airline = rng.integers(0, len(AIRLINES), size=rows)
    extra_mention = rng.random(rows) < 0.08
    non_ascii = rng.random(rows) < 0.03
    non_ascii_pick = rng.integers(0, len(_NON_ASCII), size=rows)
    ends = np.cumsum(lengths).tolist()

    out = []
    start = 0
    for i in range(rows):
        end = ends[i]
        text = "@" + AIRLINES[airline[i]] + " " + " ".join(words[start:end])
        if extra_mention[i]:
            text += f" @user{i % 997}"
        if non_ascii[i]:
            text += " " + _NON_ASCII[non_ascii_pick[i]]
        out.append((str(570300000000000000 + i), LABELS[labels[i]], AIRLINES[airline[i]], text))
        start = end
    return out


def generate_csv(rows: int, seed: int) -> bytes:
    """The corpus as RFC-4180 CSV bytes (UTF-8, CRLF line ends, minimal quoting)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tweet_id", "airline_sentiment", "airline", "text"])
    writer.writerows(generate_rows(rows, seed))
    return buf.getvalue().encode("utf-8")


if __name__ == "__main__":
    rows, seed, path = sys.argv[1:]
    Path(path).write_bytes(generate_csv(int(rows), int(seed)))
