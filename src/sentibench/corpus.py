"""Dataset ingestion, label statistics, and the seeded train/test split.

The CSV loader consumes exactly two columns (tweet text and sentiment
label) and rejects rows whose label is not one of the three polarities.
The texts are the only column with an object per tweet: ids are one
integer array and labels the three POLARITIES strings, so a command that
drops its corpus once the texts are counted gets the texts' memory back.
The split shuffle is driven by SplitMix64 + Fisher-Yates so that the
partition is reproducible from the seed alone, independent of any
library RNG (the exact algorithm is written out in the README).
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

from .base import check_float, check_int
from .errors import DatasetError

# Fixed polarity order used everywhere (class indices, tie-breaking,
# confusion-matrix axes, serialized artifacts).
POLARITIES: tuple[str, str, str] = ("negative", "neutral", "positive")
POLARITY_INDEX = {label: i for i, label in enumerate(POLARITIES)}

DEFAULT_TEXT_COLUMN = "text"
DEFAULT_LABEL_COLUMN = "airline_sentiment"


def parse_polarity(value: str) -> str:
    """Normalize a raw label cell to one of the three polarities.

    Leading/trailing whitespace and letter case are forgiven; anything
    else is an error. The result is the POLARITIES string itself, so every
    label of a corpus is one of three objects.
    """
    try:
        return POLARITIES[POLARITY_INDEX[value.strip().lower()]]
    except KeyError:
        raise ValueError(f"not a polarity: {value!r}") from None


@dataclass(frozen=True)
class Corpus:
    """Three parallel columns, one entry per tweet: ids (the 1-based data-row
    numbers, one ``array('q')``), texts, and labels (the POLARITIES strings
    themselves)."""

    ids: array
    texts: list[str]
    labels: list[str]

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: list[int]) -> "Corpus":
        """The tweets at positions ``rows``, in that order."""
        ids, texts, labels = self.ids, self.texts, self.labels
        return Corpus(
            array("q", map(ids.__getitem__, rows)),
            [texts[i] for i in rows],
            [labels[i] for i in rows],
        )


def load_dataset(
    path: str,
    text_column: str = DEFAULT_TEXT_COLUMN,
    label_column: str = DEFAULT_LABEL_COLUMN,
) -> Corpus:
    """Read an RFC-4180 CSV with a header row into a Corpus.

    Row order is preserved; ids are the 1-based data-row numbers, blank
    lines included.
    Raises DatasetError for a missing file, text that is not UTF-8, a
    missing column, malformed quoting, or a row whose label does not parse
    (the message names the offending row).
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot open dataset {path!r}: {exc}") from exc

    ids, texts, labels = array("q"), [], []
    with handle:
        reader = csv.reader(handle, strict=True)
        row_number = None  # until the header is read
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetError(f"{path}: file is empty, expected a header row")
            for name in (text_column, label_column):
                if name not in header:
                    raise DatasetError(f"{path}: missing column {name!r} in header")
            text_idx = header.index(text_column)
            label_idx = header.index(label_column)
            width = max(text_idx, label_idx)

            row_number = 0
            for row_number, row in enumerate(reader, start=1):
                if not row:
                    continue  # blank line
                if len(row) <= width:
                    raise DatasetError(
                        f"{path}: row {row_number} has {len(row)} fields, "
                        f"expected at least {width + 1}"
                    )
                text = row[text_idx]
                try:
                    label = parse_polarity(row[label_idx])
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {row_number}: unparseable label "
                        f"{row[label_idx]!r} (expected one of {', '.join(POLARITIES)})"
                    ) from None
                if not text:
                    raise DatasetError(f"{path}: row {row_number}: empty tweet text")
                ids.append(row_number)
                texts.append(text)
                labels.append(label)
        except csv.Error as exc:  # raised reading the record after row_number
            where = "header" if row_number is None else f"row {row_number + 1}"
            raise DatasetError(
                f"{path}: {where}: malformed CSV (line {reader.line_num}): {exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text: {exc}") from exc

    return Corpus(ids, texts, labels)


def label_frequencies(corpus: Corpus) -> dict[str, int]:
    """Count tweets per polarity; every polarity key is always present."""
    counts = {label: 0 for label in POLARITIES}
    for label in corpus.labels:
        counts[label] += 1
    return counts


# --- portable shuffle -------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (new state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def seeded_permutation(n: int, seed: int) -> list[int]:
    """Uniform permutation of range(n) from a Fisher-Yates shuffle.

    Random draws come from SplitMix64 with rejection sampling for the
    bounded integers, so the permutation depends only on (n, seed).
    """
    order = list(range(n))
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        span = i + 1
        # Rejection sampling keeps the modulo draw unbiased.
        limit = _MASK64 + 1 - ((_MASK64 + 1) % span)
        while True:
            state, z = _splitmix64_next(state)
            if z < limit:
                break
        j = z % span
        order[i], order[j] = order[j], order[i]
    return order


def train_test_split(
    corpus: Corpus, train_ratio: float = 0.75, seed: int = 0
) -> tuple[Corpus, Corpus]:
    """Partition the corpus into seeded-shuffle train/test subsets.

    The train side receives floor(train_ratio * N) tweets; together the
    two sides hold every tweet exactly once. Identical (corpus,
    train_ratio, seed) inputs always produce the identical partition.
    Raises ValueError unless train_ratio is in (0, 1] and seed is an
    integer in [0, 2**64), the seeds SplitMix64 tells apart.
    """
    check_float("train_ratio", train_ratio, 0)
    if train_ratio > 1:
        raise ValueError(f"train_ratio must be in (0, 1], got {train_ratio!r}")
    check_int("seed", seed, 0)
    if seed > _MASK64:
        raise ValueError(f"seed must be below 2**64, got {seed!r}")
    n = len(corpus)
    if n == 0:
        raise DatasetError("cannot split an empty corpus")
    order = seeded_permutation(n, seed)
    n_train = math.floor(train_ratio * n)
    return corpus.take(order[:n_train]), corpus.take(order[n_train:])
