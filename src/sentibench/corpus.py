"""Dataset ingestion, label statistics, and the seeded train/test split.

The CSV loader consumes exactly two columns (tweet text and sentiment
label) and rejects rows whose label is not one of the three polarities.
The split shuffle is driven by SplitMix64 + Fisher-Yates so that the
partition is reproducible from the seed alone, independent of any
library RNG (the exact algorithm is written out in the README).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    else is an error.
    """
    label = value.strip().lower()
    if label not in POLARITY_INDEX:
        raise ValueError(f"not a polarity: {value!r}")
    return label


@dataclass(frozen=True)
class TweetRecord:
    """One labeled tweet as ingested from the CSV."""

    id: str
    text: str
    label: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("tweet text must be non-empty")
        if self.label not in POLARITY_INDEX:
            raise ValueError(f"invalid label {self.label!r}")


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable collection of tweet records."""

    records: tuple[TweetRecord, ...]
    source: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TweetRecord]:
        return iter(self.records)

    def texts(self) -> list[str]:
        return [r.text for r in self.records]

    def labels(self) -> list[str]:
        return [r.label for r in self.records]

    def ids(self) -> list[str]:
        return [r.id for r in self.records]


@dataclass(frozen=True)
class SplitConfig:
    """Train fraction plus the seed that fully determines the shuffle."""

    train_ratio: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.train_ratio <= 1.0):
            raise ValueError(f"train_ratio must be in (0, 1], got {self.train_ratio}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def load_dataset(
    path: str,
    text_column: str = DEFAULT_TEXT_COLUMN,
    label_column: str = DEFAULT_LABEL_COLUMN,
) -> Corpus:
    """Read an RFC-4180 CSV with a header row into a Corpus.

    Row order is preserved; record ids are the 1-based data-row numbers.
    Raises DatasetError for a missing file, a missing column, malformed
    quoting, or a row whose label does not parse (the message names the
    offending row).
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot open dataset {path!r}: {exc}") from exc

    records: list[TweetRecord] = []
    with handle:
        reader = csv.reader(handle, strict=True)
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
                records.append(TweetRecord(id=str(row_number), text=text, label=label))
        except csv.Error as exc:
            raise DatasetError(
                f"{path}: malformed CSV near row {reader.line_num}: {exc}"
            ) from exc

    return Corpus(records=tuple(records), source=str(path))


def label_frequencies(corpus: Corpus | Iterable[TweetRecord]) -> dict[str, int]:
    """Count records per polarity; every polarity key is always present."""
    counts = {label: 0 for label in POLARITIES}
    for record in corpus:
        counts[record.label] += 1
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


def train_test_split(corpus: Corpus, config: SplitConfig) -> tuple[Corpus, Corpus]:
    """Partition the corpus into seeded-shuffle train/test subsets.

    The train side receives floor(train_ratio * N) records; together the
    two sides hold every record exactly once. Identical (corpus, config)
    inputs always produce the identical partition.
    """
    n = len(corpus)
    if n == 0:
        raise DatasetError("cannot split an empty corpus")
    order = seeded_permutation(n, config.seed)
    n_train = math.floor(config.train_ratio * n)
    train = tuple(corpus.records[i] for i in order[:n_train])
    test = tuple(corpus.records[i] for i in order[n_train:])
    return (
        Corpus(records=train, source=corpus.source),
        Corpus(records=test, source=corpus.source),
    )
