"""Confusion matrix, accuracy, and per-class / weighted precision, recall, F1.

All metrics follow the usual multiclass definitions with rows of the
confusion matrix as true classes and columns as predictions, in the
fixed polarity order. Any 0/0 ratio is defined as 0. Weighted averages
use true-class supports as weights, which makes weighted recall
identical to accuracy for single-label evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import POLARITIES, POLARITY_INDEX
from .errors import DatasetError, DimensionMismatchError


def confusion_matrix(truth: Sequence[str], pred: Sequence[str]) -> np.ndarray:
    """3x3 int64 counts: entry (i, j) = samples of true class i predicted as j."""
    if len(truth) != len(pred):
        raise DimensionMismatchError(
            f"truth has {len(truth)} labels, predictions have {len(pred)}"
        )
    n = len(POLARITIES)
    cells = [n * POLARITY_INDEX[t] + POLARITY_INDEX[p] for t, p in zip(truth, pred)]
    return np.bincount(cells, minlength=n * n).astype(np.int64).reshape(n, n)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


# The figures of a report row, after its name.
_ROW_FIELDS = ("precision", "recall", "f1", "support")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class MetricsReport:
    """Everything one evaluation produces, plus run metadata."""

    confusion: np.ndarray
    accuracy: float
    per_class: dict[str, ClassMetrics]
    support: dict[str, int]
    weighted: ClassMetrics
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_counts(cls, counts, metadata: dict | None = None) -> "MetricsReport":
        """The report of a 3x3 confusion matrix (rows are true classes).

        Python scalar arithmetic in a fixed order keeps each figure stable bit
        for bit; the weighted sums avoid ``np.dot``, whose BLAS may fuse them.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(POLARITIES), len(POLARITIES)) or (counts < 0).any():
            raise ValueError(f"confusion matrix must be 3x3 non-negative counts, got {counts}")
        total = int(counts.sum())
        if total == 0:
            raise DatasetError("cannot report on an empty confusion matrix")
        rows = counts.tolist()
        predicted = counts.sum(axis=0).tolist()
        support = {c: sum(rows[i]) for i, c in enumerate(POLARITIES)}
        per_class = {}
        for i, c in enumerate(POLARITIES):
            tp = rows[i][i]
            precision = _ratio(tp, predicted[i])
            recall = _ratio(tp, support[c])
            f1 = _ratio(2.0 * precision * recall, precision + recall)
            per_class[c] = ClassMetrics(precision=precision, recall=recall, f1=f1)
        weighted = ClassMetrics(*(
            sum(support[c] / total * getattr(per_class[c], name) for c in POLARITIES)
            for name in ("precision", "recall", "f1")
        ))
        return cls(
            confusion=counts,
            accuracy=float(np.trace(counts)) / total,
            per_class=per_class,
            support=support,
            weighted=weighted,
            metadata=dict(metadata or {}),
        )

    def rows(self) -> list[tuple]:
        """``(name, precision, recall, f1, support)`` per class, then ``weighted``."""
        rows = [(c, m.precision, m.recall, m.f1, self.support[c])
                for c, m in self.per_class.items()]
        w = self.weighted
        rows.append(("weighted", w.precision, w.recall, w.f1, int(self.confusion.sum())))
        return rows

    def to_json_dict(self) -> dict:
        *classes, (_, *weighted, _) = self.rows()  # weighted has no support key
        return {
            "accuracy": self.accuracy,
            "per_class": {row[0]: dict(zip(_ROW_FIELDS, row[1:])) for row in classes},
            "weighted": dict(zip(_ROW_FIELDS, weighted)),
            "confusion_matrix": {
                "class_order": list(POLARITIES),
                "rows_are_truth": True,
                "counts": self.confusion.tolist(),
            },
            "metadata": self.metadata,
        }

    def csv_rows(self) -> list[list]:
        """The rows with ``repr`` figures, then the accuracy, as CSV records."""
        records = [["class", *_ROW_FIELDS]]
        for name, *figures, support in self.rows():
            records.append([name, *map(repr, figures), support])
        records.append(["accuracy", repr(self.accuracy), "", "", ""])
        return records

    def render_table(self) -> str:
        """Two-decimal human-readable summary."""
        lines = [
            f"{'class':<10} {'precision':>9} {'recall':>7} {'f1':>6} {'support':>8}"
        ]
        for name, precision, recall, f1, support in self.rows():
            lines.append(
                f"{name:<10} {precision:>9.2f} {recall:>7.2f} {f1:>6.2f} {support:>8d}"
            )
        lines.append(f"accuracy: {self.accuracy:.2f}")
        return "\n".join(lines)


def evaluate(model, vectorizer, test_labels, test_vectors, metadata=None) -> MetricsReport:
    """Predict the test vectors and assemble a full report.

    ``test_vectors`` is ``vectorizer.transform`` of the preprocessed test
    split, one row per tweet, and ``test_labels`` holds the same tweets'
    true labels in the same order; the caller preprocesses and transforms,
    so one test split can be scored by many models without repeating that
    work, and it need not keep the tweet texts. ``model.predict`` raises
    DimensionMismatchError when the model and vectorizer disagree on
    dimensionality, and ``MetricsReport.from_counts`` raises DatasetError
    on an empty test split.
    """
    predictions = model.predict(test_vectors)
    meta = {
        "model": model.variant,
        "vectorizer": vectorizer.kind,
        "test_size": len(test_labels),
    }
    meta.update(metadata or {})
    return MetricsReport.from_counts(confusion_matrix(test_labels, predictions), meta)
