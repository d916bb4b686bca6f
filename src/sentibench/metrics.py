"""Confusion matrix, accuracy, and per-class / weighted precision, recall, F1.

All metrics follow the usual multiclass definitions with rows of the
confusion matrix as true classes and columns as predictions, in the
fixed polarity order. Any 0/0 ratio is defined as 0. Weighted averages
use true-class supports as weights, which makes weighted recall
identical to accuracy for single-label evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import POLARITIES, POLARITY_INDEX
from .errors import DatasetError, DimensionMismatchError


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 counts: entry (i, j) = samples of true class i predicted as j."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (len(POLARITIES), len(POLARITIES)):
            raise ValueError(f"confusion matrix must be 3x3, got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("confusion matrix entries must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def support(self) -> dict[str, int]:
        """True-sample count per class (row sums)."""
        return {c: int(self.counts[i].sum()) for i, c in enumerate(POLARITIES)}

    def true_positives(self, label: str) -> int:
        i = POLARITY_INDEX[label]
        return int(self.counts[i, i])

    def false_positives(self, label: str) -> int:
        i = POLARITY_INDEX[label]
        return int(self.counts[:, i].sum() - self.counts[i, i])

    def false_negatives(self, label: str) -> int:
        i = POLARITY_INDEX[label]
        return int(self.counts[i].sum() - self.counts[i, i])


def confusion_matrix(truth: Sequence[str], pred: Sequence[str]) -> ConfusionMatrix:
    if len(truth) != len(pred):
        raise DimensionMismatchError(
            f"truth has {len(truth)} labels, predictions have {len(pred)}"
        )
    if len(truth) == 0:
        raise DatasetError("cannot build a confusion matrix from zero samples")
    counts = np.zeros((len(POLARITIES), len(POLARITIES)), dtype=np.int64)
    for t, p in zip(truth, pred):
        counts[POLARITY_INDEX[t], POLARITY_INDEX[p]] += 1
    return ConfusionMatrix(counts=counts)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_class_metrics(cm: ConfusionMatrix) -> dict[str, ClassMetrics]:
    out = {}
    for label in POLARITIES:
        tp = cm.true_positives(label)
        precision = _ratio(tp, tp + cm.false_positives(label))
        recall = _ratio(tp, tp + cm.false_negatives(label))
        f1 = _ratio(2.0 * precision * recall, precision + recall)
        out[label] = ClassMetrics(precision=precision, recall=recall, f1=f1)
    return out


@dataclass(frozen=True)
class WeightedMetrics:
    precision: float
    recall: float
    f1: float


def weighted_metrics(
    per_class: Mapping[str, ClassMetrics], support: Mapping[str, int]
) -> WeightedMetrics:
    """Support-weighted averages of the per-class metrics."""
    total = sum(support.values())
    if total <= 0:
        raise DatasetError("weighted metrics need a positive total support")
    weights = {c: support.get(c, 0) / total for c in POLARITIES}
    return WeightedMetrics(
        precision=sum(weights[c] * per_class[c].precision for c in POLARITIES),
        recall=sum(weights[c] * per_class[c].recall for c in POLARITIES),
        f1=sum(weights[c] * per_class[c].f1 for c in POLARITIES),
    )


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise DatasetError("cannot compute accuracy of an empty matrix")
    return float(np.trace(cm.counts)) / cm.total


@dataclass(frozen=True)
class MetricsReport:
    """Everything one evaluation produces, plus run metadata."""

    confusion: ConfusionMatrix
    accuracy: float
    per_class: dict[str, ClassMetrics]
    support: dict[str, int]
    weighted: WeightedMetrics
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_predictions(
        cls, truth: Sequence[str], pred: Sequence[str], metadata: dict | None = None
    ) -> "MetricsReport":
        cm = confusion_matrix(truth, pred)
        per_class = per_class_metrics(cm)
        support = cm.support()
        return cls(
            confusion=cm,
            accuracy=accuracy(cm),
            per_class=per_class,
            support=support,
            weighted=weighted_metrics(per_class, support),
            metadata=dict(metadata or {}),
        )

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {
                c: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": self.support[c],
                }
                for c, m in self.per_class.items()
            },
            "weighted": {
                "precision": self.weighted.precision,
                "recall": self.weighted.recall,
                "f1": self.weighted.f1,
            },
            "confusion_matrix": {
                "class_order": list(POLARITIES),
                "rows_are_truth": True,
                "counts": self.confusion.counts.tolist(),
            },
            "metadata": self.metadata,
        }

    def render_table(self) -> str:
        """Two-decimal human-readable summary."""
        lines = [
            f"{'class':<10} {'precision':>9} {'recall':>7} {'f1':>6} {'support':>8}"
        ]
        for c in POLARITIES:
            m = self.per_class[c]
            lines.append(
                f"{c:<10} {m.precision:>9.2f} {m.recall:>7.2f} "
                f"{m.f1:>6.2f} {self.support[c]:>8d}"
            )
        w = self.weighted
        lines.append(
            f"{'weighted':<10} {w.precision:>9.2f} {w.recall:>7.2f} "
            f"{w.f1:>6.2f} {self.confusion.total:>8d}"
        )
        lines.append(f"accuracy: {self.accuracy:.2f}")
        return "\n".join(lines)


def evaluate(model, vectorizer, test_corpus, test_vectors, metadata=None) -> MetricsReport:
    """Predict the test vectors and assemble a full report.

    ``test_vectors`` is ``vectorizer.transform`` of the preprocessed
    ``test_corpus``, one row per tweet in corpus order; the caller
    preprocesses and transforms, so one test split can be scored by many
    models without repeating that work. The model and vectorizer must
    agree on dimensionality; the test corpus must be non-empty.
    """
    if len(test_corpus) == 0:
        raise DatasetError("cannot evaluate on an empty test corpus")
    if model.dims != vectorizer.dims:
        raise DimensionMismatchError(
            f"model expects {model.dims} dims, vectorizer produces {vectorizer.dims}"
        )
    predictions = model.predict(test_vectors)
    meta = {
        "model": model.variant,
        "vectorizer": vectorizer.kind,
        "test_size": len(test_corpus),
    }
    meta.update(metadata or {})
    return MetricsReport.from_predictions(test_corpus.labels, predictions, meta)
