"""Per-label metric functions over a 3x3 count array, one figure at a time.

Rows of ``counts`` are true classes and columns predictions, in polarity
order. ``per_class_metrics``, ``weighted_metrics`` and ``accuracy`` compute
each figure from the true/false positive and negative counts of one label.
``MetricsReport.from_counts`` must return exactly their values, bit for bit.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from sentibench import ClassMetrics, DatasetError
from sentibench.corpus import POLARITIES, POLARITY_INDEX


def support(counts) -> dict[str, int]:
    """True-sample count per class (row sums)."""
    return {c: int(counts[i].sum()) for i, c in enumerate(POLARITIES)}


def true_positives(counts, label: str) -> int:
    i = POLARITY_INDEX[label]
    return int(counts[i, i])


def false_positives(counts, label: str) -> int:
    i = POLARITY_INDEX[label]
    return int(counts[:, i].sum() - counts[i, i])


def false_negatives(counts, label: str) -> int:
    i = POLARITY_INDEX[label]
    return int(counts[i].sum() - counts[i, i])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_class_metrics(counts) -> dict[str, ClassMetrics]:
    out = {}
    for label in POLARITIES:
        tp = true_positives(counts, label)
        precision = _ratio(tp, tp + false_positives(counts, label))
        recall = _ratio(tp, tp + false_negatives(counts, label))
        f1 = _ratio(2.0 * precision * recall, precision + recall)
        out[label] = ClassMetrics(precision=precision, recall=recall, f1=f1)
    return out


def weighted_metrics(
    per_class: Mapping[str, ClassMetrics], support: Mapping[str, int]
) -> ClassMetrics:
    """Support-weighted averages of the per-class metrics."""
    total = sum(support.values())
    if total <= 0:
        raise DatasetError("weighted metrics need a positive total support")
    weights = {c: support.get(c, 0) / total for c in POLARITIES}
    return ClassMetrics(
        precision=sum(weights[c] * per_class[c].precision for c in POLARITIES),
        recall=sum(weights[c] * per_class[c].recall for c in POLARITIES),
        f1=sum(weights[c] * per_class[c].f1 for c in POLARITIES),
    )


def accuracy(counts) -> float:
    total = int(counts.sum())
    if total == 0:
        raise DatasetError("cannot compute accuracy of an empty matrix")
    return float(np.trace(counts)) / total
