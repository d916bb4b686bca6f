"""The four classifier variants and their shared input validation.

``artifacts`` saves and loads fitted models.
"""

from __future__ import annotations

from typing import Mapping

from .base import BaseClassifier, check_vectors, check_X_y
from .forest import RandomForest
from .logistic import SoftmaxRegression
from .naive_bayes import MultinomialNaiveBayes
from .svm import LinearSvm

# Variant -> class, in the presentation order of the benchmark grid.
MODEL_CLASSES = {
    cls.variant: cls
    for cls in (LinearSvm, MultinomialNaiveBayes, RandomForest, SoftmaxRegression)
}
MODEL_KINDS = tuple(MODEL_CLASSES)


def make_model(kind: str, seed: int = 0, hyperparams: Mapping | None = None) -> BaseClassifier:
    """Instantiate a classifier by kind with optional hyperparameter overrides."""
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    kwargs = dict(hyperparams or {})
    kwargs.setdefault("seed", seed)
    return MODEL_CLASSES[kind](**kwargs)
