"""The four classifier variants plus shared validation and persistence."""

from __future__ import annotations

from typing import Mapping

from .base import BaseClassifier, check_vectors, check_X_y
from .forest import RandomForest
from .io import MODEL_CLASSES, load_model, model_from_dict, model_to_dict, save_model
from .logistic import SoftmaxRegression
from .naive_bayes import MultinomialNaiveBayes
from .svm import LinearSvm

# Presentation order of the benchmark grid.
MODEL_KINDS = tuple(MODEL_CLASSES)


def make_model(kind: str, seed: int = 0, hyperparams: Mapping | None = None) -> BaseClassifier:
    """Instantiate a classifier by kind with optional hyperparameter overrides."""
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    kwargs = dict(hyperparams or {})
    kwargs.setdefault("seed", seed)
    return MODEL_CLASSES[kind](**kwargs)
