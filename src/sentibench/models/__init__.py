"""The four classifier variants and their shared input validation.

``MODEL_CLASSES`` maps each kind to its class, which takes ``seed`` and the
kind's hyperparameters as keyword arguments; ``artifacts`` saves and loads
fitted models.
"""

from __future__ import annotations

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
