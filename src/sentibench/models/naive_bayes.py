"""Multinomial naive Bayes over non-negative term weights.

Works on counts (bag-of-words) and on fractional weights (tf-idf) alike:
class-conditional term totals are Laplace-smoothed and normalized, so
the likelihood of term t in class c is

    (sum of t's weights in c + alpha) / (sum of all weights in c + alpha * V).

Its class scores are the softmax of the joint log-likelihood, so each
row of ``_score_matrix`` holds true posterior probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import check_float, check_int, decode_array
from ..errors import TrainingError
from .base import BaseClassifier
from .logistic import softmax


class MultinomialNaiveBayes(BaseClassifier):
    variant = "mnb"

    def __init__(self, alpha: float = 1.0, seed: int = 0):
        super().__init__()
        check_float("alpha", alpha, 0)
        check_int("seed", seed, 0)
        self.alpha = alpha
        self.seed = seed  # unused: training is deterministic; kept for API symmetry

    def _fit(self, csr, y_idx) -> None:
        if csr.nnz and csr.data.min() < 0:
            raise TrainingError("multinomial naive bayes requires non-negative weights")

        n_samples, n_features = csr.shape
        class_counts = np.bincount(y_idx, minlength=3).astype(np.float64)

        # ufunc.at adds the entries one at a time in stored (row) order from zero, so each
        # total is a row-order sum; an int8 class per entry costs one byte, not an int64's 8
        classes = np.repeat(y_idx.astype(np.int8), np.diff(csr.indptr))
        term_totals = np.zeros((3, n_features))
        np.add.at(term_totals, (classes, csr.indices), csr.data)

        with np.errstate(divide="ignore"):
            self.class_log_prior_ = np.log(class_counts / n_samples)
        smoothed = term_totals + self.alpha
        with np.errstate(over="ignore", divide="ignore"):  # refused just below
            self.feature_log_likelihood_ = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        if not np.isfinite(self.feature_log_likelihood_).all():
            raise TrainingError("non-finite log-likelihoods; use an alpha nearer 1")

    def _score_matrix(self, csr) -> np.ndarray:
        return softmax(csr @ self.feature_log_likelihood_.T + self.class_log_prior_)

    def state_to_dict(self) -> dict:
        return {
            # -inf is the log-prior of a class absent from training; JSON gets null.
            "class_log_prior": [
                float(x) if math.isfinite(x) else None for x in self.class_log_prior_
            ],
            "feature_log_likelihood": self.feature_log_likelihood_.tolist(),
        }

    def load_state(self, params, dims: int) -> None:
        prior = params["class_log_prior"]
        if all(x is None for x in prior):  # a fit sees one class at least
            raise ValueError("class_log_prior has no finite entry")
        # null is the -inf log-prior of a class absent from training
        self.class_log_prior_ = decode_array(
            "class_log_prior", [0.0 if x is None else x for x in prior], (3,)
        )
        self.class_log_prior_[[x is None for x in prior]] = -np.inf
        self.feature_log_likelihood_ = decode_array(
            "feature_log_likelihood", params["feature_log_likelihood"], (3, dims)
        )
