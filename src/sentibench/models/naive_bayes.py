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

_BLOCK_ROWS = 8_192


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

        n_classes = 3
        n_samples, n_features = csr.shape
        class_counts = np.bincount(y_idx, minlength=n_classes).astype(np.float64)

        # Each (class, term) total adds its entries in row order, from zero,
        # a block of rows at a time, so no key array spans every entry.
        term_totals = np.zeros(n_classes * n_features)
        indptr = csr.indptr
        for start in range(0, n_samples, _BLOCK_ROWS):
            rows = indptr[start : start + _BLOCK_ROWS + 1]
            key = np.repeat(y_idx[start : start + _BLOCK_ROWS] * n_features, np.diff(rows))
            key += csr.indices[rows[0] : rows[-1]]
            np.add.at(term_totals, key, csr.data[rows[0] : rows[-1]])
        term_totals = term_totals.reshape(n_classes, n_features)

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
        # null is the -inf log-prior of a class absent from training
        self.class_log_prior_ = decode_array(
            "class_log_prior", [0.0 if x is None else x for x in prior], (3,)
        )
        self.class_log_prior_[[x is None for x in prior]] = -np.inf
        self.feature_log_likelihood_ = decode_array(
            "feature_log_likelihood", params["feature_log_likelihood"], (3, dims)
        )
