"""One-vs-rest linear SVMs trained with Pegasos-style subgradient steps.

Each of the three binary machines minimizes the L2-regularized hinge
loss with the schedule eta_t = 1 / (lambda * t), one sample per step,
over seeded epoch shuffles. The bias is carried as an always-one
augmented feature, so it is regularized along with the weights. The
weight vector is kept as scale * direction so each step costs only the
sample's nonzeros.

Prediction returns raw margins; argmax with the fixed class order
breaks ties, so an all-zero model predicts the first class (negative).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import TrainingError
from .base import BaseClassifier, check_int, check_X_y, decode_array

_STREAM = 2


def _pegasos_binary(csr, y_pm, lam, epochs, rng) -> np.ndarray:
    """Train one binary machine; returns the final weight vector."""
    n, dims = csr.shape
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    direction = np.zeros(dims)
    scale = 1.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            lo, hi = indptr[i], indptr[i + 1]
            idx = indices[lo:hi]
            vals = data[lo:hi]
            margin = y_pm[i] * scale * float(np.dot(direction[idx], vals))
            scale *= 1.0 - 1.0 / t
            if scale == 0.0:  # only at t == 1: the weight vector is 0 anyway
                direction[:] = 0.0
                scale = 1.0
            if margin < 1.0:
                eta = 1.0 / (lam * t)
                direction[idx] += (eta * y_pm[i] / scale) * vals
    return scale * direction


class LinearSvm(BaseClassifier):
    variant = "svm"

    def __init__(self, lam: float = 1e-4, epochs: int = 50, seed: int = 0):
        super().__init__()
        if lam <= 0:
            raise ValueError("lam must be strictly positive")
        check_int("epochs", epochs, 1)
        check_int("seed", seed, 0)
        self.lam = lam
        self.epochs = epochs
        self.seed = seed

    def fit(self, X, y) -> "LinearSvm":
        csr, y_idx = check_X_y(X, y)
        if np.unique(y_idx).size < 2:
            raise TrainingError("svm training needs at least two distinct labels")
        n, dims = csr.shape
        augmented = sparse.hstack(
            [csr, np.ones((n, 1))], format="csr"
        )

        weights = np.zeros((3, dims))
        bias = np.zeros(3)
        for c in range(3):
            y_pm = np.where(y_idx == c, 1.0, -1.0)
            rng = np.random.default_rng([self.seed, _STREAM, c])
            w_aug = _pegasos_binary(augmented, y_pm, self.lam, self.epochs, rng)
            weights[c] = w_aug[:-1]
            bias[c] = w_aug[-1]

        self.weights_ = weights
        self.bias_ = bias
        self.n_features_ = dims
        return self

    def _score_matrix(self, csr) -> np.ndarray:
        return csr @ self.weights_.T + self.bias_

    def state_to_dict(self) -> dict:
        return {"weights": self.weights_.tolist(), "bias": self.bias_.tolist()}

    def load_state(self, params, dims: int) -> None:
        self.weights_ = decode_array(params["weights"], (3, dims), "weights")
        self.bias_ = decode_array(params["bias"], (3,), "bias")
