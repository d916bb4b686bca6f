"""One-vs-rest linear SVMs trained with Pegasos-style subgradient steps.

Each of the three binary machines minimizes the L2-regularized hinge
loss with the schedule eta_t = 1 / (lambda * t), one sample per step,
over seeded epoch shuffles. The bias is carried as an always-one
augmented feature, so it is regularized along with the weights. The
weight vector is kept as scale * direction so each step costs only the
sample's nonzeros.

The steps form one sequential loop, so their cost is interpreter and
NumPy call overhead. The arithmetic and its order are fixed, so the
weights are reproducible bit for bit:

- the margin's dot product is one BLAS ``ddot`` over the row's weights
  and values. OpenBLAS sums 16 or more entries in unrolled blocks and
  uses fused multiply-adds on the tail, so a left-to-right sum in Python
  rounds differently;
- the update scale is ``eta * y / scale``, in that order. The algebraically
  equal ``y / (lam * t * scale)`` rounds differently and changes the
  weights.

The training copy's column ids are intp, not the vectorizer's int32.
NumPy converts any other index array to intp on every gather and
scatter, and on an average 11-entry row a gather or scatter with that
conversion costs more than the ``ddot``. On intp ids a fancy-index gather and scatter cost less
than ``take`` and ``put``, so a step reads the row's weights with
``direction[idx]`` and writes them back with ``direction[idx] = ...``.

Prediction returns raw margins; argmax with the fixed class order
breaks ties, so an all-zero model predicts the first class (negative).
"""

from __future__ import annotations

import numpy as np

from ..base import check_float, check_int, decode_array
from ..errors import TrainingError
from ..vectorize import CsrMatrix
from .base import BaseClassifier

_STREAM = 2


def _pegasos_binary(csr, y_pm, lam, epochs, rng) -> np.ndarray:
    """Train one binary machine; returns the final weight vector.

    ``csr`` must be canonical (no duplicate entries in a row), so one
    scatter writes each touched weight once. Any integer column ids give
    the same weights, but only intp ids spare each step a conversion.
    """
    n, dims = csr.shape
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    direction = np.zeros(dims)
    scale = 1.0
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo, hi, y in zip(indptr[order].tolist(), indptr[order + 1].tolist(),
                             y_pm[order].tolist()):
            t += 1
            idx = indices[lo:hi]
            vals = data[lo:hi]
            g = direction[idx]
            margin = y * scale * float(g.dot(vals))
            scale *= 1.0 - 1.0 / t
            if scale == 0.0:  # only at t == 1, when direction (and g) are all zero
                direction[:] = 0.0
                scale = 1.0
            if margin < 1.0:
                eta = 1.0 / (lam * t)
                direction[idx] = g + (eta * y / scale) * vals
    return scale * direction


class LinearSvm(BaseClassifier):
    variant = "svm"

    def __init__(self, lam: float = 1e-4, epochs: int = 50, seed: int = 0):
        super().__init__()
        check_float("lam", lam, 0)
        check_int("epochs", epochs, 1)
        check_int("seed", seed, 0)
        self.lam = lam
        self.epochs = epochs
        self.seed = seed

    def _fit(self, csr, y_idx) -> None:
        if np.unique(y_idx).size < 2:
            raise TrainingError("svm training needs at least two distinct labels")
        n, dims = csr.shape
        ends = csr.indptr[1:]  # each row's entries, then a 1.0 in the new last column
        augmented = CsrMatrix(np.insert(csr.data, ends, 1.0),
                              np.insert(csr.indices.astype(np.intp), ends, dims),
                              csr.indptr + np.arange(n + 1), (n, dims + 1))

        weights = np.zeros((3, dims))
        bias = np.zeros(3)
        for c in range(3):
            y_pm = np.where(y_idx == c, 1.0, -1.0)
            rng = np.random.default_rng([self.seed, _STREAM, c])
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                w_aug = _pegasos_binary(augmented, y_pm, self.lam, self.epochs, rng)
            if not np.isfinite(w_aug).all():
                raise TrainingError("non-finite svm weights; raise lambda")
            weights[c] = w_aug[:-1]
            bias[c] = w_aug[-1]

        self.weights_ = weights
        self.bias_ = bias

    def _score_matrix(self, csr) -> np.ndarray:
        return csr @ self.weights_.T + self.bias_

    def state_to_dict(self) -> dict:
        return {"weights": self.weights_.tolist(), "bias": self.bias_.tolist()}

    def load_state(self, params, dims: int) -> None:
        self.weights_ = decode_array("weights", params["weights"], (3, dims))
        self.bias_ = decode_array("bias", params["bias"], (3,))
