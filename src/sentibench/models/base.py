"""Shared classifier interface and input-validation helpers.

Classifiers are fitted once and immutable afterwards: predict and
predict_scores are pure functions of (fitted state, input matrix). Every
model takes one matrix, a row per sample: the vectorizer's CSR matrix,
or any scipy sparse matrix or 2-d ndarray of the same width.
Score matrices keep columns in the fixed polarity order, and argmax
resolves ties toward the earlier class, which pins the documented
tie-break [negative, neutral, positive].
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy import sparse

from ..base import ParamsMixin, check_fitted
from ..corpus import POLARITIES, POLARITY_INDEX
from ..errors import ArtifactError, DimensionMismatchError, TrainingError
from ..vectorize import SparseRows


def check_vectors(X, dims: int | None = None):
    """Coerce model input to one CSR matrix, verifying dimensionality.

    Accepts a vectorizer's SparseRows (its matrix is taken as is), any
    scipy sparse matrix, or a 2-d ndarray. When ``dims`` is given the width
    must match exactly. Sparse input with unsorted indices or duplicate
    entries is canonicalized (duplicates summed) in a copy; the caller's
    matrix is never modified.
    """
    if isinstance(X, SparseRows):
        X = X.csr
    if isinstance(X, np.ndarray):
        X = sparse.csr_matrix(X)
    if not sparse.issparse(X):
        raise TypeError(f"expected a sparse matrix or an ndarray, got {type(X).__name__}")
    csr = X.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    if dims is not None and csr.shape[1] != dims:
        raise DimensionMismatchError(
            f"input has {csr.shape[1]} dims, model expects {dims}"
        )
    return csr


def check_X_y(X, y):
    """Validate a training set: equal non-zero lengths, known labels.

    Returns (csr matrix, int class indices).
    """
    labels = list(y)
    if len(labels) == 0:
        raise TrainingError("training data is empty")
    csr = check_vectors(X)
    if csr.shape[0] != len(labels):
        raise TrainingError(
            f"{csr.shape[0]} vectors but {len(labels)} labels"
        )
    try:
        y_idx = np.array([POLARITY_INDEX[label] for label in labels], dtype=np.int64)
    except KeyError as exc:
        raise TrainingError(f"unknown label {exc.args[0]!r}") from None
    return csr, y_idx


def decode_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Finite float array from artifact JSON that must have exactly ``shape``."""
    array = np.array(values, dtype=np.float64)
    if array.shape != shape:
        raise ArtifactError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ArtifactError(f"{name} holds a value that is not finite")
    return array


class BaseClassifier(ParamsMixin):
    """fit / predict / predict_scores over polarity classes, plus the
    fitted state that the model artifact stores."""

    variant = "base"

    def __init__(self):
        self.n_features_: int | None = None

    @property
    def dims(self) -> int:
        check_fitted(self, "n_features_")
        return self.n_features_

    def fit(self, X, y):
        raise NotImplementedError

    def _score_matrix(self, csr) -> np.ndarray:
        """(n_samples, 3) class scores; semantics depend on the variant."""
        raise NotImplementedError

    def predict(self, X) -> list[str]:
        csr = check_vectors(X, dims=self.dims)
        scores = self._score_matrix(csr)
        return [POLARITIES[i] for i in np.argmax(scores, axis=1)]

    def predict_scores(self, X) -> list[dict[str, float]]:
        csr = check_vectors(X, dims=self.dims)
        scores = self._score_matrix(csr)
        return [
            {label: float(row[i]) for i, label in enumerate(POLARITIES)}
            for row in scores
        ]

    def state_to_dict(self) -> dict:
        """Fitted state as the artifact's ``params`` section."""
        raise NotImplementedError

    def load_state(self, params: Mapping, dims: int) -> None:
        """Restore fitted state from ``params``; raise ArtifactError when a
        shape or index does not fit ``dims``."""
        raise NotImplementedError
