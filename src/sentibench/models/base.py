"""Shared classifier interface and input-validation helpers.

Classifiers are fitted once and immutable afterwards: predict and
predict_scores are pure functions of (fitted state, input matrix). Every
model takes one ``CsrMatrix``, a row per sample, as the vectorizer builds.
Score matrices keep columns in the fixed polarity order, and argmax
resolves ties toward the earlier class, which pins the documented
tie-break [negative, neutral, positive].
"""

from __future__ import annotations

import inspect
from itertools import chain
from typing import Mapping

import numpy as np

from ..base import check_fitted
from ..corpus import POLARITIES, POLARITY_INDEX
from ..errors import ArtifactError, DimensionMismatchError, TrainingError
from ..vectorize import CsrMatrix


def check_vectors(X, dims: int | None = None) -> CsrMatrix:
    """Model input as a canonical CsrMatrix, ``dims`` wide if given; unsorted
    columns or duplicates (summed) are canonicalized in a copy, never in place."""
    if not isinstance(X, CsrMatrix):
        raise TypeError(f"expected a CsrMatrix, got {type(X).__name__}")
    (n, width), ptr, idx = X.shape, X.indptr, X.indices
    if not (ptr.shape == (n + 1,) and ptr[0] == 0 and ptr[-1] == idx.size == X.nnz
            and (ptr[1:] >= ptr[:-1]).all() and ((idx >= 0) & (idx < width)).all()):
        raise ValueError(f"malformed {n} x {width} CsrMatrix")
    if dims is not None and width != dims:
        raise DimensionMismatchError(f"input has {width} dims, model expects {dims}")
    return X.canonical()


def check_X_y(X, y):
    """Validate a training set (equal non-zero lengths, known labels);
    returns (canonical CsrMatrix, int class indices)."""
    labels = list(y)
    if len(labels) == 0:
        raise TrainingError("training data is empty")
    csr = check_vectors(X)
    if csr.shape[0] != len(labels):
        raise TrainingError(f"{csr.shape[0]} vectors but {len(labels)} labels")
    try:
        y_idx = np.array([POLARITY_INDEX[label] for label in labels], dtype=np.int64)
    except KeyError as exc:
        raise TrainingError(f"unknown label {exc.args[0]!r}") from None
    return csr, y_idx


def decode_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Finite float array from artifact JSON: lists nested to exactly
    ``shape`` that hold JSON numbers only (float() would also convert a
    string or a bool)."""
    array = np.array(values, dtype=np.float64)
    if array.shape != shape:
        raise ArtifactError(f"{name} has shape {array.shape}, expected {shape}")
    for _ in shape[1:]:
        values = list(chain.from_iterable(values))
    if not set(map(type, values)) <= {int, float}:
        raise ArtifactError(f"{name} must hold numbers only")
    if not np.isfinite(array).all():
        raise ArtifactError(f"{name} holds a value that is not finite")
    return array


class BaseClassifier:
    """fit / predict / predict_scores over polarity classes, plus the
    fitted state that the model artifact stores.

    Follows the scikit-learn convention: every constructor argument is a
    hyperparameter stored under its own name, which ``get_params`` returns
    (the model artifact records them and ``__repr__`` shows them)."""

    variant = "base"

    def __init__(self):
        self.n_features_: int | None = None

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

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
        scores = self._score_matrix(check_vectors(X, dims=self.dims))
        return [POLARITIES[i] for i in np.argmax(scores, axis=1)]

    def predict_scores(self, X) -> list[dict[str, float]]:
        scores = self._score_matrix(check_vectors(X, dims=self.dims))
        return [{label: float(row[i]) for i, label in enumerate(POLARITIES)} for row in scores]

    def state_to_dict(self) -> dict:
        """Fitted state as the artifact's ``params`` section."""
        raise NotImplementedError

    def load_state(self, params: Mapping, dims: int) -> None:
        """Restore fitted state from ``params``; raise ArtifactError when a
        shape or index does not fit ``dims``."""
        raise NotImplementedError
