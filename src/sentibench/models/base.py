"""Shared classifier interface and input-validation helpers.

Classifiers are fitted once and immutable afterwards: predict is a pure
function of (fitted state, input matrix). Every model takes one
``CsrMatrix``, a row per sample, as the vectorizer builds. Score matrices
keep columns in the fixed polarity order, and argmax resolves ties toward
the earlier class, which pins the documented tie-break [negative,
neutral, positive].

``BaseClassifier.fit`` checks the training set for every variant, whose
``_fit`` keeps only its arithmetic and its own preconditions, and each
``load_state`` decodes its artifact arrays with ``base.decode_array``.
"""

from __future__ import annotations

import inspect
from typing import Mapping

import numpy as np

from ..base import check_fitted
from ..corpus import POLARITIES, POLARITY_INDEX
from ..errors import DimensionMismatchError, TrainingError
from ..vectorize import CsrMatrix


def check_vectors(X, dims: int | None = None) -> CsrMatrix:
    """Model input as a canonical CsrMatrix, ``dims`` wide if given; unsorted
    columns or duplicates (summed) are canonicalized in a copy, never in place.
    Column ids must be integers in range, and row pointers signed integers,
    as the models' int64 arithmetic on them needs; others are refused."""
    if not isinstance(X, CsrMatrix):
        raise TypeError(f"expected a CsrMatrix, got {type(X).__name__}")
    (n, width), ptr, idx = X.shape, X.indptr, X.indices
    if not (idx.dtype.kind in "iu" and ptr.dtype.kind == "i" and ptr.shape == (n + 1,)
            and ptr[0] == 0 and ptr[-1] == idx.size == X.nnz
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


class BaseClassifier:
    """fit / predict over polarity classes, plus the fitted state that the
    model artifact stores.

    Follows the scikit-learn convention: every constructor argument is a
    hyperparameter stored under its own name, which ``get_params`` returns
    and the model artifact records."""

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

    @property
    def dims(self) -> int:
        check_fitted(self, "n_features_")
        return self.n_features_

    def fit(self, X, y):
        """Train on a CsrMatrix and one polarity label per row; returns self."""
        csr, y_idx = check_X_y(X, y)
        self._fit(csr, y_idx)
        self.n_features_ = csr.shape[1]
        return self

    def _fit(self, csr, y_idx) -> None:
        """Set the fitted state from a canonical CsrMatrix and class indices."""
        raise NotImplementedError

    def _score_matrix(self, csr) -> np.ndarray:
        """(n_samples, 3) class scores; semantics depend on the variant."""
        raise NotImplementedError

    def predict(self, X) -> list[str]:
        scores = self._score_matrix(check_vectors(X, dims=self.dims))
        return [POLARITIES[i] for i in np.argmax(scores, axis=1)]

    def state_to_dict(self) -> dict:
        """Fitted state as the artifact's ``params`` section."""
        raise NotImplementedError

    def load_state(self, params: Mapping, dims: int) -> None:
        """Restore fitted state from ``params``; raise ValueError or ArtifactError
        when a value, shape or index does not fit ``dims``."""
        raise NotImplementedError
