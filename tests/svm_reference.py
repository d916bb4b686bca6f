"""Reference Pegasos loops for the sparse trainer.

``hinge_sample_objective`` and ``hinge_sample_subgradient`` are the
per-sample objective and its subgradient; ``pegasos`` takes the plain
step w <- w - eta_t * subgradient on dense vectors. The trainer in
``sentibench.models.svm`` keeps w as scale * direction and touches only
a sample's nonzeros, so it must agree with this loop up to rounding.

``pegasos_sparse`` is the scale * direction loop written with plain
NumPy indexing, row by row in each epoch's permutation, on whatever
integer column ids it is given. The trainer, which gathers and scatters
by intp ids, must return exactly its weights, bit for bit, for int32 and
int64 ids alike.
"""

from __future__ import annotations

import numpy as np


def hinge_sample_objective(w, x, y, lam) -> float:
    """Single-sample Pegasos objective: 0.5*lam*||w||^2 + hinge(y * w.x)."""
    margin = y * float(np.dot(w, x))
    return 0.5 * lam * float(np.dot(w, w)) + max(0.0, 1.0 - margin)


def hinge_sample_subgradient(w, x, y, lam) -> np.ndarray:
    """Subgradient of the single-sample objective at w."""
    grad = lam * w
    if y * float(np.dot(w, x)) < 1.0:
        grad = grad - y * x
    return grad


def pegasos(dense, y_pm, lam, epochs, rng) -> np.ndarray:
    """One binary machine over the rows of a dense matrix, eta_t = 1 / (lam * t)."""
    w = np.zeros(dense.shape[1])
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(dense.shape[0]):
            t += 1
            w = w - hinge_sample_subgradient(w, dense[i], y_pm[i], lam) / (lam * t)
    return w


def pegasos_sparse(csr, y_pm, lam, epochs, rng) -> np.ndarray:
    """One binary machine over a canonical CSR matrix, w = scale * direction."""
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
            if scale == 0.0:
                direction[:] = 0.0
                scale = 1.0
            if margin < 1.0:
                eta = 1.0 / (lam * t)
                direction[idx] += (eta * y_pm[i] / scale) * vals
    return scale * direction
