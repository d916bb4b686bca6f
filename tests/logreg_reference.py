"""Reference mini-batch loop for softmax regression.

``fit_batches`` draws each batch by indexing the matrix with a slice of
the epoch's permutation, one fancy-indexed CSR copy per batch. The
trainer in ``sentibench.models.logistic`` must return exactly its
weights, biases and epoch losses, bit for bit.
"""

from __future__ import annotations

import numpy as np

from sentibench.models.logistic import _STREAM, softmax_loss_and_grad


def fit_batches(csr, y_idx, learning_rate, epochs, batch_size, l2, seed):
    """Return (W, b, epoch_losses) after ``epochs`` passes of mini-batch SGD."""
    n, dims = csr.shape
    W = np.zeros((3, dims))
    b = np.zeros(3)
    rng = np.random.default_rng([seed, _STREAM])
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, grad_W, grad_b = softmax_loss_and_grad(
                W, b, csr[batch], y_idx[batch], l2
            )
            W -= learning_rate * grad_W
            b -= learning_rate * grad_b
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return W, b, epoch_losses
