"""Multinomial (softmax) logistic regression via mini-batch SGD.

Weights start at zero, so an untrained model scores every class at
exactly 1/3. The objective is the mean cross-entropy plus an L2 penalty
on the weights (biases are not penalized). Shuffling is seeded, which
makes training fully reproducible.
"""

from __future__ import annotations

import numpy as np

from ..base import check_float, check_int, decode_array
from ..errors import TrainingError
from .base import BaseClassifier

_STREAM = 1  # keeps this model's RNG stream distinct from other variants


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def softmax_loss_and_grad(W, b, X, y_idx, l2):
    """Regularized cross-entropy and its analytic gradient.

    X is a CsrMatrix batch; returns (loss, grad_W, grad_b) where the loss
    is mean cross-entropy + 0.5 * l2 * ||W||^2.
    """
    n = X.shape[0]
    probs = softmax(X @ W.T + b)
    picked = probs[np.arange(n), y_idx]
    with np.errstate(over="ignore"):  # inf here is caught as divergence upstream
        penalty = 0.5 * l2 * float((W * W).sum())
    loss = -np.mean(np.log(np.maximum(picked, 1e-300))) + penalty
    delta = probs
    delta[np.arange(n), y_idx] -= 1.0
    grad_W = (delta.T @ X) / n + l2 * W
    grad_b = delta.mean(axis=0)
    return loss, grad_W, grad_b


class SoftmaxRegression(BaseClassifier):
    variant = "logreg"

    def __init__(
        self,
        learning_rate: float = 0.1,
        epochs: int = 50,
        batch_size: int = 64,
        l2: float = 1e-4,
        seed: int = 0,
    ):
        super().__init__()
        check_float("learning_rate", learning_rate, 0)
        check_int("epochs", epochs, 1)
        check_int("batch_size", batch_size, 1)
        check_int("seed", seed, 0)
        check_float("l2", l2, 0, inclusive=True)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed

    def _fit(self, csr, y_idx) -> None:
        n, dims = csr.shape
        W = np.zeros((3, dims))
        b = np.zeros(3)
        rng = np.random.default_rng([self.seed, _STREAM])

        self.epoch_losses_: list[float] = []
        for _ in range(self.epochs):
            order = rng.permutation(n)
            # one permuted copy per epoch; its contiguous slices are the
            # same batches, row for row, as indexing csr with each slice of order
            X_epoch, y_epoch = csr[order], y_idx[order]
            batch_losses = []
            for start in range(0, n, self.batch_size):
                stop = start + self.batch_size
                loss, grad_W, grad_b = softmax_loss_and_grad(
                    W, b, X_epoch[start:stop], y_epoch[start:stop], self.l2
                )
                if not np.isfinite(loss):
                    raise TrainingError(
                        "non-finite training loss; lower the learning rate"
                    )
                W -= self.learning_rate * grad_W
                b -= self.learning_rate * grad_b
                batch_losses.append(loss)
            self.epoch_losses_.append(float(np.mean(batch_losses)))

        self.weights_ = W
        self.bias_ = b

    def _score_matrix(self, csr) -> np.ndarray:
        return softmax(csr @ self.weights_.T + self.bias_)

    def state_to_dict(self) -> dict:
        return {
            "weights": self.weights_.tolist(),
            "bias": self.bias_.tolist(),
            "epoch_losses": list(self.epoch_losses_),
        }

    def load_state(self, params, dims: int) -> None:
        self.weights_ = decode_array("weights", params["weights"], (3, dims))
        self.bias_ = decode_array("bias", params["bias"], (3,))
        losses = decode_array("epoch_losses", params["epoch_losses"], (self.epochs,))
        self.epoch_losses_ = losses.tolist()
