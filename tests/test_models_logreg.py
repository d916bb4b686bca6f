"""Softmax regression: gradient correctness, separability, regularization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logreg_reference
from sentibench.corpus import POLARITIES
from sentibench.errors import TrainingError
from sentibench.models import SoftmaxRegression, check_vectors
from sentibench.models.logistic import softmax, softmax_loss_and_grad
from helpers import canonical_csr, csr

# Disjoint single-feature documents: class c fires feature c only.
SEPARABLE_X = csr(3, [[(c, 1.0)] for c in (0, 0, 1, 1, 2, 2)])
SEPARABLE_Y = ["negative", "negative", "neutral", "neutral", "positive", "positive"]


def brute_force_separator_exists(X, y_idx) -> bool:
    """Search small integer weight matrices for a perfect linear classifier."""
    dense = X.toarray()
    for flat in itertools.product((-1.0, 0.0, 1.0), repeat=9):
        W = np.array(flat).reshape(3, 3)
        scores = dense @ W.T
        pred = np.argmax(scores, axis=1)
        if (pred == y_idx).all():
            return True
    return False


class TestZeroInitialization:
    def test_scores_uniform_before_any_update(self):
        model = SoftmaxRegression()
        model.weights_ = np.zeros((3, 4))
        model.bias_ = np.zeros(3)
        model.n_features_ = 4
        scores = model._score_matrix(check_vectors(csr(4, [[(1, 2.0)]]), dims=model.dims))[0]
        for value in scores.tolist():
            assert value == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_vector_prediction_is_bias_argmax(self):
        model = SoftmaxRegression()
        model.weights_ = np.ones((3, 4))
        model.bias_ = np.array([0.0, 2.0, 1.0])
        model.n_features_ = 4
        assert model.predict(csr(4, [[]]))[0] == "neutral"


class TestSeparableTraining:
    def test_separator_exists_by_brute_force(self):
        y_idx = np.array([0, 0, 1, 1, 2, 2])
        assert brute_force_separator_exists(SEPARABLE_X, y_idx)

    def test_reaches_full_training_accuracy(self):
        model = SoftmaxRegression(seed=3).fit(SEPARABLE_X, SEPARABLE_Y)
        assert model.predict(SEPARABLE_X) == SEPARABLE_Y

    def test_loss_recorded_per_epoch_and_decreases(self):
        model = SoftmaxRegression(epochs=30, seed=3).fit(SEPARABLE_X, SEPARABLE_Y)
        assert len(model.epoch_losses_) == 30
        assert model.epoch_losses_[-1] < model.epoch_losses_[0]


class TestRegularization:
    def test_heavy_l2_shrinks_weight_norm(self):
        # l2 large but inside the stable step region (learning_rate * l2 < 2)
        free = SoftmaxRegression(l2=0.0, seed=1).fit(SEPARABLE_X, SEPARABLE_Y)
        squeezed = SoftmaxRegression(l2=5.0, seed=1).fit(SEPARABLE_X, SEPARABLE_Y)
        assert np.linalg.norm(squeezed.weights_) < np.linalg.norm(free.weights_)

    def test_penalty_monotone_in_strength(self):
        norms = [
            np.linalg.norm(
                SoftmaxRegression(l2=l2, seed=1).fit(SEPARABLE_X, SEPARABLE_Y).weights_
            )
            for l2 in (0.0, 0.1, 1.0, 5.0)
        ]
        assert norms == sorted(norms, reverse=True)


class TestGradientCheck:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(11)
        X = csr(4, [[(j, rng.uniform(0.2, 2.0)) for j in range(4) if rng.random() < 0.8]
                    for _ in range(5)])
        y_idx = rng.integers(0, 3, size=5)
        W = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        l2 = 0.01
        _, grad_W, grad_b = softmax_loss_and_grad(W, b, X, y_idx, l2)

        h = 1e-6

        def loss_at(Wq, bq):
            return softmax_loss_and_grad(Wq, bq, X, y_idx, l2)[0]

        for i in range(3):
            for j in range(4):
                up, down = W.copy(), W.copy()
                up[i, j] += h
                down[i, j] -= h
                numeric = (loss_at(up, b) - loss_at(down, b)) / (2 * h)
                denom = max(abs(numeric), abs(grad_W[i, j]), 1e-4)
                assert abs(numeric - grad_W[i, j]) / denom <= 1e-5
        for i in range(3):
            up, down = b.copy(), b.copy()
            up[i] += h
            down[i] -= h
            numeric = (loss_at(W, up) - loss_at(W, down)) / (2 * h)
            denom = max(abs(numeric), abs(grad_b[i]), 1e-4)
            assert abs(numeric - grad_b[i]) / denom <= 1e-5


class TestDivergenceAndValidation:
    def test_nonfinite_loss_raises(self):
        with pytest.raises(TrainingError, match="non-finite"):
            SoftmaxRegression(learning_rate=1e8, epochs=50, seed=0).fit(
                SEPARABLE_X, SEPARABLE_Y
            )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SoftmaxRegression(learning_rate=0.0)
        with pytest.raises(ValueError):
            SoftmaxRegression(epochs=0)
        with pytest.raises(ValueError):
            SoftmaxRegression(batch_size=0)
        with pytest.raises(ValueError):
            SoftmaxRegression(l2=-1.0)

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.normal(scale=30, size=(20, 3)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()


@st.composite
def batch_problems(draw):
    """A canonical CSR matrix, class indices and hyperparameters; n is never
    a multiple of a batch size above 1, so every epoch ends on a short batch."""
    batch_size = draw(st.sampled_from([1, 7, 64, None]))
    if batch_size is None:  # the whole epoch is one batch
        n = draw(st.integers(1, 40))
        batch_size = n + draw(st.integers(1, 9))
    else:
        n = draw(
            st.integers(batch_size + 1, batch_size + 40).filter(
                lambda n: batch_size == 1 or n % batch_size
            )
        )
    X = draw(canonical_csr(n, unit=draw(st.booleans())))
    y_idx = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    hp = {
        "learning_rate": draw(st.sampled_from([0.05, 0.5])),
        "epochs": draw(st.integers(1, 3)),
        "batch_size": batch_size,
        "l2": draw(st.sampled_from([0.0, 1e-2])),
        "seed": draw(st.integers(0, 2**16)),
    }
    return X, y_idx, hp


class TestMatchesFancyIndexReference:
    @settings(max_examples=60, deadline=None)
    @given(batch_problems())
    def test_weights_and_losses_are_bit_identical(self, problem):
        X, y_idx, hp = problem
        model = SoftmaxRegression(**hp).fit(X, [POLARITIES[i] for i in y_idx])
        W, b, losses = logreg_reference.fit_batches(X, y_idx, **hp)
        assert np.array_equal(model.weights_, W)
        assert np.array_equal(model.bias_, b)
        assert model.epoch_losses_ == losses


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = SoftmaxRegression(seed=9).fit(SEPARABLE_X, SEPARABLE_Y)
        b = SoftmaxRegression(seed=9).fit(SEPARABLE_X, SEPARABLE_Y)
        assert (a.weights_ == b.weights_).all()
        assert (a.bias_ == b.bias_).all()
