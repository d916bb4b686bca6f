"""Linear SVM: subgradient correctness, separability, tie-breaking."""

import numpy as np
import pytest
from scipy import sparse

import svm_reference
from sentibench import LinearSvm, TrainingError
from sentibench.models.svm import _pegasos_binary
from svm_reference import hinge_sample_objective, hinge_sample_subgradient
from helpers import csr

SEPARABLE_X = csr(3, [[(c, 1.0)] for c in (0, 0, 1, 1, 2, 2)])
SEPARABLE_Y = ["negative", "negative", "neutral", "neutral", "positive", "positive"]


class TestTieBreaking:
    def test_all_zero_weights_fall_to_first_class(self):
        model = LinearSvm()
        model.weights_ = np.zeros((3, 4))
        model.bias_ = np.zeros(3)
        model.n_features_ = 4
        assert model.predict(csr(4, [[(2, 5.0)]]))[0] == "negative"

    def test_scores_are_raw_margins(self):
        model = LinearSvm()
        model.weights_ = np.array([[1.0, 0.0], [0.0, -2.0], [0.5, 0.5]])
        model.bias_ = np.array([0.0, 1.0, -1.0])
        model.n_features_ = 2
        scores = model.predict_scores(csr(2, [[(0, 2.0), (1, 4.0)]]))[0]
        assert scores == {"negative": 2.0, "neutral": -7.0, "positive": 2.0}


class TestSeparableTraining:
    def test_reaches_full_training_accuracy(self):
        model = LinearSvm(seed=5).fit(SEPARABLE_X, SEPARABLE_Y)
        assert model.predict(SEPARABLE_X) == SEPARABLE_Y


class TestSignFlipSymmetry:
    def test_negated_weights_flip_margins(self):
        augmented = np.hstack([SEPARABLE_X.toarray(), np.ones((6, 1))])
        y_pm = np.where(np.array([0, 0, 1, 1, 2, 2]) == 0, 1.0, -1.0)
        rng = np.random.default_rng(2)
        w = _pegasos_binary(sparse.csr_matrix(augmented), y_pm, 1e-4, 10, rng)
        margins = augmented @ w
        flipped = augmented @ (-w)
        assert np.allclose(margins, -flipped, atol=0)


class TestSubgradientCheck:
    def test_matches_finite_differences_where_differentiable(self):
        rng = np.random.default_rng(21)
        lam = 0.05
        h = 1e-6
        checked = 0
        while checked < 10:
            w = rng.normal(size=5)
            x = rng.normal(size=5)
            y = rng.choice([-1.0, 1.0])
            margin = y * float(np.dot(w, x))
            if abs(margin - 1.0) < 1e-2:  # stay away from the hinge kink
                continue
            grad = hinge_sample_subgradient(w, x, y, lam)
            for j in range(5):
                up, down = w.copy(), w.copy()
                up[j] += h
                down[j] -= h
                numeric = (
                    hinge_sample_objective(up, x, y, lam)
                    - hinge_sample_objective(down, x, y, lam)
                ) / (2 * h)
                denom = max(abs(numeric), abs(grad[j]), 1e-4)
                assert abs(numeric - grad[j]) / denom <= 1e-5
            checked += 1

    def test_sparse_trainer_takes_the_subgradient_steps(self):
        rng = np.random.default_rng(8)
        dense = np.where(rng.random((12, 5)) < 0.5, rng.uniform(0.5, 2.0, (12, 5)), 0.0)
        y_pm = rng.choice([-1.0, 1.0], size=12)
        for lam in (1e-2, 0.5):
            got = _pegasos_binary(
                sparse.csr_matrix(dense), y_pm, lam, 3, np.random.default_rng(1)
            )
            want = svm_reference.pegasos(dense, y_pm, lam, 3, np.random.default_rng(1))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


class TestErrorsAndValidation:
    def test_single_class_data_rejected(self):
        X = csr(2, [[(0, 1.0)], [(1, 1.0)]])
        with pytest.raises(TrainingError, match="two distinct"):
            LinearSvm().fit(X, ["positive", "positive"])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LinearSvm(lam=0.0)
        with pytest.raises(ValueError):
            LinearSvm(epochs=0)


class TestDeterminism:
    def test_same_seed_identical_model(self):
        a = LinearSvm(seed=4).fit(SEPARABLE_X, SEPARABLE_Y)
        b = LinearSvm(seed=4).fit(SEPARABLE_X, SEPARABLE_Y)
        assert (a.weights_ == b.weights_).all()
        assert (a.bias_ == b.bias_).all()

    def test_different_seeds_may_differ_but_stay_correct(self):
        for seed in (1, 2, 3):
            model = LinearSvm(seed=seed).fit(SEPARABLE_X, SEPARABLE_Y)
            assert model.predict(SEPARABLE_X) == SEPARABLE_Y
