"""Linear SVM: subgradient correctness, separability, tie-breaking."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svm_reference
from sentibench import CsrMatrix, LinearSvm, TrainingError
from sentibench.models import check_vectors, svm
from sentibench.models.svm import _pegasos_binary
from svm_reference import hinge_sample_objective, hinge_sample_subgradient
from helpers import (LONG_ROW, canonical_csr, csr, from_dense, needs_openblas_threads,
                     random_csr, run_with_blas_threads)

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
        X = csr(2, [[(0, 2.0), (1, 4.0)]])
        scores = model._score_matrix(check_vectors(X, dims=model.dims))[0]
        assert scores.tolist() == [2.0, -7.0, 2.0]  # negative, neutral, positive


class TestSeparableTraining:
    def test_reaches_full_training_accuracy(self):
        model = LinearSvm(seed=5).fit(SEPARABLE_X, SEPARABLE_Y)
        assert model.predict(SEPARABLE_X) == SEPARABLE_Y


class TestSignFlipSymmetry:
    def test_negated_weights_flip_margins(self):
        augmented = np.hstack([SEPARABLE_X.toarray(), np.ones((6, 1))])
        y_pm = np.where(np.array([0, 0, 1, 1, 2, 2]) == 0, 1.0, -1.0)
        rng = np.random.default_rng(2)
        w = _pegasos_binary(from_dense(augmented), y_pm, 1e-4, 10, rng)
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
                from_dense(dense), y_pm, lam, 3, np.random.default_rng(1)
            )
            want = svm_reference.pegasos(dense, y_pm, lam, 3, np.random.default_rng(1))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@st.composite
def binary_problems(draw):
    """A canonical CSR matrix, +-1 labels, lam, epochs and an RNG seed."""
    n = draw(st.integers(1, 24))
    X = draw(canonical_csr(n, unit=draw(st.booleans())))
    y_pm = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    lam = draw(st.sampled_from([1e-4, 0.5]))
    return X, y_pm, lam, draw(st.integers(1, 3)), draw(st.integers(0, 2**16))


def every_row_length(unit: bool, lam: float):
    """One row of each length 1..LONG_ROW, so every ddot block size runs."""
    X = random_csr(range(1, LONG_ROW + 1), unit, seed=3)
    y_pm = np.random.default_rng(4).choice([-1.0, 1.0], size=LONG_ROW)
    return X, y_pm, lam, 2, 5


# A step of this problem has a margin within rounding of 1.0, so its weights
# change if the dot product is summed in any order but one ddot call's (a
# left-to-right Python sum does). Random floats almost never land there.
MARGIN_ON_THE_HINGE = (
    csr(40, [
        [(10, 0.5), (16, 0.5), (27, 0.2), (28, 0.1), (32, 0.1), (34, 0.2)],
        [(0, 0.7), (1, 0.1), (3, 0.3), (4, 0.5), (5, 1.0), (9, 1.0), (11, 0.5), (13, 0.1),
         (16, 0.3), (20, 0.5), (21, 0.1), (22, 0.2), (26, 0.3), (27, 0.5), (35, 0.7), (36, 0.2)],
        [(4, 0.7), (8, 0.5), (9, 0.7), (16, 0.3), (21, 0.5), (31, 0.5), (33, 1.0), (36, 0.3)],
        [(2, 0.3), (5, 0.2), (7, 0.2), (12, 0.5), (13, 0.1), (14, 0.5), (15, 0.2), (16, 0.2),
         (17, 0.3), (18, 0.7), (21, 0.5), (23, 0.3), (24, 0.1), (25, 0.3), (26, 0.2), (29, 0.1),
         (30, 0.1), (32, 0.7), (36, 0.3), (39, 0.5)],
    ]),
    np.array([-1.0, 1.0, 1.0, -1.0]), 0.5, 2, 13518,
)


class TestMatchesSparseReference:
    @settings(max_examples=80, deadline=None)
    @given(binary_problems())
    @example(every_row_length(unit=True, lam=1e-4))
    @example(every_row_length(unit=False, lam=0.5))
    @example(MARGIN_ON_THE_HINGE)
    def test_weights_are_bit_identical(self, problem):
        X, y_pm, lam, epochs, seed = problem
        got = _pegasos_binary(X, y_pm, lam, epochs, np.random.default_rng(seed))
        want = svm_reference.pegasos_sparse(X, y_pm, lam, epochs, np.random.default_rng(seed))
        assert np.array_equal(got, want)


def with_ids(X, dtype) -> CsrMatrix:
    """``X`` with its column ids stored as ``dtype``."""
    return CsrMatrix(X.data, X.indices.astype(dtype), X.indptr, X.shape)


class TestColumnIdDtype:
    """The trainer gathers and scatters by intp ids; the vectorizers' ids
    are int32. Either dtype must give the same bits."""

    @pytest.mark.parametrize("unit", [True, False], ids=["bow-like", "fractional"])
    def test_fit_is_bit_identical_for_int32_and_int64_ids(self, unit):
        X = random_csr(np.random.default_rng(6).integers(1, 16, 90), unit, seed=7)
        y = [("negative", "neutral", "positive")[i % 3] for i in range(90)]
        a = LinearSvm(epochs=3, seed=2).fit(with_ids(X, np.int32), y)
        b = LinearSvm(epochs=3, seed=2).fit(with_ids(X, np.int64), y)
        assert a.weights_.tobytes() == b.weights_.tobytes()
        assert a.bias_.tobytes() == b.bias_.tobytes()

    @pytest.mark.parametrize("unit", [True, False], ids=["bow-like", "fractional"])
    def test_pegasos_binary_is_bit_identical_for_int32_and_intp_ids(self, unit):
        X, y_pm, lam, epochs, seed = every_row_length(unit, lam=1e-4)
        a, b = (
            _pegasos_binary(with_ids(X, dtype), y_pm, lam, epochs, np.random.default_rng(seed))
            for dtype in (np.int32, np.intp)
        )
        assert a.tobytes() == b.tobytes()

    def test_fit_passes_intp_ids_to_the_steps(self, monkeypatch):
        seen = []

        def spy(csr, *args):
            seen.append(csr.indices.dtype)
            return _pegasos_binary(csr, *args)

        monkeypatch.setattr(svm, "_pegasos_binary", spy)
        assert SEPARABLE_X.indices.dtype == np.int32
        LinearSvm(epochs=1).fit(SEPARABLE_X, SEPARABLE_Y)
        assert seen == [np.dtype(np.intp)] * 3


# Row 0 is 12,000 ones and row 1's entries sum to 0 up to rounding. Both rows
# are -1 to the neutral machine, whose second step sees the margin sum(row 1)
# plus the bias's 1.0: whether that step updates hangs on the last bits of one
# ddot over 12,001 entries. OpenBLAS splits a ddot over more than 10,000
# entries across its threads, and so sums it in another order.
FIT_ON_A_LONG_ROW = """
from sentibench import CsrMatrix, LinearSvm  # first: NumPy imported before keeps its pool
import hashlib, math
import numpy as np
n = 12_000
row = np.random.default_rng(0).uniform(-1000, 1000, n)
row[0] -= math.fsum(row)
X = CsrMatrix(np.concatenate([np.ones(n), row]), np.tile(np.arange(n), 2),
              np.array([0, n, 2 * n]), (2, n))
model = LinearSvm(lam=1.0, epochs=1).fit(X, ["negative", "positive"])
print(hashlib.sha256(model.weights_.tobytes() + model.bias_.tobytes()).hexdigest())
"""


@needs_openblas_threads
class TestOneBlasThread:
    def test_long_row_fit_is_the_one_thread_fit(self):
        # unset, the variable is 1 once sentibench is imported; with the 2
        # threads OpenBLAS picks on a 2-CPU machine, this fit's weights differ
        assert (run_with_blas_threads(FIT_ON_A_LONG_ROW, None)
                == run_with_blas_threads(FIT_ON_A_LONG_ROW, "1"))


class TestErrorsAndValidation:
    def test_single_class_data_rejected(self):
        X = csr(2, [[(0, 1.0)], [(1, 1.0)]])
        with pytest.raises(TrainingError, match="two distinct"):
            LinearSvm().fit(X, ["positive", "positive"])

    def test_non_finite_weights_rejected(self):
        # a subnormal lambda makes the first step size 1 / (lambda * t) infinite;
        # a RuntimeWarning from the overflow would fail this test
        model = LinearSvm(lam=1e-320, epochs=2)
        with pytest.raises(TrainingError, match="non-finite svm weights"):
            model.fit(SEPARABLE_X, SEPARABLE_Y)
        assert not hasattr(model, "weights_")

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
