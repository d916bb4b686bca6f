"""CsrMatrix against scipy.sparse, bit for bit.

Every operation the models use is held to scipy's result on the same
three arrays: row selection by a slice or an index array, ``X @ W.T``,
``delta.T @ X`` (scipy's ``(X.T @ delta).T``) and ``toarray``; and
``check_vectors`` takes a matrix as it is exactly when scipy finds it
canonical, and refuses it otherwise. scipy is a test dependency only: it
is the oracle here and nowhere in ``src/``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from sentibench import CsrMatrix, MultinomialNaiveBayes
from sentibench.models import check_vectors
from helpers import LONG_ROW, canonical_csr, csr, random_csr

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def matrices(draw) -> CsrMatrix:
    """A canonical CsrMatrix with unit or uniform values: rows of 1-LONG_ROW
    entries, or rows that may be empty (and no rows at all), or no columns."""
    unit = draw(st.booleans())
    shape = draw(st.sampled_from(["full rows", "empty rows", "zero dims"]))
    if shape == "full rows":
        return draw(canonical_csr(draw(st.integers(1, 8)), unit))
    if shape == "zero dims":
        return csr(0, [[]] * draw(st.integers(0, 4)))
    lengths = draw(st.lists(st.integers(0, LONG_ROW), max_size=8))
    return random_csr(lengths, unit, draw(SEEDS))


def scipy_of(X: CsrMatrix) -> sparse.csr_matrix:
    """A scipy copy: scipy may sort or sum its arrays in place."""
    return sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape, copy=True)


def assert_same_matrix(got: CsrMatrix, want) -> None:
    """Same shape, and the same three arrays value for value and bit for bit."""
    assert got.shape == want.shape
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.dtype == want.data.dtype == np.float64
    assert got.data.tobytes() == want.data.tobytes()


def assert_same_array(got: np.ndarray, want) -> None:
    """Same shape and bits, and C order: numpy sums an F-order array's rows
    in another order, so a caller's reduction would round differently."""
    want = np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(matrices(), SEEDS)
def test_products_match_scipy(X, seed):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-3, 3, (3, X.shape[1]))
    delta = rng.uniform(-1, 1, (X.shape[0], 3))
    S = scipy_of(X)
    assert_same_array(X @ W.T, S @ W.T)
    assert_same_array(delta.T @ X, (S.T @ delta).T)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_dense_copy_matches_scipy(X):
    assert_same_array(X.toarray(), scipy_of(X).toarray())


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_row_selection_matches_scipy(X, data):
    n = X.shape[0]
    S = scipy_of(X)
    start, stop = (data.draw(st.integers(-n - 2, n + 2)) for _ in range(2))
    step = data.draw(st.sampled_from([1, 1, 2, -1]))
    assert_same_matrix(X[start:stop:step], S[start:stop:step])
    picks = st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])
    rows = np.array(data.draw(picks), dtype=np.int64)  # repeats allowed, as a bootstrap draws
    assert_same_matrix(X[rows], S[rows])
    order = np.random.default_rng(n).permutation(n)
    assert_same_matrix(X[order], S[order])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rows_iterate_as_one_row_matrices(X):
    rows = list(X)
    assert len(X) == len(rows) == X.shape[0]
    assert sum(row.nnz for row in rows) == X.nnz == scipy_of(X).nnz
    for i, row in enumerate(rows):
        assert_same_matrix(row, scipy_of(X)[i:i + 1])


@settings(max_examples=200, deadline=None)
@given(matrices(), SEEDS)
def test_refusal_matches_scipy(X, seed):
    """Each row's entries shuffled, and some stored twice: ``check_vectors``
    refuses the copy exactly when scipy finds it not canonical."""
    assert check_vectors(X) is X
    rng = np.random.default_rng(seed)
    data, indices, indptr = [], [], [0]
    for row in X:
        pairs = [pair for pair in zip(row.indices.tolist(), row.data.tolist())
                 for _ in range(rng.integers(1, 3))]
        for k in rng.permutation(len(pairs)):
            indices.append(pairs[k][0])
            data.append(pairs[k][1])
        indptr.append(len(data))
    messy = CsrMatrix(data, np.array(indices, dtype=np.int32), indptr, X.shape)
    if scipy_of(messy).has_canonical_format:
        assert check_vectors(messy) is messy
    else:
        with pytest.raises(ValueError, match="malformed"):
            check_vectors(messy)


@pytest.mark.parametrize("rows", [
    pytest.param([[], [(0, 1.0), (4, 2.0)], [], [(2, 3.0)], []],
                 id="empty first, middle and last rows"),
    pytest.param([[(3, 1.0), (5, 2.0)], [(0, 4.0), (5, 5.0)], [(5, 6.0)]],
                 id="rows start at or below the column before them"),
    pytest.param([[(3, 1.0)]], id="one entry"),
])
def test_canonical_matrix_is_returned_as_is(rows):
    """``check_vectors`` compares columns within each row, not across a row start."""
    X = csr(6, rows)
    assert scipy_of(X).has_canonical_format
    assert check_vectors(X) is X


@pytest.mark.parametrize("indices,indptr", [
    ([0, 3, 3], [0, 0, 3, 3]),  # a repeated column in a middle row
    ([4, 2, 1, 0], [0, 1, 3, 4]),  # a falling pair in the middle row; each row starts lower
    ([1, 2, 0], [0, 3]),  # a falling pair at the end of the one row
    ([2, 1, 5], [0, 2, 2, 3]),  # a falling pair at the start, then an empty row
])
def test_non_canonical_matrix_is_refused(indices, indptr):
    data = np.arange(1.0, len(indices) + 1)
    messy = CsrMatrix(data, np.array(indices, dtype=np.int32), indptr, (len(indptr) - 1, 6))
    assert not scipy_of(messy).has_canonical_format
    with pytest.raises(ValueError, match="malformed"):
        check_vectors(messy)
    assert messy.indices.tolist() == indices and messy.data.tolist() == data.tolist()


@settings(max_examples=100, deadline=None)
@given(matrices(), SEEDS)
def test_naive_bayes_term_totals_match_scipy(X, seed):
    assume(X.shape[0] > 0)  # fit needs at least one row
    X = CsrMatrix(np.abs(X.data), X.indices, X.indptr, X.shape)  # weights must be >= 0
    labels = ("negative", "neutral", "positive")
    y_idx = np.random.default_rng(seed).integers(0, 3, X.shape[0])
    model = MultinomialNaiveBayes().fit(X, [labels[i] for i in y_idx])
    S = scipy_of(X)
    totals = np.zeros((3, X.shape[1]))
    for c in range(3):
        if (y_idx == c).any():
            totals[c] = np.asarray(S[np.flatnonzero(y_idx == c)].sum(axis=0)).ravel()
    smoothed = totals + 1.0
    assert_same_array(
        model.feature_log_likelihood_, np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    )
