"""Random forest: memorization, split choice vs brute-force Gini, determinism,
and equality with the row-gather reference split search."""

import contextlib
import hashlib
import json
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_reference
from sentibench.artifacts import load_model, save_model
from sentibench.models import RandomForest, forest
from sentibench.models.base import check_X_y, check_vectors
from sentibench.vectorize import CsrMatrix
from helpers import as_version_1, csr, from_dense, load_doc, model_doc


def forms(model) -> list:
    """The fitted model, and the model loaded back from its version 2
    artifact and from the same forest as a version 1 artifact."""
    doc = model_doc(model)
    return [model, load_doc(doc), load_doc(as_version_1(doc))]


def tree_depth(tree) -> int:
    depth, frontier = 0, np.array([0])
    while True:
        frontier = frontier[tree.feature[frontier] >= 0]
        if frontier.size == 0:
            return depth
        frontier = np.concatenate([tree.left[frontier], tree.right[frontier]])
        depth += 1


def weighted_gini_for_split(dense, y_idx, feature, threshold):
    left = y_idx[dense[:, feature] <= threshold]
    right = y_idx[dense[:, feature] > threshold]
    total = len(y_idx)

    def gini(group):
        if len(group) == 0:
            return 0.0
        p = np.bincount(group, minlength=3) / len(group)
        return 1.0 - float((p**2).sum())

    return len(left) / total * gini(left) + len(right) / total * gini(right)


def brute_force_best_root(dense, y_idx):
    """Exhaustive (feature, midpoint-threshold) search minimizing Gini."""
    best = (np.inf, None, None)
    for f in range(dense.shape[1]):
        values = np.unique(dense[:, f])
        for a, b in zip(values[:-1], values[1:]):
            thr = (a + b) / 2.0
            score = weighted_gini_for_split(dense, y_idx, f, thr)
            if score < best[0]:
                best = (score, f, thr)
    return best


class TestMemorization:
    def test_single_tree_memorizes_consistent_data(self):
        rng = np.random.default_rng(8)
        rows, y = [], []
        labels = ("negative", "neutral", "positive")
        for i in range(30):
            # unique indicator feature per sample keeps the data consistent
            pairs = [(i, 1.0)] + [
                (30 + j, float(rng.integers(0, 3))) for j in range(4)
                if rng.random() < 0.5
            ]
            rows.append([(a, b) for a, b in pairs if b != 0.0])
            y.append(labels[rng.integers(0, 3)])
        X = csr(34, rows)
        model = RandomForest(
            n_trees=1, bootstrap=False, max_depth=None, max_features=34, seed=0
        ).fit(X, y)
        assert model.predict(X) == y


class TestPerfectFeature:
    def build(self):
        rng = np.random.default_rng(17)
        rows, y = [], []
        for i in range(60):
            label = "positive" if i % 2 else "negative"
            pairs = [(5, 1.0)] if label == "positive" else []
            pairs += [
                (j, float(rng.integers(0, 4)))
                for j in range(10)
                if j != 5 and rng.random() < 0.5
            ]
            rows.append([(a, b) for a, b in pairs if b != 0.0])
            y.append(label)
        return csr(10, rows), y

    def test_every_root_split_uses_the_deciding_feature(self):
        X, y = self.build()
        model = RandomForest(n_trees=10, max_features=10, seed=1).fit(X, y)
        for form in forms(model):
            assert [tree.feature[0] for tree in form.trees_] == [5] * 10

    def test_root_choice_matches_brute_force_gini(self):
        X, y = self.build()
        dense = X.toarray()
        y_idx = np.array([0 if label == "negative" else 2 for label in y])
        _, best_feature, _ = brute_force_best_root(dense, y_idx)
        assert best_feature == 5
        model = RandomForest(n_trees=1, bootstrap=False, max_features=10, seed=1).fit(X, y)
        for form in forms(model):
            root = form.trees_[0]
            assert root.feature[0] == 5
            assert root.threshold[0] == 0.5  # midpoint of observed {0, 1}

    def test_forest_fits_training_data(self):
        X, y = self.build()
        model = RandomForest(n_trees=10, max_features=10, seed=1).fit(X, y)
        assert model.predict(X) == y


class TestThresholdsAreMidpoints:
    def test_observed_value_midpoints_only(self):
        X = csr(1, [[(0, v)] if v else [] for v in (0.0, 2.0, 4.0, 2.0, 0.0, 4.0)])
        y = ["negative", "neutral", "positive", "neutral", "negative", "positive"]
        model = RandomForest(
            n_trees=1, bootstrap=False, max_depth=None, max_features=1, seed=0
        ).fit(X, y)
        for form in forms(model):
            tree = form.trees_[0]
            assert sorted(tree.threshold[tree.feature >= 0]) == [1.0, 3.0]
            assert form.predict(X) == y


class TestDepthAndVotes:
    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(3)
        X = csr(6, [[(j, float(rng.integers(1, 5))) for j in range(6) if rng.random() < 0.6]
                    for _ in range(40)])
        y = [("negative", "neutral", "positive")[i] for i in rng.integers(0, 3, 40)]
        model = RandomForest(n_trees=3, max_depth=2, max_features=6, seed=2).fit(X, y)
        for form in forms(model):
            assert max(tree_depth(tree) for tree in form.trees_) <= 2

    def test_vote_fractions(self):
        rng = np.random.default_rng(5)
        X = csr(4, [[(j, float(rng.integers(1, 3))) for j in range(4) if rng.random() < 0.7]
                    for _ in range(25)])
        y = [("negative", "neutral", "positive")[i] for i in rng.integers(0, 3, 25)]
        model = RandomForest(n_trees=10, seed=7).fit(X, y)
        for scores in model._score_matrix(check_vectors(X[:5], dims=model.dims)).tolist():
            assert sum(scores) == pytest.approx(1.0, abs=1e-12)
            for value in scores:
                assert (value * 10) == pytest.approx(round(value * 10), abs=1e-9)

    def test_all_zero_vectors_predict_majority(self):
        # bootstrap off so every tree sees the true label distribution
        X = csr(3, [[] for _ in range(5)])
        y = ["positive", "positive", "positive", "negative", "neutral"]
        model = RandomForest(n_trees=5, bootstrap=False, seed=0).fit(X, y)
        assert model.predict(csr(3, [[]]))[0] == "positive"


class TestDeterminism:
    def test_same_seed_identical_forest(self):
        rng = np.random.default_rng(13)
        X = csr(8, [[(j, float(rng.integers(1, 4))) for j in range(8) if rng.random() < 0.5]
                    for _ in range(50)])
        y = [("negative", "neutral", "positive")[i] for i in rng.integers(0, 3, 50)]
        a = RandomForest(n_trees=8, seed=21).fit(X, y)
        b = RandomForest(n_trees=8, seed=21).fit(X, y)
        assert model_doc(a) == model_doc(b)
        probe = csr(8, [[(j, 1.0) for j in range(8)]])
        assert a.predict(probe) == b.predict(probe)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)
        with pytest.raises(ValueError):
            RandomForest(max_depth=0)
        with pytest.raises(ValueError):
            RandomForest(max_features=0)


LABELS = ("negative", "neutral", "positive")
# Repeated values, negatives, explicit zeros and a 1-ulp gap above 1.0.
VALUES = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 3.0])


@st.composite
def sparse_problems(draw):
    """A small canonical CSR matrix with possibly empty rows, the same
    entries in drawn (unsorted) order, its labels and forest hyperparameters."""
    n = draw(st.integers(1, 12))
    dims = draw(st.integers(1, 7))
    entry = st.tuples(st.integers(0, dims - 1), VALUES | st.floats(-4, 4, width=16))
    rows = [draw(st.lists(entry, max_size=dims, unique_by=lambda e: e[0])) for _ in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([j for r in rows for j, _ in r], dtype=np.int32)
    data = np.array([v for r in rows for _, v in r], dtype=np.float64)
    drawn = CsrMatrix(data, indices, indptr, (n, dims))
    y = [LABELS[i] for i in draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))]
    hp = {
        "n_trees": draw(st.integers(1, 3)),
        "max_depth": draw(st.sampled_from([None, 1, 3])),
        "max_features": draw(st.none() | st.integers(1, dims + 2)),
        "bootstrap": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }
    return csr(dims, rows), drawn, y, hp


def assert_same_tree(a, b):
    for name in forest._Tree.__slots__:
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


class TestMatchesRowGatherReference:
    @settings(max_examples=150, deadline=None)
    @given(sparse_problems())
    def test_fit_builds_the_reference_trees(self, problem):
        X, _, y, hp = problem
        new = RandomForest(**hp).fit(X, y)
        ref = forest_reference.fit_trees(X, y, **hp)
        assert len(new.trees_) == len(ref) == hp["n_trees"]
        for a, b in zip(new.trees_, ref):
            assert_same_tree(a, b)

    @settings(max_examples=150, deadline=None)
    @given(sparse_problems())
    def test_grow_tree_on_raw_unsorted_csr(self, problem):
        X, drawn, y, hp = problem
        y_idx = np.array([LABELS.index(label) for label in y])
        dims = X.shape[1]
        k = math.isqrt(dims - 1) + 1 if hp["max_features"] is None else hp["max_features"]
        model = RandomForest(
            n_trees=1, max_depth=hp["max_depth"], max_features=hp["max_features"],
            bootstrap=False, seed=hp["seed"],
        ).fit(X, y)
        ref = forest_reference._grow_tree(
            drawn, y_idx, min(k, dims), hp["max_depth"], np.random.default_rng([hp["seed"], 3, 0])
        )
        assert_same_tree(model.trees_[0], ref)

    @settings(max_examples=150, deadline=None)
    @given(sparse_problems(), st.data())
    def test_score_matrix_matches_the_per_tree_routing(self, problem, data):
        X, _, y, hp = problem
        model = RandomForest(**hp).fit(X, y)
        dims = X.shape[1]
        probe = data.draw(st.lists(st.lists(VALUES, min_size=dims, max_size=dims), max_size=8))
        inputs = (X, from_dense(np.array(probe).reshape(len(probe), dims)),
                  from_dense(np.zeros((0, dims))))
        for rows in inputs:
            csr = check_vectors(rows)
            want = forest_reference.score_matrix(model.trees_, csr)
            # One block, then blocks of 1, 2 and 3 rows: most inputs end on
            # a partial block.
            for block in (forest._BLOCK, *(k * (dims + hp["n_trees"]) for k in (1, 2, 3))):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(forest, "_BLOCK", block)
                    got = model._score_matrix(csr)
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestScoreBlocks:
    def test_blocks_stay_within_the_budget_and_cover_the_rows_in_order(self, monkeypatch):
        rng = np.random.default_rng(5)
        n, dims = 700, 1000
        dense = rng.choice([0.25, 0.5, 1.0], size=(n, dims)) * (rng.random((n, dims)) < 0.02)
        dense[:, 0] = np.arange(1, n + 1)  # every row distinct
        X = from_dense(dense)
        assert n * dims > forest._BLOCK
        y = [LABELS[i] for i in rng.integers(0, 3, n)]
        model = RandomForest(n_trees=3, max_depth=6, seed=2).fit(X, y)
        want = forest_reference.score_matrix(model.trees_, X)

        blocks = []
        toarray = CsrMatrix.toarray

        def spy(self):
            blocks.append(toarray(self))
            return blocks[-1]

        monkeypatch.setattr(CsrMatrix, "toarray", spy)
        got = model._score_matrix(X)
        assert len(blocks) > 1
        assert all(block.size <= forest._BLOCK for block in blocks)
        assert np.array_equal(np.concatenate(blocks), dense)
        assert np.array_equal(got, want)


class TestLockstep:
    def test_a_tree_does_not_depend_on_its_batch_mates(self):
        X, y = golden_matrix()
        many = RandomForest(n_trees=20, max_depth=None, seed=9).fit(X, y)
        few = RandomForest(n_trees=5, max_depth=None, seed=9).fit(X, y)
        for a, b in zip(many.trees_[:5], few.trees_):
            assert_same_tree(a, b)

    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_no_features_gives_single_leaf_majority_trees(self, bootstrap):
        # An empty vocabulary: 0 dims, as all-stop-word training text gives.
        X = csr(0, [[]] * 6)
        y = ["positive", "positive", "positive", "negative", "neutral", "neutral"]
        model = RandomForest(n_trees=4, bootstrap=bootstrap, seed=3).fit(X, y)
        ref = forest_reference.fit_trees(X, y, n_trees=4, bootstrap=bootstrap, seed=3)
        for tree, want in zip(model.trees_, ref):
            assert tree.feature.tolist() == [-1]
            assert tree.counts.sum() == 6
            assert_same_tree(tree, want)
        if not bootstrap:
            assert model.predict(csr(0, [[], []])) == ["positive", "positive"]


def golden_matrix():
    rng = np.random.default_rng(20211001)
    dense = rng.choice([-1.5, 0.25, 0.5, 1.0, 2.0], size=(90, 24))
    dense[rng.random((90, 24)) < 0.7] = 0.0
    dense[:, :6] += rng.normal(size=(90, 6)) * (rng.random((90, 6)) < 0.3)
    labels = [LABELS[i] for i in rng.integers(0, 3, 90)]
    return from_dense(dense), labels


GOLDEN_HP = [
    {"n_trees": 6, "max_depth": None, "seed": 5},
    {"n_trees": 6, "max_depth": 3, "bootstrap": False, "max_features": 30, "seed": 2},
]
# sha256 of each forest's artifact, as format version 1 wrote it (indented,
# nested trees; taken with the row-gather split search) and as saved today.
GOLDEN_DIGESTS = [
    ("1b8365a86e3124c9f351a7f336b959b3d672a4363d76acf46487bfc803aeaa03",
     "a1049c513e9bfc401b6f2a8e2015606dcd9a248adfec5690919b855c979715ac"),
    ("145d3738ba00283bc2ef3235723dabca9434b9ef9554cce7cf18a8e746e2efc9",
     "1a1544d875408fde17339e15b2f82c6f6155486d91d7569fdb3433bada4f13e3"),
]


class TestGoldenArtifact:
    @pytest.mark.parametrize("hp, v1_digest, digest", [
        pytest.param(hp, v1, v2, id=f"hp{i}-{v1}")
        for i, (hp, (v1, v2)) in enumerate(zip(GOLDEN_HP, GOLDEN_DIGESTS))
    ])
    def test_artifact_digest(self, hp, v1_digest, digest, tmp_path):
        X, y = golden_matrix()
        path = tmp_path / "model.json"
        save_model(RandomForest(**hp).fit(X, y), str(path), "bow")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        legacy = as_version_1(json.loads(path.read_text()))
        text = json.dumps(legacy, sort_keys=True, indent=1)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == v1_digest


class TestDeepTree:
    def test_a_tree_deeper_than_the_recursion_limit_saves_and_loads(self, tmp_path):
        # Distinct values with cycling labels: each split peels off one row,
        # so the tree is a chain 1,499 levels deep.
        n = 1500
        X = from_dense(np.arange(1.0, n + 1.0)[:, None])
        y = [LABELS[i % 3] for i in range(n)]
        model = RandomForest(n_trees=1, max_depth=None, bootstrap=False, seed=0).fit(X, y)
        assert tree_depth(model.trees_[0]) == n - 1
        path = tmp_path / "deep.json"
        save_model(model, str(path), "bow")
        assert load_model(str(path)).predict(X) == model.predict(X) == y


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"not finished within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestNonCanonicalInput:
    def test_duplicate_entries_are_refused_within_the_time_limit(self):
        # Row 0 stores feature 0 five times, row 1 four times.
        X = CsrMatrix(
            [1.0, 2.0, 2.0, 2.0, 1.0, -1.0, 1.0, -1.0, 2.0], np.zeros(9, dtype=np.int32),
            [0, 5, 9], (2, 1),
        )
        with time_limit(10.0), pytest.raises(ValueError, match="malformed 2 x 1 CsrMatrix"):
            RandomForest(n_trees=2, max_depth=None, seed=0).fit(X, ["neutral", "negative"])

    def test_check_x_y_leaves_the_callers_matrix_alone(self):
        X = CsrMatrix([3.0, 1.0, 2.0, 2.0], [2, 0, 1, 1], [0, 2, 4], (2, 3))
        before = [a.copy() for a in (X.data, X.indices, X.indptr)]
        with pytest.raises(ValueError, match="malformed 2 x 3 CsrMatrix"):
            check_X_y(X, ["negative", "positive"])
        for got, want in zip((X.data, X.indices, X.indptr), before):
            assert np.array_equal(got, want)
