"""Contracts every classifier variant honors."""

import math

import numpy as np
import pytest

from sentibench.artifacts import load_model, save_model
from sentibench.corpus import POLARITIES
from sentibench.errors import ArtifactError, DimensionMismatchError, TrainingError
from sentibench.models import (
    MODEL_CLASSES, MODEL_KINDS, MultinomialNaiveBayes, SoftmaxRegression, check_vectors,
    check_X_y,
)
from sentibench.vectorize import CsrMatrix
from helpers import as_version_1, csr, load_doc, model_doc

DIMS = 6


def training_set(n=40, seed=0):
    rng = np.random.default_rng(seed)
    rows, y = [], []
    for _ in range(n):
        rows.append([
            (j, float(rng.integers(1, 4))) for j in range(DIMS) if rng.random() < 0.6
        ])
        y.append(POLARITIES[rng.integers(0, 3)])
    return csr(DIMS, rows), y


def probes(n=50, seed=1):
    rng = np.random.default_rng(seed)
    return csr(DIMS, [
        [(j, float(rng.uniform(0.2, 3))) for j in range(DIMS) if rng.random() < 0.6]
        for _ in range(n)
    ])


def small_hyperparams(kind):
    return {
        "svm": {"epochs": 5},
        "logreg": {"epochs": 5},
        "mnb": {},
        "rf": {"n_trees": 5},
    }[kind]


@pytest.fixture(scope="module")
def fitted_models():
    X, y = training_set()
    models = {}
    for kind in MODEL_KINDS:
        models[kind] = MODEL_CLASSES[kind](seed=3, **small_hyperparams(kind)).fit(X, y)
    return models


class TestPredictScoreAgreement:
    def test_argmax_of_scores_is_predict(self, fitted_models):
        for kind, model in fitted_models.items():
            vectors = probes()
            scores = model._score_matrix(check_vectors(vectors, dims=model.dims))
            preds = model.predict(vectors)
            for row, pred in zip(scores.tolist(), preds):
                best = max(range(len(POLARITIES)), key=lambda c: (row[c], -c))
                assert pred == POLARITIES[best], kind

    def test_probabilistic_scores_sum_to_one(self, fitted_models):
        vectors = probes(1000, seed=9)
        for kind in ("mnb", "logreg", "rf"):
            model = fitted_models[kind]
            for row in model._score_matrix(check_vectors(vectors, dims=model.dims)).tolist():
                assert sum(row) == pytest.approx(1.0, abs=1e-9), kind


class TestDeterminism:
    def test_retraining_reproduces_heldout_predictions(self):
        X, y = training_set()
        held_out = probes(30, seed=4)
        for kind in MODEL_KINDS:
            a = MODEL_CLASSES[kind](seed=11, **small_hyperparams(kind)).fit(X, y)
            b = MODEL_CLASSES[kind](seed=11, **small_hyperparams(kind)).fit(X, y)
            assert a.predict(held_out) == b.predict(held_out), kind


class TestPersistence:
    def test_round_trip_preserves_predictions(self, fitted_models, tmp_path):
        vectors = probes(25, seed=6)
        for kind, model in fitted_models.items():
            path = tmp_path / f"{kind}.json"
            save_model(model, str(path), "bow")
            loaded = load_model(str(path))
            assert loaded.predict(vectors) == model.predict(vectors), kind
            assert loaded.get_params() == model.get_params(), kind

    def test_resave_is_byte_identical(self, fitted_models, tmp_path):
        for kind, model in fitted_models.items():
            first = tmp_path / f"{kind}_1.json"
            second = tmp_path / f"{kind}_2.json"
            save_model(model, str(first), "bow")
            save_model(load_model(str(first)), str(second), "bow")
            assert first.read_bytes() == second.read_bytes(), kind

    @pytest.mark.parametrize("kind, key", [
        ("svm", "weights"), ("logreg", "bias"), ("mnb", "class_log_prior"), ("rf", "trees"),
    ])
    def test_missing_params_key_is_artifact_error(self, fitted_models, kind, key):
        doc = model_doc(fitted_models[kind])
        del doc["params"][key]
        with pytest.raises(ArtifactError, match=key):
            load_doc(doc)

    def test_wrong_field_types_are_artifact_errors(self, fitted_models):
        for kind, corrupt in (
            ("svm", lambda d: d.update(dims="many")),
            ("rf", lambda d: d["params"].update(trees=5)),
            ("rf", lambda d: d["params"]["trees"].__setitem__(0, {"feature": "f"})),
            ("logreg", lambda d: d.update(hyperparameters=[1, 2])),
            ("mnb", lambda d: d["params"].update(class_log_prior=[[0.5], 1.0])),
        ):
            doc = model_doc(fitted_models[kind])
            corrupt(doc)
            with pytest.raises(ArtifactError):
                load_doc(doc)
        with pytest.raises(ArtifactError):
            load_doc(["not", "a", "mapping"])

    def test_unknown_hyperparameter_is_artifact_error(self, fitted_models):
        doc = model_doc(fitted_models["logreg"])
        doc["hyperparameters"]["bogus"] = 1
        with pytest.raises(ArtifactError, match="bogus"):
            load_doc(doc)

    def test_bad_artifacts_rejected(self, fitted_models):
        model = fitted_models["mnb"]
        doc = model_doc(model)
        for corruption in (
            {"format": "other"},
            {"version": 99},
            {"version": True},
            {"version": 1.0},
            {"class_order": ["positive", "neutral", "negative"]},
            {"variant": "perceptron"},
        ):
            bad = {**doc, **corruption}
            with pytest.raises(ArtifactError):
                load_doc(bad)

    def test_forest_tree_count_and_leaf_counts_are_checked(self, fitted_models):
        # Each case as version 2 lists and as a version 1 nested record.
        leaf = {"feature": [-1], "threshold": [0.0], "left": [-1], "counts": [[1, 2, 0]]}
        v1_leaf = {"class": "neutral", "counts": [1, 2, 0]}
        for version, one_leaf in ((2, leaf), (1, v1_leaf)):
            for corrupt in (
                lambda d: d["params"]["trees"].pop(),
                lambda d: d["params"]["trees"].__setitem__(
                    0, {**one_leaf, "counts": [1, 2] if version == 1 else [[1, 2]]}),
                lambda d: d["params"]["trees"].__setitem__(
                    0, {**one_leaf, "counts": [1, -2, 0] if version == 1 else [[1, -2, 0]]}),
            ):
                doc = self.forest_doc(fitted_models, version)
                corrupt(doc)
                with pytest.raises(ArtifactError):
                    load_doc(doc)
            doc = self.forest_doc(fitted_models, version)
            doc["params"]["trees"][0] = one_leaf
            assert load_doc(doc).trees_[0].counts.tolist() == [[1, 2, 0]]

    @staticmethod
    def forest_doc(fitted_models, version: int) -> dict:
        doc = model_doc(fitted_models["rf"])
        return as_version_1(doc) if version == 1 else doc

    def test_vectorizer_kind_is_checked(self, fitted_models):
        doc = model_doc(fitted_models["svm"])
        assert load_doc(doc, "bow").dims == DIMS
        with pytest.raises(ArtifactError, match="trained on bow vectors.*is tfidf"):
            load_doc(doc, "tfidf")
        for bad in ({"vectorizer": "word2vec"}, {"vectorizer": ["bow"]}):
            with pytest.raises(ArtifactError, match="vectorizer"):
                load_doc({**doc, **bad})
        del doc["vectorizer"]
        with pytest.raises(ArtifactError, match="vectorizer"):
            load_doc(doc)
        # Version 1 recorded no vectorizer kind: only the dims check remains.
        assert load_doc(as_version_1(doc), "tfidf").dims == DIMS

    @pytest.mark.parametrize("kind, key", [
        ("svm", "weights"), ("svm", "bias"), ("logreg", "weights"), ("logreg", "bias"),
        ("mnb", "class_log_prior"), ("mnb", "feature_log_likelihood"), ("logreg", "epoch_losses"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_are_artifact_errors(self, fitted_models, kind, key, bad):
        doc = model_doc(fitted_models[kind])
        values = doc["params"][key]
        (values[0] if isinstance(values[0], list) else values)[0] = bad
        with pytest.raises(ArtifactError, match=f"{key} holds a value that is not finite"):
            load_doc(doc)

    @pytest.mark.parametrize("kind, key, bad", [
        ("rf", "feature", 2**63), ("rf", "left", -2**63 - 1), ("rf", "threshold", 10**400),
        ("svm", "weights", 10**400), ("mnb", "class_log_prior", -10**400),
    ])
    def test_out_of_range_params_are_artifact_errors_naming_the_field(
            self, fitted_models, kind, key, bad):
        # an int past int64, or past float64's range, as numpy would overflow on it
        doc = model_doc(fitted_models[kind])
        params = doc["params"]["trees"][0] if kind == "rf" else doc["params"]
        values = params[key]
        (values[0] if isinstance(values[0], list) else values)[0] = bad
        message = f"ValueError: (tree )?{key} holds a number out of range"
        with pytest.raises(ArtifactError, match=message):
            load_doc(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_model(str(tmp_path / "none.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError):
            load_model(str(path))


class TestValidationHelpers:
    def test_dims_mismatch_on_predict(self, fitted_models):
        for kind, model in fitted_models.items():
            with pytest.raises(DimensionMismatchError):
                model.predict(csr(DIMS + 1, [[(0, 1.0)]]))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("ids, indptr", [
        (np.array([0.5, 1.0, 0.0]), [0, 2, 3]),
        (np.array([False, True, False]), [0, 2, 3]),
        ([0.5, 1.0, 0.0], [0, 2, 3]),
        ([0, 1, 2], [0, 1.5, 3]),
    ], ids=["float", "bool", "float list", "float indptr"])
    def test_non_integer_column_ids_are_refused(self, fitted_models, kind, ids, indptr):
        X = CsrMatrix([1.0, 2.0, 3.0], ids, indptr, (2, DIMS))
        malformed = f"malformed 2 x {DIMS} CsrMatrix"
        with pytest.raises(ValueError, match=malformed):
            MODEL_CLASSES[kind](**small_hyperparams(kind)).fit(X, ["negative", "positive"])
        with pytest.raises(ValueError, match=malformed):
            fitted_models[kind].predict(X)

    def test_check_x_y_contract(self):
        X, y = training_set(10)
        matrix, y_idx = check_X_y(X, y)
        assert matrix.shape == (10, DIMS)
        assert [POLARITIES[i] for i in y_idx] == y
        with pytest.raises(TrainingError):
            check_X_y(X, y[:-1])
        with pytest.raises(TrainingError):
            check_X_y(csr(DIMS, []), [])
        with pytest.raises(TrainingError):
            check_X_y(X[:1], ["meh"])

    def test_model_classes_map_each_kind_to_its_class(self):
        assert MODEL_KINDS == tuple(MODEL_CLASSES) == ("svm", "mnb", "rf", "logreg")
        for kind, cls in MODEL_CLASSES.items():
            assert cls.variant == kind

    def test_get_set_params(self):
        model = SoftmaxRegression(seed=5)
        params = model.get_params()
        assert params["seed"] == 5
        model = SoftmaxRegression(seed=5, epochs=3)
        assert model.get_params()["epochs"] == 3

    def test_unfitted_model_refuses_prediction(self):
        model = MultinomialNaiveBayes()
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict(csr(2, [[(0, 1.0)]]))


def messy_copy(csr):
    """Same matrix with each row's entries reversed (unsorted indices) and
    its first entry stored twice as two halves (a duplicate entry)."""
    data, indices, indptr = [], [], [0]
    for i in range(csr.shape[0]):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        vals, cols = list(csr.data[lo:hi][::-1]), list(csr.indices[lo:hi][::-1])
        if vals:
            vals[-1] /= 2.0
            vals.append(vals[-1])
            cols.append(cols[-1])
        data += vals
        indices += cols
        indptr.append(len(data))
    return CsrMatrix(data, np.array(indices, dtype=np.int32), indptr, csr.shape)


class TestNonCanonicalInput:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_fit_and_predict_refuse_and_leave_the_input_untouched(self, kind, fitted_models):
        clean, y = training_set()
        messy = messy_copy(clean)
        before = [a.copy() for a in (messy.data, messy.indices, messy.indptr)]
        with pytest.raises(ValueError, match=f"malformed 40 x {DIMS} CsrMatrix"):
            MODEL_CLASSES[kind](seed=3, **small_hyperparams(kind)).fit(messy, y)
        with pytest.raises(ValueError, match=f"malformed 40 x {DIMS} CsrMatrix"):
            fitted_models[kind].predict(messy)
        for after, original in zip((messy.data, messy.indices, messy.indptr), before):
            assert np.array_equal(after, original)
