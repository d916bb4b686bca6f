"""End-to-end command-line behavior: artifacts, reports, determinism, errors."""

import csv
import gc
import json
import math
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from sentibench import cli
from sentibench.artifacts import load_model, load_vectorizer
from sentibench.cli import main
from sentibench.corpus import Corpus
from sentibench.preprocess import TweetPreprocessor, load_stopwords
from sentibench.vectorize import BowVectorizer, TfidfVectorizer, TermCounts, _Vectorizer
from helpers import (FIXTURE_COUNTS, FIXTURE_CSV, SHORT_RUN, V1_ARTIFACTS, child_env,
                     needs_openblas_threads, run_with_blas_threads)

SEPARABLE_TEXTS = {
    "negative": "awful awful delay",
    "neutral": "gate update information",
    "positive": "wonderful wonderful crew",
}


def write_separable_csv(path: Path, copies: int = 4) -> str:
    rows = ["text,airline_sentiment"]
    for _ in range(copies):
        for label, text in SEPARABLE_TEXTS.items():
            rows.append(f"{text},{label}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


LONG_NAME = "x" * 300  # longer than a file system allows one name to be
MNB_BOW = ["--model", "mnb", "--vectorizer", "bow"]


def run(argv) -> int:
    return main([str(a) for a in argv])


class TestStats:
    def test_fixture_counts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["stats", "--data", FIXTURE_CSV, "--out-dir", out]) == 0
        stdout = capsys.readouterr().out
        assert "negative" in stdout and "40.00%" in stdout
        payload = json.loads((out / "stats.json").read_text())
        assert payload["counts"] == FIXTURE_COUNTS
        assert payload["total"] == 10
        assert (out / "stats.txt").exists()
        assert (out / "stats.csv").exists()

    def test_empty_corpus_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("text,airline_sentiment\n")
        code = run(["stats", "--data", data, "--out-dir", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[dataset]")
        assert "empty corpus" in err

    def test_empty_file_is_one_dataset_line(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        data.write_bytes(b"")
        assert run(["stats", "--data", data, "--out-dir", tmp_path / "o"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error[dataset]: {data}: file is empty, expected a header row\n"
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_malformed_csv_is_one_line_naming_the_data_row(self, tmp_path, capsys):
        data = tmp_path / "quotes.csv"
        data.write_text('text,airline_sentiment\ngood,positive\nbad,negative\n"x"y,neutral\n')
        assert run(["stats", "--data", data, "--out-dir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[dataset]")
        assert ": row 3: malformed CSV (line 4): " in err
        assert len(err.strip().splitlines()) == 1

    def test_format_subset(self, tmp_path):
        out = tmp_path / "out"
        run(["stats", "--data", FIXTURE_CSV, "--out-dir", out, "--format", "csv"])
        assert (out / "stats.csv").exists()
        assert not (out / "stats.json").exists()


class TestTrain:
    def test_artifacts_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run([
            "train", "--data", FIXTURE_CSV, "--model", "mnb", "--vectorizer", "bow",
            "--seed", 7, "--out-dir", out,
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "model_mnb_bow.json" in stdout and "vectorizer_bow.json" in stdout

        model = load_model(str(out / "model_mnb_bow.json"))
        vec, _ = load_vectorizer(str(out / "vectorizer_bow.json"))
        assert model.variant == "mnb"
        assert model.dims == vec.dims
        doc = json.loads((out / "vectorizer_bow.json").read_text())
        assert "preprocessing" in doc  # artifact is self-contained

    def test_same_seed_byte_identical_artifacts(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run([
                "train", "--data", FIXTURE_CSV, "--model", "logreg",
                "--vectorizer", "tfidf", "--seed", 5, "--out-dir", out,
            ])
            outs.append(out)
        for filename in ("model_logreg_tfidf.json", "vectorizer_tfidf.json"):
            assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()

    def test_hyperparameter_flags_recorded(self, tmp_path):
        out = tmp_path / "hp"
        run([
            "train", "--data", FIXTURE_CSV, "--model", "rf", "--vectorizer", "bow",
            "--rf-trees", 3, "--rf-depth", 2, "--out-dir", out,
        ])
        doc = json.loads((out / "model_rf_bow.json").read_text())
        assert doc["hyperparameters"]["n_trees"] == 3
        assert doc["hyperparameters"]["max_depth"] == 2

    def test_rf_depth_zero_means_unlimited(self, tmp_path):
        # only an integer 0: false and 0.0 are config errors
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hyperparams": {"rf": {"max_depth": 0}}}))
        for extra in (["--rf-depth", 0], ["--config", config]):
            out = tmp_path / "out"
            assert run([
                "train", "--data", FIXTURE_CSV, "--model", "rf", "--vectorizer", "bow",
                "--rf-trees", 2, "--out-dir", out, *extra,
            ]) == 0
            doc = json.loads((out / "model_rf_bow.json").read_text())
            assert doc["hyperparameters"]["max_depth"] is None

    def test_failed_model_write_leaves_no_half_pair(self, tmp_path, capsys):
        # evaluate needs both artifacts of one run, so a failed model write
        # takes the vectorizer artifact and every temporary file with it
        out = tmp_path / "out"
        (out / "model_mnb_bow.json").mkdir(parents=True)
        assert run(["train", "--data", FIXTURE_CSV, "--out-dir", out, *MNB_BOW]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["model_mnb_bow.json"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["train", "--model", "svm", "--vectorizer", "bow", "--svm-lambda", "1e-320",
                      "--svm-epochs", 2], id="svm-train"),
        pytest.param(["train", "--model", "mnb", "--vectorizer", "bow", "--nb-alpha", "1e308"],
                     id="mnb-train"),
        pytest.param(["compare", "--model", "svm", "--svm-lambda", "1e-320", "--svm-epochs", 2],
                     id="svm-compare"),
    ])
    def test_non_finite_fit_is_one_training_error(self, tmp_path, capsys, argv):
        # a fit that overflows writes no artifact (evaluate would refuse its
        # NaN and Infinity) and scores no cell; a leaked RuntimeWarning would
        # fail this run, as error[internal]
        assert run([*argv, "--data", FIXTURE_CSV, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[training]: non-finite") and err.count("\n") == 1
        assert list(tmp_path.rglob("*.json")) == []


class TestEvaluate:
    def test_separable_oracle_reports_all_ones(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "sep.csv")
        out = tmp_path / "out"
        base = ["--data", data, "--seed", 3, "--out-dir", out]
        assert run(["train", *base, "--model", "mnb", "--vectorizer", "bow"]) == 0
        code = run([
            "evaluate", *base,
            "--model-artifact", out / "model_mnb_bow.json",
            "--vectorizer-artifact", out / "vectorizer_bow.json",
        ])
        assert code == 0
        assert "accuracy: 1.00" in capsys.readouterr().out
        report = json.loads((out / "report_mnb_bow.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["weighted"]["f1"] == 1.0
        for metrics in report["per_class"].values():
            assert metrics["precision"] == 1.0

    def test_mismatched_artifacts_dimension_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        run([
            "train", "--data", FIXTURE_CSV, "--model", "mnb", "--vectorizer", "bow",
            "--out-dir", out,
        ])
        other = tmp_path / "other"
        data = write_separable_csv(tmp_path / "sep.csv")
        run([
            "train", "--data", data, "--model", "mnb", "--vectorizer", "bow",
            "--out-dir", other,
        ])
        capsys.readouterr()
        code = run([
            "evaluate", "--data", FIXTURE_CSV, "--out-dir", tmp_path / "e",
            "--model-artifact", out / "model_mnb_bow.json",
            "--vectorizer-artifact", other / "vectorizer_bow.json",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[dimension]")

    def test_missing_artifact(self, tmp_path, capsys):
        code = run([
            "evaluate", "--data", FIXTURE_CSV, "--out-dir", tmp_path,
            "--model-artifact", tmp_path / "none.json",
            "--vectorizer-artifact", tmp_path / "none2.json",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[artifact]")

    @pytest.mark.parametrize("artifact, key", [
        ("model_svm_bow.json", "weights"), ("vectorizer_bow.json", "terms"),
    ])
    def test_malformed_artifact_is_one_line(self, tmp_path, capsys, artifact, key):
        out = tmp_path / "out"
        base = ["--data", FIXTURE_CSV, "--out-dir", out]
        assert run(["train", *base, "--model", "svm", "--vectorizer", "bow",
                    "--svm-epochs", 2]) == 0
        doc = json.loads((out / artifact).read_text())
        del (doc["params"] if "params" in doc else doc)[key]
        (out / artifact).write_text(json.dumps(doc))
        capsys.readouterr()
        code = run([
            "evaluate", *base,
            "--model-artifact", out / "model_svm_bow.json",
            "--vectorizer-artifact", out / "vectorizer_bow.json",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[artifact]") and key in err
        assert len(err.strip().splitlines()) == 1


def rf_root(doc, feature):
    """Make tree 0 a single internal node that splits on ``feature``, in the
    form of the artifact's version."""
    if doc["version"] == 1:
        leaf = {"class": "negative", "counts": [1, 0, 0]}
        tree = {"feature": feature, "threshold": 0.5, "left": leaf, "right": leaf}
    else:
        tree = {"feature": [feature, -1, -1], "threshold": [0.5, 0.0, 0.0],
                "left": [1, -1, -1], "counts": [[2, 0, 0], [1, 0, 0], [1, 0, 0]]}
    doc["params"]["trees"][0] = tree


def narrow(key):
    return lambda d: d["params"].update({key: [row[:-1] for row in d["params"][key]]})


def first_entry(key):
    return lambda d: d["params"].update({key: d["params"][key][:1]})


# (artifact, corruption, model and vectorizer passed to evaluate)
SHAPE_CORRUPTIONS = {
    "svm weights narrower than dims": ("model_svm_bow.json", narrow("weights"), "svm", "bow"),
    "logreg weights narrower than dims": (
        "model_logreg_bow.json", narrow("weights"), "logreg", "bow"),
    "mnb likelihood narrower than dims": (
        "model_mnb_bow.json", narrow("feature_log_likelihood"), "mnb", "bow"),
    "rf feature equal to dims": (
        "model_rf_bow.json", lambda d: rf_root(d, d["dims"]), "rf", "bow"),
    "rf internal node with negative feature": (
        "model_rf_bow.json", lambda d: rf_root(d, -1), "rf", "bow"),
    "svm bias of one entry": ("model_svm_bow.json", first_entry("bias"), "svm", "bow"),
    "mnb prior of one entry": (
        "model_mnb_bow.json", first_entry("class_log_prior"), "mnb", "bow"),
    "logreg one loss more than its epochs": (
        "model_logreg_bow.json", lambda d: d["params"]["epoch_losses"].append(0.5),
        "logreg", "bow"),
    "tfidf df and idf shorter than terms": (
        "vectorizer_tfidf.json", lambda d: d.update(df=d["df"][:1], idf=d["idf"][:1]),
        "mnb", "tfidf"),
    "preprocessing without stopwords": (
        "vectorizer_bow.json", lambda d: d["preprocessing"].pop("stopwords"), "mnb", "bow"),
    "preprocessing stopwords not a list": (
        "vectorizer_bow.json", lambda d: d["preprocessing"].update(stopwords=5), "mnb", "bow"),
}


def first_weight(key, value):
    def corrupt(d):
        values = d["params"][key]
        (values[0] if isinstance(values[0], list) else values)[0] = value
    return corrupt


def rarest_idf(value):
    """Set the idf of a term with df < doc_count, whose finite idf is > 0."""
    def corrupt(d):
        d["idf"][d["df"].index(min(d["df"]))] = value
    return corrupt


def hyperparameter(key, value):
    return lambda d: d["hyperparameters"].update({key: value})


def rf_threshold(value):
    def corrupt(d):
        rf_root(d, 0)
        tree = d["params"]["trees"][0]
        if d["version"] == 1:
            tree["threshold"] = value
        else:
            tree["threshold"][0] = value
    return corrupt


# json reads NaN, Infinity and -Infinity; none may reach a model or a vectorizer,
# nor may a threshold that float() would accept from a string or a bool
NON_FINITE_CORRUPTIONS = {
    "tfidf idf Infinity": ("vectorizer_tfidf.json", rarest_idf(math.inf), "mnb", "tfidf"),
    "tfidf idf NaN": ("vectorizer_tfidf.json", rarest_idf(math.nan), "mnb", "tfidf"),
    "mnb likelihood NaN": (
        "model_mnb_bow.json", first_weight("feature_log_likelihood", math.nan), "mnb", "bow"),
    "mnb prior -Infinity": (
        "model_mnb_bow.json", first_weight("class_log_prior", -math.inf), "mnb", "bow"),
    "mnb prior all null": (
        "model_mnb_bow.json", lambda d: d["params"].update(class_log_prior=[None] * 3),
        "mnb", "bow"),
    "svm weight Infinity": (
        "model_svm_bow.json", first_weight("weights", math.inf), "svm", "bow"),
    "logreg bias NaN": ("model_logreg_bow.json", first_weight("bias", math.nan), "logreg", "bow"),
    "rf threshold Infinity": ("model_rf_bow.json", rf_threshold(math.inf), "rf", "bow"),
    "rf threshold string": ("model_rf_bow.json", rf_threshold("0.5"), "rf", "bow"),
    "rf threshold true": ("model_rf_bow.json", rf_threshold(True), "rf", "bow"),
    "mnb alpha NaN": ("model_mnb_bow.json", hyperparameter("alpha", math.nan), "mnb", "bow"),
    "svm lam Infinity": ("model_svm_bow.json", hyperparameter("lam", math.inf), "svm", "bow"),
    "logreg l2 NaN": ("model_logreg_bow.json", hyperparameter("l2", math.nan), "logreg", "bow"),
}


def rf_leaf_counts(counts):
    def corrupt(d):
        rf_root(d, 0)
        tree = d["params"]["trees"][0]
        if d["version"] == 1:
            tree["left"] = {"class": "negative", "counts": counts}
        else:
            tree["counts"][1] = counts
    return corrupt


# int() would truncate these and load the artifact as if nothing were wrong
NON_INTEGER_CORRUPTIONS = {
    "tfidf doc_count 7.9": (
        "vectorizer_tfidf.json", lambda d: d.update(doc_count=d["doc_count"] + 0.9),
        "mnb", "tfidf"),
    "tfidf doc_count 2.0": (
        "vectorizer_tfidf.json", lambda d: d.update(doc_count=float(d["doc_count"])),
        "mnb", "tfidf"),
    "tfidf df entry 1.5": (
        "vectorizer_tfidf.json", lambda d: d["df"].__setitem__(0, d["df"][0] + 0.5),
        "mnb", "tfidf"),
    "mnb dims 41.5": ("model_mnb_tfidf.json", lambda d: d.update(dims=d["dims"] + 0.5),
                      "mnb", "tfidf"),
    "rf feature 0.5": ("model_rf_bow.json", lambda d: rf_root(d, 0.5), "rf", "bow"),
    "rf feature true": ("model_rf_bow.json", lambda d: rf_root(d, True), "rf", "bow"),
    "rf leaf count 1.5": ("model_rf_bow.json", rf_leaf_counts([1.5, 0, 0]), "rf", "bow"),
    "mnb seed banana": (
        "model_mnb_tfidf.json", lambda d: d["hyperparameters"].update(seed="banana"),
        "mnb", "tfidf"),
}


# float() would read these as 0.5 and 1.0
NON_NUMBER_CORRUPTIONS = {
    "svm weight '0.5'": ("model_svm_bow.json",
                         lambda d: d["params"]["weights"][0].__setitem__(0, "0.5"), "svm", "bow"),
    "svm bias true": ("model_svm_bow.json", lambda d: d["params"]["bias"].__setitem__(1, True),
                      "svm", "bow"),
    "logreg epoch_losses '0.5'": (
        "model_logreg_bow.json", lambda d: d["params"]["epoch_losses"].__setitem__(0, "0.5"),
        "logreg", "bow"),
    "logreg epoch_losses true": (
        "model_logreg_bow.json", lambda d: d["params"]["epoch_losses"].__setitem__(1, True),
        "logreg", "bow"),
}


def rf_tree(**changes):
    """Make tree 0 of a version 2 artifact a valid five-node tree, then
    apply ``changes``: {list name: {node id: new value}}."""
    def corrupt(d):
        tree = {
            "feature": [0, 1, -1, -1, -1], "threshold": [0.5, 0.5, 0.0, 0.0, 0.0],
            "left": [1, 3, -1, -1, -1],
            "counts": [[3, 1, 0], [1, 1, 0], [2, 0, 0], [1, 0, 0], [0, 1, 0]],
        }
        for name, nodes in changes.items():
            for node, value in nodes.items():
                tree[name][node] = value
        d["params"]["trees"][0] = tree
    return corrupt


def rf_v1_leaf_class(label):
    def corrupt(d):
        rf_root(d, 0)
        d["params"]["trees"][0]["right"] = {"class": label, "counts": [1, 1, 0]}
    return corrupt


# (artifact set, corruption, a word the error names) of trees that fit no
# training run could grow; all but the last are version 2 lists
TREE_CORRUPTIONS = {
    "child id below its parent": ("v2", rf_tree(left={1: 0}), "child of exactly one"),
    "child id equal to its parent": ("v2", rf_tree(left={1: 1}), "child of exactly one"),
    "child id past the last node": ("v2", rf_tree(left={1: 4}), "child of exactly one"),
    "node with two parents": ("v2", rf_tree(left={1: 2}), "child of exactly one"),
    "internal counts not the children's sum": ("v2", rf_tree(counts={0: [4, 1, 0]}), "sum"),
    "left on a leaf": ("v2", rf_tree(left={2: 3}), "leaf"),
    "threshold on a leaf": ("v2", rf_tree(threshold={3: 0.5}), "leaf"),
    "counts of two entries": ("v2", rf_tree(counts={3: [1, 0]}), "3 integers"),
    "counts list shorter than the tree": (
        "v2", lambda d: (rf_tree()(d), d["params"]["trees"][0]["counts"].pop()), "parallel"),
    "v1 leaf class not its counts' first majority": ("v1", rf_v1_leaf_class("neutral"),
                                                     "majority"),
}


@pytest.fixture(scope="module")
def trained_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    for model, vec in (("svm", "bow"), ("logreg", "bow"), ("mnb", "bow"), ("rf", "bow"),
                       ("mnb", "tfidf")):
        assert run([
            "train", "--data", FIXTURE_CSV, "--out-dir", out, "--model", model,
            "--vectorizer", vec, *SHORT_RUN[model],
        ]) == 0
    return out


def artifact_sets(trained, artifact) -> list:
    """A forest case runs on a fresh (version 2) artifact and on the
    committed version 1 fixture; any other case on the fresh one."""
    return [trained, V1_ARTIFACTS] if artifact.startswith("model_rf") else [trained]


def evaluate_corrupted(artifacts, tmp_path, capsys, artifact, corrupt, model, vec):
    """Copy the artifacts, corrupt one, evaluate; returns (exit code, stderr)."""
    for path in artifacts.iterdir():
        shutil.copy(path, tmp_path)
    doc = json.loads((tmp_path / artifact).read_text())
    corrupt(doc)
    (tmp_path / artifact).write_text(json.dumps(doc))
    capsys.readouterr()
    code = run([
        "evaluate", "--data", FIXTURE_CSV, "--out-dir", tmp_path / "e",
        "--model-artifact", tmp_path / f"model_{model}_{vec}.json",
        "--vectorizer-artifact", tmp_path / f"vectorizer_{vec}.json",
    ])
    return code, capsys.readouterr().err


class TestArtifactShapes:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_CORRUPTIONS))
    def test_non_finite_value_is_one_artifact_error(self, trained_artifacts, tmp_path,
                                                    capsys, case):
        for artifacts in artifact_sets(trained_artifacts, NON_FINITE_CORRUPTIONS[case][0]):
            code, err = evaluate_corrupted(
                artifacts, tmp_path, capsys, *NON_FINITE_CORRUPTIONS[case]
            )
            assert code == 1
            assert err.startswith("error[artifact]") and "finite" in err, err
            assert len(err.strip().splitlines()) == 1
            assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("case", sorted(SHAPE_CORRUPTIONS))
    def test_shape_mismatch_is_one_artifact_error(self, trained_artifacts, tmp_path,
                                                   capsys, case):
        for artifacts in artifact_sets(trained_artifacts, SHAPE_CORRUPTIONS[case][0]):
            code, err = evaluate_corrupted(artifacts, tmp_path, capsys, *SHAPE_CORRUPTIONS[case])
            assert code == 1
            assert err.startswith("error[artifact]"), err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("case", sorted(NON_INTEGER_CORRUPTIONS))
    def test_non_integer_count_is_one_artifact_error(self, trained_artifacts, tmp_path,
                                                     capsys, case):
        for artifacts in artifact_sets(trained_artifacts, NON_INTEGER_CORRUPTIONS[case][0]):
            code, err = evaluate_corrupted(
                artifacts, tmp_path, capsys, *NON_INTEGER_CORRUPTIONS[case]
            )
            assert code == 1
            assert err.startswith("error[artifact]") and "integer" in err, err
            assert len(err.strip().splitlines()) == 1
            assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("case", sorted(NON_NUMBER_CORRUPTIONS))
    def test_non_number_value_is_one_artifact_error(self, trained_artifacts, tmp_path,
                                                    capsys, case):
        code, err = evaluate_corrupted(
            trained_artifacts, tmp_path, capsys, *NON_NUMBER_CORRUPTIONS[case]
        )
        assert code == 1
        assert err.startswith("error[artifact]") and "numbers" in err, err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("case", sorted(TREE_CORRUPTIONS))
    def test_malformed_tree_is_one_artifact_error(self, trained_artifacts, tmp_path, capsys,
                                                  case):
        form, corrupt, word = TREE_CORRUPTIONS[case]
        artifacts = trained_artifacts if form == "v2" else V1_ARTIFACTS
        code, err = evaluate_corrupted(
            artifacts, tmp_path, capsys, "model_rf_bow.json", corrupt, "rf", "bow"
        )
        assert code == 1
        assert err.startswith("error[artifact]") and word in err, err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e").exists()

    def test_model_of_another_vectorizer_is_one_artifact_error(self, trained_artifacts,
                                                              tmp_path, capsys):
        capsys.readouterr()
        code = run([
            "evaluate", "--data", FIXTURE_CSV, "--out-dir", tmp_path / "e",
            "--model-artifact", trained_artifacts / "model_svm_bow.json",
            "--vectorizer-artifact", trained_artifacts / "vectorizer_tfidf.json",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[artifact]") and "bow" in err and "tfidf" in err, err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e").exists()

    def test_tampered_idf_is_one_artifact_error(self, trained_artifacts, tmp_path, capsys):
        # every idf still finite and >= 0, but no longer ln(doc_count / df)
        code, err = evaluate_corrupted(
            trained_artifacts, tmp_path, capsys, "vectorizer_tfidf.json",
            lambda d: d.update(idf=[7 * w for w in d["idf"]]), "mnb", "tfidf",
        )
        assert code == 1
        assert err.startswith("error[artifact]") and "idf" in err, err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("artifact, key", [
        *(("model_mnb_tfidf.json", key) for key in (
            "format", "version", "variant", "class_order", "dims", "hyperparameters",
            "params")),
        *(("vectorizer_tfidf.json", key) for key in (
            "format", "version", "kind", "terms", "doc_count", "df", "idf")),
    ])
    def test_missing_field_is_one_artifact_error(self, trained_artifacts, tmp_path, capsys,
                                                 artifact, key):
        code, err = evaluate_corrupted(
            trained_artifacts, tmp_path, capsys, artifact, lambda d: d.pop(key), "mnb", "tfidf"
        )
        assert code == 1
        assert err.startswith("error[artifact]") and repr(key) in err, err
        assert len(err.strip().splitlines()) == 1

    def test_missing_preprocessing_means_the_default(self, trained_artifacts, tmp_path,
                                                     capsys):
        code, err = evaluate_corrupted(
            trained_artifacts, tmp_path, capsys, "vectorizer_tfidf.json",
            lambda d: d.pop("preprocessing"), "mnb", "tfidf",
        )
        assert (code, err) == (0, "")
        assert (tmp_path / "e" / "report_mnb_tfidf.json").is_file()

    def test_stopwords_missing_a_required_word_is_one_artifact_error(
        self, trained_artifacts, tmp_path, capsys
    ):
        code, err = evaluate_corrupted(
            trained_artifacts, tmp_path, capsys, "vectorizer_tfidf.json",
            lambda d: d["preprocessing"]["stopwords"].remove("the"), "mnb", "tfidf",
        )
        assert code == 1
        assert err.startswith("error[artifact]") and "['the']" in err, err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e").exists()

    def test_duplicate_term_is_one_artifact_error(self, trained_artifacts, tmp_path, capsys):
        code, err = evaluate_corrupted(
            trained_artifacts, tmp_path, capsys, "vectorizer_bow.json",
            lambda d: d["terms"].append(d["terms"][0]), "mnb", "bow",
        )
        assert code == 1
        assert err == "error[artifact]: terms holds a duplicate\n", err
        assert not (tmp_path / "e").exists()

    def test_terms_string_is_one_artifact_error(self, trained_artifacts, tmp_path, capsys):
        # "usa" would load as the terms u, s, a; with a 3-wide model to match,
        # every test vector would be empty and evaluate would still exit 0.
        for path in trained_artifacts.iterdir():
            shutil.copy(path, tmp_path)
        vec_path, model_path = tmp_path / "vectorizer_tfidf.json", tmp_path / "model_mnb_tfidf.json"
        vec = json.loads(vec_path.read_text())
        vec.update(terms="usa", df=[1, 1, 1], idf=[1.0, 1.0, 1.0])
        vec_path.write_text(json.dumps(vec))
        model = json.loads(model_path.read_text())
        model["dims"] = 3
        params = model["params"]
        params["feature_log_likelihood"] = [row[:3] for row in params["feature_log_likelihood"]]
        model_path.write_text(json.dumps(model))
        capsys.readouterr()
        code = run([
            "evaluate", "--data", FIXTURE_CSV, "--out-dir", tmp_path / "e",
            "--model-artifact", model_path, "--vectorizer-artifact", vec_path,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[artifact]") and "terms" in err, err
        assert len(err.strip().splitlines()) == 1


def reader_argv(reader: str, path, artifacts) -> list:
    """A command line that reads ``path`` with the named reader and every
    other input from the fixture CSV and the trained artifacts."""
    evaluate = ["evaluate", "--data", FIXTURE_CSV,
                "--model-artifact", artifacts / "model_mnb_bow.json",
                "--vectorizer-artifact", artifacts / "vectorizer_bow.json"]
    train = ["train", "--data", FIXTURE_CSV, "--model", "mnb", "--vectorizer", "bow"]
    return {
        "dataset": ["stats", "--data", path],
        "config": ["stats", "--data", FIXTURE_CSV, "--config", path],
        "model": [*evaluate, "--model-artifact", path],
        "vectorizer": [*evaluate, "--vectorizer-artifact", path],
        "stopwords": [*train, "--stopwords", path],
        "lemma exceptions": [*train, "--lemma-exceptions", path],
    }[reader]


READER_CATEGORIES = {
    "dataset": "dataset", "config": "config", "model": "artifact", "vectorizer": "artifact",
    "stopwords": "config", "lemma exceptions": "config",
}


UNREADABLE = {
    "not UTF-8": b"\xff" + Path(FIXTURE_CSV).read_bytes(),
    "100000 nested brackets": b"[" * 100_000,  # deeper than json can decode
}


class TestUnreadableInput:
    @pytest.mark.parametrize("reader, content", [
        *((reader, "not UTF-8") for reader in sorted(READER_CATEGORIES)),
        *((reader, "100000 nested brackets") for reader in ("config", "model", "vectorizer")),
    ])
    def test_is_one_error_of_the_readers_category(self, trained_artifacts, tmp_path,
                                                  capsys, reader, content):
        bad = tmp_path / "input"
        bad.write_bytes(UNREADABLE[content])
        code = run([*reader_argv(reader, bad, trained_artifacts), "--out-dir", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error[{READER_CATEGORIES[reader]}]"), err
        assert len(err.strip().splitlines()) == 1


class TestCompare:
    def grid(self, tmp_path, out_name, models="svm,mnb,rf,logreg"):
        out = tmp_path / out_name
        ten = {"rf": ["--rf-trees", 10], "logreg": ["--logreg-epochs", 10],
               "svm": ["--svm-epochs", 10], "mnb": []}
        code = run([
            "compare", "--data", FIXTURE_CSV, "--seed", 1, "--out-dir", out,
            "--model", models, *(flag for model in models.split(",") for flag in ten[model]),
        ])
        assert code == 0
        return out

    def test_full_grid_has_eight_rows(self, tmp_path):
        out = self.grid(tmp_path, "grid")
        payload = json.loads((out / "comparison.json").read_text())
        assert len(payload["rows"]) == 8
        pairs = {(r["model"], r["vectorizer"]) for r in payload["rows"]}
        assert len(pairs) == 8
        for row in payload["rows"]:
            for key in ("accuracy", "weighted_precision", "weighted_recall", "weighted_f1"):
                assert 0.0 <= row[key] <= 1.0
        assert (out / "comparison.csv").exists()
        assert (out / "comparison.txt").exists()
        assert "* best accuracy" in (out / "comparison.txt").read_text()

    def test_restricted_grid(self, tmp_path):
        out = self.grid(tmp_path, "mnb_only", models="mnb")
        payload = json.loads((out / "comparison.json").read_text())
        assert [r["model"] for r in payload["rows"]] == ["mnb", "mnb"]
        assert [r["vectorizer"] for r in payload["rows"]] == ["bow", "tfidf"]

    def test_csv_and_json_carry_the_same_rows(self, tmp_path):
        out = self.grid(tmp_path, "same", models="mnb")
        rows = json.loads((out / "comparison.json").read_text())["rows"]
        with open(out / "comparison.csv", newline="") as handle:
            header, *records = csv.reader(handle)
        assert len(records) == len(rows) == 2
        for row, record in zip(rows, records):
            assert sorted(header) == sorted(row)  # the JSON keys are sorted
            assert record[:2] == [row["model"], row["vectorizer"]]
            assert record[2:] == [repr(row[key]) for key in header[2:]]

    def test_two_runs_byte_identical(self, tmp_path):
        a = self.grid(tmp_path, "a")
        b = self.grid(tmp_path, "b")
        names = sorted(p.name for p in a.glob("*.json"))
        assert names == sorted(p.name for p in b.glob("*.json"))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_all_cells_share_one_test_partition(self, tmp_path):
        out = self.grid(tmp_path, "shared")
        digests = set()
        for path in out.glob("report_*.json"):
            digests.add(json.loads(path.read_text())["metadata"]["test_ids_sha256"])
        assert len(digests) == 1

    def test_weighted_recall_column_equals_accuracy(self, tmp_path):
        out = self.grid(tmp_path, "recall")
        payload = json.loads((out / "comparison.json").read_text())
        for row in payload["rows"]:
            assert row["weighted_recall"] == pytest.approx(row["accuracy"], abs=1e-12)

    def test_each_row_preprocessed_once_and_test_split_transformed_once(
        self, tmp_path, monkeypatch
    ):
        preprocessed, transforms = [], []
        preprocess_corpus = TweetPreprocessor.preprocess_corpus

        def counting_preprocess(self, texts):
            texts = list(texts)
            preprocessed.extend(texts)
            return preprocess_corpus(self, texts)

        monkeypatch.setattr(TweetPreprocessor, "preprocess_corpus", counting_preprocess)
        for cls in (BowVectorizer, TfidfVectorizer):
            def counting_transform(self, docs, _transform=cls.transform):
                transforms.append((self.kind, len(docs)))
                return _transform(self, docs)

            monkeypatch.setattr(cls, "transform", counting_transform)

        out = self.grid(tmp_path, "counted", models="mnb,logreg")
        payload = json.loads((out / "comparison.json").read_text())
        train_size, test_size = payload["train_size"], payload["test_size"]
        with open(FIXTURE_CSV, newline="", encoding="utf-8") as handle:
            texts = [row["text"] for row in csv.DictReader(handle)]
        assert sorted(preprocessed) == sorted(texts)
        assert transforms == [
            ("bow", train_size), ("bow", test_size),
            ("tfidf", train_size), ("tfidf", test_size),
        ]

    def test_each_split_counted_once(self, tmp_path, monkeypatch):
        counted = []
        count = TermCounts.count.__func__

        def counting_count(cls, ids, lengths, names):
            counted.append(lengths.size)
            return count(cls, ids, lengths, names)

        monkeypatch.setattr(TermCounts, "count", classmethod(counting_count))
        out = self.grid(tmp_path, "counted", models="mnb,logreg")
        payload = json.loads((out / "comparison.json").read_text())
        assert {row["vectorizer"] for row in payload["rows"]} == {"bow", "tfidf"}
        assert counted == [payload["train_size"], payload["test_size"]]

    def test_bow_pass_released_before_tfidf_fits(self, tmp_path, monkeypatch):
        bow_matrices, alive = [], []
        transform, fit = BowVectorizer.transform, TfidfVectorizer.fit

        def spying_transform(self, docs):
            matrix = transform(self, docs)
            bow_matrices.append(weakref.ref(matrix))
            return matrix

        def checking_fit(self, docs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in bow_matrices))
            return fit(self, docs)

        monkeypatch.setattr(BowVectorizer, "transform", spying_transform)
        monkeypatch.setattr(TfidfVectorizer, "fit", checking_fit)
        self.grid(tmp_path, "released", models="mnb,logreg")
        assert len(bow_matrices) == 2 and alive == [0]

    def test_every_model_on_an_empty_vocabulary(self, tmp_path):
        # Stop-words only: no term survives, so every model trains on 0 dims.
        texts = ["the is", "he she", "that the", "is that", "the", "she is", "he", "the she"]
        labels = ["negative", "positive", "neutral", "negative"] * 2
        data = tmp_path / "stopwords.csv"
        data.write_text(
            "text,airline_sentiment\n" + "".join(f"{t},{y}\n" for t, y in zip(texts, labels))
        )
        out = tmp_path / "out"
        assert run(["compare", "--data", data, "--out-dir", out, "--rf-trees", 3]) == 0
        assert len(json.loads((out / "comparison.json").read_text())["rows"]) == 8

        base = ["--data", data, "--out-dir", out]
        assert run(["train", *base, "--model", "rf", "--vectorizer", "bow", "--rf-trees", 3]) == 0
        model = load_model(out / "model_rf_bow.json")
        assert model.dims == 0
        assert [tree.feature.tolist() for tree in model.trees_] == [[-1]] * 3
        assert run([
            "evaluate", *base, "--model-artifact", out / "model_rf_bow.json",
            "--vectorizer-artifact", out / "vectorizer_bow.json",
        ]) == 0


class _Texts(list):
    """A list of texts that a weak reference can follow."""


class TestTextsFreed:
    @pytest.mark.parametrize("command", ["compare", "train", "evaluate"])
    def test_texts_freed_before_the_first_transform(self, tmp_path, monkeypatch, command):
        out = tmp_path / "out"
        argv = ["--data", FIXTURE_CSV, "--out-dir", out]
        if command == "evaluate":
            assert run(["train", *argv, *MNB_BOW]) == 0
            argv += ["--model-artifact", out / "model_mnb_bow.json",
                     "--vectorizer-artifact", out / "vectorizer_bow.json"]
        else:
            argv += MNB_BOW
        refs, alive = [], []
        split, transform = cli.train_test_split, _Vectorizer.transform

        def weak_texts_split(corpus, *args):
            sides = [Corpus(s.ids, _Texts(s.texts), s.labels) for s in split(corpus, *args)]
            refs.extend(weakref.ref(side.texts) for side in sides)
            return tuple(sides)

        def checking_transform(self, docs):
            alive.append(sum(ref() is not None for ref in refs))
            return transform(self, docs)

        monkeypatch.setattr(cli, "train_test_split", weak_texts_split)
        monkeypatch.setattr(_Vectorizer, "transform", checking_transform)
        assert run([command, *argv]) == 0
        assert len(refs) == 2 and alive == [0] * (2 if command == "compare" else 1)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": FIXTURE_CSV,
            "seed": 9,
            "models": ["mnb"],
            "out_dir": str(tmp_path / "from_file"),
        }))
        out = tmp_path / "override"
        code = run(["compare", "--config", config, "--out-dir", out])
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["seed"] == 9
        assert [r["model"] for r in payload["rows"]] == ["mnb", "mnb"]

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": FIXTURE_CSV, "typo_key": 1}))
        assert run(["stats", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error[config]")

    @pytest.mark.parametrize("command, key, value", [
        ("stats", "seed", 1), ("stats", "hyperparams", {"mnb": {"alpha": 2.0}}),
        ("evaluate", "stopwords", FIXTURE_CSV), ("train", "models", ["mnb"]),
        ("train", "formats", ["json"]),
    ])
    def test_config_key_the_command_does_not_read(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": FIXTURE_CSV, key: value}))
        own = {"train": ["--model", "mnb", "--vectorizer", "bow"],
               "evaluate": ["--model-artifact", "m.json", "--vectorizer-artifact", "v.json"]}
        assert run([command, "--config", config, *own.get(command, [])]) == 1
        assert capsys.readouterr().err == (
            f"error[config]: {command} does not read config keys ['{key}']\n"
        )

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", [
        ["train", "--model", "mnb", "--vectorizer", "bow"], ["compare", "--model", "mnb"],
    ], ids=["train", "compare"])
    def test_hyperparameters_for_a_model_the_run_does_not_build(self, tmp_path, capsys,
                                                                 command, source):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hyperparams": {"rf": {"n_trees": 3}}}))
        extra = ["--rf-trees", 3] if source == "flag" else ["--config", config]
        out = tmp_path / "o"
        assert run([*command, "--data", FIXTURE_CSV, "--out-dir", out, *extra]) == 1
        assert capsys.readouterr().err == (
            "error[config]: hyperparameters for 'rf', but this run builds only mnb\n"
        )
        assert not out.exists()

    def test_bad_split_ratio(self, capsys):
        code = run(["compare", "--data", FIXTURE_CSV, "--split-ratio", "1.5"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[config]")

    def test_missing_data_file(self, tmp_path, capsys):
        code = run(["stats", "--data", tmp_path / "ghost.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[config]")

    def test_missing_stopword_file(self, tmp_path, capsys):
        code = run([
            "train", "--data", FIXTURE_CSV, "--model", "mnb", "--vectorizer", "bow",
            "--stopwords", tmp_path / "none.txt",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[config]")

    def test_stopword_file_missing_a_required_word(self, tmp_path, capsys):
        path = tmp_path / "stop.txt"
        path.write_text("\n".join(sorted(load_stopwords() - {"the"})) + "\n")
        code = run([
            "train", "--data", FIXTURE_CSV, "--model", "mnb", "--vectorizer", "bow",
            "--stopwords", path, "--out-dir", tmp_path / "out",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error[config]: stop-word list is missing required words: ['the']\n"
        )
        assert not (tmp_path / "out").exists()

    def test_invalid_hyperparameter_value(self, tmp_path, capsys):
        code = run([
            "train", "--data", FIXTURE_CSV, "--model", "mnb", "--vectorizer", "bow",
            "--nb-alpha", "-1", "--out-dir", tmp_path / "o",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and "mnb" in err

    def test_unknown_hyperparameter_name_in_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": FIXTURE_CSV,
            "hyperparams": {"svm": {"kernel": "rbf"}},
            "out_dir": str(tmp_path / "o"),
        }))
        code = run(["train", "--config", config, "--model", "svm", "--vectorizer", "bow"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[config]")

    def test_malformed_config_field_types(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": FIXTURE_CSV, "split_ratio": "most"}))
        assert run(["compare", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error[config]: split ratio must be")
        config.write_text(json.dumps({"data": FIXTURE_CSV, "hyperparams": [1, 2]}))
        assert run(["compare", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error[config]: hyperparams must map")

    @pytest.mark.parametrize("values", [
        pytest.param({"hyperparams": {"svn": {"epochs": 2}}}, id="unknown model kind"),
        pytest.param({"hyperparams": {"rf": {"bootstrap": "false"}}}, id="bootstrap string"),
        pytest.param({"hyperparams": {"rf": {"bootstrap": 7}}}, id="bootstrap 7"),
        pytest.param({"seed": 1.7}, id="seed 1.7"),
        pytest.param({"seed": "3"}, id="seed string"),
        pytest.param({"split_ratio": "0.5"}, id="split ratio string"),
        pytest.param({"split_ratio": True}, id="split ratio bool"),
        pytest.param({"hyperparams": {"svm": {"epochs": 2.5}}}, id="svm epochs"),
        pytest.param({"hyperparams": {"logreg": {"batch_size": 10.5}}}, id="logreg batch"),
        pytest.param({"hyperparams": {"logreg": {"epochs": True}}}, id="logreg epochs bool"),
        pytest.param({"hyperparams": {"rf": {"n_trees": 2.5}}}, id="rf trees"),
        pytest.param({"hyperparams": {"rf": {"max_depth": 1.5}}}, id="rf depth"),
        pytest.param({"hyperparams": {"rf": {"max_depth": False}}}, id="rf depth false"),
        pytest.param({"hyperparams": {"rf": {"max_depth": 0.0}}}, id="rf depth 0.0"),
        pytest.param({"hyperparams": {"rf": {"max_features": 2.5}}}, id="rf features"),
        pytest.param({"hyperparams": {"svm": {"seed": 0.5}}}, id="svm seed"),
        pytest.param({"hyperparams": {"svm": {"lam": math.nan}}}, id="svm lam NaN"),
        pytest.param({"hyperparams": {"svm": {"lam": 10**400}}}, id="svm lam 10**400"),
        pytest.param({"hyperparams": {"logreg": {"learning_rate": math.inf}}},
                     id="logreg learning rate Infinity"),
        pytest.param({"hyperparams": {"logreg": {"l2": math.inf}}}, id="logreg l2 Infinity"),
        pytest.param({"models": ["mnb"], "hyperparams": {"mnb": {"alpha": math.nan}}},
                     id="mnb alpha NaN"),
        pytest.param({"models": ["mnb"], "hyperparams": {"mnb": {"alpha": True}}},
                     id="mnb alpha bool"),
        pytest.param({"models": ["mnb"], "hyperparams": {"mnb": {"seed": "banana"}}},
                     id="mnb seed string"),
        pytest.param({"models": ["mnb"], "hyperparams": {"mnb": {"seed": 1.5}}},
                     id="mnb seed 1.5"),
        pytest.param({"models": ["mnb"], "hyperparams": {"mnb": {"seed": True}}},
                     id="mnb seed bool"),
    ])
    def test_bad_value_is_one_config_error_before_any_cell_trains(
        self, tmp_path, capsys, values
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": FIXTURE_CSV, "out_dir": str(tmp_path / "o"), "vectorizers": ["bow"],
            "models": ["svm", "logreg", "rf"], **values,
        }))
        code = run(["compare", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error[config]"), captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "done:" not in captured.out

    @pytest.mark.parametrize("command, key", [
        pytest.param(command, key, id=key) for command, key in (
            ("stats", "data"), ("compare", "stopwords"), ("compare", "lemma_exceptions"),
            ("stats", "out_dir"), ("stats", "formats"), ("compare", "models"),
        )
    ])
    def test_config_field_of_wrong_json_type(self, tmp_path, capsys, command, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": FIXTURE_CSV, key: 5}))
        assert run([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error[config]: {key} must be"), captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_rf_bootstrap_flag_takes_only_0_or_1(self, tmp_path, capsys):
        base = ["train", "--data", FIXTURE_CSV, "--model", "rf", "--vectorizer", "bow",
                "--rf-trees", 2, "--out-dir", tmp_path]
        assert run([*base, "--rf-bootstrap", 7]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and "bootstrap" in err, err
        assert run([*base, "--rf-bootstrap", 0]) == 0
        doc = json.loads((tmp_path / "model_rf_bow.json").read_text())
        assert doc["hyperparameters"]["bootstrap"] is False

    def test_comma_string_lists_in_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": FIXTURE_CSV,
            "models": "mnb,logreg",
            "vectorizers": "bow",
            "out_dir": str(tmp_path / "o"),
            "hyperparams": {"logreg": {"epochs": 3}},
        }))
        assert run(["compare", "--config", config]) == 0
        payload = json.loads((tmp_path / "o" / "comparison.json").read_text())
        assert [r["model"] for r in payload["rows"]] == ["mnb", "logreg"]

    @pytest.mark.parametrize("command,formats", [
        ("stats", ""), ("stats", ","), ("stats", []), ("compare", ""),
    ])
    def test_empty_format_list_is_rejected(self, tmp_path, capsys, command, formats):
        out = tmp_path / "o"
        argv = [command, "--out-dir", out]
        if isinstance(formats, list):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"data": FIXTURE_CSV, "formats": formats}))
            argv += ["--config", config]
        else:
            argv += ["--data", FIXTURE_CSV, "--format", formats]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error[config]: select at least one output format\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, option, value, named", [
        ("compare", "--model", "mnb,mnb", "model 'mnb'"),
        ("compare", "--vectorizer", "bow,tfidf,bow", "vectorizer 'bow'"),
        ("stats", "--format", "json,csv,json", "output format 'json'"),
        ("compare", "models", ["mnb", "mnb"], "model 'mnb'"),
        ("compare", "vectorizers", "tfidf,tfidf", "vectorizer 'tfidf'"),
        ("stats", "formats", ["csv", "csv"], "output format 'csv'"),
    ])
    def test_kind_or_format_named_twice_is_rejected(self, tmp_path, capsys, command, option,
                                                    value, named):
        out = tmp_path / "o"
        argv = [command, "--out-dir", out]
        if option.startswith("--"):
            argv += ["--data", FIXTURE_CSV, option, value]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"data": FIXTURE_CSV, option: value}))
            argv += ["--config", config]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error[config]: {named} is named twice\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("data", ["no flag", "config without it", "empty"])
    def test_missing_or_empty_data_is_one_config_line(self, tmp_path, capsys, data):
        out = tmp_path / "o"
        argv = ["stats", "--out-dir", out]
        if data == "config without it":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"formats": ["json"]}))
            argv += ["--config", config]
        elif data == "empty":
            argv += ["--data", ""]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error[config]: --data is required (flag or config file)\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, option, value, named", [
        ("compare", "--model", "knn", "model 'knn'"),
        ("stats", "formats", ["xml"], "output format 'xml'"),
    ])
    def test_unknown_kind_or_format_is_rejected(self, tmp_path, capsys, command, option,
                                                value, named):
        out = tmp_path / "o"
        argv = [command, "--out-dir", out]
        if option.startswith("--"):
            argv += ["--data", FIXTURE_CSV, option, value]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"data": FIXTURE_CSV, option: value}))
            argv += ["--config", config]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error[config]: unknown {named}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_config_that_is_not_an_object_is_one_config_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([FIXTURE_CSV]))
        assert run(["stats", "--config", config, "--out-dir", tmp_path / "o"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error[config]: {config}: config must be a JSON object\n"
        assert captured.out == ""

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under a file"])
    @pytest.mark.parametrize("command", [
        ["stats"], ["train", "--model", "mnb", "--vectorizer", "bow"],
        ["evaluate", "--model-artifact", "m.json", "--vectorizer-artifact", "v.json"],
        ["compare", "--model", "mnb"],
    ], ids=["stats", "train", "evaluate", "compare"])
    def test_out_dir_that_is_not_a_directory_is_one_config_error(self, tmp_path, capsys,
                                                                 command, under):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        # evaluate's artifacts do not exist: the check comes before any input is read
        assert run([*command, "--data", FIXTURE_CSV, "--out-dir", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error[config]: --out-dir {out}: {blocker} is not a directory\n"
        assert captured.out == ""
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("argv, refused", [
        pytest.param(["stats", "--data", FIXTURE_CSV, "--out-dir", LONG_NAME], LONG_NAME,
                     id="long out-dir"),
        pytest.param(["stats", "--data", LONG_NAME], LONG_NAME, id="long data"),
        pytest.param(["train", "--data", FIXTURE_CSV, "--stopwords", LONG_NAME, *MNB_BOW],
                     LONG_NAME, id="long stopwords"),
        pytest.param(["train", "--data", FIXTURE_CSV, "--lemma-exceptions", LONG_NAME,
                      *MNB_BOW], LONG_NAME, id="long lemma-exceptions"),
        pytest.param(["stats", "--data", FIXTURE_CSV, "--out-dir", "out"], "out/stats.json",
                     id="stats output is a directory"),
        pytest.param(["train", "--data", FIXTURE_CSV, "--out-dir", "out", *MNB_BOW],
                     "out/model_mnb_bow.json", id="train output is a directory"),
    ])
    def test_path_the_os_refuses_is_one_config_error(self, tmp_path, monkeypatch, capsys,
                                                     argv, refused):
        monkeypatch.chdir(tmp_path)
        if refused != LONG_NAME:  # a directory where the command writes its file
            Path(refused).mkdir(parents=True)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and refused in err, err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(["stats", "--data", FIXTURE_CSV, "--no-such-flag"], id="unknown flag"),
        pytest.param(["compare", "--data", FIXTURE_CSV, "--seed", "abc"], id="seed abc"),
        pytest.param(["train", "--data", FIXTURE_CSV, "--vectorizer", "bow"], id="no --model"),
        pytest.param(["train", "--data", FIXTURE_CSV, "--model", "knn", "--vectorizer", "bow"],
                     id="unknown model"),
        pytest.param(["fit", "--data", FIXTURE_CSV], id="unknown command"),
        pytest.param([], id="no command"),
    ])
    def test_usage_error_is_one_config_line(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error[config]: "), captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_seed_of_2_to_the_64_is_one_config_line(self, tmp_path, capsys):
        # SplitMix64 holds a uint64 state, so this seed would repeat seed 0's split
        out = tmp_path / "out"
        assert run(["compare", "--data", FIXTURE_CSV, "--seed", str(2**64),
                    "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]: seed must be") and "18446744073709551616" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["train", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sentibench train")

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("boom")

        monkeypatch.setattr("sentibench.cli.cmd_stats", broken)
        assert run(["stats", "--data", FIXTURE_CSV]) == 1
        assert capsys.readouterr().err == "error[internal]: RuntimeError: boom\n"


class TestSubprocessInterface:
    def test_module_invocation_success_and_failure(self, tmp_path):
        ok = subprocess.run(
            [sys.executable, "-m", "sentibench.cli", "stats",
             "--data", FIXTURE_CSV, "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, env=child_env(),
        )
        assert ok.returncode == 0
        assert "negative" in ok.stdout

        bad = subprocess.run(
            [sys.executable, "-m", "sentibench.cli", "stats",
             "--data", str(tmp_path / "missing.csv")],
            capture_output=True, text=True, env=child_env(),
        )
        assert bad.returncode == 1
        assert bad.stderr.startswith("error[config]")
        assert len(bad.stderr.strip().splitlines()) == 1

    def test_cli_import_leaves_scipy_special_unloaded(self, tmp_path):
        # No code path needs scipy: it is not a run-time dependency, and
        # importing it slows every start-up. Checked after the import and
        # again after a compare run that trains every model on both vectorizers.
        modules = ("scipy.special", "scipy")
        argv = ["compare", "--data", FIXTURE_CSV, "--out-dir", str(tmp_path),
                "--model", ",".join(SHORT_RUN), "--vectorizer", "bow,tfidf",
                *(flag for flags in SHORT_RUN.values() for flag in flags)]
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, sentibench.cli\n"
             f"loaded = lambda: [m for m in {modules!r} if m in sys.modules]\n"
             "print(loaded())\n"
             f"assert sentibench.cli.main({argv!r}) == 0\n"
             "print(loaded())\n"],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        assert probe.stdout.splitlines()[0] == "[]"
        assert probe.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "comparison.json").is_file()

    def test_ci_runtime_script(self, tmp_path):
        # ci/runtime.sh holds the runtime CI job's sentibench commands; here
        # it runs through this interpreter, and each step leaves its files
        script = Path(__file__).resolve().parent.parent / "ci" / "runtime.sh"
        env = {**child_env(), "SENTIBENCH": f"{sys.executable} -m sentibench.cli",
               "PYTHON": sys.executable}
        done = subprocess.run(["sh", str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        cells = [f"{m}_{v}" for m in ("svm", "mnb", "rf", "logreg") for v in ("bow", "tfidf")]
        report = ("json", "csv", "txt")
        expected = {
            "out": {f"{stem}.{ext}" for stem in ("stats", "comparison") for ext in report}
            | {f"report_{cell}.json" for cell in cells}
            | {"model_rf_tfidf.json", "vectorizer_tfidf.json", "report_rf_tfidf.csv",
               "report_rf_tfidf.txt"},
            "out-pre": {"model_mnb_bow.json", "vectorizer_bow.json"}
            | {f"report_mnb_bow.{ext}" for ext in report},
            "out-half": {"model_mnb_bow.json"},
            "out-fmt": {"comparison.csv", "report_rf_tfidf.txt"},
            "out-v1": {f"report_{cell}.{ext}" for cell in cells for ext in report},
        }
        assert {p.name for p in tmp_path.iterdir()} == set(expected)
        for name, files in expected.items():
            assert {p.name for p in (tmp_path / name).iterdir()} == files, name


@needs_openblas_threads
class TestOneBlasThread:
    """Importing sentibench sets OPENBLAS_NUM_THREADS to 1 before NumPy loads,
    so OpenBLAS starts no thread pool, unless the caller set the variable."""

    PROBE = ("import sentibench, numpy\n"
             "print(next(line.split()[1] for line in open('/proc/self/status')\n"
             "           if line.startswith('Threads:')))")

    @pytest.mark.parametrize("openblas_threads, threads", [(None, "1"), ("2", "2")],
                             ids=["unset", "set-to-2"])
    def test_thread_count_after_import(self, openblas_threads, threads):
        assert run_with_blas_threads(self.PROBE, openblas_threads).strip() == threads

    @pytest.mark.parametrize("openblas_threads, threads", [(None, "1"), ("2", "2")],
                             ids=["unset", "set-to-2"])
    def test_thread_count_after_cli_import(self, openblas_threads, threads):
        # the console script's chain, which loads NumPy through sentibench.artifacts
        probe = self.PROBE.replace("import sentibench, numpy", "import sentibench.cli")
        assert run_with_blas_threads(probe, openblas_threads).strip() == threads
