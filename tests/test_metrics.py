"""Confusion matrix, accuracy, per-class and weighted metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as ref
from sentibench.errors import DatasetError, DimensionMismatchError
from sentibench.metrics import ClassMetrics, MetricsReport, confusion_matrix, evaluate
from sentibench.models import MultinomialNaiveBayes
from sentibench.preprocess import TweetPreprocessor
from sentibench.vectorize import BowVectorizer
from helpers import count_tokens, make_corpus


def random_counts(rng):
    return rng.integers(0, 40, size=(3, 3)) + np.eye(3, dtype=int)


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        truth = ["negative", "neutral", "positive", "negative"]
        cm = confusion_matrix(truth, truth)
        assert cm.dtype == np.int64
        assert cm.tolist() == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_hand_counted_matrix(self):
        truth = ["negative", "negative", "positive"]
        pred = ["negative", "positive", "positive"]
        cm = confusion_matrix(truth, pred)
        assert cm.tolist() == [[1, 0, 1], [0, 0, 0], [0, 0, 1]]
        assert ref.true_positives(cm, "negative") == 1
        assert ref.false_negatives(cm, "negative") == 1
        assert ref.false_positives(cm, "positive") == 1

    def test_single_predicted_class_is_one_column(self):
        truth = ["negative", "neutral", "positive"]
        pred = ["neutral"] * 3
        cm = confusion_matrix(truth, pred)
        assert cm[:, 1].tolist() == [1, 1, 1]
        assert cm[:, 0].sum() == 0 and cm[:, 2].sum() == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            confusion_matrix(["negative"], ["negative", "positive"])

    def test_label_that_is_not_a_polarity(self):
        for truth, pred in ((["negative"], ["bogus"]), (["Positive"], ["positive"])):
            with pytest.raises(ValueError, match="not a polarity: '(bogus|Positive)'"):
                confusion_matrix(truth, pred)

    def test_empty_inputs(self):
        cm = confusion_matrix([], [])
        assert cm.tolist() == [[0, 0, 0]] * 3
        with pytest.raises(DatasetError):
            MetricsReport.from_counts(cm)

    def test_row_and_column_sums(self):
        rng = np.random.default_rng(3)
        truth = [("negative", "neutral", "positive")[i] for i in rng.integers(0, 3, 60)]
        pred = [("negative", "neutral", "positive")[i] for i in rng.integers(0, 3, 60)]
        cm = confusion_matrix(truth, pred)
        assert cm.sum(axis=1).tolist() == [
            truth.count(c) for c in ("negative", "neutral", "positive")
        ]
        assert cm.sum(axis=0).tolist() == [
            pred.count(c) for c in ("negative", "neutral", "positive")
        ]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        labels = ("negative", "neutral", "positive")
        truth = [labels[i] for i in rng.integers(0, 3, 40)]
        pred = [labels[i] for i in rng.integers(0, 3, 40)]
        order = rng.permutation(40)
        cm1 = confusion_matrix(truth, pred)
        cm2 = confusion_matrix([truth[i] for i in order], [pred[i] for i in order])
        assert (cm1 == cm2).all()

    @pytest.mark.parametrize("counts", [
        np.ones((2, 2), dtype=int), np.array([[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    ], ids=["2x2", "negative entry"])
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(ValueError):
            MetricsReport.from_counts(counts)


class TestPerClassMetrics:
    def test_diagonal_matrix_all_ones(self):
        report = MetricsReport.from_counts(np.diag([3, 4, 5]))
        for m in report.per_class.values():
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_absent_class_zero_by_convention(self):
        cm = confusion_matrix(["negative", "positive"], ["negative", "positive"])
        m = MetricsReport.from_counts(cm).per_class["neutral"]
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_hand_matrix_cross_check(self):
        # truth [neg, neg, pos], pred [neg, pos, pos]:
        # negative: TP=1 FP=0 FN=1 -> P=1, R=0.5, F1=2/3
        # positive: TP=1 FP=1 FN=0 -> P=0.5, R=1, F1=2/3
        cm = confusion_matrix(
            ["negative", "negative", "positive"], ["negative", "positive", "positive"]
        )
        m = MetricsReport.from_counts(cm).per_class
        assert m["negative"] == ClassMetrics(1.0, 0.5, 2 / 3)
        assert m["positive"] == ClassMetrics(0.5, 1.0, 2 / 3)
        assert m["neutral"] == ClassMetrics(0.0, 0.0, 0.0)


class TestWeightedMetrics:
    def test_equal_supports_is_plain_mean(self):
        # every row sums to 5
        report = MetricsReport.from_counts([[3, 1, 1], [2, 2, 1], [3, 0, 2]])
        for name in ("precision", "recall", "f1"):
            mean = sum(getattr(m, name) for m in report.per_class.values()) / 3
            assert getattr(report.weighted, name) == pytest.approx(mean, abs=1e-15)

    def test_single_support_class_dominates(self):
        report = MetricsReport.from_counts([[6, 2, 1], [0, 0, 0], [0, 0, 0]])
        assert report.support == {"negative": 9, "neutral": 0, "positive": 0}
        assert report.weighted == report.per_class["negative"]
        assert report.weighted == ClassMetrics(1.0, 6 / 9, 0.8)

    def test_imbalanced_supports_hand_checked(self):
        # supports 9178/3099/2363 with precisions 8000/10000, 1800/3000, 820/1640:
        # (9178*0.8 + 3099*0.6 + 2363*0.5) / 14640 = 0.7092418032786885
        counts = [[8000, 1178, 0], [479, 1800, 820], [1521, 22, 820]]
        report = MetricsReport.from_counts(counts)
        assert report.support == {"negative": 9178, "neutral": 3099, "positive": 2363}
        assert [m.precision for m in report.per_class.values()] == [0.8, 0.6, 0.5]
        assert report.weighted.precision == pytest.approx(0.7092418032786885, abs=1e-12)

    def test_zero_total_support(self):
        with pytest.raises(DatasetError):
            MetricsReport.from_counts(np.zeros((3, 3), dtype=int))


class TestReportRows:
    # neutral has no support and is never predicted: every figure is 0/0
    COUNTS = [[2, 1, 0], [0, 0, 0], [1, 0, 3]]
    NEGATIVE = (2 / 3, 2 / 3, 2.0 * (2 / 3) * (2 / 3) / (2 / 3 + 2 / 3))
    POSITIVE = (1.0, 0.75, 2.0 * 1.0 * 0.75 / (1.0 + 0.75))
    WEIGHTED = tuple(3 / 7 * n + 0 / 7 * 0.0 + 4 / 7 * p for n, p in zip(NEGATIVE, POSITIVE))
    ROWS = [
        ("negative", *NEGATIVE, 3),
        ("neutral", 0.0, 0.0, 0.0, 0),
        ("positive", *POSITIVE, 4),
        ("weighted", *WEIGHTED, 7),
    ]

    def report(self):
        return MetricsReport.from_counts(self.COUNTS)

    def test_rows(self):
        rows = self.report().rows()
        assert rows == self.ROWS
        assert all(type(row[4]) is int for row in rows)

    def test_json_reads_the_rows(self):
        payload = self.report().to_json_dict()
        keys = ("precision", "recall", "f1", "support")
        for name, *figures in self.ROWS[:3]:
            assert payload["per_class"][name] == dict(zip(keys, figures))
        assert payload["per_class"]["neutral"] == {
            "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0,
        }
        assert payload["weighted"] == dict(zip(keys[:3], self.WEIGHTED))
        assert payload["accuracy"] == 5 / 7

    def test_csv_reads_the_rows(self):
        records = self.report().csv_rows()
        assert records[0] == ["class", "precision", "recall", "f1", "support"]
        assert records[1:-1] == [
            [name, *map(repr, figures), support] for name, *figures, support in self.ROWS
        ]
        assert records[2] == ["neutral", "0.0", "0.0", "0.0", 0]
        assert records[-1] == ["accuracy", repr(5 / 7), "", "", ""]

    def test_table_reads_the_rows(self):
        lines = self.report().render_table().splitlines()
        assert lines[1:-1] == [
            f"{name:<10} {p:>9.2f} {r:>7.2f} {f:>6.2f} {s:>8d}" for name, p, r, f, s in self.ROWS
        ]
        assert lines[2].split() == ["neutral", "0.00", "0.00", "0.00", "0"]
        assert lines[-1] == "accuracy: 0.71"


class TestAccuracy:
    def test_diagonal_is_one(self):
        assert MetricsReport.from_counts(np.diag([1, 2, 3])).accuracy == 1.0

    def test_all_wrong_is_zero(self):
        cm = confusion_matrix(["negative", "neutral"], ["positive", "positive"])
        assert MetricsReport.from_counts(cm).accuracy == 0.0

    def test_trace_over_total(self):
        cm = confusion_matrix(
            ["negative", "negative", "positive"], ["negative", "positive", "positive"]
        )
        assert MetricsReport.from_counts(cm).accuracy == pytest.approx(2 / 3, abs=1e-15)


class TestWeightedRecallIdentity:
    def test_equals_accuracy_on_random_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            report = MetricsReport.from_counts(random_counts(rng))
            assert abs(report.weighted.recall - report.accuracy) <= 1e-12


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=9, max_size=9).filter(any))
    def test_from_counts_equals_the_per_label_functions_bit_for_bit(self, flat):
        counts = np.array(flat, dtype=np.int64).reshape(3, 3)
        report = MetricsReport.from_counts(counts)
        per_class = ref.per_class_metrics(counts)
        support = ref.support(counts)
        assert report.per_class == per_class
        assert report.support == support
        assert report.weighted == ref.weighted_metrics(per_class, support)
        assert report.accuracy == ref.accuracy(counts)
        assert report.confusion.tolist() == counts.tolist()


class TestReportAndEvaluate:
    def separable_setup(self):
        texts = {
            "negative": "awful awful delay",
            "neutral": "gate update information",
            "positive": "wonderful wonderful crew",
        }
        corpus = make_corpus(
            [(texts[c], c) for c in ("negative", "neutral", "positive")] * 2
        )
        pre = TweetPreprocessor()
        docs = pre.preprocess_corpus(corpus.texts)
        vec = BowVectorizer().fit(docs)
        model = MultinomialNaiveBayes().fit(vec.transform(docs), corpus.labels)
        return model, vec, corpus, pre

    @staticmethod
    def vectors(vec, corpus, pre):
        return vec.transform(pre.preprocess_corpus(corpus.texts))

    def test_perfect_model_reports_all_ones(self):
        model, vec, corpus, pre = self.separable_setup()
        vectors = self.vectors(vec, corpus, pre)
        report = evaluate(model, vec, corpus.labels, vectors, metadata={"seed": 0})
        assert report.accuracy == 1.0
        assert report.weighted.f1 == 1.0
        assert report.metadata["model"] == "mnb"
        assert report.metadata["seed"] == 0

    def test_dims_mismatch_rejected(self):
        model, _, corpus, pre = self.separable_setup()
        other = BowVectorizer().fit(count_tokens([["completely", "different", "words"]]))
        with pytest.raises(DimensionMismatchError):
            evaluate(model, other, corpus.labels, self.vectors(other, corpus, pre))

    def test_empty_test_corpus_rejected(self):
        model, vec, corpus, pre = self.separable_setup()
        with pytest.raises(DatasetError):
            empty = make_corpus([])
            evaluate(model, vec, empty.labels, self.vectors(vec, empty, pre))

    def test_json_dict_shape(self):
        model, vec, corpus, pre = self.separable_setup()
        vectors = self.vectors(vec, corpus, pre)
        payload = evaluate(model, vec, corpus.labels, vectors).to_json_dict()
        assert payload["accuracy"] == 1.0
        assert set(payload["per_class"]) == {"negative", "neutral", "positive"}
        assert payload["confusion_matrix"]["counts"] == [
            [2, 0, 0], [0, 2, 0], [0, 0, 2],
        ]

    def test_render_table_two_decimals(self):
        model, vec, corpus, pre = self.separable_setup()
        vectors = self.vectors(vec, corpus, pre)
        text = evaluate(model, vec, corpus.labels, vectors).render_table()
        assert "accuracy: 1.00" in text
        assert "weighted" in text

    def test_empty_after_preprocessing_tweets_still_counted(self):
        model, vec, _, pre = self.separable_setup()
        corpus = make_corpus(
            [
                ("awful awful delay", "negative"),
                ("The is that!!", "neutral"),  # empties out, stays as a zero vector
            ]
        )
        report = evaluate(model, vec, corpus.labels, self.vectors(vec, corpus, pre))
        assert report.confusion.sum() == 2
        assert report.metadata["test_size"] == 2

    def test_majority_predictor_scores_majority_share(self):
        from sentibench.corpus import load_dataset, train_test_split
        from helpers import FIXTURE_CSV

        corpus = load_dataset(FIXTURE_CSV)
        _, test = train_test_split(corpus, train_ratio=0.75, seed=2)
        pre = TweetPreprocessor()
        docs = pre.preprocess_corpus(test.texts)
        vec = BowVectorizer().fit(docs)
        # training on single-class data degenerates into a majority predictor
        stub = MultinomialNaiveBayes().fit(
            vec.transform(pre.preprocess_corpus(test.texts[:1])), ["negative"]
        )
        report = evaluate(stub, vec, test.labels, vec.transform(docs))
        labels = test.labels
        majority_share = labels.count("negative") / len(labels)
        assert report.accuracy == pytest.approx(majority_share, abs=1e-15)
