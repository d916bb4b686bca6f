"""Multinomial naive Bayes against exact brute-force Bayes arithmetic."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sentibench import MultinomialNaiveBayes, TrainingError, model_from_dict, model_to_dict
from sentibench.corpus import POLARITIES
from sentibench.models import check_vectors
from helpers import csr

# 4 docs over 3 terms, one per line, with alpha = 1:
#   negative: [1,1,0], [1,0,0]   neutral: [0,1,1]   positive: [0,0,1]
TOY_ROWS = [[(0, 1), (1, 1)], [(0, 1)], [(1, 1), (2, 1)], [(2, 1)]]
TOY_X = csr(3, TOY_ROWS)
TOY_X2 = TOY_X[np.tile(np.arange(len(TOY_ROWS)), 2)]  # every doc twice
TOY_Y = ["negative", "negative", "neutral", "positive"]

# Hand-smoothed likelihoods: (class term total + 1) / (class total + 3)
TOY_LIKELIHOOD = {
    "negative": (Fraction(3, 6), Fraction(2, 6), Fraction(1, 6)),
    "neutral": (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
    "positive": (Fraction(1, 4), Fraction(1, 4), Fraction(2, 4)),
}
TOY_PRIOR = {
    "negative": Fraction(2, 4),
    "neutral": Fraction(1, 4),
    "positive": Fraction(1, 4),
}


def exact_posterior(x_dense, priors, likelihoods):
    """Direct smoothed Bayes rule in exact rational arithmetic."""
    joints = {}
    for c, prior in priors.items():
        joint = prior
        for t, weight in enumerate(x_dense):
            joint *= likelihoods[c][t] ** int(weight)
        joints[c] = joint
    total = sum(joints.values())
    return {c: joints[c] / total for c in joints}


class TestToyCorpus:
    def test_parameters_match_hand_computation(self):
        model = MultinomialNaiveBayes(alpha=1.0).fit(TOY_X, TOY_Y)
        order = ("negative", "neutral", "positive")
        for i, c in enumerate(order):
            assert model.class_log_prior_[i] == pytest.approx(
                math.log(TOY_PRIOR[c]), abs=1e-12
            )
            for t in range(3):
                assert model.feature_log_likelihood_[i, t] == pytest.approx(
                    math.log(TOY_LIKELIHOOD[c][t]), abs=1e-12
                )

    def test_posteriors_match_exact_bayes_rule(self):
        model = MultinomialNaiveBayes(alpha=1.0).fit(TOY_X, TOY_Y)
        for x in ([1, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1], [1, 1, 1]):
            expected = exact_posterior(x, TOY_PRIOR, TOY_LIKELIHOOD)
            pairs = [(i, 1.0) for i, w in enumerate(x) if w]
            row = model._score_matrix(check_vectors(csr(3, [pairs]), dims=model.dims))[0]
            got = dict(zip(POLARITIES, row.tolist()))
            for c in expected:
                assert got[c] == pytest.approx(float(expected[c]), abs=1e-12)

    def test_prediction_is_posterior_argmax(self):
        model = MultinomialNaiveBayes(alpha=1.0).fit(TOY_X, TOY_Y)
        expected = exact_posterior([1, 1, 0], TOY_PRIOR, TOY_LIKELIHOOD)
        best = max(expected, key=expected.get)
        assert model.predict(csr(3, [[(0, 1), (1, 1)]]))[0] == best == "negative"


class TestDegenerateAndErrors:
    def test_single_class_training_predicts_that_class(self):
        X = csr(2, [[(0, 1)], [(1, 1)]])
        model = MultinomialNaiveBayes().fit(X, ["negative", "negative"])
        assert model.predict(csr(2, [[(1, 3)], []])) == ["negative", "negative"]

    def test_absent_class_prior_round_trips_as_null(self):
        model = MultinomialNaiveBayes().fit(TOY_X[:3], TOY_Y[:3])
        doc = model_to_dict(model, "bow")
        assert doc["params"]["class_log_prior"][2] is None
        assert model_from_dict(doc).class_log_prior_[2] == -math.inf

    def test_negative_weights_rejected(self):
        with pytest.raises(TrainingError, match="non-negative"):
            MultinomialNaiveBayes().fit(csr(2, [[(0, -1.0)]]), ["negative"])

    @pytest.mark.parametrize("alpha", [
        pytest.param(1e308, id="overflow"),  # inf class totals: every likelihood is log(0)
        pytest.param(5e-324, id="underflow"),  # an unseen term's likelihood is log(0)
    ])
    def test_non_finite_likelihoods_rejected(self, alpha):
        # a RuntimeWarning from the overflow or log(0) would fail this test
        with pytest.raises(TrainingError, match="non-finite log-likelihoods"):
            MultinomialNaiveBayes(alpha=alpha).fit(TOY_X, TOY_Y)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=0.0)


class TestDuplicationScaling:
    def test_priors_unchanged_by_duplication(self):
        once = MultinomialNaiveBayes().fit(TOY_X, TOY_Y)
        twice = MultinomialNaiveBayes().fit(TOY_X2, TOY_Y + TOY_Y)
        assert np.allclose(once.class_log_prior_, twice.class_log_prior_, atol=1e-12)

    def test_relative_frequencies_scale_invariant_as_alpha_vanishes(self):
        # Laplace smoothing itself is not scale invariant; the underlying
        # relative frequencies are, so near-zero alpha pins the property for
        # every term the class has actually seen (unseen terms tend to
        # probability zero on both sides, at different log-space rates).
        once = MultinomialNaiveBayes(alpha=1e-9).fit(TOY_X, TOY_Y)
        twice = MultinomialNaiveBayes(alpha=1e-9).fit(TOY_X2, TOY_Y + TOY_Y)
        order = ("negative", "neutral", "positive")
        seen = np.zeros((3, 3), dtype=bool)
        for pairs, label in zip(TOY_ROWS, TOY_Y):
            for i, _ in pairs:
                seen[order.index(label), i] = True
        diff = np.abs(once.feature_log_likelihood_ - twice.feature_log_likelihood_)
        assert diff[seen].max() < 1e-6
        # smoothed-away terms vanish in probability space on both sides
        assert np.exp(once.feature_log_likelihood_[~seen]).max() < 1e-8
        assert np.exp(twice.feature_log_likelihood_[~seen]).max() < 1e-8


class TestBruteForceEquivalence:
    def test_random_tiny_corpora_fractional_weights(self):
        # Direct float evaluation of the smoothed Bayes formula, including
        # fractional (tf-idf style) weights treated as soft counts.
        rng = random.Random(7)
        labels3 = ["negative", "neutral", "positive"]
        for trial in range(40):
            n_docs = rng.randint(2, 4)
            dims = rng.randint(2, 5)
            alpha = rng.choice([0.5, 1.0, 2.0])
            rows, y = [], []
            for _ in range(n_docs):
                rows.append([
                    (t, round(rng.uniform(0.1, 3.0), 3))
                    for t in range(dims)
                    if rng.random() < 0.7
                ])
                y.append(rng.choice(labels3))
            model = MultinomialNaiveBayes(alpha=alpha).fit(csr(dims, rows), y)

            counts = {c: y.count(c) for c in labels3}
            totals = {c: [0.0] * dims for c in labels3}
            for pairs, label in zip(rows, y):
                for i, w in pairs:
                    totals[label][i] += w

            query = [(t, 0.5 + 0.25 * t) for t in range(dims)]
            log_joint = {}
            for c in labels3:
                if counts[c] == 0:
                    continue
                lj = math.log(counts[c] / n_docs)
                denom = sum(totals[c]) + alpha * dims
                for i, w in query:
                    lj += w * math.log((totals[c][i] + alpha) / denom)
                log_joint[c] = lj
            norm = math.log(sum(math.exp(v) for v in log_joint.values()))
            expected = {c: math.exp(v - norm) for c, v in log_joint.items()}

            row = model._score_matrix(check_vectors(csr(dims, [query]), dims=model.dims))[0]
            got = dict(zip(POLARITIES, row.tolist()))
            for c in labels3:
                assert got[c] == pytest.approx(expected.get(c, 0.0), abs=1e-12)
