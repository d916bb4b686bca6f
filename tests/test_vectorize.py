"""Bag-of-words and tf-idf vectorizers, their CsrMatrix rows, serialization."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vectorize_reference
from sentibench.artifacts import load_vectorizer, save_vectorizer
from sentibench.errors import ArtifactError, DimensionMismatchError, TrainingError
from sentibench.models import MultinomialNaiveBayes, check_vectors
from sentibench.preprocess import TweetPreprocessor
from sentibench.vectorize import (
    VECTORIZER_CLASSES, VECTORIZER_KINDS, BowVectorizer, CsrMatrix, TermCounts, TfidfVectorizer,
)
from helpers import (
    EXAMPLE_TOKENS_1, EXAMPLE_TOKENS_2, brute_counts, count_tokens, counts_of, csr, traced_peak,
    zipf_tokens,
)
from vectorize_reference import term_frequency

DOCS = [EXAMPLE_TOKENS_1, EXAMPLE_TOKENS_2]
DEFAULT_PREPROCESSOR = TweetPreprocessor()


def entries(matrix) -> list[tuple[tuple, tuple]]:
    """Each row of a CsrMatrix as its (indices, values)."""
    return [(tuple(r.indices.tolist()), tuple(r.data.tolist())) for r in matrix]


def row(vec, doc) -> tuple[tuple, tuple]:
    """The (indices, values) of the one row ``transform`` makes of one document."""
    (out,) = entries(vec.transform(count_tokens([doc])))
    return out


def dense(vec, doc) -> np.ndarray:
    return vec.transform(count_tokens([doc])).toarray()[0]


def load_tampered_tfidf(tmp_path, corrupt):
    """Load a tf-idf artifact of DOCS after ``corrupt`` edits its JSON in place."""
    path = tmp_path / "vec.json"
    save_vectorizer(TfidfVectorizer().fit(count_tokens(DOCS)), str(path), DEFAULT_PREPROCESSOR)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    return load_vectorizer(str(path))


class TestCsrMatrix:
    def test_valid_roundtrip_to_dense(self):
        rows = csr(5, [[(3, 2.5), (0, 1.0)]])
        assert rows.toarray().tolist() == [[1.0, 0.0, 0.0, 2.5, 0.0]]
        assert entries(rows) == [((0, 3), (1.0, 2.5))]
        assert rows.nnz == 2
        empty = CsrMatrix([], [], [0, 0, 0], (2, 3))  # from lists, with no entries
        assert (empty @ np.ones((3, 2))).tolist() == [[0.0, 0.0]] * 2
        assert empty.toarray().tolist() == [[0.0] * 3] * 2

    def test_no_explicit_zeros_or_nonfinite(self, tmp_path):
        # transform drops zero weights, and a non-finite idf never loads
        rows = TfidfVectorizer().fit(count_tokens(DOCS)).transform(count_tokens(DOCS))
        assert 0.0 not in rows.data and np.isfinite(rows.data).all()
        for bad in (math.inf, math.nan):
            with pytest.raises(ArtifactError, match="finite"):
                load_tampered_tfidf(tmp_path, lambda d: d["idf"].__setitem__(-1, bad))

    def test_csr_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_vectors(csr(4, [[(0, 1.0)]]), dims=3)
        for other in (np.array([[1.0, 0.0, 0.0]]), [((0,), (1.0,))]):
            with pytest.raises(TypeError):
                check_vectors(other)

    @pytest.mark.parametrize("data, indices, indptr, rows", [
        pytest.param([1.0], [3], [0, 1, 1], 2, id="column index past the width"),
        pytest.param([1.0], [-1], [0, 1, 1], 2, id="negative column index"),
        pytest.param([1.0, 2.0], [0, 1], [0, 1, 1], 2, id="more entries than indptr holds"),
        pytest.param([1.0], [0], [0, 1], 2, id="indptr one short"),
        pytest.param([1.0], [0], [1, 0, 1], 2, id="decreasing indptr"),
        pytest.param([1.0, 2.0], [0], [0, 1, 1], 2, id="data longer than indices"),
        pytest.param([1.0], [0], np.array([0, 1, 1], np.uint64), 2, id="unsigned indptr"),
        pytest.param([1.0], [[0]], [0, 1, 1], 2, id="2-d column ids"),
        pytest.param([[1.0]], [0], [0, 1, 1], 2, id="2-d data"),
        pytest.param([1.0, 2.0], [2, 0], [0, 2, 2], 2, id="a falling pair in a row"),
        pytest.param([1.0, 2.0], [1, 1], [0, 0, 2], 2, id="a repeated column in a row"),
        pytest.param([1.0, 2.0, 3.0, 1.0], np.array([2, 0, 1, 0], np.uint64), [0, 2, 3, 4], 3,
                     id="falling uint64 column ids"),
    ])
    def test_malformed_arrays_are_refused(self, data, indices, indptr, rows):
        X = CsrMatrix(data, np.array(indices), indptr, (rows, 3))
        before = [a.copy() for a in (X.data, X.indices, X.indptr)]
        with pytest.raises(ValueError, match=f"malformed {rows} x 3 CsrMatrix"):
            check_vectors(X)
        for after, original in zip((X.data, X.indices, X.indptr), before):
            assert np.array_equal(after, original)


class TestBow:
    def test_worked_example_vectors(self):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        assert bow.dims == 11
        assert bow.transform(count_tokens(DOCS)).toarray().tolist() == [
            [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0],
            [1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1],
        ]

    def test_empty_doc(self):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        assert row(bow, []) == ((), ())

    def test_presence_not_counts(self):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        doc = ["late", "late", "late", "slow"]
        once = row(bow, ["late", "slow"])
        assert row(bow, doc) == once
        assert set(once[1]) == {1.0}

    def test_doubled_doc_equals_doc(self):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        doc = EXAMPLE_TOKENS_2
        assert row(bow, doc + doc) == row(bow, doc)

    def test_unknown_tokens_ignored(self):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        assert row(bow, ["pizza", "sushi"]) == ((), ())

    def test_transform_matches_per_doc(self):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        want = vectorize_reference.transform(bow, DOCS)
        assert entries(bow.transform(count_tokens(DOCS))) == want

    def test_transform_deterministic(self):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        assert row(bow, EXAMPLE_TOKENS_1) == row(bow, EXAMPLE_TOKENS_1)


class TestTermFrequency:
    """The reference's per-document tf, which TestBulkTransform holds the
    bulk tf-idf transform to bit for bit, against hand counts."""

    def test_worked_example_doc_one(self):
        vocab = BowVectorizer().fit(count_tokens(DOCS)).vocabulary_
        freqs = term_frequency(EXAMPLE_TOKENS_1, vocab)
        assert freqs.total_terms == 8
        assert freqs.counts[vocab["delicious"]] == 1
        assert freqs.tf(vocab["delicious"]) == Fraction(1, 8)

    def test_worked_example_doc_two(self):
        vocab = BowVectorizer().fit(count_tokens(DOCS)).vocabulary_
        freqs = term_frequency(EXAMPLE_TOKENS_2, vocab)
        assert freqs.total_terms == 6
        # exact rational as integers; the float is the rounded division
        assert Fraction(freqs.counts[vocab["late"]], freqs.total_terms) == Fraction(1, 6)
        assert freqs.tf(vocab["late"]) == 1 / 6
        assert freqs.tf(vocab["beef"]) == 0.0

    def test_hand_counts(self):
        vocab = BowVectorizer().fit(count_tokens([["a", "b", "c"]])).vocabulary_
        freqs = term_frequency(["a", "a", "b", "c"], vocab)
        assert freqs.tf_map() == {0: 0.5, 1: 0.25, 2: 0.25}

    def test_unknown_tokens_count_toward_denominator(self):
        vocab = BowVectorizer().fit(count_tokens([["a"]])).vocabulary_
        freqs = term_frequency(["a", "zzz", "zzz", "zzz"], vocab)
        assert freqs.total_terms == 4
        assert freqs.tf(0) == 0.25

    def test_empty_doc(self):
        vocab = BowVectorizer().fit(count_tokens([["a"]])).vocabulary_
        assert term_frequency([], vocab).counts == {}

    def test_tf_sums_to_one_for_in_vocab_docs(self):
        rng = random.Random(5)
        vocab = BowVectorizer().fit(count_tokens([["a", "b", "c", "d", "e"]])).vocabulary_
        for _ in range(50):
            doc = [rng.choice("abcde") for _ in range(rng.randint(1, 30))]
            total = sum(term_frequency(doc, vocab).tf_map().values())
            assert abs(total - 1.0) <= 1e-9


class TestIdf:
    def test_worked_example_values(self):
        tfidf = TfidfVectorizer().fit(count_tokens(DOCS))
        vocab, idf = tfidf.vocabulary_, tfidf.idf_
        assert idf[vocab["delicious"]] == 0.0
        assert abs(idf[vocab["beef"]] - math.log(2)) < 1e-15

    def test_single_document_all_zero(self):
        tfidf = TfidfVectorizer().fit(count_tokens([EXAMPLE_TOKENS_1]))
        assert set(tfidf.idf_.tolist()) == {0.0}

    def test_monotonicity(self):
        docs = [["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]]
        tfidf = TfidfVectorizer().fit(count_tokens(docs))
        df, idf = tfidf.df_, tfidf.idf_
        for i in range(len(df)):
            for j in range(len(df)):
                if df[i] < df[j]:
                    assert idf[i] > idf[j]

    def test_invariant_validation(self, tmp_path):
        # at load: each df an integer in [1, doc_count], each idf ln(doc_count / df)
        for corrupt, message in [
            (lambda d: d.update(df=[0] * len(d["df"])), "df must be an integer >= 1"),
            (lambda d: d["df"].__setitem__(0, d["doc_count"] + 1), "exceeds doc_count"),
            (lambda d: d["idf"].__setitem__(d["df"].index(2), 0.5), "ln"),
            (lambda d: d["idf"].__setitem__(d["df"].index(1), 0.0), "ln"),
            (lambda d: d.update(idf=[7 * w for w in d["idf"]]), "ln"),
        ]:
            with pytest.raises(ArtifactError, match=message):
                load_tampered_tfidf(tmp_path, corrupt)


class TestTfidfTransform:
    def test_worked_example_weights(self):
        tfidf = TfidfVectorizer().fit(count_tokens(DOCS))
        vocab = tfidf.vocabulary_
        rows = tfidf.transform(count_tokens(DOCS))
        dense1, dense2 = rows.toarray()
        assert dense1[vocab["beef"]] == pytest.approx(math.log(2) / 8, abs=1e-15)
        assert dense2[vocab["late"]] == pytest.approx(math.log(2) / 6, abs=1e-15)
        # terms in every fit document drop out entirely
        for term in ("delicious", "mcdonald", "hamburger"):
            assert vocab[term] not in rows.indices

    def test_requires_fit_docs(self):
        with pytest.raises(TrainingError):
            TfidfVectorizer().fit(count_tokens([]))

    def test_unseen_only_doc_is_empty(self):
        tfidf = TfidfVectorizer().fit(count_tokens(DOCS))
        assert row(tfidf, ["pizza", "sushi"]) == ((), ())

    def test_empty_doc_is_empty_vector(self):
        tfidf = TfidfVectorizer().fit(count_tokens(DOCS))
        assert row(tfidf, []) == ((), ())

    def test_transform_corpus_matches_per_doc(self):
        tfidf = TfidfVectorizer().fit(count_tokens(DOCS))
        want = vectorize_reference.transform(tfidf, DOCS)
        assert entries(tfidf.transform(count_tokens(DOCS))) == want

    def test_transform_bit_identical(self):
        tfidf = TfidfVectorizer().fit(count_tokens(DOCS))
        a = row(tfidf, EXAMPLE_TOKENS_2)
        b = row(tfidf, EXAMPLE_TOKENS_2)
        assert a[1] == b[1]

    def test_brute_force_equivalence_on_random_corpora(self):
        # Direct evaluation of tf * ln(N/df), term by term, on tiny corpora.
        rng = random.Random(99)
        alphabet = list("abcdefgh")
        for _ in range(50):
            n_docs = rng.randint(1, 5)
            docs = [
                [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
                for _ in range(n_docs)
            ]
            tfidf = TfidfVectorizer().fit(count_tokens(docs))
            vocab = tfidf.vocabulary_
            for doc in docs:
                weights = dense(tfidf, doc)
                for term, idx in vocab.items():
                    tf = doc.count(term) / len(doc)
                    df = sum(1 for d in docs if term in d)
                    expected = tf * math.log(n_docs / df)
                    assert abs(weights[idx] - expected) <= 1e-12


FIT_TOKENS = st.sampled_from("abcde")
DOC_TOKENS = st.sampled_from("abcdefgh")  # f, g and h are never fitted


def assert_matches_reference(kind, fit_docs, docs, fit_on=None, apply_to=None):
    """Fitted state and the transform's CSR equal the per-document loops on
    the token lists, bit for bit. ``fit_on`` and ``apply_to`` are the counts
    the vectorizer is given in their place, by default ``count_tokens``'s."""
    vec = VECTORIZER_CLASSES[kind]().fit(count_tokens(fit_docs) if fit_on is None else fit_on)
    vocab = vectorize_reference.vocabulary(fit_docs)
    assert list(vec.vocabulary_.items()) == list(vocab.items())
    if kind == "tfidf":
        df, idf = vectorize_reference.document_frequencies(fit_docs, vocab)
        assert vec.doc_count_ == len(fit_docs)
        assert vec.df_.dtype == np.int64 and vec.df_.tolist() == df
        assert vec.idf_.dtype == np.float64 and vec.idf_.tobytes() == np.array(idf).tobytes()
    got = vec.transform(count_tokens(docs) if apply_to is None else apply_to)
    want = vectorize_reference.transform_csr(vec, docs)
    assert got.shape == want.shape
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


class TestBulkTransform:
    @pytest.mark.parametrize("kind", ["bow", "tfidf"])
    @pytest.mark.parametrize("fit_docs, docs", [
        pytest.param([["a", "b"], ["c"]], [[], ["a"], []], id="empty docs"),
        pytest.param([["a", "b"], ["c"]], [["x", "y"], ["a", "x", "x"]], id="all-oov doc"),
        pytest.param([["a", "a", "b"], ["b"]], [["a", "a", "a", "b"]], id="repeated tokens"),
        pytest.param([["a", "b"], ["a", "c"], ["c", "a"]], [["a", "b", "c"], ["a"]],
                     id="term in every fit doc"),
        pytest.param([["a", "b", "a"]], [["a", "b", "a"], ["b"]], id="one doc"),
        pytest.param([["a"], ["b"]], [], id="zero docs"),
        pytest.param([[], []], [["a"], []], id="empty vocabulary"),
    ])
    def test_edge_cases_match_reference(self, kind, fit_docs, docs):
        assert_matches_reference(kind, fit_docs, docs)

    def test_bow_fit_on_zero_docs(self):
        assert_matches_reference("bow", [], [["a"], []])

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["bow", "tfidf"]),
        fit_docs=st.lists(st.lists(FIT_TOKENS, max_size=8), min_size=1, max_size=6),
        docs=st.lists(st.lists(DOC_TOKENS, max_size=10), max_size=6),
    )
    def test_random_corpora_match_reference(self, kind, fit_docs, docs):
        assert_matches_reference(kind, fit_docs, docs)


# Tweets of ASCII and non-ASCII words, inflections of one lemma, stop-words
# only, empty text and arbitrary text.
_TEXTS = st.one_of(
    st.lists(st.sampled_from([
        "The", "is", "flights", "flight", "Flights!", "delayed", "delay", "Café",
        "ΟΔΟΣ", "naïve", "\u212aings", "kings", "👍", "#late", "@united",
    ]), max_size=8).map(" ".join),
    st.lists(st.sampled_from(["the", "is", "THAT", "he", "she"]), max_size=4).map(" ".join),
    st.text(max_size=40),
)


class TestCountedCorpus:
    """``preprocess_corpus`` counts, on a fresh preprocessor or one that has
    seen another corpus, equal brute-force counts of ``__call__``'s token
    lists and ``count_tokens``'s counts of them, and vectorize as those
    lists do. So the tests that count token lists with ``count_tokens``
    give the vectorizers the input the program makes."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["bow", "tfidf"]),
        seen=st.lists(_TEXTS, max_size=4),
        train=st.lists(_TEXTS, min_size=1, max_size=6),
        test=st.lists(_TEXTS, max_size=6),
    )
    def test_counts_and_vectors_match_token_lists(self, kind, seen, train, test):
        pre = TweetPreprocessor()
        pre.preprocess_corpus(seen)
        test_counts = pre.preprocess_corpus(test)  # test before train
        train_counts = pre.preprocess_corpus(train)
        fresh = TweetPreprocessor()
        train_docs, test_docs = [fresh(t) for t in train], [fresh(t) for t in test]
        assert counts_of(train_counts) == brute_counts(train_docs)
        assert counts_of(test_counts) == brute_counts(test_docs)
        assert counts_of(count_tokens(train_docs)) == counts_of(train_counts)
        assert counts_of(count_tokens(test_docs)) == counts_of(test_counts)
        assert_matches_reference(kind, train_docs, train_docs, train_counts, train_counts)
        assert_matches_reference(kind, train_docs, test_docs, train_counts, test_counts)


class TestTransformRows:
    @pytest.mark.parametrize("kind", ["bow", "tfidf"])
    def test_row_sequence_contract(self, kind):
        vec = VECTORIZER_CLASSES[kind]().fit(count_tokens(DOCS))
        docs = [*DOCS, [], ["pizza"], EXAMPLE_TOKENS_2 * 2]
        out = vec.transform(count_tokens(docs))
        assert len(out) == out.shape[0] == len(docs)
        assert sum(v.nnz for v in out) == out.nnz
        assert entries(out) == [row(vec, doc) for doc in docs]
        assert entries(out[-1:]) == entries(out[len(docs) - 1:])
        assert check_vectors(out) is out
        assert check_vectors(out, dims=vec.dims) is out
        with pytest.raises(DimensionMismatchError):
            check_vectors(out, dims=vec.dims + 1)

    def test_index_may_fall_between_rows(self):
        matrix = CsrMatrix([1.0, 2.0, 3.0], [2, 0, 1], [0, 1, 1, 3], (3, 3))
        assert entries(matrix) == [((2,), (1.0,)), ((), ()), ((0, 1), (2.0, 3.0))]


def matrix_bytes(matrix) -> int:
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


class TestMemoryBudget:
    """Traced peaks of the counted path on ``zipf_tokens``' 20,000 seeded
    docs. Each bound leaves room for the arrays a step needs, not for a
    spare int64 copy of the tokens or the entries."""

    @pytest.fixture(scope="class")
    def counted(self):
        return zipf_tokens()

    def test_count_peaks_under_twice_its_result(self, counted):
        corpus, peak = traced_peak(TermCounts.count, *counted)
        assert peak <= 2.0 * matrix_bytes(corpus.counts)

    def test_tfidf_transform_peaks_under_1_8_times_its_result(self, counted):
        corpus = TermCounts.count(*counted)
        vectors, peak = traced_peak(TfidfVectorizer().fit(corpus).transform, corpus)
        assert peak <= 1.8 * matrix_bytes(vectors)

    def test_naive_bayes_fit_peaks_under_1_75_int64_per_entry(self, counted):
        corpus = TermCounts.count(*counted)
        vectors = TfidfVectorizer().fit(corpus).transform(corpus)
        labels = [("negative", "neutral", "positive")[i % 3] for i in range(len(corpus))]
        _, peak = traced_peak(MultinomialNaiveBayes().fit, vectors, labels)
        assert peak <= 1.75 * vectors.nnz * 8


class TestSerialization:
    def test_round_trip_bow(self, tmp_path):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        path = tmp_path / "vec.json"
        save_vectorizer(bow, str(path), DEFAULT_PREPROCESSOR)
        loaded, _ = load_vectorizer(str(path))
        assert loaded.kind == "bow"
        assert list(loaded.vocabulary_.items()) == list(bow.vocabulary_.items())
        assert json.loads(path.read_text())["version"] == 1

    def test_round_trip_tfidf_preserves_idf(self, tmp_path):
        tfidf = TfidfVectorizer().fit(count_tokens(DOCS))
        path = tmp_path / "vec.json"
        save_vectorizer(tfidf, str(path), DEFAULT_PREPROCESSOR)
        loaded, _ = load_vectorizer(str(path))
        assert loaded.doc_count_ == tfidf.doc_count_
        assert loaded.df_.dtype == np.int64 and loaded.df_.tolist() == tfidf.df_.tolist()
        assert loaded.idf_.tobytes() == tfidf.idf_.tobytes()
        assert row(loaded, EXAMPLE_TOKENS_2) == row(tfidf, EXAMPLE_TOKENS_2)

    def test_save_is_deterministic(self, tmp_path):
        tfidf = TfidfVectorizer().fit(count_tokens(DOCS))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_vectorizer(tfidf, str(p1), DEFAULT_PREPROCESSOR)
        save_vectorizer(tfidf, str(p2), DEFAULT_PREPROCESSOR)
        assert p1.read_bytes() == p2.read_bytes()

    def test_preprocessing_section_round_trips(self, tmp_path):
        words = frozenset({"he", "she", "the", "is", "that", "gate"})
        preprocessor = TweetPreprocessor(words, {"flew": "fly"})
        path = tmp_path / "vec.json"
        save_vectorizer(BowVectorizer().fit(count_tokens(DOCS)), str(path), preprocessor)
        _, loaded = load_vectorizer(str(path))
        assert loaded.stopwords == words
        assert loaded.lemma_exceptions == {"flew": "fly"}

    def test_missing_preprocessing_section_means_default(self, tmp_path):
        path = tmp_path / "vec.json"
        save_vectorizer(BowVectorizer().fit(count_tokens(DOCS)), str(path), DEFAULT_PREPROCESSOR)
        doc = json.loads(path.read_text())
        del doc["preprocessing"]
        path.write_text(json.dumps(doc))
        _, loaded = load_vectorizer(str(path))
        assert loaded.stopwords == DEFAULT_PREPROCESSOR.stopwords
        assert loaded.lemma_exceptions == {}

    def test_bad_format_and_version(self, tmp_path):
        bow = BowVectorizer().fit(count_tokens(DOCS))
        path = tmp_path / "vec.json"
        save_vectorizer(bow, str(path), DEFAULT_PREPROCESSOR)
        doc = json.loads(path.read_text())
        doc["format"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError):
            load_vectorizer(str(path))
        doc["format"] = "sentibench/vectorizer"
        for version in (99, True, 1.0):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ArtifactError, match="version"):
                load_vectorizer(str(path))

    @pytest.mark.parametrize("kind, key", [
        ("bow", "terms"), ("tfidf", "terms"), ("tfidf", "df"), ("tfidf", "idf"),
    ])
    def test_missing_key_is_artifact_error(self, tmp_path, kind, key):
        path = tmp_path / "vec.json"
        vec = VECTORIZER_CLASSES[kind]().fit(count_tokens(DOCS))
        save_vectorizer(vec, str(path), DEFAULT_PREPROCESSOR)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match=key):
            load_vectorizer(str(path))

    def test_wrong_field_types_are_artifact_errors(self, tmp_path):
        path = tmp_path / "vec.json"
        save_vectorizer(TfidfVectorizer().fit(count_tokens(DOCS)), str(path), DEFAULT_PREPROCESSOR)
        good = json.loads(path.read_text())
        for bad in ({**good, "terms": 7}, {**good, "doc_count": "many"},
                    {**good, "idf": [None]}, ["not", "a", "mapping"]):
            path.write_text(json.dumps(bad))
            with pytest.raises(ArtifactError):
                load_vectorizer(str(path))

    def test_malformed_preprocessing_is_artifact_error(self, tmp_path):
        path = tmp_path / "vec.json"
        save_vectorizer(BowVectorizer().fit(count_tokens(DOCS)), str(path), DEFAULT_PREPROCESSOR)
        good = json.loads(path.read_text())
        section = good["preprocessing"]
        for bad in ({"stopwords": ["gate"]}, {**section, "stopwords": "the"},
                    {**section, "lemma_exceptions": {"flew": 5}},
                    {**section, "lemma_exceptions": [["flew", "fly"]]}, 5):
            path.write_text(json.dumps({**good, "preprocessing": bad}))
            with pytest.raises(ArtifactError):
                load_vectorizer(str(path))

    def test_vectorizer_classes_map_each_kind_to_its_class(self):
        assert VECTORIZER_KINDS == tuple(VECTORIZER_CLASSES) == ("bow", "tfidf")
        for kind, cls in VECTORIZER_CLASSES.items():
            assert cls.kind == kind
