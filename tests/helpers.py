"""Shared test utilities: fixture paths, CsrMatrix builders, reference data."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import sentibench
from sentibench.artifacts import load_model, save_model
from sentibench.corpus import POLARITIES, Corpus
from sentibench.models import check_vectors
from sentibench.vectorize import CsrMatrix, TermCounts

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_CSV = str(DATA_DIR / "fixture_tweets.csv")
# The fixture's train artifacts (seed 2) as format version 1 wrote them.
V1_ARTIFACTS = DATA_DIR / "v1"

# Hand-read from the fixture file, row by row.
FIXTURE_LABELS = [
    "negative", "positive", "neutral", "negative", "positive",
    "neutral", "negative", "positive", "neutral", "negative",
]
FIXTURE_COUNTS = {"negative": 4, "neutral": 3, "positive": 3}


def csr(dims: int, rows) -> CsrMatrix:
    """Build a CsrMatrix, one row per list of unsorted (index, weight) pairs."""
    indptr, indices, data = [0], [], []
    for pairs in rows:
        for i, v in sorted(pairs):
            indices.append(i)
            data.append(float(v))
        indptr.append(len(indices))
    return CsrMatrix(
        np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
        np.array(indptr, dtype=np.int64), (len(rows), dims),
    )


def from_dense(dense) -> CsrMatrix:
    """The CsrMatrix of a 2-d array's nonzero entries, row by row."""
    dense = np.asarray(dense, dtype=np.float64)
    return csr(dense.shape[1], [[(j, v) for j, v in enumerate(row) if v] for row in dense])


def brute_counts(docs) -> tuple[list, list, list]:
    """(terms, lengths, dense counts) of token lists, counted one token at a
    time: terms in first-occurrence order, and one count row per doc."""
    terms = list(dict.fromkeys(t for doc in docs for t in doc))
    rows = [[doc.count(t) for t in terms] for doc in docs]
    return terms, [len(doc) for doc in docs], rows


def count_tokens(docs) -> TermCounts:
    """Token lists counted as ``preprocess_corpus`` counts a corpus: terms in
    first-occurrence order. ``TestCountedCorpus`` holds the two equal."""
    docs, table = list(docs), {}
    ids = np.array([table.setdefault(t, len(table)) for doc in docs for t in doc], np.int64)
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    return TermCounts.count(ids, lengths, list(table))


def zipf_tokens() -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``TermCounts.count``'s (ids, lengths, names) for 20,000 seeded docs of
    0-19 tokens whose ids are drawn by Zipf over 5,000 names (189,703 tokens
    and 140,237 entries with NumPy 2.4)."""
    rng = np.random.default_rng(0)
    lengths = rng.integers(0, 20, 20_000).astype(np.int32)
    ids = ((rng.zipf(1.3, int(lengths.sum())) - 1) % 5_000).astype(np.int32)
    return ids, lengths, [f"t{i}" for i in range(5_000)]


def counts_of(corpus) -> tuple[list, list, list]:
    """A counted corpus as ``brute_counts`` gives it; its count matrix must
    be canonical, which ``check_vectors`` takes as it is."""
    assert check_vectors(corpus.counts) is corpus.counts
    assert corpus.counts.shape == (len(corpus), len(corpus.terms))
    return corpus.terms, corpus.lengths.tolist(), corpus.counts.toarray().astype(int).tolist()


# Short-run flags of each model. A command takes only those of the models it
# builds, so a run passes the entries of its own models.
SHORT_RUN = {"svm": ["--svm-epochs", "2"], "mnb": [], "rf": ["--rf-trees", "2"],
             "logreg": ["--logreg-epochs", "2"]}

# Rows up to 60 long: OpenBLAS ddot sums 16 or more entries in unrolled blocks.
LONG_ROW = 60


def random_csr(lengths, unit: bool, seed: int) -> CsrMatrix:
    """Canonical CSR with one row per entry of ``lengths`` (stored entries
    per row) over 2 * LONG_ROW columns; values are 1.0 (bag-of-words) when
    ``unit``, else uniform in [-4, 4)."""
    rng = np.random.default_rng(seed)
    dims = 2 * LONG_ROW
    rows = [
        zip(rng.choice(dims, k, replace=False), np.ones(k) if unit else rng.uniform(-4, 4, k))
        for k in lengths
    ]
    return csr(dims, rows)


@st.composite
def canonical_csr(draw, n: int, unit: bool) -> CsrMatrix:
    """``random_csr`` with n rows of 1-LONG_ROW stored entries each."""
    lengths = draw(st.lists(st.integers(1, LONG_ROW), min_size=n, max_size=n))
    return random_csr(lengths, unit, draw(st.integers(0, 2**32 - 1)))


def model_doc(model, vectorizer: str = "bow") -> dict:
    """The JSON document ``save_model`` writes for ``model``, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path, vectorizer)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)


def load_doc(doc, vectorizer: str | None = None):
    """``load_model`` of a file holding ``doc`` as JSON, which writes a
    non-finite float as NaN, Infinity or -Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return load_model(path, vectorizer)


def as_version_1(doc: dict) -> dict:
    """A version 2 model artifact as format version 1 held it: no
    ``vectorizer`` field, and each forest tree as nested records, a leaf
    {class, counts} and an internal node {feature, threshold, left, right}."""
    old = {key: value for key, value in doc.items() if key != "vectorizer"}
    old["version"] = 1
    if doc["variant"] == "rf":
        old["params"] = {"trees": [_nested_tree(tree) for tree in doc["params"]["trees"]]}
    return old


def _nested_tree(tree: dict) -> dict:
    feature, threshold, left, counts = (
        tree[key] for key in ("feature", "threshold", "left", "counts")
    )
    records = [None] * len(feature)
    for i in reversed(range(len(feature))):  # children have higher ids
        if feature[i] < 0:
            records[i] = {"class": POLARITIES[counts[i].index(max(counts[i]))],
                          "counts": counts[i]}
        else:
            records[i] = {"feature": feature[i], "threshold": threshold[i],
                          "left": records[left[i]], "right": records[left[i] + 1]}
    return records[0]


def make_corpus(texts_labels) -> Corpus:
    pairs = list(texts_labels)
    return Corpus(
        array("q", range(1, len(pairs) + 1)),
        [text for text, _ in pairs],
        [label for _, label in pairs],
    )


def full_dataset_path() -> str | None:
    """Path of the user-downloaded full dataset, if available."""
    candidates = [os.environ.get("SENTIBENCH_DATASET")]
    here = Path(__file__).resolve().parent.parent
    candidates += [str(here / "data" / "Tweets.csv"), str(here / "Tweets.csv")]
    for candidate in candidates:
        if candidate and Path(candidate).is_file():
            return candidate
    return None


# The two-tweet worked example exercised throughout the vectorizer tests.
EXAMPLE_TWEET_1 = (
    "#Delicious #Beef #Cheese #Burger @McDonald Testing CheeseBurger and Hamburger"
)
EXAMPLE_TWEET_2 = "#Late Service @McDonald Delicious Hamburger but slow service"

# Reference token lists for the numeric examples (tweet 2 carries "service"
# once here; the preprocessing pipeline keeps the duplicate).
EXAMPLE_TOKENS_1 = [
    "delicious", "beef", "cheese", "burger", "mcdonald", "taste",
    "cheeseburger", "hamburger",
]
EXAMPLE_TOKENS_2 = ["late", "service", "mcdonald", "delicious", "hamburger", "slow"]

EXAMPLE_VOCAB = (
    "delicious", "beef", "cheese", "burger", "mcdonald", "taste",
    "cheeseburger", "hamburger", "late", "service", "slow",
)


def child_env() -> dict:
    """This process's environment, with the directory ``sentibench`` was
    imported from first on the child's PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(sentibench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_with_blas_threads(code: str, openblas_threads: str | None) -> str:
    """The stdout of ``python -c code`` in a child whose environment sets no
    BLAS thread count, besides OPENBLAS_NUM_THREADS if ``openblas_threads``
    is given. This process may have the variable set: it imported sentibench."""
    env = {key: value for key, value in child_env().items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def _openblas_would_thread() -> bool:
    """On Linux with 2 or more CPUs, NumPy's OpenBLAS starts a thread pool
    unless told otherwise."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # NumPy before 1.26 has no mode="dicts"
        return False
    return sys.platform == "linux" and (os.cpu_count() or 1) >= 2 and "openblas" in blas.lower()


needs_openblas_threads = pytest.mark.skipif(
    not _openblas_would_thread(), reason="needs Linux, 2+ CPUs and NumPy on OpenBLAS")
