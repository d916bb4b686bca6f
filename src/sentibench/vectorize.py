"""Token lists to sparse numeric vectors: binary bag-of-words and tf-idf.

Bag-of-words marks term presence with weight 1 (not counts). Tf-idf uses
tf = count / document-length and idf = ln(N / df) with no smoothing, so a
term present in every fit document has idf 0 and drops out of every
transformed vector. Vectorizers are immutable after fit and transforms
are pure, so fitted instances are safe to share across threads.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .base import ParamsMixin, check_fitted
from .errors import ArtifactError, DimensionMismatchError, TrainingError
from .preprocess import Vocabulary, build_vocabulary


@dataclass(frozen=True)
class SparseVector:
    """Sorted (index, weight) pairs over a fixed number of dimensions."""

    dims: int
    indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have equal length")
        prev = -1
        for idx in self.indices:
            if idx <= prev:
                raise ValueError("indices must be strictly increasing")
            if idx >= self.dims:
                raise ValueError(f"index {idx} out of range for dims={self.dims}")
            prev = idx
        for val in self.values:
            if not math.isfinite(val):
                raise ValueError("weights must be finite")
            if val == 0.0:
                raise ValueError("explicit zero weights are not allowed")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dims)
        if self.indices:
            dense[list(self.indices)] = self.values
        return dense


def vectors_to_csr(vectors: Sequence[SparseVector], dims: int | None = None):
    """Stack sparse vectors into one scipy CSR matrix (uniform dims required)."""
    if dims is None:
        if not vectors:
            raise ValueError("cannot infer dims from an empty vector sequence")
        dims = vectors[0].dims
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    chunks_idx = []
    chunks_val = []
    for i, vec in enumerate(vectors):
        if vec.dims != dims:
            raise DimensionMismatchError(
                f"vector {i} has dims={vec.dims}, expected {dims}"
            )
        indptr[i + 1] = indptr[i] + vec.nnz
        chunks_idx.append(vec.indices)
        chunks_val.append(vec.values)
    indices = np.fromiter(
        (j for chunk in chunks_idx for j in chunk), dtype=np.int32, count=indptr[-1]
    )
    data = np.fromiter(
        (v for chunk in chunks_val for v in chunk), dtype=np.float64, count=indptr[-1]
    )
    return sparse.csr_matrix((data, indices, indptr), shape=(len(vectors), dims))


@dataclass(frozen=True)
class TermFrequencies:
    """Per-document term counts and the shared denominator.

    ``total_terms`` counts every token of the document, in- or
    out-of-vocabulary, so tf = counts[i] / total_terms.
    """

    counts: Mapping[int, int]
    total_terms: int

    def tf(self, index: int) -> float:
        return self.counts.get(index, 0) / self.total_terms

    def tf_map(self) -> dict[int, float]:
        return {i: n / self.total_terms for i, n in self.counts.items()}


def term_frequency(doc: Sequence[str], vocab: Vocabulary) -> TermFrequencies:
    """Count vocabulary terms in the doc; unknown tokens only add to the total."""
    counts: Counter[int] = Counter()
    for token in doc:
        idx = vocab.index.get(token)
        if idx is not None:
            counts[idx] += 1
    return TermFrequencies(counts=dict(counts), total_terms=len(doc))


@dataclass(frozen=True)
class IdfTable:
    """Per-term inverse document frequencies: idf = ln(doc_count / df)."""

    doc_count: int
    df: tuple[int, ...]
    idf: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.doc_count < 1:
            raise ValueError("doc_count must be >= 1")
        if len(self.df) != len(self.idf):
            raise ValueError("df and idf must have equal length")
        for d, w in zip(self.df, self.idf):
            if not (1 <= d <= self.doc_count):
                raise ValueError(f"df {d} outside [1, {self.doc_count}]")
            if w < 0.0:
                raise ValueError("idf must be non-negative")
            if (w == 0.0) != (d == self.doc_count):
                raise ValueError("idf is zero exactly when df equals doc_count")

    @classmethod
    def from_docs(cls, docs: Sequence[Sequence[str]], vocab: Vocabulary) -> "IdfTable":
        n = len(docs)
        df = [0] * len(vocab)
        for doc in docs:
            for idx in {vocab.index[t] for t in doc if t in vocab}:
                df[idx] += 1
        idf = tuple(math.log(n / d) if d else 0.0 for d in df)
        return cls(doc_count=n, df=tuple(df), idf=idf)


class BowVectorizer(ParamsMixin):
    """Binary presence encoding over the fitted vocabulary."""

    kind = "bow"

    def __init__(self):
        self.vocabulary_: Vocabulary | None = None

    @property
    def dims(self) -> int:
        check_fitted(self, "vocabulary_")
        return len(self.vocabulary_)

    def fit(self, docs: Sequence[Sequence[str]]) -> "BowVectorizer":
        self.vocabulary_ = build_vocabulary(docs)
        return self

    def transform_one(self, doc: Sequence[str]) -> SparseVector:
        check_fitted(self, "vocabulary_")
        index = self.vocabulary_.index
        present = sorted({index[t] for t in doc if t in index})
        return SparseVector(
            dims=len(self.vocabulary_),
            indices=tuple(present),
            values=(1.0,) * len(present),
        )

    def transform(self, docs: Iterable[Sequence[str]]) -> list[SparseVector]:
        return [self.transform_one(doc) for doc in docs]

    def fit_transform(self, docs: Sequence[Sequence[str]]) -> list[SparseVector]:
        return self.fit(docs).transform(docs)


class TfidfVectorizer(ParamsMixin):
    """tf * ln(N/df) weighting over the fitted vocabulary."""

    kind = "tfidf"

    def __init__(self):
        self.vocabulary_: Vocabulary | None = None
        self.idf_table_: IdfTable | None = None

    @property
    def dims(self) -> int:
        check_fitted(self, "vocabulary_")
        return len(self.vocabulary_)

    def fit(self, docs: Sequence[Sequence[str]]) -> "TfidfVectorizer":
        if len(docs) == 0:
            raise TrainingError("tfidf requires at least one fit document")
        self.vocabulary_ = build_vocabulary(docs)
        self.idf_table_ = IdfTable.from_docs(docs, self.vocabulary_)
        return self

    def transform_one(self, doc: Sequence[str]) -> SparseVector:
        check_fitted(self, "idf_table_")
        freqs = term_frequency(doc, self.vocabulary_)
        idf = self.idf_table_.idf
        entries = []
        for idx in sorted(freqs.counts):
            weight = freqs.counts[idx] / freqs.total_terms * idf[idx]
            if weight != 0.0:
                entries.append((idx, weight))
        return SparseVector(
            dims=len(self.vocabulary_),
            indices=tuple(i for i, _ in entries),
            values=tuple(w for _, w in entries),
        )

    def transform(self, docs: Iterable[Sequence[str]]) -> list[SparseVector]:
        return [self.transform_one(doc) for doc in docs]

    def fit_transform(self, docs: Sequence[Sequence[str]]) -> list[SparseVector]:
        return self.fit(docs).transform(docs)


VECTORIZER_KINDS = ("bow", "tfidf")

_VECTORIZER_FORMAT = "sentibench/vectorizer"
_VECTORIZER_VERSION = 1


def make_vectorizer(kind: str) -> BowVectorizer | TfidfVectorizer:
    if kind == "bow":
        return BowVectorizer()
    if kind == "tfidf":
        return TfidfVectorizer()
    raise ValueError(f"unknown vectorizer kind {kind!r}")


def vectorizer_to_dict(vec: BowVectorizer | TfidfVectorizer) -> dict:
    check_fitted(vec, "vocabulary_")
    doc = {
        "format": _VECTORIZER_FORMAT,
        "version": _VECTORIZER_VERSION,
        "kind": vec.kind,
        "terms": list(vec.vocabulary_.terms),
    }
    if vec.kind == "tfidf":
        doc["doc_count"] = vec.idf_table_.doc_count
        doc["df"] = list(vec.idf_table_.df)
        doc["idf"] = list(vec.idf_table_.idf)
    return doc


def vectorizer_from_dict(doc: Mapping) -> BowVectorizer | TfidfVectorizer:
    """Rebuild a vectorizer; any malformed document raises ArtifactError."""
    try:
        return _decode_vectorizer(doc)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactError(
            f"malformed vectorizer artifact: {type(exc).__name__}: {exc}"
        ) from exc


def _decode_vectorizer(doc: Mapping) -> BowVectorizer | TfidfVectorizer:
    if doc.get("format") != _VECTORIZER_FORMAT:
        raise ArtifactError("not a vectorizer artifact (bad format field)")
    if doc.get("version") != _VECTORIZER_VERSION:
        raise ArtifactError(f"unsupported vectorizer version {doc.get('version')!r}")
    kind = doc.get("kind")
    vocab = Vocabulary(terms=tuple(doc["terms"]))
    if kind == "bow":
        vec = BowVectorizer()
        vec.vocabulary_ = vocab
        return vec
    if kind == "tfidf":
        vec = TfidfVectorizer()
        vec.vocabulary_ = vocab
        vec.idf_table_ = IdfTable(
            doc_count=int(doc["doc_count"]),
            df=tuple(int(d) for d in doc["df"]),
            idf=tuple(float(w) for w in doc["idf"]),
        )
        return vec
    raise ArtifactError(f"unknown vectorizer kind {kind!r}")


def save_vectorizer(
    vec: BowVectorizer | TfidfVectorizer, path: str, extra: Mapping | None = None
) -> None:
    """Write the vectorizer artifact; ``extra`` adds sections (e.g. the
    preprocessing configuration) without touching the core schema."""
    doc = vectorizer_to_dict(vec)
    if extra:
        for key, value in extra.items():
            if key in doc:
                raise ValueError(f"extra key {key!r} collides with the schema")
            doc[key] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1)
        handle.write("\n")


def load_vectorizer(path: str) -> tuple[BowVectorizer | TfidfVectorizer, dict]:
    """Read an artifact back; returns (vectorizer, full document)."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ArtifactError(f"cannot read vectorizer artifact {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: invalid JSON: {exc}") from exc
    return vectorizer_from_dict(doc), doc
