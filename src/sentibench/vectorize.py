"""Token lists to sparse numeric vectors: binary bag-of-words and tf-idf.

Bag-of-words marks term presence with weight 1 (not counts). Tf-idf uses
tf = count / document-length and idf = ln(N / df) with no smoothing, so a
term present in every fit document has idf 0 and drops out of every
transformed vector. Vectorizers are immutable after fit and transforms
are pure, so fitted instances are safe to share across threads.

``transform`` vectorizes a whole corpus in one NumPy pass: every token
is mapped to its vocabulary id, the sorted unique (row, term) pairs are
counted with ``np.unique``, and their weights are computed as arrays.
The result is one canonical ``CsrMatrix``, the input every model takes.

The vectorizer artifact also records the preprocessing the vectorizer
was fitted behind, so evaluation can rebuild it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .base import ParamsMixin, check_fitted, check_int, read_json, write_json
from .errors import ArtifactError, ConfigError, TrainingError
from .preprocess import (
    Lemmatizer,
    StopWordList,
    TweetPreprocessor,
    Vocabulary,
    build_vocabulary,
)


def _indptr(counts) -> np.ndarray:
    """Row pointers from the number of entries in each row."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


class CsrMatrix:
    """A sparse matrix in compressed sparse row form, the one matrix type
    from vectorizer to model. Row i holds the columns ``indices[indptr[i]:
    indptr[i + 1]]``, strictly increasing in a canonical matrix such as
    ``transform`` builds, and the values at the same positions of ``data``;
    iterating yields one-row matrices. Products and ``toarray`` build each
    output value from zero, adding the entries one at a time in stored order."""

    __array_ufunc__ = None  # ``ndarray @ CsrMatrix`` calls __rmatmul__

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = indices if isinstance(indices, np.ndarray) else np.array(indices, np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self.nnz = self.data.size

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        for lo, hi in zip(self.indptr[:-1].tolist(), self.indptr[1:].tolist()):
            yield CsrMatrix(self.data[lo:hi], self.indices[lo:hi], (0, hi - lo), (1, self.shape[1]))

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __getitem__(self, rows) -> "CsrMatrix":
        """The rows that a slice or an integer array selects, in that order."""
        rows = np.arange(self.shape[0])[rows]
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = _indptr(lengths)
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CsrMatrix(self.data[take], self.indices[take], indptr, (rows.size, self.shape[1]))

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """``self @ other`` for a dense (columns, k) array, in C order: numpy
        sums the rows of an F-order array in another order."""
        row, gathered = self.entry_rows(), other[self.indices]
        out = np.zeros((self.shape[0], other.shape[1]))
        for c in range(other.shape[1]):
            out[:, c] = np.bincount(row, weights=self.data * gathered[:, c], minlength=len(out))
        return out

    def __rmatmul__(self, other: np.ndarray) -> np.ndarray:
        """``other @ self`` for a dense (k, rows) array, without building ``self.T``."""
        row, dims = self.entry_rows(), self.shape[1]
        out = np.zeros((other.shape[0], dims))
        for c in range(len(out)):
            out[c] = np.bincount(self.indices, weights=self.data * other[c, row], minlength=dims)
        return out

    @property
    def T(self) -> "CsrMatrix":
        """The transpose, a column-major copy: entries stably sorted by column."""
        order = np.argsort(self.indices, kind="stable")
        indptr = _indptr(np.bincount(self.indices, minlength=self.shape[1]))
        return CsrMatrix(self.data[order], self.entry_rows()[order], indptr, self.shape[::-1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.entry_rows(), self.indices), self.data)
        return out

    def canonical(self) -> "CsrMatrix":
        """This matrix if it is canonical, else a canonical copy: each row's
        entries sorted by column, and duplicates summed in stored order."""
        key = self.entry_rows() * self.shape[1] + self.indices
        if (key[1:] > key[:-1]).all():
            return self
        key, inverse = np.unique(key, return_inverse=True)
        row, col = np.divmod(key, self.shape[1])
        indptr = _indptr(np.bincount(row, minlength=self.shape[0]))
        return CsrMatrix(np.bincount(inverse, weights=self.data), col, indptr, self.shape)


def _count_terms(docs: Sequence[Sequence[str]], index: Mapping[str, int]):
    """Sorted unique (row, term) pairs of the docs' in-vocabulary tokens,
    with their counts, and the length of every doc (all of its tokens).

    Returns (row, term, counts, lengths) as int64 arrays.
    """
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    get = index.get
    ids = np.array([get(t, -1) for doc in docs for t in doc], dtype=np.int64)
    rows = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
    known = ids >= 0
    width = max(len(index), 1)
    keys, counts = np.unique(rows[known] * width + ids[known], return_counts=True)
    row, term = np.divmod(keys, width)
    return row, term, counts, lengths


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
            if not (math.isfinite(w) and w >= 0.0):
                raise ValueError(f"idf {w} is not finite and non-negative")
            if (w == 0.0) != (d == self.doc_count):
                raise ValueError("idf is zero exactly when df equals doc_count")


class _Vectorizer(ParamsMixin):
    """Shared vocabulary, dims and transform; subclasses define fit and
    the weights of the counted terms, and extend the artifact state."""

    def __init__(self):
        self.vocabulary_: Vocabulary | None = None

    @property
    def dims(self) -> int:
        check_fitted(self, "vocabulary_")
        return len(self.vocabulary_)

    def _weights(self, term: np.ndarray, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Weight of each counted (row, term) entry, given its term, count
        and the length of its row's document."""
        raise NotImplementedError

    def transform(self, docs: Iterable[Sequence[str]]) -> CsrMatrix:
        check_fitted(self, "vocabulary_")
        docs = list(docs)
        row, term, counts, lengths = _count_terms(docs, self.vocabulary_.index)
        data = self._weights(term, counts, lengths[row])
        keep = data != 0.0
        row, term, data = row[keep], term[keep], data[keep]
        indptr = _indptr(np.bincount(row, minlength=len(docs)))
        return CsrMatrix(data, term.astype(np.int32), indptr, (len(docs), self.dims))

    def state_to_dict(self) -> dict:
        """Fitted state as the artifact's top-level fields."""
        check_fitted(self, "vocabulary_")
        return {"terms": list(self.vocabulary_.terms)}

    def load_state(self, doc: Mapping) -> None:
        """Restore fitted state from an artifact document."""
        terms = doc["terms"]
        if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)):
            raise ArtifactError("terms must be a list of strings")
        self.vocabulary_ = Vocabulary(terms=tuple(terms))


class BowVectorizer(_Vectorizer):
    """Binary presence encoding over the fitted vocabulary."""

    kind = "bow"

    def fit(self, docs: Sequence[Sequence[str]]) -> "BowVectorizer":
        self.vocabulary_ = build_vocabulary(docs)
        return self

    def _weights(self, term, counts, lengths):
        return np.ones(term.size)


class TfidfVectorizer(_Vectorizer):
    """tf * ln(N/df) weighting over the fitted vocabulary."""

    kind = "tfidf"

    def fit(self, docs: Sequence[Sequence[str]]) -> "TfidfVectorizer":
        if len(docs) == 0:
            raise TrainingError("tfidf requires at least one fit document")
        self.vocabulary_ = build_vocabulary(docs)
        _, term, _, _ = _count_terms(docs, self.vocabulary_.index)
        df = np.bincount(term, minlength=len(self.vocabulary_)).tolist()
        n = len(docs)
        self.idf_table_ = IdfTable(
            doc_count=n, df=tuple(df), idf=tuple(math.log(n / d) for d in df)
        )
        return self

    def _weights(self, term, counts, lengths):
        # left to right: count / length first, then * idf (another order changes the last bits)
        return counts / lengths * np.array(self.idf_table_.idf)[term]

    def state_to_dict(self) -> dict:
        return {
            **super().state_to_dict(),  # first: raises if not fitted
            "doc_count": self.idf_table_.doc_count,
            "df": list(self.idf_table_.df),
            "idf": list(self.idf_table_.idf),
        }

    def load_state(self, doc: Mapping) -> None:
        super().load_state(doc)
        doc_count, df = doc["doc_count"], tuple(doc["df"])
        check_int("doc_count", doc_count, 1)
        for d in df:
            check_int("df", d, 1)
        self.idf_table_ = IdfTable(
            doc_count=doc_count,
            df=df,
            idf=tuple(float(w) for w in doc["idf"]),
        )
        if len(self.idf_table_.df) != len(self.vocabulary_):
            raise ArtifactError(f"df/idf length {len(self.idf_table_.df)} != terms length")


_VECTORIZERS = {cls.kind: cls for cls in (BowVectorizer, TfidfVectorizer)}
VECTORIZER_KINDS = tuple(_VECTORIZERS)

_VECTORIZER_FORMAT = "sentibench/vectorizer"
_VECTORIZER_VERSION = 1


def make_vectorizer(kind: str) -> BowVectorizer | TfidfVectorizer:
    if kind not in _VECTORIZERS:
        raise ValueError(f"unknown vectorizer kind {kind!r}")
    return _VECTORIZERS[kind]()


def _decode_vectorizer(doc: Mapping) -> tuple[_Vectorizer, TweetPreprocessor]:
    if doc.get("format") != _VECTORIZER_FORMAT:
        raise ArtifactError("not a vectorizer artifact (bad format field)")
    if doc.get("version") != _VECTORIZER_VERSION:
        raise ArtifactError(f"unsupported vectorizer version {doc.get('version')!r}")
    cls = _VECTORIZERS.get(doc.get("kind"))
    if cls is None:
        raise ArtifactError(f"unknown vectorizer kind {doc.get('kind')!r}")
    vec = cls()
    vec.load_state(doc)
    section = doc.get("preprocessing")
    if section is None:
        return vec, TweetPreprocessor()
    words, exceptions = section["stopwords"], section.get("lemma_exceptions", {})
    if not (isinstance(words, list) and isinstance(exceptions, dict) and all(
        isinstance(s, str) for s in (*words, *exceptions, *exceptions.values())
    )):
        raise ArtifactError(
            "preprocessing needs a stopwords list and a lemma_exceptions map of strings"
        )
    return vec, TweetPreprocessor(StopWordList(frozenset(words)), Lemmatizer(exceptions))


def save_vectorizer(vec: _Vectorizer, path: str, preprocessor: TweetPreprocessor) -> None:
    """Write the vectorizer artifact, with the preprocessing it was fitted behind."""
    write_json(path, {
        "format": _VECTORIZER_FORMAT,
        "version": _VECTORIZER_VERSION,
        "kind": vec.kind,
        **vec.state_to_dict(),
        "preprocessing": {
            "stopwords": sorted(preprocessor.stoplist.words),
            "lemma_exceptions": dict(sorted(preprocessor.lemmatizer.exceptions.items())),
        },
    })


def load_vectorizer(path: str) -> tuple[_Vectorizer, TweetPreprocessor]:
    """Read an artifact back as (vectorizer, preprocessor); a malformed one
    raises ArtifactError. Without a preprocessing section the preprocessor
    is the default one."""
    doc = read_json(path, "vectorizer artifact", ArtifactError)
    try:
        return _decode_vectorizer(doc)
    except (
        LookupError, TypeError, ValueError, AttributeError, OverflowError, ConfigError
    ) as exc:
        raise ArtifactError(
            f"malformed vectorizer artifact: {type(exc).__name__}: {exc}"
        ) from exc
