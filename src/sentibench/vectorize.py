"""Counted corpora to sparse numeric vectors: binary bag-of-words and tf-idf.

Bag-of-words marks term presence with weight 1 (not counts). Tf-idf uses
tf = count / document-length and idf = ln(N / df) with no smoothing, so a
term present in every fit document has idf 0 and drops out of every
transformed vector. Vectorizers are immutable after fit and transforms
are pure, so fitted instances are safe to share across threads.

A corpus is counted once, by ``TermCounts.count``: into a (docs, terms)
``CsrMatrix`` of term counts whose columns are the corpus's own terms in
first-occurrence order, and each doc's length. ``fit`` and ``transform``
take only the ``TermCounts`` that ``preprocess_corpus`` returns. ``fit``
takes its vocabulary from the terms and tf-idf's df from the count
columns. ``transform`` weights the counts as they are when the corpus's
terms are the vocabulary (the fit corpus), and otherwise first maps their
columns onto it, dropping unknown terms. The result is one canonical
``CsrMatrix``, the input every model takes.

Fitted state is plain values: ``vocabulary_`` maps each term to its
column, and tf-idf adds the fit's document count and per-column df and
idf arrays. ``artifacts`` saves and loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import check_fitted
from .errors import TrainingError


def _indptr(counts) -> np.ndarray:
    """Row pointers from the number of entries in each row."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


class CsrMatrix:
    """A sparse matrix in compressed sparse row form, the one matrix type
    from vectorizer to model. Row i holds the columns ``indices[indptr[i]:
    indptr[i + 1]]``, strictly increasing in a canonical matrix such as
    ``transform`` builds, and the values at the same positions of ``data``;
    iterating yields one-row matrices. Products and ``toarray`` build each
    output value from zero, adding the entries one at a time in stored order.
    The vectorizers' column ids are int32, to halve their memory; NumPy
    converts them to intp on each indexing call, so a consumer that indexes
    by one row at a time (the svm's steps) converts them once up front.
    ``indices`` and ``indptr`` keep the dtype they are given (an empty list
    is int64, not float), so that ``check_vectors`` can refuse float ids."""

    __array_ufunc__ = None  # ``ndarray @ CsrMatrix`` calls __rmatmul__

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, None if len(indices) else np.int64)
        self.indptr = np.asarray(indptr, None if len(indptr) else np.int64)
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
        rising = self.indices[1:] > self.indices[:-1]
        starts = self.indptr[(0 < self.indptr) & (self.indptr < self.nnz)]
        rising[starts - 1] = True  # a pair across a row start is in order
        if rising.all():
            return self
        key = self.entry_rows() * self.shape[1] + self.indices
        key, inverse = np.unique(key, return_inverse=True)
        row, col = np.divmod(key, self.shape[1])
        indptr = _indptr(np.bincount(row, minlength=self.shape[0]))
        return CsrMatrix(np.bincount(inverse, weights=self.data), col, indptr, self.shape)


@dataclass(frozen=True, eq=False)  # eq would compare arrays elementwise
class TermCounts:
    """A counted corpus: ``counts`` is a (docs, terms) ``CsrMatrix`` of term
    counts, whose columns are ``terms``, the corpus's own terms in
    first-occurrence order, and ``lengths`` holds each doc's token count."""

    counts: CsrMatrix
    terms: list[str]
    lengths: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size

    @classmethod
    def count(cls, ids, lengths: np.ndarray, names: Sequence[str]) -> "TermCounts":
        """Count a corpus given as the flat term ids of all its tokens, doc
        after doc (an integer array), and each doc's token count; id i is
        the term ``names[i]``, and a name no token has is not a column.
        The (row, column) keys are int64, sorted in place; each run of equal
        keys is one entry, whose length is its count. The columns are int32,
        as ``transform``'s are, so it can share them."""
        first = np.full(len(names), ids.size)
        np.minimum.at(first, ids, np.arange(ids.size))
        seen = np.flatnonzero(first < ids.size)
        order = seen[np.argsort(first[seen])]
        column = np.empty(len(names), dtype=np.int64)
        column[order] = np.arange(order.size)
        rows, width = lengths.size, max(order.size, 1)
        keys = column[ids]
        keys += np.repeat(np.arange(0, rows * width, width), lengths)  # row * width + column
        keys.sort()
        edge = np.ones(keys.size + 1, dtype=bool)  # edge[k]: a run of equal keys starts at k
        np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
        keys = keys[edge[:-1]]
        indptr = np.searchsorted(keys, np.arange(rows + 1) * width)
        keys %= width
        columns = keys.astype(np.int32)
        del keys
        bounds = np.flatnonzero(edge)
        del edge
        data = np.subtract(bounds[1:], bounds[:-1], dtype=np.float64)
        matrix = CsrMatrix(data, columns, indptr, (rows, order.size))
        return cls(matrix, [names[i] for i in order.tolist()], lengths)


def inverse_document_frequencies(doc_count: int, df) -> np.ndarray:
    """ln(doc_count / d) for each document frequency d, as float64."""
    return np.array([math.log(doc_count / d) for d in df], dtype=np.float64)


class _Vectorizer:
    """Shared vocabulary, dims, fit and transform; subclasses define the
    weights of the counted terms."""

    def __init__(self):
        self.vocabulary_: dict[str, int] | None = None

    @property
    def dims(self) -> int:
        check_fitted(self, "vocabulary_")
        return len(self.vocabulary_)

    def fit(self, corpus: TermCounts):
        self.vocabulary_ = dict(zip(corpus.terms, range(len(corpus.terms))))
        return self

    def _weights(self, term: np.ndarray, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Weight of each counted (row, term) entry, given its term, count
        and the length of its row's document."""
        raise NotImplementedError

    def transform(self, corpus: TermCounts) -> CsrMatrix:
        counts, shape = corpus.counts, (len(corpus), self.dims)
        if corpus.terms != list(self.vocabulary_):
            # another corpus's columns: remap them, drop unknown terms, sort
            # each row (the map is injective, so no key repeats)
            get = self.vocabulary_.get
            column = np.array([get(t, -1) for t in corpus.terms], dtype=np.int32)[counts.indices]
            known = column >= 0
            key = np.repeat(np.arange(shape[0]) * shape[1], np.diff(counts.indptr))[known]
            column = column[known]
            key += column
            order = np.argsort(key)
            indptr = np.searchsorted(key[order], np.arange(shape[0] + 1) * shape[1])
            counts = CsrMatrix(counts.data[known][order], column[order], indptr, shape)
        indptr, term = counts.indptr, counts.indices
        data = self._weights(term, counts.data, np.repeat(corpus.lengths, np.diff(indptr)))
        keep = data != 0.0
        if not keep.all():  # tf-idf drops the terms of idf 0
            indptr, term, data = _indptr(keep)[indptr], term[keep], data[keep]
        return CsrMatrix(data, term, indptr, shape)


class BowVectorizer(_Vectorizer):
    """Binary presence encoding over the fitted vocabulary."""

    kind = "bow"

    def _weights(self, term, counts, lengths):
        return np.ones(term.size)


class TfidfVectorizer(_Vectorizer):
    """tf * ln(N/df) weighting over the fitted vocabulary: ``doc_count_`` is
    N, and ``df_`` (int64) and ``idf_`` (float64) hold one entry per column."""

    kind = "tfidf"

    def fit(self, corpus: TermCounts) -> "TfidfVectorizer":
        if len(corpus) == 0:
            raise TrainingError("tfidf requires at least one fit document")
        self.doc_count_ = len(corpus)
        self.df_ = np.bincount(corpus.counts.indices, minlength=len(corpus.terms))
        self.idf_ = inverse_document_frequencies(self.doc_count_, self.df_.tolist())
        return super().fit(corpus)

    def _weights(self, term, counts, lengths):
        # left to right: count / length first, then * idf (another order changes the last bits)
        weights = counts / lengths
        weights *= self.idf_[term]
        return weights


VECTORIZER_CLASSES = {cls.kind: cls for cls in (BowVectorizer, TfidfVectorizer)}
VECTORIZER_KINDS = tuple(VECTORIZER_CLASSES)
