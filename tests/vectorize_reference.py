"""Per-document vectorizer loops, kept as the reference for the bulk transform.

These are the bag-of-words and tf-idf weightings the vectorizers used
before they built one CSR matrix for a whole corpus with NumPy: each
document is counted on its own, through ``term_frequency``, into its
sorted (indices, weights). ``document_frequencies`` is the per-document
df count and idf the tf-idf fit used. The bulk code must produce the same
vocabulary, df, idf and CSR matrix, bit for bit. A vocabulary is a term ->
column dict, as the vectorizers keep it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from sentibench.vectorize import CsrMatrix


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


def term_frequency(doc: Sequence[str], vocab: Mapping[str, int]) -> TermFrequencies:
    """Count vocabulary terms in the doc; unknown tokens only add to the total."""
    counts = Counter(vocab[t] for t in doc if t in vocab)
    return TermFrequencies(counts=dict(counts), total_terms=len(doc))


def vocabulary(docs: Sequence[Sequence[str]]) -> dict[str, int]:
    """Unique tokens in first-occurrence order, one setdefault per token."""
    seen: dict[str, int] = {}
    for doc in docs:
        for token in doc:
            seen.setdefault(token, len(seen))
    return seen


def document_frequencies(docs: Sequence[Sequence[str]], vocab: Mapping[str, int]):
    """(df, idf) as lists, one entry per vocabulary column."""
    n = len(docs)
    df = [0] * len(vocab)
    for doc in docs:
        for idx in {vocab[t] for t in doc if t in vocab}:
            df[idx] += 1
    return df, [math.log(n / d) if d else 0.0 for d in df]


def bow_weights(doc: Sequence[str], vocab: Mapping[str, int]):
    present = tuple(sorted({vocab[t] for t in doc if t in vocab}))
    return present, (1.0,) * len(present)


def tfidf_weights(doc: Sequence[str], vocab: Mapping[str, int], idf: Sequence[float]):
    freqs = term_frequency(doc, vocab)
    entries = []
    for idx in sorted(freqs.counts):
        weight = freqs.counts[idx] / freqs.total_terms * idf[idx]
        if weight != 0.0:
            entries.append((idx, weight))
    return tuple(i for i, _ in entries), tuple(w for _, w in entries)


def transform(vec, docs: Sequence[Sequence[str]]) -> list[tuple[tuple, tuple]]:
    """(indices, weights) per document, weighted the way ``vec.kind`` does."""
    vocab = vec.vocabulary_
    if vec.kind == "bow":
        pairs = [bow_weights(doc, vocab) for doc in docs]
    else:
        pairs = [tfidf_weights(doc, vocab, vec.idf_.tolist()) for doc in docs]
    return pairs


def transform_csr(vec, docs: Sequence[Sequence[str]]):
    """The per-document vectors stacked row by row into one CsrMatrix."""
    rows = transform(vec, docs)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(indices) for indices, _ in rows], out=indptr[1:])
    indices = np.array([i for row, _ in rows for i in row], dtype=np.int32)
    data = np.array([w for _, weights in rows for w in weights], dtype=np.float64)
    return CsrMatrix(data, indices, indptr, (len(rows), len(vec.vocabulary_)))
