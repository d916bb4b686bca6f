"""Per-tree forest fit and predict, kept as the reference for the forest.

``fit_trees`` grows one tree after another, each on its own resampled
matrix ``csr[sample]``, with the row-gather split search the forest used
before its column-major scan: every node gathers its rows' CSR entries
(``X[rows]``) and drops the entries outside the sampled features.
``_grow_tree`` expects CSR input without duplicate entries.
``score_matrix`` routes the rows through one tree at a time. The
lockstep forest in ``sentibench.models.forest`` must build identical
trees and identical vote fractions.
"""

from __future__ import annotations

import math

import numpy as np

from sentibench.models.base import check_X_y
from sentibench.models.forest import _Tree, _sample_features


def _best_split(X, y, rows, node_hist, sampled, feat_flags, row_flags):
    """Return (feature, threshold, left_rows, right_rows) or None.

    ``feat_flags`` / ``row_flags`` are reusable boolean scratch buffers of
    size n_features / n_rows.
    """
    sub = X[rows]
    feats = sub.indices
    vals = sub.data
    per_row = np.diff(sub.indptr)
    entry_row = np.repeat(rows, per_row)
    entry_lab = np.repeat(y[rows], per_row)

    feat_flags[sampled] = True
    keep = feat_flags[feats]
    feat_flags[sampled] = False
    if not keep.any():
        return None
    feats = feats[keep]
    vals = vals[keep]
    entry_row = entry_row[keep]
    entry_lab = entry_lab[keep]

    # Per-feature class histogram of the nonzero entries.
    ufeat, inv = np.unique(feats, return_inverse=True)
    nz_hist = np.zeros((ufeat.size, 3))
    np.add.at(nz_hist, (inv, entry_lab), 1.0)
    nz_count = np.bincount(inv, minlength=ufeat.size)
    zero_hist = node_hist - nz_hist
    has_zero = rows.size - nz_count > 0

    # One virtual entry per feature stands in for all its implicit zeros.
    vfeat = ufeat[has_zero]
    vhist = zero_hist[has_zero]
    all_feat = np.concatenate([feats, vfeat])
    all_val = np.concatenate([vals, np.zeros(vfeat.size)])
    all_row = np.concatenate([entry_row, np.full(vfeat.size, -1, dtype=entry_row.dtype)])
    all_tag = np.concatenate([entry_lab, np.arange(vfeat.size)])

    order = np.lexsort((all_val, all_feat))
    F = all_feat[order]
    V = all_val[order]
    R = all_row[order]
    T = all_tag[order]

    real = R >= 0
    hist_rows = np.zeros((F.size, 3))
    hist_rows[real, T[real]] = 1.0
    hist_rows[~real] = vhist[T[~real]]
    prefix = np.vstack([np.zeros(3), np.cumsum(hist_rows, axis=0)])

    new_group = np.empty(F.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = F[1:] != F[:-1]
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(F.size), 0))

    boundary = (~new_group[1:]) & (V[:-1] < V[1:])
    cand = np.flatnonzero(boundary)
    if cand.size == 0:
        return None

    left_hist = prefix[cand + 1] - prefix[group_start[cand]]
    n_left = left_hist.sum(axis=1)
    n_right = rows.size - n_left
    right_hist = node_hist - left_hist
    # Minimizing weighted Gini == maximizing sum of squared counts / size.
    quality = (left_hist**2).sum(axis=1) / n_left + (right_hist**2).sum(axis=1) / n_right
    best = int(np.argmax(quality))

    i = cand[best]
    feature = int(F[i])
    threshold = float(V[i] + V[i + 1]) / 2.0
    if threshold >= V[i + 1]:  # 1-ulp value gap: midpoint rounded up; keep
        threshold = float(V[i])  # the "value <= threshold" routing consistent

    in_feature = F == feature
    if threshold >= 0.0:
        go_right = R[in_feature & (V > threshold) & real]
        row_flags[go_right] = True
        right_rows = rows[row_flags[rows]]
        left_rows = rows[~row_flags[rows]]
        row_flags[go_right] = False
    else:
        go_left = R[in_feature & (V <= threshold) & real]
        row_flags[go_left] = True
        left_rows = rows[row_flags[rows]]
        right_rows = rows[~row_flags[rows]]
        row_flags[go_left] = False
    return feature, threshold, left_rows, right_rows


def _grow_tree(X, y, k, max_depth, rng) -> _Tree:
    n, dims = X.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    label: list[int] = []
    counts: list[np.ndarray] = []

    def alloc() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(0)
        counts.append(None)
        return len(feature) - 1

    feat_flags = np.zeros(dims, dtype=bool)
    row_flags = np.zeros(n, dtype=bool)
    stack = [(np.arange(n), 0, alloc())]
    while stack:
        rows, depth, slot = stack.pop()
        hist = np.bincount(y[rows], minlength=3).astype(np.float64)
        label[slot] = int(np.argmax(hist))
        counts[slot] = hist.astype(np.int64)

        depth_reached = max_depth is not None and depth >= max_depth
        if depth_reached or hist.max() == rows.size or rows.size < 2:
            continue
        sampled = _sample_features(rng, dims, k)
        found = _best_split(X, y, rows, hist, sampled, feat_flags, row_flags)
        if found is None:
            continue
        f, thr, left_rows, right_rows = found
        feature[slot] = f
        threshold[slot] = thr
        lid = alloc()
        rid = alloc()
        left[slot] = lid
        right[slot] = rid
        stack.append((right_rows, depth + 1, rid))
        stack.append((left_rows, depth + 1, lid))

    tree = _Tree(feature, threshold, left, np.vstack(counts))
    assert tree.right.tolist() == right and tree.label.tolist() == label
    return tree


def fit_trees(
    X, y, n_trees=100, max_depth=40, max_features=None, bootstrap=True, seed=0
) -> list[_Tree]:
    """The per-tree forest fit, with ``RandomForest``'s hyperparameters.

    Tree t draws from its own stream (seed, 3, t): first the bootstrap
    sample, which becomes the row-gathered matrix ``csr[sample]``, then a
    feature subset at each searched node, and grows with ``_grow_tree``.
    """
    csr, y_idx = check_X_y(X, y)
    n, dims = csr.shape
    if max_features is None:
        k = math.isqrt(dims - 1) + 1 if dims else 0
    else:
        k = min(dims, max_features)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, 3, t])
        if bootstrap:
            sample = rng.integers(0, n, size=n)
            X_t, y_t = csr[sample], y_idx[sample]
        else:
            X_t, y_t = csr, y_idx
        trees.append(_grow_tree(X_t, y_t, k, max_depth, rng))
    return trees


def score_matrix(trees, csr) -> np.ndarray:
    """Vote fractions, routing every row through one tree at a time, level
    by level, over a dense copy of the rows."""
    n = csr.shape[0]
    votes = np.zeros((n, 3))
    dense = csr.toarray()
    sample_ids = np.arange(n)
    for tree in trees:
        node = np.zeros(n, dtype=np.int32)
        while True:
            f = tree.feature[node]
            internal = f >= 0
            if not internal.any():
                break
            vals = dense[sample_ids, np.where(internal, f, 0)]
            node = np.where(
                internal,
                np.where(vals <= tree.threshold[node], tree.left[node], tree.right[node]),
                node,
            )
        votes[sample_ids, tree.label[node]] += 1.0
    return votes / len(trees)
