"""Random forest of CART trees with Gini-impurity splits.

Each tree trains on a bootstrap resample (seeded per tree, so parallel
tree construction would reproduce sequential results) and considers a
fresh random feature subset at every node. Candidate thresholds are the
midpoints between adjacent distinct observed values of a feature within
the node, where rows that do not store a feature explicitly count as
observations of 0. The best candidate minimizes the size-weighted Gini
impurity of the two children; ties go to the lower feature index, then
the lower threshold. The forest predicts by majority vote over the
trees' leaf classes, ties resolved by the fixed class order.

Each tree keeps a column-major copy of its bootstrap matrix with the
class label of every stored entry. A node gathers only the entry ranges
of its sampled columns and keeps those whose row is in the node. The
scan then works on those entries, grouped by feature, with one virtual
zero-entry per feature carrying the class histogram of the implicit
zeros. Per-node cost thus scales with the stored entries of the sampled
columns, not with rows x features.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import check_int
from ..corpus import POLARITIES
from ..errors import ArtifactError
from .base import BaseClassifier, check_X_y

_STREAM = 3


class _Tree:
    """Flat array form: feature < 0 marks a leaf; label is the majority class."""

    __slots__ = ("feature", "threshold", "left", "right", "label", "counts")

    def __init__(self, feature, threshold, left, right, label, counts):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.label = label
        self.counts = counts

    def to_record(self) -> dict:
        """Nested artifact record: leaves carry class and counts, internal
        nodes feature, threshold and two children."""
        n = len(self.feature)
        records: list[dict | None] = [None] * n
        for i in range(n - 1, -1, -1):  # children always have higher ids
            if self.feature[i] < 0:
                records[i] = {
                    "class": POLARITIES[self.label[i]],
                    "counts": [int(c) for c in self.counts[i]],
                }
            else:
                records[i] = {
                    "feature": int(self.feature[i]),
                    "threshold": float(self.threshold[i]),
                    "left": records[self.left[i]],
                    "right": records[self.right[i]],
                }
        return records[0]

    @classmethod
    def from_record(cls, record, dims: int) -> "_Tree":
        """Inverse of to_record; every internal feature must be in [0, dims)."""
        # (feature, threshold, left, right, label, counts) per node, with
        # ids allocated as in training, so save/load/save round-trips
        # reproduce the artifact byte for byte.
        nodes: list = [None]
        stack = [(record, 0)]
        while stack:
            rec, slot = stack.pop()
            if "class" in rec:
                counts = list(rec["counts"])
                for c in counts:
                    check_int("leaf count", c, 0)
                if len(counts) != 3:
                    raise ArtifactError(f"leaf counts {counts} are not 3 counts")
                nodes[slot] = (-1, 0.0, -1, -1, POLARITIES.index(rec["class"]), counts)
            else:
                feature = rec["feature"]
                check_int("tree feature", feature, 0)
                if feature >= dims:
                    raise ArtifactError(f"tree feature {feature} outside [0, {dims})")
                lid = len(nodes)
                nodes += [None, None]
                threshold = float(rec["threshold"])
                if not math.isfinite(threshold):
                    raise ArtifactError(f"tree threshold {threshold} is not finite")
                nodes[slot] = (feature, threshold, lid, lid + 1, 0, [0, 0, 0])
                stack += [(rec["right"], lid + 1), (rec["left"], lid)]
        # Only leaves carry counts in the record; rebuild internal-node
        # histograms and majority labels bottom-up (children have higher ids).
        for i in range(len(nodes) - 1, -1, -1):
            f, thr, lid, rid, _, _ = nodes[i]
            if f >= 0:
                hist = [a + b for a, b in zip(nodes[lid][5], nodes[rid][5])]
                nodes[i] = (f, thr, lid, rid, hist.index(max(hist)), hist)
        feature, threshold, left, right, label, counts = zip(*nodes)
        return cls(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            label=np.array(label, dtype=np.int8),
            counts=np.array(counts, dtype=np.int64),
        )


def _sample_features(rng, dims: int, k: int) -> np.ndarray:
    if k >= dims:
        return np.arange(dims)
    return rng.choice(dims, size=k, replace=False, shuffle=False)


def _best_split(columns, rows, node_hist, sampled, row_flags):
    """Return (feature, threshold, left_rows, right_rows) or None.

    ``columns`` is the tree's column-major copy: (indptr, entry row, entry
    value, entry label). ``row_flags`` is a reusable boolean scratch buffer
    of size n_rows.
    """
    indptr, col_row, col_val, col_lab = columns
    starts = indptr[sampled]
    lengths = indptr[sampled + 1] - starts
    # Positions of the sampled columns' entries, column after column.
    owner = np.repeat(np.arange(sampled.size), lengths)
    entries = np.arange(owner.size) + (starts - np.cumsum(lengths) + lengths)[owner]

    row_flags[rows] = True
    keep = row_flags[col_row[entries]]
    row_flags[rows] = False
    if not keep.any():
        return None
    entries = entries[keep]
    feats = sampled[owner[keep]]
    vals = col_val[entries]
    entry_row = col_row[entries]
    entry_lab = col_lab[entries]

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

    csc = X.tocsc()
    columns = (csc.indptr, csc.indices, csc.data, y[csc.indices])
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
        found = _best_split(columns, rows, hist, sampled, row_flags)
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

    return _Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        label=np.array(label, dtype=np.int8),
        counts=np.vstack(counts),
    )


class RandomForest(BaseClassifier):
    variant = "rf"

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int | None = 40,
        max_features: int | None = None,
        bootstrap: bool = True,
        seed: int = 0,
    ):
        super().__init__()
        check_int("n_trees", n_trees, 1)
        if max_depth is not None:  # None: unlimited
            check_int("max_depth", max_depth, 1)
        if max_features is not None:  # None: ceil(sqrt(dims))
            check_int("max_features", max_features, 1)
        check_int("seed", seed, 0)
        if bootstrap not in (0, 1):  # True, False, 1 or 0
            raise ValueError(f"bootstrap must be 0 or 1, got {bootstrap!r}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self.seed = seed

    def fit(self, X, y) -> "RandomForest":
        csr, y_idx = check_X_y(X, y)
        n, dims = csr.shape
        if self.max_features is None:
            k = math.isqrt(dims - 1) + 1  # ceil(sqrt(dims))
        else:
            k = min(dims, self.max_features)

        self.trees_ = []
        for t in range(self.n_trees):
            # Stream keyed by (seed, tree index): tree order never matters.
            rng = np.random.default_rng([self.seed, _STREAM, t])
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                X_t, y_t = csr[sample], y_idx[sample]
            else:
                X_t, y_t = csr, y_idx
            self.trees_.append(_grow_tree(X_t, y_t, k, self.max_depth, rng))

        self.n_features_ = dims
        return self

    def _score_matrix(self, csr) -> np.ndarray:
        n = csr.shape[0]
        votes = np.zeros((n, 3))
        # Densify in bounded chunks so (row, feature) gathers stay cheap.
        chunk = max(1, int(4_000_000 // max(1, self.n_features_)))
        for start in range(0, n, chunk):
            dense = csr[start : start + chunk].toarray()
            m = dense.shape[0]
            sample_ids = np.arange(m)
            for tree in self.trees_:
                node = np.zeros(m, dtype=np.int32)
                while True:
                    f = tree.feature[node]
                    internal = f >= 0
                    if not internal.any():
                        break
                    vals = dense[sample_ids, np.where(internal, f, 0)]
                    node = np.where(
                        internal,
                        np.where(
                            vals <= tree.threshold[node], tree.left[node], tree.right[node]
                        ),
                        node,
                    )
                votes[start + sample_ids, tree.label[node]] += 1.0
        return votes / self.n_trees

    def state_to_dict(self) -> dict:
        return {"trees": [tree.to_record() for tree in self.trees_]}

    def load_state(self, params, dims: int) -> None:
        self.trees_ = [_Tree.from_record(record, dims) for record in params["trees"]]
        if len(self.trees_) != self.n_trees:
            raise ArtifactError(f"{len(self.trees_)} trees, n_trees is {self.n_trees}")
