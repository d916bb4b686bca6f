"""Random forest of CART trees with Gini-impurity splits.

Each tree trains on a bootstrap resample and considers a fresh random
feature subset at every node. Candidate thresholds are the midpoints
between adjacent distinct observed values of a feature within the node,
where rows that do not store a feature explicitly count as observations
of 0. The best candidate minimizes the size-weighted Gini impurity of
the two children; ties go to the lower feature index, then the lower
threshold. The forest predicts by majority vote over the trees' leaf
classes, ties resolved by the fixed class order.

All trees grow in lockstep. Tree t draws from its own random stream,
keyed by (seed, tree index): first its bootstrap sample, then the
feature subset of each node it searches, in depth-first order. It keeps
its own stack of nodes still to search, so no tree depends on another.
A child goes on the stack only if it is impure and above the depth
limit; any other child is a leaf as soon as its parent splits. Each step
pops one node from every tree that has one left and searches them all
in one batch.

The batch reads one column-major copy of the training matrix, with the
class label of every stored entry, which ``_grow_forest`` builds once
and all trees share. A tree holds its bootstrap sample as
multiplicities: a node is a set of distinct rows, each weighted by how
often the sample drew it. Copies of a row hold equal values and always
go to the same child, so the weighted class histograms hold the counts
that the resampled matrix would give, and the same splits follow.

The search gathers the entry ranges of each node's sampled columns and
keeps the entries whose row is in the node, adding one virtual entry per
(node, feature) that carries the class histogram of the implicit zeros.
One sort by (node, feature, value) and one prefix sum give the left
histogram of every candidate, and each node takes its first best
candidate in that order. Per-step cost thus scales with the stored
entries of the sampled columns, not with rows x features.

Prediction routes every (row, tree) pair of a block of rows together,
one level per pass, through the trees' flat arrays laid end to end. A
block's dense copy and its (row, tree) pairs stay within ``_BLOCK`` values.

An artifact stores each tree's feature, threshold, left and counts as
lists, checked on load by array operations, so any depth saves and loads.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import check_int, decode_array
from ..errors import ArtifactError
from .base import BaseClassifier

_STREAM = 3
_BLOCK = 500_000


class _Tree:
    """Flat arrays, one entry per node, root first: feature < 0 marks a leaf
    (left = right = -1), else right = left + 1; label: counts' first majority."""

    __slots__ = ("feature", "threshold", "left", "right", "label", "counts")

    def __init__(self, feature, threshold, left, counts):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.where(self.left < 0, -1, self.left + 1).astype(np.int32)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.label = self.counts.argmax(axis=1).astype(np.int8)

    @classmethod
    def from_arrays(cls, record, dims: int) -> "_Tree":
        """An artifact's {feature, threshold, left, counts} lists as a tree; what
        fit could not grow over ``dims`` features raises ArtifactError or ValueError."""
        n = len(record["feature"])
        if not 0 < n == len(record["left"]) == len(record["threshold"]) == len(record["counts"]):
            raise ArtifactError("tree lists must be parallel and non-empty")
        if not set(map(len, record["counts"])) <= {3}:
            raise ArtifactError("tree counts must hold 3 integers per node")
        feature = decode_array("tree feature", record["feature"], (n,), integer=True, minimum=-1)
        left = decode_array("tree left", record["left"], (n,), integer=True, minimum=-1)
        counts = decode_array("tree counts", record["counts"], (n, 3), integer=True, minimum=0)
        threshold = decode_array("tree threshold", record["threshold"], (n,))
        if (feature >= dims).any():
            raise ArtifactError(f"tree features must be below {dims}")
        leaf = feature < 0
        if (left[leaf] != -1).any() or (threshold[leaf] != 0.0).any():
            raise ArtifactError("a tree leaf must have left -1 and threshold 0.0")
        # Children follow their parent, so no route can cycle.
        inner = np.flatnonzero(~leaf)
        lid = left[inner]
        if (lid <= inner).any() or not np.array_equal(
            np.sort(np.concatenate([lid, lid + 1])), np.arange(1, n)
        ):
            raise ArtifactError("each tree node but the root must be the child of "
                                "exactly one node before it")
        if not np.array_equal(counts[inner], counts[lid] + counts[lid + 1]):
            raise ArtifactError("an internal tree node's counts must sum its children's")
        return cls(feature, threshold, left, counts)


def _sample_features(rng, dims: int, k: int) -> np.ndarray:
    if k >= dims:
        return np.arange(dims)
    return rng.choice(dims, size=k, replace=False, shuffle=False)


def _splittable(hist, depth, max_depth) -> np.ndarray:
    """Which nodes get a split search: impure (so at least 2 rows) and
    above the depth limit. ``hist`` holds one class histogram per node."""
    impure = hist.max(axis=1) < hist.sum(axis=1)
    if max_depth is None:
        return impure
    return impure & (depth < max_depth)


def _best_splits(columns, flat_w, flags, n, trees, rows, hist, sampled):
    """One split search over one node of each of several trees.

    ``columns`` is the shared column-major matrix: (indptr, entry row,
    entry value, entry label). Node ``b`` belongs to tree ``trees[b]``,
    holds the class histogram ``hist[b]`` and searches the features
    ``sampled[b]``. Its distinct rows are given as keys ``t * n + r``
    in ``rows[b]``; ``flat_w[key]`` is the row's bootstrap multiplicity in
    that tree, and ``flags`` is a boolean scratch buffer of the same size,
    all False.

    Returns None when no node can split, else (split nodes, features,
    thresholds, left histograms, crossed). ``crossed`` holds the keys of
    the split nodes' rows that do not go with the implicit zeros: right
    of a non-negative threshold, or left of a negative one.
    """
    indptr, col_row, col_val, col_lab = columns
    size = hist.sum(axis=1)
    row_key = np.concatenate(rows)

    # Slots are the (node, feature) pairs to search, in that order.
    slot_node = np.repeat(np.arange(len(rows)), [s.size for s in sampled])
    node_key = slot_node * (indptr.size - 1)
    slot_feat = np.sort(node_key + np.concatenate(sampled)) - node_key
    n_slots = slot_feat.size

    # Positions of the slots' column entries, slot after slot; keep those
    # whose row is in the slot's node.
    starts = indptr[slot_feat]
    lengths = indptr[slot_feat + 1] - starts
    ends = np.cumsum(lengths)
    entries = np.arange(ends[-1] if n_slots else 0) + np.repeat(starts - ends + lengths, lengths)
    entry_key = np.repeat((trees * n)[slot_node], lengths) + col_row[entries]
    flags[row_key] = True
    kept = np.flatnonzero(flags[entry_key])
    flags[row_key] = False
    slot = np.searchsorted(ends, kept, side="right")
    entries = entries[kept]
    entry_key = entry_key[kept]
    weight = flat_w[entry_key]
    label = col_lab[entries]

    # Per-slot class histogram of the stored entries. One virtual entry
    # per slot stands in for all the node's implicit zeros.
    nz_hist = np.bincount(3 * slot + label, weights=weight, minlength=3 * n_slots)
    nz_hist = nz_hist.reshape(n_slots, 3)
    nz_count = nz_hist.sum(axis=1)
    virtual = np.flatnonzero((nz_count > 0) & (nz_count < size[slot_node]))
    n_real = slot.size
    all_slot = np.concatenate([slot, virtual])
    all_val = np.concatenate([col_val[entries], np.zeros(virtual.size)])
    all_key = np.concatenate([entry_key, np.full(virtual.size, -1)])
    all_hist = np.zeros((all_slot.size, 3))
    all_hist[np.arange(n_real), label] = weight
    all_hist[n_real:] = hist[slot_node[virtual]] - nz_hist[virtual]

    order = np.lexsort((all_val, all_slot))
    S = all_slot[order]
    V = all_val[order]
    K = all_key[order]
    prefix = np.zeros((S.size + 1, 3))
    np.cumsum(all_hist[order], axis=0, out=prefix[1:])

    new_group = np.empty(S.size, dtype=bool)
    new_group[:1] = True
    new_group[1:] = S[1:] != S[:-1]
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(S.size), 0))

    cand = np.flatnonzero(~new_group[1:] & (V[:-1] < V[1:]))
    if cand.size == 0:
        return None
    cand_node = slot_node[S[cand]]
    left_hist = prefix[cand + 1] - prefix[group_start[cand]]
    right_hist = hist[cand_node] - left_hist
    n_left = left_hist.sum(axis=1)
    n_right = size[cand_node] - n_left
    # Minimizing weighted Gini == maximizing sum of squared counts / size.
    quality = (left_hist**2).sum(axis=1) / n_left + (right_hist**2).sum(axis=1) / n_right
    # Candidates run by (node, feature, value); take each node's first best.
    node_start = np.flatnonzero(np.r_[True, cand_node[1:] != cand_node[:-1]])
    best = np.lexsort((-quality, cand_node))[node_start]

    i = cand[best]
    nodes = cand_node[best]
    threshold = (V[i] + V[i + 1]) / 2.0
    rounded_up = threshold >= V[i + 1]  # 1-ulp value gap: keep the
    threshold[rounded_up] = V[i][rounded_up]  # "value <= threshold" routing

    # The chosen slot's stored entries on the far side from zero.
    chosen = np.full(len(rows), -1)
    chosen[nodes] = S[i]
    node_thr = np.zeros(len(rows))
    node_thr[nodes] = threshold
    e = np.flatnonzero((chosen[slot_node[S]] == S) & (K >= 0))
    thr = node_thr[slot_node[S[e]]]
    crossed = K[e[np.where(thr >= 0.0, V[e] > thr, V[e] <= thr)]]
    return nodes, slot_feat[S[i]], threshold, left_hist[best], crossed


def _grow_forest(csr, y, weights, k, max_depth, rngs) -> list[_Tree]:
    """Grow one tree per row of ``weights`` (bootstrap multiplicities) in
    lockstep; tree t draws each search's ``k`` features from ``rngs[t]``."""
    n_trees, n = weights.shape
    dims = csr.shape[1]
    order = np.argsort(csr.indices, kind="stable")
    col_row, col_val = csr.entry_rows()[order], csr.data[order]
    del order  # not held through the grow
    indptr = np.concatenate(([0], np.cumsum(np.bincount(csr.indices, minlength=dims))))
    columns = (indptr, col_row, col_val, y[col_row])
    # Row r of tree t is key t * n + r in the flat weight and flag arrays.
    flat_w = weights.ravel()
    flags = np.zeros(n_trees * n, dtype=bool)

    # Tree t grows as the lists _Tree takes, one entry per node, and a
    # depth-first stack of the nodes still to search: (row keys, depth, node id).
    grown = []
    stacks = []
    for t in range(n_trees):
        rows = np.flatnonzero(weights[t])
        hist = np.bincount(y[rows], weights=weights[t, rows], minlength=3)
        grown.append(([-1], [0.0], [-1], [hist]))
        stacks.append([(t * n + rows, 0, 0)] if _splittable(hist[None], 0, max_depth)[0] else [])

    while True:
        batch = [(t, stack.pop()) for t, stack in enumerate(stacks) if stack]
        if not batch:
            break
        trees = np.array([t for t, _ in batch])
        rows = [keys for _, (keys, _, _) in batch]
        hist = np.array([grown[t][3][at] for t, (_, _, at) in batch])
        sampled = [_sample_features(rngs[t], dims, k) for t, _ in batch]
        found = _best_splits(columns, flat_w, flags, n, trees, rows, hist, sampled)
        if found is None:
            continue
        nodes, features, thresholds, left_hist, crossed = found
        right_hist = hist[nodes] - left_hist
        depth = np.array([batch[b][1][1] for b in nodes]) + 1
        push_left = _splittable(left_hist, depth, max_depth).tolist()
        push_right = _splittable(right_hist, depth, max_depth).tolist()
        flags[crossed] = True
        for j, b in enumerate(nodes.tolist()):
            t, (keys, _, at) = batch[b]
            feature, threshold, left, counts = grown[t]
            lid = len(left)
            feature[at], threshold[at], left[at] = features[j], thresholds[j], lid
            feature += -1, -1
            threshold += 0.0, 0.0
            left += -1, -1
            counts += left_hist[j], right_hist[j]
            if push_left[j] or push_right[j]:
                goes_right = flags[keys] != (thresholds[j] < 0.0)
                if push_right[j]:
                    stacks[t].append((keys[goes_right], depth[j], lid + 1))
                if push_left[j]:
                    stacks[t].append((keys[~goes_right], depth[j], lid))
        flags[crossed] = False
    return [_Tree(*columns) for columns in grown]


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

    def _fit(self, csr, y_idx) -> None:
        n, dims = csr.shape
        if self.max_features is None:
            k = math.isqrt(dims - 1) + 1 if dims else 0  # ceil(sqrt(dims))
        else:
            k = min(dims, self.max_features)

        # Stream keyed by (seed, tree index): no tree depends on another.
        rngs = [np.random.default_rng([self.seed, _STREAM, t]) for t in range(self.n_trees)]
        if self.bootstrap:
            weights = np.array(
                [np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs],
                dtype=np.int32,
            )
        else:
            weights = np.ones((self.n_trees, n), dtype=np.int32)
        self.trees_ = _grow_forest(csr, y_idx, weights, k, self.max_depth, rngs)

    def _score_matrix(self, csr) -> np.ndarray:
        trees = self.trees_
        sizes = [tree.feature.size for tree in trees]
        roots = np.cumsum([0] + sizes[:-1])
        # The trees' flat arrays end to end, child ids shifted to match.
        feature = np.concatenate([tree.feature for tree in trees])
        threshold = np.concatenate([tree.threshold for tree in trees])
        left = np.concatenate([tree.left + root for tree, root in zip(trees, roots)])
        label = np.concatenate([tree.label for tree in trees])

        n = csr.shape[0]
        votes = np.zeros((n, 3))
        # Route in row blocks whose dense copy plus (row, tree) pairs stay
        # within _BLOCK values.
        block = max(1, _BLOCK // (self.n_features_ + len(trees)))
        for start in range(0, n, block):
            dense = csr[start : start + block].toarray()
            m = dense.shape[0]
            pair_row = np.repeat(np.arange(m), len(trees))
            node = np.tile(roots, m)
            # Route every (row, tree) pair still at an internal node one level down.
            live = np.flatnonzero(feature[node] >= 0)
            while live.size:
                at = node[live]
                below = dense[pair_row[live], feature[at]] <= threshold[at]
                node[live] = left[at] + ~below  # the right child is left + 1
                live = live[feature[node[live]] >= 0]
            leaf_votes = np.bincount(3 * pair_row + label[node], minlength=3 * m)
            votes[start : start + m] = leaf_votes.reshape(m, 3)
        return votes / self.n_trees

    def state_to_dict(self) -> dict:
        keys = ("feature", "threshold", "left", "counts")  # right and label are derived
        return {"trees": [{k: getattr(tree, k).tolist() for k in keys} for tree in self.trees_]}

    def load_state(self, params, dims: int) -> None:
        self.trees_ = [_Tree.from_arrays(record, dims) for record in params["trees"]]
        if len(self.trees_) != self.n_trees:
            raise ArtifactError(f"{len(self.trees_)} trees, n_trees is {self.n_trees}")
