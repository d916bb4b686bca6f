"""Versioned JSON persistence for trained models.

Linear models store dense weight rows; forests store recursive node
records. Serialization is deterministic (sorted keys, full float
precision), so identical training runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

from ..corpus import POLARITIES
from ..errors import ArtifactError
from .base import BaseClassifier
from .forest import RandomForest, _Tree
from .logistic import SoftmaxRegression
from .naive_bayes import MultinomialNaiveBayes
from .svm import LinearSvm

_MODEL_FORMAT = "sentibench/model"
_MODEL_VERSION = 1


def _encode_float(x: float):
    # -inf appears as the log-prior of an unseen class; JSON gets null.
    return float(x) if math.isfinite(x) else None


def _decode_float(x) -> float:
    return float("-inf") if x is None else float(x)


def _tree_to_record(tree: _Tree) -> dict:
    n = len(tree.feature)
    records: list[dict | None] = [None] * n
    for i in range(n - 1, -1, -1):  # children always have higher ids
        if tree.feature[i] < 0:
            records[i] = {
                "class": POLARITIES[tree.label[i]],
                "counts": [int(c) for c in tree.counts[i]],
            }
        else:
            records[i] = {
                "feature": int(tree.feature[i]),
                "threshold": float(tree.threshold[i]),
                "left": records[tree.left[i]],
                "right": records[tree.right[i]],
            }
    return records[0]


def _record_to_tree(record: Mapping) -> _Tree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    label: list[int] = []
    counts: list[list[int]] = []

    def alloc() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(0)
        counts.append([0, 0, 0])
        return len(feature) - 1

    # Same allocation discipline as training, so save/load/save round-trips
    # reproduce the artifact byte for byte.
    stack = [(record, alloc())]
    while stack:
        rec, slot = stack.pop()
        if "class" in rec:
            label[slot] = POLARITIES.index(rec["class"])
            counts[slot] = [int(c) for c in rec["counts"]]
        else:
            feature[slot] = int(rec["feature"])
            threshold[slot] = float(rec["threshold"])
            lid = alloc()
            rid = alloc()
            left[slot] = lid
            right[slot] = rid
            stack.append((rec["right"], rid))
            stack.append((rec["left"], lid))
    tree = _Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        label=np.array(label, dtype=np.int8),
        counts=np.array(counts, dtype=np.int64),
    )
    # Only leaves carry counts in the record; rebuild internal-node
    # histograms and majority labels bottom-up (children have higher ids).
    for i in range(len(tree.feature) - 1, -1, -1):
        if tree.feature[i] >= 0:
            tree.counts[i] = tree.counts[tree.left[i]] + tree.counts[tree.right[i]]
            tree.label[i] = int(np.argmax(tree.counts[i]))
    return tree


def model_to_dict(model: BaseClassifier) -> dict:
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "variant": model.variant,
        "class_order": list(POLARITIES),
        "dims": model.dims,
        "hyperparameters": model.get_params(),
    }
    if model.variant == "mnb":
        doc["params"] = {
            "class_log_prior": [_encode_float(x) for x in model.class_log_prior_],
            "feature_log_likelihood": model.feature_log_likelihood_.tolist(),
        }
    elif model.variant == "logreg":
        doc["params"] = {
            "weights": model.weights_.tolist(),
            "bias": model.bias_.tolist(),
            "epoch_losses": list(model.epoch_losses_),
        }
    elif model.variant == "svm":
        doc["params"] = {
            "weights": model.weights_.tolist(),
            "bias": model.bias_.tolist(),
        }
    elif model.variant == "rf":
        doc["params"] = {"trees": [_tree_to_record(t) for t in model.trees_]}
    else:
        raise ArtifactError(f"cannot serialize model variant {model.variant!r}")
    return doc


def model_from_dict(doc: Mapping) -> BaseClassifier:
    """Rebuild a model; any malformed document raises ArtifactError."""
    try:
        return _decode_model(doc)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactError(
            f"malformed model artifact: {type(exc).__name__}: {exc}"
        ) from exc


def _decode_model(doc: Mapping) -> BaseClassifier:
    if doc.get("format") != _MODEL_FORMAT:
        raise ArtifactError("not a model artifact (bad format field)")
    if doc.get("version") != _MODEL_VERSION:
        raise ArtifactError(f"unsupported model version {doc.get('version')!r}")
    if list(doc.get("class_order", [])) != list(POLARITIES):
        raise ArtifactError("artifact class order does not match this build")

    variant = doc.get("variant")
    hp = dict(doc.get("hyperparameters", {}))
    params = doc.get("params", {})
    dims = int(doc["dims"])

    if variant == "mnb":
        model = MultinomialNaiveBayes(**hp)
        model.class_log_prior_ = np.array(
            [_decode_float(x) for x in params["class_log_prior"]]
        )
        model.feature_log_likelihood_ = np.array(params["feature_log_likelihood"])
    elif variant == "logreg":
        model = SoftmaxRegression(**hp)
        model.weights_ = np.array(params["weights"])
        model.bias_ = np.array(params["bias"])
        model.epoch_losses_ = [float(x) for x in params["epoch_losses"]]
    elif variant == "svm":
        model = LinearSvm(**hp)
        model.weights_ = np.array(params["weights"])
        model.bias_ = np.array(params["bias"])
    elif variant == "rf":
        model = RandomForest(**hp)
        model.trees_ = [_record_to_tree(rec) for rec in params["trees"]]
    else:
        raise ArtifactError(f"unknown model variant {variant!r}")
    model.n_features_ = dims
    return model


def save_model(model: BaseClassifier, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, sort_keys=True, indent=1)
        handle.write("\n")


def load_model(path: str) -> BaseClassifier:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ArtifactError(f"cannot read model artifact {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_dict(doc)
