"""Versioned JSON persistence for trained models.

The artifact is an envelope (format, version, variant, class order,
dims, hyperparameters) around a ``params`` section that each model class
encodes and decodes itself, checking every shape against ``dims``.
Serialization is deterministic (sorted keys, full float precision), so
identical training runs produce byte-identical artifacts.
"""

from __future__ import annotations

from typing import Mapping

from ..base import check_int, read_json, write_json
from ..corpus import POLARITIES
from ..errors import ArtifactError
from .base import BaseClassifier
from .forest import RandomForest
from .logistic import SoftmaxRegression
from .naive_bayes import MultinomialNaiveBayes
from .svm import LinearSvm

_MODEL_FORMAT = "sentibench/model"
_MODEL_VERSION = 1

# Kind -> class, in the presentation order of the benchmark grid.
MODEL_CLASSES = {
    cls.variant: cls
    for cls in (LinearSvm, MultinomialNaiveBayes, RandomForest, SoftmaxRegression)
}


def model_to_dict(model: BaseClassifier) -> dict:
    return {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "variant": model.variant,
        "class_order": list(POLARITIES),
        "dims": model.dims,
        "hyperparameters": model.get_params(),
        "params": model.state_to_dict(),
    }


def model_from_dict(doc: Mapping) -> BaseClassifier:
    """Rebuild a model; any malformed document raises ArtifactError."""
    try:
        return _decode_model(doc)
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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
    cls = MODEL_CLASSES.get(doc.get("variant"))
    if cls is None:
        raise ArtifactError(f"unknown model variant {doc.get('variant')!r}")
    model = cls(**dict(doc.get("hyperparameters", {})))
    dims = doc["dims"]
    check_int("dims", dims, 0)
    model.load_state(doc.get("params", {}), dims)
    model.n_features_ = dims
    return model


def save_model(model: BaseClassifier, path: str) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str) -> BaseClassifier:
    return model_from_dict(read_json(path, "model artifact", ArtifactError))
