"""Versioned JSON artifacts of fitted models and vectorizers.

``train`` writes one artifact of each kind and ``evaluate`` reads them
back. Each is an envelope (format, version, and the model variant or the
vectorizer kind) around the fitted state. A model artifact adds the class
order, dims, hyperparameters and a ``params`` section that the model class
encodes and decodes itself, checking every shape against ``dims``. A
vectorizer artifact adds the vocabulary's terms in column order (tf-idf
also the fit's doc_count and per-term df and idf) and the preprocessing it
was fitted behind.

Every field is required, except a vectorizer's ``preprocessing`` section:
artifacts written before it existed load with the default preprocessor.
A stored idf must equal ln(doc_count / df) for its df, as fit computes
it. Any malformed artifact raises one ArtifactError. Serialization is
deterministic (sorted keys, full float precision), so identical training
runs produce byte-identical artifacts.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .base import check_fitted, check_int, read_json, write_json
from .corpus import POLARITIES
from .errors import ArtifactError, ConfigError
from .models import MODEL_CLASSES, BaseClassifier
from .preprocess import Lemmatizer, StopWordList, TweetPreprocessor
from .vectorize import (
    VECTORIZER_CLASSES,
    BowVectorizer,
    TfidfVectorizer,
    inverse_document_frequencies,
)

_VERSION = 1
_MODEL_FORMAT = "sentibench/model"
_VECTORIZER_FORMAT = "sentibench/vectorizer"


def _decode(doc, fmt: str, kind_key: str, classes: Mapping[str, type], decode: Callable):
    """Check the envelope of an artifact of format ``fmt``, then return
    ``decode(cls, doc)`` with the class its ``kind_key`` field names.
    Whatever is malformed raises ArtifactError."""
    what = fmt.removeprefix("sentibench/")
    try:
        if doc["format"] != fmt:
            raise ArtifactError(f"not a {what} artifact (bad format field)")
        version = doc["version"]
        if type(version) is not int or version != _VERSION:  # not true, not 1.0
            raise ArtifactError(f"unsupported {what} version {version!r}")
        cls = classes.get(doc[kind_key])
        if cls is None:
            raise ArtifactError(f"unknown {what} {kind_key} {doc[kind_key]!r}")
        return decode(cls, doc)
    except (
        LookupError, TypeError, ValueError, AttributeError, OverflowError, ConfigError
    ) as exc:
        raise ArtifactError(f"malformed {what} artifact: {type(exc).__name__}: {exc}") from exc


def model_to_dict(model: BaseClassifier) -> dict:
    return {
        "format": _MODEL_FORMAT,
        "version": _VERSION,
        "variant": model.variant,
        "class_order": list(POLARITIES),
        "dims": model.dims,
        "hyperparameters": model.get_params(),
        "params": model.state_to_dict(),
    }


def _decode_model(cls: type, doc: Mapping) -> BaseClassifier:
    if doc["class_order"] != list(POLARITIES):
        raise ArtifactError("artifact class order does not match this build")
    model = cls(**doc["hyperparameters"])
    dims = doc["dims"]
    check_int("dims", dims, 0)
    model.load_state(doc["params"], dims)
    model.n_features_ = dims
    return model


def model_from_dict(doc: Mapping) -> BaseClassifier:
    """Rebuild a model; any malformed document raises ArtifactError."""
    return _decode(doc, _MODEL_FORMAT, "variant", MODEL_CLASSES, _decode_model)


def save_model(model: BaseClassifier, path: str) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str) -> BaseClassifier:
    return model_from_dict(read_json(path, "model artifact", ArtifactError))


def save_vectorizer(
    vec: BowVectorizer | TfidfVectorizer, path: str, preprocessor: TweetPreprocessor
) -> None:
    """Write the vectorizer artifact, with the preprocessing it was fitted behind."""
    check_fitted(vec, "vocabulary_")
    state = {"terms": list(vec.vocabulary_)}
    if isinstance(vec, TfidfVectorizer):
        state.update(doc_count=vec.doc_count_, df=vec.df_.tolist(), idf=vec.idf_.tolist())
    write_json(path, {
        "format": _VECTORIZER_FORMAT,
        "version": _VERSION,
        "kind": vec.kind,
        **state,
        "preprocessing": {
            "stopwords": sorted(preprocessor.stoplist.words),
            "lemma_exceptions": dict(sorted(preprocessor.lemmatizer.exceptions.items())),
        },
    })


def _decode_vectorizer(cls: type, doc: Mapping):
    terms = doc["terms"]
    if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)):
        raise ArtifactError("terms must be a list of strings")
    vec = cls()
    vec.vocabulary_ = dict(zip(terms, range(len(terms))))
    if len(vec.vocabulary_) != len(terms):
        raise ArtifactError("terms holds a duplicate")
    if isinstance(vec, TfidfVectorizer):
        doc_count, df = doc["doc_count"], doc["df"]
        check_int("doc_count", doc_count, 1)
        for d in df:
            check_int("df", d, 1)
            if d > doc_count:
                raise ArtifactError(f"df {d} exceeds doc_count {doc_count}")
        if len(df) != len(terms):
            raise ArtifactError(f"df length {len(df)} != terms length {len(terms)}")
        vec.doc_count_, vec.df_ = doc_count, np.array(df, dtype=np.int64)
        vec.idf_ = inverse_document_frequencies(doc_count, df)
        if doc["idf"] != vec.idf_.tolist():
            raise ArtifactError("idf must hold the finite ln(doc_count / df) of each term")

    section = doc.get("preprocessing")
    if section is None:
        return vec, TweetPreprocessor()
    words, exceptions = section["stopwords"], section["lemma_exceptions"]
    if not (isinstance(words, list) and isinstance(exceptions, dict) and all(
        isinstance(s, str) for s in (*words, *exceptions, *exceptions.values())
    )):
        raise ArtifactError(
            "preprocessing needs a stopwords list and a lemma_exceptions map of strings"
        )
    return vec, TweetPreprocessor(StopWordList(frozenset(words)), Lemmatizer(exceptions))


def load_vectorizer(path: str) -> tuple[BowVectorizer | TfidfVectorizer, TweetPreprocessor]:
    """Read an artifact back as (vectorizer, preprocessor); a malformed one
    raises ArtifactError."""
    doc = read_json(path, "vectorizer artifact", ArtifactError)
    return _decode(doc, _VECTORIZER_FORMAT, "kind", VECTORIZER_CLASSES, _decode_vectorizer)
