"""Versioned JSON artifacts of fitted models and vectorizers.

``train`` writes one artifact of each kind and ``evaluate`` reads them
back through ``save_model``, ``load_model``, ``save_vectorizer`` and
``load_vectorizer``, which take file paths (the package exports nothing).
Each is an envelope (format, version, and the model variant or the
vectorizer kind) around the fitted state. A model artifact (version 2)
adds the vectorizer kind it was fitted behind, the class order, dims,
hyperparameters and a ``params`` section that the model class encodes and
decodes itself, checking every shape against ``dims``. A vectorizer
artifact (version 1) adds the vocabulary's terms in column order (tf-idf
also the fit's doc_count and per-term df and idf) and the preprocessing.

Every field is required, except a vectorizer's ``preprocessing`` section:
artifacts written before it existed load with the default preprocessor.
A stored idf must equal ln(doc_count / df) for its df, as fit computes
it. A version 1 model artifact has no vectorizer kind, and its forest
trees are nested records that loading turns into version 2's lists. Any
malformed artifact raises one ArtifactError. Artifacts are compact,
deterministic JSON (sorted keys, full float precision).
"""

from __future__ import annotations

from typing import Callable, Mapping

from .base import check_fitted, check_int, decode_array, read_json, write_json
from .corpus import POLARITIES
from .errors import ArtifactError, ConfigError
from .models import MODEL_CLASSES, BaseClassifier
from .preprocess import TweetPreprocessor
from .vectorize import (
    VECTORIZER_CLASSES,
    VECTORIZER_KINDS,
    BowVectorizer,
    TfidfVectorizer,
    inverse_document_frequencies,
)

_MODEL_VERSION = 2  # version 1 stored each forest tree as nested records
_VECTORIZER_VERSION = 1
_MODEL_FORMAT = "sentibench/model"
_VECTORIZER_FORMAT = "sentibench/vectorizer"


def _decode(doc, fmt: str, versions, kind_key: str, classes: Mapping, decode: Callable):
    """Check the envelope of an artifact of format ``fmt`` and one of
    ``versions``, then return ``decode(cls, doc)`` with the class its
    ``kind_key`` field names. Whatever is malformed raises ArtifactError."""
    what = fmt.removeprefix("sentibench/")
    try:
        if doc["format"] != fmt:
            raise ArtifactError(f"not a {what} artifact (bad format field)")
        version = doc["version"]
        if type(version) is not int or version not in versions:  # not true, not 1.0
            raise ArtifactError(f"unsupported {what} version {version!r}")
        cls = classes.get(doc[kind_key])
        if cls is None:
            raise ArtifactError(f"unknown {what} {kind_key} {doc[kind_key]!r}")
        return decode(cls, doc)
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError, ConfigError) as exc:
        raise ArtifactError(f"malformed {what} artifact: {type(exc).__name__}: {exc}") from exc


def _upgrade_tree(record) -> dict:
    """Version 1's nested tree record as version 2's lists, nodes numbered as
    fit numbers them; a leaf's class must be the first majority of its counts."""
    nodes, left, stack = [record], [-1], [0]
    while stack:  # two children take the next two ids, depth first, left first
        i = stack.pop()
        if "class" not in nodes[i]:
            left[i] = len(nodes)
            stack += [left[i] + 1, left[i]]
            nodes += [nodes[i]["left"], nodes[i]["right"]]
            left += [-1, -1]
    feature, threshold, counts = [-1] * len(nodes), [0.0] * len(nodes), [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):  # children before parents
        rec = nodes[i]
        if "class" in rec:
            counts[i] = rec["counts"]
            if rec["class"] != POLARITIES[counts[i].index(max(counts[i]))]:
                raise ArtifactError(f"tree leaf class {rec['class']!r} is not the first "
                                    f"majority of its counts {counts[i]}")
        else:
            feature[i], threshold[i] = rec["feature"], rec["threshold"]
            counts[i] = [a + b for a, b in zip(counts[left[i]], counts[left[i] + 1])]
    return {"feature": feature, "threshold": threshold, "left": left, "counts": counts}


def _decode_model(cls: type, doc: Mapping, vectorizer: str | None) -> BaseClassifier:
    if doc["class_order"] != list(POLARITIES):
        raise ArtifactError("artifact class order does not match this build")
    params = doc["params"]
    if doc["version"] == 1:  # no vectorizer kind: predict's dims check guards the pair
        if cls.variant == "rf":
            params = {**params, "trees": [_upgrade_tree(tree) for tree in params["trees"]]}
    elif doc["vectorizer"] not in VECTORIZER_KINDS:
        raise ArtifactError(f"unknown model vectorizer {doc['vectorizer']!r}")
    elif vectorizer not in (None, doc["vectorizer"]):
        raise ArtifactError(f"the model was trained on {doc['vectorizer']} vectors, "
                            f"but the vectorizer artifact is {vectorizer}")
    model = cls(**doc["hyperparameters"])
    dims = doc["dims"]
    check_int("dims", dims, 0)
    model.load_state(params, dims)
    model.n_features_ = dims
    return model


def save_model(model: BaseClassifier, path: str, vectorizer: str) -> None:
    """Write the model artifact, with the ``vectorizer`` kind it was fitted behind."""
    write_json(path, {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "variant": model.variant,
        "vectorizer": vectorizer,
        "class_order": list(POLARITIES),
        "dims": model.dims,
        "hyperparameters": model.get_params(),
        "params": model.state_to_dict(),
    }, compact=True)


def load_model(path: str, vectorizer: str | None = None) -> BaseClassifier:
    """Rebuild a model; a malformed artifact, or a version 2 one trained
    behind another ``vectorizer`` kind, raises ArtifactError."""
    doc = read_json(path, "model artifact", ArtifactError)
    return _decode(doc, _MODEL_FORMAT, (1, _MODEL_VERSION), "variant", MODEL_CLASSES,
                   lambda cls, doc: _decode_model(cls, doc, vectorizer))


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
        "version": _VECTORIZER_VERSION,
        "kind": vec.kind,
        **state,
        "preprocessing": {
            "stopwords": sorted(preprocessor.stopwords),
            "lemma_exceptions": dict(sorted(preprocessor.lemma_exceptions.items())),
        },
    }, compact=True)


def _decode_vectorizer(cls: type, doc: Mapping):
    terms = doc["terms"]
    if type(terms) is not list or not set(map(type, terms)) <= {str}:
        raise ArtifactError("terms must be a list of strings")
    vec = cls()
    vec.vocabulary_ = dict(zip(terms, range(len(terms))))
    if len(vec.vocabulary_) != len(terms):
        raise ArtifactError("terms holds a duplicate")
    if isinstance(vec, TfidfVectorizer):
        doc_count = doc["doc_count"]
        check_int("doc_count", doc_count, 1)
        vec.doc_count_ = doc_count
        vec.df_ = decode_array("df", doc["df"], (len(terms),), integer=True, minimum=1)
        if vec.df_.size and vec.df_.max() > doc_count:
            raise ArtifactError(f"df {vec.df_.max()} exceeds doc_count {doc_count}")
        vec.idf_ = inverse_document_frequencies(doc_count, doc["df"])
        if doc["idf"] != vec.idf_.tolist():
            raise ArtifactError("idf must hold the finite ln(doc_count / df) of each term")

    section = doc.get("preprocessing")
    if section is None:
        return vec, TweetPreprocessor()
    words, exceptions = section["stopwords"], section["lemma_exceptions"]
    if not (type(words) is list and type(exceptions) is dict
            and set(map(type, (*words, *exceptions, *exceptions.values()))) <= {str}):
        raise ArtifactError("preprocessing needs a stopwords list and a lemma_exceptions "
                            "map of strings")
    return vec, TweetPreprocessor(words, exceptions)


def load_vectorizer(path: str) -> tuple[BowVectorizer | TfidfVectorizer, TweetPreprocessor]:
    """Read an artifact back as (vectorizer, preprocessor); a malformed one
    raises ArtifactError."""
    doc = read_json(path, "vectorizer artifact", ArtifactError)
    return _decode(doc, _VECTORIZER_FORMAT, (_VECTORIZER_VERSION,), "kind", VECTORIZER_CLASSES,
                   _decode_vectorizer)
