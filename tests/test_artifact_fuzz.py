"""Fuzz the artifact decoders: a mutated artifact either loads or raises
SentibenchError (one `error[...]` line in the CLI), never another exception,
and the one array decoder returns exactly its input or raises.

Mutations of a saved artifact of each model variant and of both vectorizer
kinds, and of the committed version 1 forest artifact: drop a key or list entry, swap any value (the whole document
included) for a JSON value of any type, truncate a list, or extend one
with a copy of an entry or a new value.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentibench import load_model, load_vectorizer
from sentibench.base import decode_array
from sentibench.cli import main
from sentibench.errors import SentibenchError
from helpers import FIXTURE_CSV, SHORT_RUN, V1_ARTIFACTS

ARTIFACTS = (
    "model_svm_bow.json", "model_mnb_bow.json", "model_rf_bow.json", "model_logreg_bow.json",
    "vectorizer_bow.json", "vectorizer_tfidf.json", "v1/model_rf_bow.json",
)

# Half the new values are edge cases: JSON reads any integer, NaN and
# Infinity, and 10**400 is too large for a float.
EDGES = [None, True, False, 0, -1, 2**63, 10**400, -10**400, 0.5, -0.0, float("nan"),
         float("inf"), "", "x", [], {}]
JSON_VALUES = st.sampled_from(EDGES).map(copy.deepcopy) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """{file name: parsed artifact}, trained on the fixture CSV; "v1/" names
    a committed version 1 artifact."""
    out = tmp_path_factory.mktemp("fuzz")
    for model, vec in (*((model, "bow") for model in SHORT_RUN), ("mnb", "tfidf")):
        assert main(["train", "--data", FIXTURE_CSV, "--out-dir", str(out),
                     "--model", model, "--vectorizer", vec, *SHORT_RUN[model]]) == 0
    return out, {
        name: json.loads((V1_ARTIFACTS.parent / name if name.startswith("v1/") else out / name)
                         .read_text())
        for name in ARTIFACTS
    }


def locations(value, path=()):
    """The path of ``value`` and of everything it contains."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from locations(child, (*path, key))


def mutate(doc, data):
    """One mutation of ``doc`` in place; returns the new document (a swap of
    the whole document replaces it)."""
    path = data.draw(st.sampled_from(list(locations(doc))))
    target = doc
    for key in path:
        target = target[key]
    kinds = ["swap"] + (["drop"] if path else [])
    if isinstance(target, list) and target:
        kinds += ["truncate", "extend"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncate":
        del target[data.draw(st.integers(0, len(target) - 1)):]
    elif kind == "extend":
        copied = st.sampled_from(target).map(copy.deepcopy)
        target.append(data.draw(copied | JSON_VALUES))
    elif not path:
        return data.draw(JSON_VALUES)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    return doc


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(ARTIFACTS), data=st.data())
def test_a_mutated_artifact_loads_or_raises_sentibench_error(artifacts, name, data):
    out, docs = artifacts
    doc = copy.deepcopy(docs[name])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(doc, data)
    path = out / "mutated.json"
    path.write_text(json.dumps(doc))
    load = load_vectorizer if "vectorizer" in name else load_model
    try:
        load(str(path))
    except SentibenchError:
        pass


# Leaves of a decoded array: integers that a float holds exactly, besides
# 2**63 (past int64) and 10**400 (past a float), and every JSON non-number.
LEAVES = (st.integers(-2**53, 2**53) | st.sampled_from([2**63, 10**400, -10**400])
          | st.floats() | st.none() | st.booleans() | st.text(max_size=2))


def nested(shape):
    """Lists nested to exactly ``shape`` over LEAVES."""
    if not shape:
        return LEAVES
    return st.lists(nested(shape[1:]), min_size=shape[0], max_size=shape[0])


def scalars(value):
    """Every value inside ``value`` that is not a list or a dict."""
    if isinstance(value, (list, dict)):
        for child in value.values() if isinstance(value, dict) else value:
            yield from scalars(child)
    else:
        yield value


def refused(leaf, integer: bool) -> bool:
    """A leaf that no decoded array may hold."""
    return (type(leaf) not in ((int,) if integer else (int, float))
            or (type(leaf) is float and not math.isfinite(leaf)))


@settings(max_examples=400, deadline=None)
@given(shape=st.lists(st.integers(0, 3), max_size=3).map(tuple), integer=st.booleans(),
       minimum=st.none() | st.integers(-2, 2), data=st.data())
def test_decode_array_returns_its_input_or_raises(shape, integer, minimum, data):
    values = data.draw(nested(shape) | JSON_VALUES)
    try:
        array = decode_array("a", copy.deepcopy(values), shape, integer=integer,
                             minimum=minimum)
    except (ValueError, TypeError):
        return
    assert array.dtype == (np.int64 if integer else np.float64)
    assert array.shape == shape
    assert array.tolist() == values
    assert not any(refused(leaf, integer) for leaf in scalars(values))
    assert minimum is None or (array >= minimum).all()
