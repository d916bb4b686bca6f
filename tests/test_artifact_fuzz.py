"""Fuzz the artifact decoders: a mutated artifact either loads or raises
SentibenchError (one `error[...]` line in the CLI), never another exception.

Mutations of a saved artifact of each model variant and of both vectorizer
kinds, and of the committed version 1 forest artifact: drop a key or list entry, swap any value (the whole document
included) for a JSON value of any type, truncate a list, or extend one
with a copy of an entry or a new value.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentibench import load_model, load_vectorizer
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
