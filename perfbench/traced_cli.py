"""Run the sentibench CLI with spans around each layer's public entry points.

Usage: python3 traced_cli.py SPANS.jsonl CLI-ARGS...

The program is not modified: this script wraps functions and methods in
place, where `sentibench.cli` and `sentibench.metrics` look them up, then
calls `sentibench.cli.main`. Each span records its id, parent, name,
start and end (perf_counter seconds), row/nnz/dims counts where the layer
has them, and ru_maxrss (KiB) at start and end. Spans stay in memory and
are written as JSON lines when the command returns.

Counting work done after a call returns (summing nnz, walking trees) is
recorded as a `trace` child span, so it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

import numpy as np


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span; name may be a callable of the call's args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name(args) if callable(name) else name,
                "rss_start_kib": _maxrss_kib(),
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_end_kib"] = _maxrss_kib()
                self._stack.pop()
            if count is not None:
                span.update(count(args, result))
                self.spans.append(
                    {
                        "id": len(self.spans),
                        "parent": span["parent"],
                        "name": "trace",
                        "start": span["end"],
                        "end": time.perf_counter(),
                    }
                )
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _rows(args, result):
    return {"rows": len(result)}


def _split_rows(args, result):
    train, test = result
    return {"rows": len(train) + len(test)}


def _vectorizer_fit(args, result):
    return {"rows": len(args[1]), "dims": result.dims}


def _vectorizer_transform(args, result):
    return {"rows": len(result), "nnz": sum(v.nnz for v in result)}


def _model_fit(args, result):
    model, X = args[0], args[1]
    n = len(X)
    counts = {"rows": n}
    if model.variant == "svm":
        counts["steps"] = 3 * model.epochs * n
    elif model.variant == "logreg":
        counts["batches"] = model.epochs * -(-n // model.batch_size)
    elif model.variant == "rf":
        counts["nodes"] = [int(t.feature.size) for t in model.trees_]
        counts["depth_max"] = max(_tree_depth(t) for t in model.trees_)
    return counts


def _tree_depth(tree) -> int:
    depth, frontier = 0, np.array([0])
    while True:
        frontier = frontier[tree.feature[frontier] >= 0]
        if frontier.size == 0:
            return depth
        frontier = np.concatenate([tree.left[frontier], tree.right[frontier]])
        depth += 1


def _saved_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _loaded_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _evaluate_rows(args, result):
    return {"rows": len(args[2])}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the CLI reaches."""
    from sentibench import cli
    from sentibench.models import (
        BaseClassifier,
        LinearSvm,
        MultinomialNaiveBayes,
        RandomForest,
        SoftmaxRegression,
    )
    from sentibench.preprocess import TweetPreprocessor
    from sentibench.vectorize import BowVectorizer, TfidfVectorizer

    cli.load_dataset = tracer.wrap("corpus.load", cli.load_dataset, _rows)
    cli.train_test_split = tracer.wrap("corpus.split", cli.train_test_split, _split_rows)
    cli.save_model = tracer.wrap("models.io.save", cli.save_model, _saved_bytes)
    cli.save_vectorizer = tracer.wrap("models.io.save", cli.save_vectorizer, _saved_bytes)
    cli.load_model = tracer.wrap("models.io.load", cli.load_model, _loaded_bytes)
    cli.load_vectorizer = tracer.wrap("models.io.load", cli.load_vectorizer, _loaded_bytes)
    cli.evaluate = tracer.wrap("metrics.evaluate", cli.evaluate, _evaluate_rows)
    for name in ("cmd_stats", "cmd_train", "cmd_evaluate", "cmd_compare"):
        setattr(cli, name, tracer.wrap("cli.cmd", getattr(cli, name)))

    # Methods are looked up on the instance inside cli and metrics, so they
    # are wrapped on the classes that define them.
    TweetPreprocessor.preprocess_corpus = tracer.wrap(
        "preprocess", TweetPreprocessor.preprocess_corpus, _rows
    )
    for cls in (BowVectorizer, TfidfVectorizer):
        cls.fit = tracer.wrap("vectorize.fit", cls.fit, _vectorizer_fit)
        cls.transform = tracer.wrap("vectorize.transform", cls.transform, _vectorizer_transform)
    for cls in (LinearSvm, SoftmaxRegression, MultinomialNaiveBayes, RandomForest):
        cls.fit = tracer.wrap(f"models.{cls.variant}.fit", cls.fit, _model_fit)
    BaseClassifier.predict = tracer.wrap(
        lambda args: f"models.{args[0].variant}.predict", BaseClassifier.predict, _rows
    )


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from sentibench import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
