"""Per-layer metrics from the spans that traced_cli.py writes.

A span's self time is its duration minus the part of its interval that
its child spans cover. Every time metric below sums self times, so a
layer is charged only for work no deeper traced layer did; for example
`metrics.self_s` is `evaluate()` minus its nested preprocess, transform
and predict spans, and `cli.self_s` is what the `cmd_*` function did
itself (rendering and writing outputs).
"""

from __future__ import annotations

import json
from collections import defaultdict

MODEL_KINDS = ("svm", "logreg", "mnb", "rf")

# (metric name, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("corpus.load_s", "s"),
    ("corpus.split_s", "s"),
    ("corpus.rows", "count"),
    ("preprocess.busy_s", "s"),
    ("preprocess.docs", "count"),
    ("preprocess.docs_per_row", "docs/row"),
    ("vectorize.fit_s", "s"),
    ("vectorize.transform_s", "s"),
    ("vectorize.dims", "count"),
    ("vectorize.nnz", "count"),
    ("vectorize.transforms_per_row", "docs/row"),
    ("vectorize.rss_growth_mb", "MB"),
    *((f"models.{k}.{m}_s", "s") for k in MODEL_KINDS for m in ("fit", "predict")),
    ("models.svm.steps", "count"),
    ("models.logreg.batches", "count"),
    ("models.rf.nodes", "nodes/tree"),
    ("models.rf.depth_max", "count"),
    ("models.io.save_s", "s"),
    ("models.io.load_s", "s"),
    ("models.io.bytes", "bytes"),
    ("metrics.self_s", "s"),
    ("metrics.rows", "count"),
    ("cli.self_s", "s"),
    ("cli.cpu_s", "s"),
    ("cli.write_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            children[s["parent"]].append(
                (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
            )
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]]) for s in spans
    }


def process_metrics(spans: list[dict]) -> dict[str, float]:
    """Sums over one process's spans: `<span name>.self_s`, `.rows`, and counts."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        out[f"{name}.self_s"] += selfs[s["id"]]
        for key in ("rows", "nnz", "bytes", "steps", "batches"):
            if key in s:
                out[f"{name}.{key}"] += s[key]
        if "dims" in s:
            out[f"{name}.dims"] = max(out[f"{name}.dims"], s["dims"])
        if "rss_start_kib" in s and name.startswith("vectorize."):
            out["vectorize.rss_growth_kib"] += s["rss_end_kib"] - s["rss_start_kib"]
        if "nodes" in s:
            out["rf.trees"] += len(s["nodes"])
            out["rf.nodes"] += sum(s["nodes"])
            out["rf.depth_max"] = max(out["rf.depth_max"], s["depth_max"])
    return out


def layer_metrics(
    processes: list[list[dict]], distinct_rows: int, cpu_s: float, write_bytes: int
) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (all its CLI processes)."""
    p: dict[str, float] = defaultdict(float)
    for spans in processes:
        for key, value in process_metrics(spans).items():
            p[key] = max(p[key], value) if key.endswith(("dims", "depth_max")) else p[key] + value
    m = {
        "corpus.load_s": p["corpus.load.self_s"],
        "corpus.split_s": p["corpus.split.self_s"],
        "corpus.rows": p["corpus.load.rows"],
        "preprocess.busy_s": p["preprocess.self_s"],
        "preprocess.docs": p["preprocess.rows"],
        "preprocess.docs_per_row": p["preprocess.rows"] / distinct_rows,
        "vectorize.fit_s": p["vectorize.fit.self_s"],
        "vectorize.transform_s": p["vectorize.transform.self_s"],
        "vectorize.dims": p["vectorize.fit.dims"],
        "vectorize.nnz": p["vectorize.transform.nnz"],
        "vectorize.transforms_per_row": p["vectorize.transform.rows"] / distinct_rows,
        "vectorize.rss_growth_mb": p["vectorize.rss_growth_kib"] / 1024.0,
    }
    for k in MODEL_KINDS:
        m[f"models.{k}.fit_s"] = p[f"models.{k}.fit.self_s"]
        m[f"models.{k}.predict_s"] = p[f"models.{k}.predict.self_s"]
    m.update(
        {
            "models.svm.steps": p["models.svm.fit.steps"],
            "models.logreg.batches": p["models.logreg.fit.batches"],
            "models.rf.nodes": p["rf.nodes"] / p["rf.trees"] if p["rf.trees"] else 0.0,
            "models.rf.depth_max": p["rf.depth_max"],
            "models.io.save_s": p["models.io.save.self_s"],
            "models.io.load_s": p["models.io.load.self_s"],
            "models.io.bytes": p["models.io.save.bytes"] + p["models.io.load.bytes"],
            "metrics.self_s": p["metrics.evaluate.self_s"],
            "metrics.rows": p["metrics.evaluate.rows"],
            "cli.self_s": p["cli.cmd.self_s"],
            "cli.cpu_s": cpu_s,
            "cli.write_bytes": float(write_bytes),
        }
    )
    return m


def design_share(workload: str, m: dict[str, float], wall_s: float) -> tuple[str, float]:
    """(layers, share of a traced repetition's wall time) for the layers a workload targets."""
    if workload == "grid-linear":
        part = m["models.svm.fit_s"] + m["models.logreg.fit_s"]
        label = "svm+logreg fit"
    elif workload == "forest-roundtrip":
        part = m["models.rf.fit_s"] + m["models.rf.predict_s"]
        label = "rf fit+predict"
    else:
        part = sum(
            m[k]
            for k in (
                "corpus.load_s", "corpus.split_s", "preprocess.busy_s",
                "vectorize.fit_s", "vectorize.transform_s", "metrics.self_s",
            )
        )
        label = "corpus+preprocess+vectorize+metrics self"
    return label, part / wall_s
