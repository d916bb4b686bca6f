"""Self-tests of the benchmark: generator, span arithmetic, checks, smoke runs.

Run from the repository root with `python -m pytest perfbench -q`.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import corpus_gen
import layers
import run

HERE = Path(__file__).resolve().parent


def test_generator_is_deterministic_per_seed():
    a = corpus_gen.generate_csv(600, seed=7)
    assert a == corpus_gen.generate_csv(600, seed=7)
    assert a != corpus_gen.generate_csv(600, seed=8)


def test_generator_has_the_promised_properties():
    data = corpus_gen.generate_csv(4000, seed=1)
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline=""), strict=True))
    assert rows[0] == ["tweet_id", "airline_sentiment", "airline", "text"]
    body = rows[1:]
    assert len(body) == 4000
    share = {label: sum(r[1] == label for r in body) / len(body) for label in corpus_gen.LABELS}
    for label, prior in zip(corpus_gen.LABELS, corpus_gen.PRIOR):
        assert abs(share[label] - prior) < 0.03
    texts = [r[3] for r in body]
    assert all(t.startswith("@") for t in texts)
    assert any("#" in t for t in texts)
    assert any(any(ch.isdigit() for ch in t) for t in texts)
    assert any("," in t for t in texts) and any('"' in t for t in texts)
    assert b'"' in data  # quoted fields reach the file
    words = " ".join(texts).split()
    assert any(w.endswith("ing") for w in words) and any(w.endswith("ed") for w in words)


def _span(i, parent, start, end, name="x"):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0, "cli.cmd"),
        _span(1, 0, 1.0, 4.0, "metrics.evaluate"),
        _span(2, 1, 1.5, 2.5, "preprocess"),
        _span(3, 1, 2.0, 3.0, "vectorize.transform"),  # overlaps its sibling
        _span(4, 0, 5.0, 6.0, "corpus.load"),
        _span(5, 0, 9.5, 11.0, "trace"),  # runs past its parent: clipped
    ]
    selfs = layers.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.5)
    m = layers.process_metrics(spans)
    assert m["metrics.evaluate.self_s"] == pytest.approx(1.5)
    assert m["cli.cmd.self_s"] == pytest.approx(5.5)


def _good_report():
    counts = [[50, 5, 5], [10, 15, 5], [5, 5, 10]]
    per_class_recall = [50 / 60, 15 / 30, 10 / 20]
    support = [60, 30, 20]
    return {
        "accuracy": 75 / 110,
        "weighted": {"recall": sum(r * s for r, s in zip(per_class_recall, support)) / 110},
        "confusion_matrix": {"counts": counts},
        "metadata": {"test_size": 110, "test_ids_sha256": "abc"},
    }


def test_checker_accepts_a_good_report_and_rejects_corrupted_ones():
    assert checks.report_problems(_good_report(), 110, "abc") == []
    corruptions = {
        "accuracy": lambda d: d.update(accuracy=0.7),
        "total": lambda d: d["confusion_matrix"]["counts"][0].__setitem__(0, 49),
        "split": lambda d: d["metadata"].update(test_ids_sha256="def"),
        "missing": lambda d: d.pop("weighted"),
    }
    for name, corrupt in corruptions.items():
        doc = copy.deepcopy(_good_report())
        corrupt(doc)
        assert checks.report_problems(doc, 110, "abc"), name


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.LAYER_METRICS)


def test_smoke_every_workload_on_a_tiny_corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PAIRS", 1)
    monkeypatch.setattr(run, "SETUP_PER_REP", 1)
    result, _ = run.run_workload(
        replace(run.WORKLOADS["grid-linear"], rows=300), 3, 0, False, tmp_path
    )
    assert result["correct"] and result["failed"] == 0
    assert {k for k, _ in run.END_TO_END} == set(result["metrics"])
    for name, workload in run.WORKLOADS.items():
        result, lines = run.run_workload(replace(workload, rows=400), 3, 0, True, tmp_path)
        assert result["correct"], (name, lines)
        assert {k for k, _ in layers.LAYER_METRICS} == set(result["metrics"])


def test_benchmark_process_stays_small(tmp_path):
    # Every CLI process inherits the benchmark process's RSS high-water mark
    # as its own ru_maxrss, so the largest corpus must not raise that mark.
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import checks, run\n"
        "digest = run.write_corpus(146400, 1, Path(sys.argv[1]))\n"
        "checks.expected_test_ids_sha256(146400)\n"
        "print(digest, run.child_rss_floor_mb())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "corpus.csv")],
        cwd=HERE, capture_output=True, text=True, timeout=300, check=True,
    )
    digest, rss_mb = done.stdout.split()
    assert float(rss_mb) < 50
    assert digest == hashlib.sha256((tmp_path / "corpus.csv").read_bytes()).hexdigest()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-linear", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
