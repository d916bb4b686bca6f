"""Output checks the benchmark applies to every CLI run.

The expected test split is recomputed here from the documented algorithm
(SplitMix64 driving a Fisher-Yates shuffle, ids are 1-based data-row
numbers, the train side takes floor(ratio * n)), independently of the
program, so `evaluate` is checked against the split `train` used.

The checks keep the benchmark process small, because every CLI process it
starts inherits its RSS high-water mark as the CLI's own ru_maxrss: the
split is shuffled in an array, and model artifacts (megabytes of JSON)
are parsed in a child process.
"""

from __future__ import annotations

import csv
import hashlib
from array import array
import json
import math
import subprocess
import sys
from pathlib import Path

_MASK64 = (1 << 64) - 1


def expected_test_ids_sha256(n: int, seed: int = 0, ratio: float = 0.75) -> str:
    order = array("q", range(n))  # a list holds several times the memory
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        span = i + 1
        limit = _MASK64 + 1 - ((_MASK64 + 1) % span)
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < limit:
                break
        j = z % span
        order[i], order[j] = order[j], order[i]
    ids = (str(i + 1).encode("ascii") for i in order[math.floor(ratio * n):])
    h = hashlib.sha256(next(ids, b""))
    for text in ids:
        h.update(b"\n" + text)
    return h.hexdigest()


def report_problems(doc: dict, test_size: int, test_ids_sha256: str) -> list[str]:
    """What is wrong with one report_*.json document (empty when it is right)."""
    try:
        acc = doc["accuracy"]
        counts = doc["confusion_matrix"]["counts"]
        meta = doc["metadata"]
        problems = []
        if not math.isclose(doc["weighted"]["recall"], acc, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"weighted recall {doc['weighted']['recall']!r} != accuracy {acc!r}")
        total = sum(sum(row) for row in counts)
        if total != test_size or meta["test_size"] != test_size:
            problems.append(f"confusion total {total} / test_size {meta['test_size']} != {test_size}")
        diagonal = sum(counts[i][i] for i in range(len(counts)))
        if not math.isclose(diagonal / test_size, acc, rel_tol=1e-12):
            problems.append(f"accuracy {acc!r} disagrees with the confusion matrix")
        if meta["test_ids_sha256"] != test_ids_sha256:
            problems.append("test_ids_sha256 differs from the split train used")
        return problems
    except (KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"]


def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


_PARSE_JSON = "import json, sys\nfor p in sys.argv[1:]:\n    json.load(open(p, encoding='utf-8'))\n"


def _check_artifacts(paths: list[Path], problems: list[str]) -> None:
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        problems.append(f"missing: {', '.join(missing)}")
        return
    done = subprocess.run(
        [sys.executable, "-c", _PARSE_JSON, *map(str, paths)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        problems.append(f"artifact does not parse: {done.stderr.strip()[-300:]}")


def _check_csv(path: Path, problems: list[str]) -> None:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            if not list(csv.reader(handle, strict=True)):
                problems.append(f"{path.name}: empty")
    except (OSError, csv.Error) as exc:
        problems.append(f"{path.name}: {exc}")


def check_outputs(
    out: Path, cells: list[tuple[str, str]], test_size: int, test_ids_sha256: str,
    comparison: bool, artifacts: tuple[str, ...] = (),
) -> tuple[list[str], list[float]]:
    """Check an output directory; returns (problems, accuracy of each cell)."""
    problems: list[str] = []
    accuracies: list[float] = []
    if artifacts:
        _check_artifacts([out / name for name in artifacts], problems)
    for model, vectorizer in cells:
        stem = f"report_{model}_{vectorizer}"
        doc = _load_json(out / f"{stem}.json", problems)
        if doc is None:
            continue
        problems += [f"{stem}: {p}" for p in report_problems(doc, test_size, test_ids_sha256)]
        accuracies.append(doc.get("accuracy", float("nan")))
        if not comparison:
            _check_csv(out / f"{stem}.csv", problems)
            if not (out / f"{stem}.txt").is_file():
                problems.append(f"{stem}.txt missing")
    if comparison:
        doc = _load_json(out / "comparison.json", problems)
        if doc is not None:
            got = [(r.get("model"), r.get("vectorizer")) for r in doc.get("rows", [])]
            if sorted(got) != sorted(cells):
                problems.append(f"comparison rows {got} != {cells}")
            if doc.get("test_size") != test_size or doc.get("test_ids_sha256") != test_ids_sha256:
                problems.append("comparison.json split differs from the expected split")
        _check_csv(out / "comparison.csv", problems)
        if not (out / "comparison.txt").is_file():
            problems.append("comparison.txt missing")
    return problems, accuracies


def output_digest(out: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()
