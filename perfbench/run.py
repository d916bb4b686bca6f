"""sentibench benchmark: drive the real CLI on a seeded synthetic corpus.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-linear --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another

Each repetition runs the workload's CLI processes one at a time, as a
single-process user would (a closed loop with one client), with
`PYTHONPATH=src` so the code under test is this checkout's. Repetitions
continue (at least MIN_REPS of them) up to the repetition boundary
nearest to `--seconds`, and every figure reported is the median over
repetitions. Every repetition's outputs are checked; see checks.py.

`--trace 0` reports the end-to-end metrics; the set-up probes run between
the repetitions, so they sample the same stretch of time. `--trace 1` runs
one untraced warm-up repetition, then pairs of one untraced and one traced
repetition (traced_cli.py), and reports the per-layer metrics of layers.py
plus the tracing overhead, the median of the pairs' wall-time differences.

This process stays small: the corpus is generated and the model artifacts
are parsed in child processes. A child inherits its parent's RSS
high-water mark as its own ru_maxrss, so a large benchmark process would
put a floor under peak_rss_mb. The run prints that floor.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give each
metric with its unit and sample count, and the run's provenance. The exit
code is 1 when any output check failed, and 2 when the benchmark cannot
run at all (for example, no `src/sentibench` next to this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CORPUS = "corpus.csv"  # reports embed the --data string, so it never varies
OUT = "out"
AIRLINE_ROWS = 14_640
SPLIT_RATIO = 0.75  # the CLI default; the CLI seed is left at its default 0
SETUP_PER_REP = 2
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
CLI_TIMEOUT_S = 100

# What the installed `sentibench` console script runs. `python -m
# sentibench.cli` would compile cli.py afresh on every call, which the
# traced run (traced_cli.py) does not, and bias trace.overhead_s.
CONSOLE_SCRIPT = "import sys\nfrom sentibench.cli import main\nsys.exit(main())\n"

SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import sentibench.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t, cli.__file__)\n"
)

PRINT_MAXRSS = "import resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"

# Platform and library facts a reader needs to compare two baselines.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to the program failing a check)."""


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    commands: tuple[tuple[str, ...], ...]
    cells: tuple[tuple[str, str], ...]
    comparison: bool
    artifacts: tuple[str, ...] = ()


# Why each workload exists is recorded in README.md next to this file.
# Epoch and tree counts are below the CLI defaults so one repetition takes a
# few seconds and a run holds several; the per-step kernels are unchanged.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-linear",
            AIRLINE_ROWS,
            (("compare", "--model", "svm,logreg", "--vectorizer", "bow",
              "--svm-epochs", "10", "--logreg-epochs", "10"),),
            (("svm", "bow"), ("logreg", "bow")),
            comparison=True,
        ),
        Workload(
            "forest-roundtrip",
            AIRLINE_ROWS,
            (("train", "--model", "rf", "--vectorizer", "tfidf", "--rf-trees", "20"),
             ("evaluate", "--model-artifact", f"{OUT}/model_rf_tfidf.json",
              "--vectorizer-artifact", f"{OUT}/vectorizer_tfidf.json")),
            (("rf", "tfidf"),),
            comparison=False,
            artifacts=("model_rf_tfidf.json", "vectorizer_tfidf.json"),
        ),
        Workload(
            "ingest-10x",
            10 * AIRLINE_ROWS,
            (("compare", "--model", "mnb", "--vectorizer", "bow,tfidf"),),
            (("mnb", "bow"), ("mnb", "tfidf")),
            comparison=True,
        ),
    )
}

END_TO_END = (
    ("wall_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("accuracy_mean", "fraction"),
)


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    accuracy_mean: float = float("nan")
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_process(cmd: list[str], cwd: Path) -> tuple[int, float, float, float]:
    """Run one CLI process; returns (exit code, wall s, user+sys s, ru_maxrss MB)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def child_rss_floor_mb() -> float:
    """ru_maxrss of a bare child process, in MB.

    This is the floor that this process's own RSS high-water mark puts
    under the ru_maxrss of every CLI process it starts.
    """
    done = subprocess.run(
        [sys.executable, "-c", PRINT_MAXRSS],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return int(done.stdout) / 1024.0


def write_corpus(rows: int, seed: int, path: Path) -> str:
    """Generate the corpus in a child process; returns its sha256."""
    try:
        subprocess.run(
            [sys.executable, str(HERE / "corpus_gen.py"), str(rows), str(seed), str(path)],
            check=True, capture_output=True, text=True, timeout=120,
        )
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"corpus generation failed: {exc.stderr.strip()[-500:]}") from None
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def measure_setup(work: Path) -> list[float]:
    """Fresh-interpreter `import sentibench.cli` + `build_parser()` times."""
    src = (ROOT / "src").resolve()
    times = []
    for _ in range(SETUP_PER_REP):
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE], cwd=work, env=_child_env(),
                capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"importing sentibench.cli took over {exc.timeout} s") from None
        if done.returncode != 0:
            raise BenchError(f"cannot import sentibench.cli: {done.stderr.strip()[-500:]}")
        seconds, module_path = done.stdout.split()
        if not Path(module_path).resolve().is_relative_to(src):
            raise BenchError(f"sentibench.cli came from {module_path}, not {src}")
        times.append(float(seconds))
    return times


def run_rep(w: Workload, work: Path, traced: bool, test_ids_sha256: str) -> Rep:
    out = work / OUT
    shutil.rmtree(out, ignore_errors=True)
    rep = Rep(traced=traced)
    span_files = []
    failed_steps = set()
    for i, command in enumerate(w.commands):
        argv = [*command, "--data", CORPUS, "--out-dir", OUT]
        if traced:
            span_files.append(work / f"spans{i}.jsonl")
            cmd = [sys.executable, str(HERE / "traced_cli.py"), span_files[-1].name, *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        code, wall, cpu, rss = run_process(cmd, work)
        rep.attempted += 1
        rep.wall_s += wall
        rep.cpu_s += cpu
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        if code != 0:
            failed_steps.add(i)
            stderr = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            rep.problems.append(f"{command[0]} exited {code}: {stderr.strip()[-300:]}")

    test_size = w.rows - math.floor(SPLIT_RATIO * w.rows)
    problems, accuracies = checks.check_outputs(
        out, list(w.cells), test_size, test_ids_sha256, w.comparison, w.artifacts
    )
    rep.problems += problems
    if problems:
        failed_steps.add(len(w.commands) - 1)
    rep.failed = len(failed_steps)
    if accuracies:
        rep.accuracy_mean = statistics.fmean(accuracies)
    if out.is_dir():
        rep.digest = checks.output_digest(out)
    if traced and not failed_steps:
        write_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        rep.layers = layers.layer_metrics(
            [layers.read_spans(str(p)) for p in span_files], w.rows, rep.cpu_s, write_bytes
        )
    return rep


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _environment() -> dict[str, str]:
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        **{k: os.environ.get(k, "unset") for k in BLAS_ENV},
    }


def _spread(values: list[float]) -> str:
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work_root: Path = WORK):
    """One benchmark run of one workload; returns (result dict, summary lines)."""
    work = work_root / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus_sha256 = write_corpus(w.rows, seed, work / CORPUS)
    test_ids_sha256 = checks.expected_test_ids_sha256(w.rows, ratio=SPLIT_RATIO)

    def rep(traced: bool) -> Rep:
        return run_rep(w, work, traced, test_ids_sha256)

    reps: list[Rep] = []
    setup: list[float] = []
    pairs: list[tuple[Rep, Rep]] = []  # (untraced, traced)
    if trace:
        reps.append(rep(False))  # warm-up: checked, but in no figure
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if trace:
            # Alternate which of the pair runs first, so a drift in machine
            # speed does not favour one side of the difference.
            first_traced = len(pairs) % 2 == 1
            a, b = rep(first_traced), rep(not first_traced)
            reps += [a, b]
            pairs.append((b, a) if first_traced else (a, b))
            enough = len(pairs) >= MIN_TRACED_PAIRS
        else:
            setup += measure_setup(work)
            reps.append(rep(False))
            enough = len(reps) >= MIN_REPS
        now = time.perf_counter()
        rounds.append(now - round_start)
        # Stop at the round boundary nearest to `seconds`.
        if enough and now - start + statistics.median(rounds) / 2 >= seconds:
            break

    digest = reps[0].digest
    for r in reps:
        if r.digest != digest and not r.failed:
            r.failed = 1
            r.problems.append("output digest differs from the run's first repetition")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    lines = [
        f"workload {w.name}: seed {seed}, {w.rows} rows, corpus sha256 "
        f"{corpus_sha256}, output digest {digest}",
        f"invocations attempted {attempted}, failed {failed}",
        f"a bare child process's ru_maxrss is {child_rss_floor_mb():.1f} MB "
        "(the floor under peak_rss_mb)",
    ]
    lines += [f"problem: {p}" for r in reps for p in r.problems]

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        walls = [r.wall_s for r in reps]
        samples = {
            "wall_s": walls,
            "rows_per_s": [w.rows / x for x in walls],
            "peak_rss_mb": [r.peak_rss_mb for r in reps],
            "setup_s": setup,
            "accuracy_mean": [r.accuracy_mean for r in reps],
        }
        for name, unit in END_TO_END:
            value = statistics.median(samples[name])
            metrics[name] = (value, unit)
            lines.append(f"{name} = {value:.6g} {unit} (median; {_spread(samples[name])})")
    elif all(t.layers is not None for _, t in pairs):
        traced_wall = statistics.median(t.wall_s for _, t in pairs)
        for name, unit in layers.LAYER_METRICS:
            if name == "trace.overhead_s":
                value = statistics.median(t.wall_s - u.wall_s for u, t in pairs)
            else:
                value = statistics.median(t.layers[name] for _, t in pairs)
            metrics[name] = (value, unit)
            lines.append(f"{name} = {value:.6g} {unit} (median of {len(pairs)} traced reps)")
        median_layers = {k: metrics[k][0] for k, _ in layers.LAYER_METRICS}
        label, share = layers.design_share(w.name, median_layers, traced_wall)
        lines.append(f"share of traced wall in {label}: {share:.3f}")
    correct = failed == 0 and len(metrics) > 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def _result_json(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all of them")
    parser.add_argument("--seed", type=int, default=1, help="corpus seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sentibench" / "cli.py").is_file():
        print(f"error: no sentibench source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    print(" ".join(f"{k}={v}" for k, v in _environment().items()), flush=True)
    results = {}
    try:
        for name in names:
            result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        merged = next(iter(results.values()))
    else:
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(_result_json(**merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
