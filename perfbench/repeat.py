"""Run the benchmark on several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload grid-linear --seeds 1-10

Each seed is one `run.py --trace 0` run of BENCHMARK.json's run_seconds.
For each metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), and their distance as a share of
the median, which is the run-to-run spread BENCHMARK.json's bounds are
judged against. With `--json FILE` it also writes the raw per-seed
results and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs: list[dict]) -> dict[str, dict]:
    names = runs[0]["metrics"].keys()
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "n": len(values),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--json", help="write per-seed results and the summary here")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else None
        if done.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 1
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  n={s['n']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
