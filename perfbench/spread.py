"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload suite-full --seeds 1-10 [--json FILE]

Runs run.py untraced once per seed for BENCHMARK.json's run_seconds, one
run after another, and prints for each metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median: the figures the benchmark's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """(result object, failure list) of one untraced run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True,
                          cwd=HERE.parent)
    lines = done.stdout.strip().splitlines()
    failures = next(json.loads(line.partition(": ")[2]) for line in lines
                    if line.startswith("failures: "))
    return json.loads(lines[-1]), failures


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--json", help="also write the runs and their summary here")
    args = parser.parse_args(argv)

    seeds = seed_range(args.seeds)
    results, failures = [], []
    for seed in seeds:
        result, failed = run_once(args.workload, seed, RUN_SECONDS)
        results.append(result)
        failures.extend(failed)
        print(f"seed {seed}: attempted {results[-1]['attempted']}, "
              f"failed {results[-1]['failed']}", flush=True)
    summary = summarize(results)
    for name, row in summary.items():
        print(f"{name:58s} {row['median']:14.6g} {row['unit']:9s} spread {row['spread']:.4f}")
    if args.json:
        doc = {"workload": args.workload, "seeds": seeds, "seconds": RUN_SECONDS,
               "summary": summary,
               "attempted": [r["attempted"] for r in results],
               "failed": [r["failed"] for r in results], "failures": failures}
        Path(args.json).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
