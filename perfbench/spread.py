"""Steadiness check: run the benchmark untraced over several seeds (the
bounds apply to the end-to-end metrics only) and report, per
workload and metric, the median, quartiles and the spread (distance
between the quartiles as a share of the median).

Run from the repository root::

    python3 perfbench/spread.py --workloads answer_warm,service_mixed \\
        --seeds 1-10 --seconds 20 [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> "list[int]":
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def summary(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    bounds = {
        metric["name"]: metric.get("bound")
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        values: "dict[str, list[float]]" = {}
        for seed in seeds_from(args.seeds):
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = completed.stdout.strip().splitlines()
            if not lines:
                ok = False
                print(f"{workload} seed {seed}: rc={completed.returncode} no result\n"
                      f"{completed.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if completed.returncode or not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: rc={completed.returncode} {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {name: summary(vals) for name, vals in values.items()}
        for name, entry in report[workload].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and entry["spread"] >= bound / 3:
                flag = f"  above a third of its bound {bound}"
            print(f"{workload:16s} {name:32s} median={entry['median']:.6g} "
                  f"spread={entry['spread']:.4f}{flag}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
