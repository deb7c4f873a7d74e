"""The repository benchmark: one OMQA workload, timed end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload materialize --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` replays the
run with every layer wrapped and prints the per-layer metrics.  Lines
before the last are human-readable detail; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The process
exits 1 when an answer is wrong and 2 when the program's sources are
missing.  See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("materialize", "rewrite_compile", "answer_warm", "service_mixed")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench.stats import result_line

    if args.workload == "service_mixed":
        from perfbench.service_mixed import run_service

        outcome = run_service(args.seed, args.seconds, bool(args.trace))
    else:
        from perfbench.harness import run_workload

        workload = _in_process(args.workload, args.seed)
        outcome = run_workload(workload, args.seconds, bool(args.trace))
    for line in outcome["lines"]:
        print(line)
    if outcome["attempted"]:
        print(f"failed_ratio {outcome['failed'] / outcome['attempted']:.4f}")
    print(
        result_line(
            outcome["correct"],
            outcome["attempted"],
            outcome["failed"],
            outcome["metrics"],
        ),
        flush=True,
    )
    return 0 if outcome["correct"] else 1


def _in_process(name: str, seed: int):
    if name == "materialize":
        from perfbench.materialize import Materialize

        return Materialize(seed)
    if name == "rewrite_compile":
        from perfbench.rewrite_compile import RewriteCompile

        return RewriteCompile(seed)
    from perfbench.answer_warm import AnswerWarm

    return AnswerWarm(seed)


if __name__ == "__main__":
    sys.exit(main())
