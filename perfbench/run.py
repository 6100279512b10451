"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload select-distinct --seed 0 --seconds 10 --trace 0

Prints a readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics).  Exits 1 when an
answer check fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.runner import WORKLOADS, report_lines, result_json, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    result = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, trace=trace,
        size=args.size, root=ROOT,
    )
    for line in report_lines(args.workload, result, trace):
        print(line)
    payload = result_json(result, trace)
    print(json.dumps(payload), flush=True)
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
