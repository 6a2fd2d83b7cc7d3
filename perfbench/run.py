"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-chat --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics and writes the spans to
``perfbench/out/<workload>-seed<seed>.jsonl``.  Lines before the last one
describe the workload's inputs (``traits``) and, in traced runs, every layer
row measured and the rows it cannot measure from outside.  The exit code is
1 when a response fails the output oracle or when the traced pass decides
differently from the untraced one, and 2 when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: on a small host the program's own threads (and the load
# generator) are what compete for the CPUs, not idle-spinning BLAS workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        from harness import run_workload
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    report = run_workload(workload, args.seed, bool(args.trace), HERE / "out")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report.layers if args.trace else report.e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"traits": report.traits}))
    if args.trace:
        print(json.dumps({"layers": report.layers, "not_measured": report.not_measured}))
    if not report.same_decisions:
        print("traced and untraced passes decided differently", file=sys.stderr)
    if report.failed:
        print(f"{report.failed} of {report.attempted} responses failed", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
