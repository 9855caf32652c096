"""Tracing overhead: end-to-end metrics of traced runs against untraced ones.

Run from the root of a checkout::

    python3 perfbench/overhead.py --workload mixed_serving --seeds 1,2,3 --seconds 20

For each seed it runs ``run.py`` with ``--trace 0`` and ``--trace 1``
(one after the other, in that order) and prints, per end-to-end metric,
the median over seeds of traced / untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_PREFIX = "traced end-to-end: "


def _run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    if trace:
        line = next(line for line in lines if line.startswith(TRACED_PREFIX))
        return json.loads(line[len(TRACED_PREFIX):])
    return {name: entry["value"] for name, entry in json.loads(lines[-1])["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()
    ratios: dict = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        plain = _run(args.workload, seed, args.seconds, 0)
        traced = _run(args.workload, seed, args.seconds, 1)
        for name, value in plain.items():
            if value:
                ratios.setdefault(name, []).append(traced[name] / value)
    print(f"{args.workload}: traced / untraced, median of {len(args.seeds.split(','))} seeds")
    for name, values in ratios.items():
        print(f"  {name:24s} {statistics.median(values):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
