"""The appliance benchmark: one closed-loop client, public Session API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analytic_sql --seed 1 --seconds 25 --trace 0

It builds the appliance from ``src/``, sets the workload up several
times (``setup_s`` is the median), then issues Session calls for
``--seconds`` seconds, one at a time, checking every answer against the
reference model in ``oracle.py``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
— the end-to-end metrics with ``--trace 0``, the per-layer ones (from a
run with span tracing around each layer's entry points) with
``--trace 1``.  Lines before it are a human-readable report.  A failed
operation or a wrong answer makes the command exit with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from clock import Clock, spin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Context printed with every run: a fixed loop, timed at start and end.
CALIBRATION_ITERATIONS = 1_000_000
HASH_SEED = "0"
#: Spans of traced runs are written here (inside the checkout).
OUT = os.path.join(ROOT, ".perfbench_out")

#: End-to-end metric -> unit.  Latencies are per Session call; rates are
#: calls (or documents) per second of time spent inside those calls.
#: Every time is scaled to the reference machine speed (clock.py).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "ingest_docs_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "search_p50_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
}


class MissingSamples(RuntimeError):
    """An op kind has no successful call to measure."""


def percentile(samples: List[float], q: float):
    """Nearest-rank percentile *q*, stopped at the highest rank that has
    at least ten samples beyond it (and never below the median).
    Returns (value, the percentile actually used)."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(min(math.ceil(q * n) - 1, n - 11), (n - 1) // 2)
    return xs[rank], 100.0 * (rank + 1) / n


@dataclass
class Loop:
    """What one run of the op loop measured."""

    latencies: Dict[str, List[float]] = field(default_factory=dict)  #: scaled s per kind
    wall: Dict[str, List[float]] = field(default_factory=dict)  #: wall s per kind
    failures: Counter = field(default_factory=Counter)  #: by exception type
    setups: List[Tuple[float, float]] = field(default_factory=list)  #: cycle set-ups
    counters: Counter = field(default_factory=Counter)  #: client.counters() deltas


def run_loop(client, seconds: float, tracer=None, needs=None) -> Loop:
    """Issue the workload's rounds of ops for *seconds* (not counting
    set-ups), and on until every op kind has its *needs* (by default the
    workload's) of successful calls.  The loop ends at the end of a
    round, and a cycling workload at the end of a cycle; a workload that
    does not cycle sets up again at even shares of *seconds*."""
    from tracing import SESSION
    from workloads import SETUPS, interleave

    clock = client.clock
    workload = client.workload
    cycle = workload.cycle_rounds
    needs = workload.needs() if needs is None else needs
    order = interleave(workload.round)
    loop = Loop()
    latencies, wall, failures = loop.latencies, loop.wall, loop.failures
    mark = client.counters()
    start = perf_counter()
    paused = 0.0  # seconds of set-ups, which the loop's time excludes
    step = 0
    while True:
        rounds, position = divmod(step, len(order))
        if position == 0 and rounds and (not cycle or rounds % cycle == 0):
            elapsed = perf_counter() - start - paused
            if elapsed >= seconds and (
                failures or all(len(latencies.get(k, ())) >= n for k, n in needs.items())
            ):
                break
            if cycle or (len(loop.setups) + 1 < SETUPS
                         and elapsed >= seconds * (len(loop.setups) + 1) / SETUPS):
                loop.counters.update(_minus(client.counters(), mark))
                began = perf_counter()
                if tracer is not None:
                    tracer.active = False
                loop.setups.append(client.setup(cycle=len(loop.setups) + 1))
                if tracer is not None:
                    tracer.active = True
                mark = client.counters()
                paused += perf_counter() - began
        kind = order[position]
        step += 1
        clock.probe()
        op = client.make(kind)
        span = tracer.open(f"session.{kind}", SESSION) if tracer is not None else None
        start_call = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is counted, not fatal
            failures[type(exc).__name__] += 1
            _report_failure(kind, exc)
            continue
        finally:
            elapsed_call = perf_counter() - start_call
            if span is not None:
                tracer.close(span)
        try:
            op.check(result)
        except Exception as exc:
            failures[type(exc).__name__] += 1
            _report_failure(kind, exc)
            continue
        latencies.setdefault(kind, []).append(clock.scaled(elapsed_call))
        wall.setdefault(kind, []).append(elapsed_call)
    loop.counters.update(_minus(client.counters(), mark))
    return loop


def _minus(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def _report_failure(what: str, exc: BaseException) -> None:
    print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exception(type(exc), exc, exc.__traceback__, limit=4, file=sys.stderr)


def end_to_end(client, setups: List[float], bulk_setup_s: float, latencies,
               attempted: int, failed: int):
    """The end-to-end metrics from set-up times, the time set-up spent
    in ingest_many, and per-kind loop latencies (all in seconds).  Each
    tail reads the percentile the workload fixes for it."""
    from workloads import CATEGORY

    by_category: Dict[str, List[float]] = {}
    for kind, values in latencies.items():
        by_category.setdefault(CATEGORY[kind], []).extend(values)
    for category in ("query", "read", "search", "write"):
        if not by_category.get(category):
            raise MissingSamples(f"no successful {category} op in the run")
    ms = {c: [v * 1000.0 for v in values] for c, values in by_category.items()}
    used: Dict[str, Any] = {}

    def pct(category: str, p: int, name: str) -> float:
        value, actual = percentile(ms[category], p / 100.0)
        used[name] = f"p{actual:.1f} of {len(ms[category])}"
        return value

    tail = client.workload.tail
    all_ops = [v for values in latencies.values() for v in values]
    ingest_s = bulk_setup_s + sum(by_category.get("ingest", []))
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
        "ingest_docs_per_s": client.bulk_docs / ingest_s,
        "queries_per_s": len(ms["query"]) / sum(by_category["query"]),
        "query_p50_ms": pct("query", 50, "query_p50_ms"),
        "query_p95_ms": pct("query", tail("query"), "query_p95_ms"),
        "ops_per_s": len(all_ops) / sum(all_ops),
        "read_p50_ms": pct("read", 50, "read_p50_ms"),
        "read_p95_ms": pct("read", tail("read"), "read_p95_ms"),
        "search_p50_ms": pct("search", 50, "search_p50_ms"),
        "write_p50_ms": pct("write", 50, "write_p50_ms"),
        "write_p95_ms": pct("write", tail("write"), "write_p95_ms"),
    }
    return metrics, used


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, Client

    workload = WORKLOADS[workload_name]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # before any appliance exists (see tracing.py)
    import repro  # noqa: F401  (imported here, so no timed set-up pays for it)

    calibration = [spin(CALIBRATION_ITERATIONS) * 1000.0]
    client = Client(workload, seed, Clock())
    setups = [client.setup()]
    gc.collect()
    if tracer is not None:
        tracer.active = True
    loop_start = perf_counter()
    loop = run_loop(client, seconds, tracer)
    loop_seconds = perf_counter() - loop_start
    if tracer is not None:
        tracer.active = False
    latencies, wall, failures = loop.latencies, loop.wall, loop.failures
    setups += loop.setups
    attempted = sum(len(v) for v in latencies.values()) + sum(failures.values())
    for name, check in client.final_checks():
        attempted += 1
        try:
            check()
        except Exception as exc:
            failures[type(exc).__name__] += 1
            _report_failure(f"final check {name}", exc)
    failed = sum(failures.values())
    calibration.append(spin(CALIBRATION_ITERATIONS) * 1000.0)

    print(f"workload {workload_name} seed {seed}: {loop_seconds:.1f} s loop, "
          f"{attempted} ops attempted, {failed} failed {dict(failures)}")
    try:
        metrics, used = end_to_end(client, [s for s, _ in setups], client.bulk_seconds,
                                   latencies, attempted, failed)
        raw, _ = end_to_end(client, [w for _, w in setups], client.bulk_wall_seconds,
                            wall, attempted, failed)
    except MissingSamples:
        if not failed:
            raise
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    probes = client.clock.probes
    print(f"calibration loop ms (start, end): {calibration[0]:.1f}, {calibration[1]:.1f}; "
          f"speed probe ms median {statistics.median(probes) * 1000:.3f} "
          f"(min {min(probes) * 1000:.3f}, max {max(probes) * 1000:.3f}, {len(probes)} probes)")
    print("ops per kind: " + ", ".join(f"{k}={len(v)}" for k, v in sorted(latencies.items())))
    print("set-ups (scaled s / wall s): "
          + ", ".join(f"{s:.3f}/{w:.3f}" for s, w in setups))
    print("wall-clock (unscaled): " + json.dumps(
        {k: round(v, 4) for k, v in raw.items() if k not in ("peak_rss_mb", "ok_ratio")}))
    print("percentiles used: " + ", ".join(f"{k} {v}" for k, v in used.items()))
    if tracer is not None:
        from tracing import layer_metrics

        print("traced end-to-end: " + json.dumps(metrics))
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{workload_name}-{seed}.jsonl")
        tracer.dump(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        values = layer_metrics(tracer, client, loop.counters)
        tracer.uninstall()
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, entry in out.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no appliance source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, which changes dict
        # and set layouts and moves timings from run to run: re-execute
        # this process (same pid, no child) with hashing fixed.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
