"""EXEC — the compiled ColumnBatch engine vs a row-at-a-time interpreter.

Claims reproduced:
(1) batch-at-a-time execution of the scan → filter → group-aggregate
    pipeline sustains at least 2× the rows/sec of the row-at-a-time
    reference interpreter (``tests/row_oracle.py``) on the same
    repository (Python pays its per-row dict and dispatch overhead once
    per batch instead of once per row);
(2) both return byte-identical rows and charge identical simulated
    cost — the speedup is real wall-clock, not a cost-model artifact;
(3) the native columnar scan (docs/STORAGE.md) sustains at least 3× the
    rows/sec of the pre-refactor transpose scan on scan-heavy shapes —
    batches come straight off compressed column pages instead of being
    transposed out of per-document trees — again with identical rows and
    identical simulated cost.

Results land in ``BENCH_exec.json`` at the repo root so the performance
trajectory is tracked across revisions.  Runs standalone too:
``python benchmarks/bench_exec_vectorized.py --quick`` is the execution
smoke target ``make verify`` uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest

from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.storage.store import DocumentStore
from repro.workloads.relational import RelationalWorkload

from conftest import once, print_table

# The row-at-a-time baseline is the test oracle at tests/row_oracle.py.
REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)
from tests.row_oracle import RowOracle  # noqa: E402

SEED = 23
N_ORDERS = 20_000
QUERY = (
    "SELECT region, count(*) AS n, sum(amount) AS total, avg(amount) AS a"
    " FROM orders WHERE amount > 50 GROUP BY region"
)
#: Scan-heavy shape: projection + cheap aggregate, no filter — wall clock
#: is dominated by how rows get from pages into batches.
SCAN_QUERY = "SELECT region, count(*) AS n FROM orders GROUP BY region"
RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_exec.json")


class TransposeRepository:
    """Pre-refactor view of a repository: no native columnar scan.

    Hiding ``view_column_batches`` forces the engine onto the
    document-transpose path, which is exactly what every scan paid before
    the native column pages existed — the baseline for claim (3).
    """

    def __init__(self, inner: LocalRepository) -> None:
        self._inner = inner
        self.views = inner.views
        self.indexes = inner.indexes

    def documents(self):
        return self._inner.documents()

    def document_batches(self, batch_size):
        return self._inner.document_batches(batch_size)

    def lookup(self, doc_id):
        return self._inner.lookup(doc_id)


def build_repo(n_orders: int = N_ORDERS) -> LocalRepository:
    repo = LocalRepository(DocumentStore(buffer_capacity=4096))
    repo.views.define(
        base_table_view(
            "orders", "orders", ["oid", "cid", "amount", "region", "status"]
        )
    )
    workload = RelationalWorkload(n_customers=50, n_orders=n_orders, seed=SEED)
    for document in workload.orders():
        repo.store.put(document)
    return repo


def _time_engine(
    run_sql, n_rows: int, repeats: int, query: str = QUERY
) -> dict:
    """Best-of-*repeats* wall clock of ``run_sql(query)``; returns timing
    + the rows."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_sql(query)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return {
        "elapsed_s": best,
        "rows_per_sec": n_rows / best,
        "sim_ms": result.sim_ms,
        "rows": result.rows,
    }


def run_comparison(n_orders: int = N_ORDERS, repeats: int = 3) -> dict:
    repo = build_repo(n_orders)
    engine = QueryEngine(repo)
    oracle = RowOracle(repo)
    compiled = _time_engine(engine.sql, n_orders, repeats)
    rows = _time_engine(lambda q: oracle.sql(q, engine), n_orders, repeats)
    assert compiled["rows"] == rows["rows"], "engine disagrees with the row oracle on rows"
    assert compiled["sim_ms"] == pytest.approx(rows["sim_ms"]), (
        "engine disagrees with the row oracle on simulated cost"
    )
    summary = {
        "n_orders": n_orders,
        "query": QUERY,
        "engine": {k: v for k, v in compiled.items() if k != "rows"},
        "row_oracle": {k: v for k, v in rows.items() if k != "rows"},
        "speedup": compiled["rows_per_sec"] / rows["rows_per_sec"],
        "groups": len(compiled["rows"]),
    }
    summary["columnar"] = run_scan_comparison(repo, n_orders, repeats)
    return summary


def run_scan_comparison(repo: LocalRepository, n_orders: int, repeats: int) -> dict:
    """Claim (3): native columnar scan vs the pre-refactor transpose scan."""
    native = _time_engine(QueryEngine(repo).sql, n_orders, repeats, SCAN_QUERY)
    transpose = _time_engine(
        QueryEngine(TransposeRepository(repo)).sql, n_orders, repeats, SCAN_QUERY
    )
    assert native["rows"] == transpose["rows"], "scan paths disagree on rows"
    assert native["sim_ms"] == pytest.approx(transpose["sim_ms"]), (
        "scan paths disagree on simulated cost"
    )
    return {
        "query": SCAN_QUERY,
        "native": {k: v for k, v in native.items() if k != "rows"},
        "transpose": {k: v for k, v in transpose.items() if k != "rows"},
        "speedup": native["rows_per_sec"] / transpose["rows_per_sec"],
        "groups": len(native["rows"]),
    }


def report_rows(summary: dict) -> list:
    return [
        [
            "compiled pipelines",
            f"{summary['engine']['rows_per_sec']:,.0f}",
            f"{summary['engine']['elapsed_s'] * 1e3:.1f}",
            f"{summary['engine']['sim_ms']:.2f}",
        ],
        [
            "row oracle",
            f"{summary['row_oracle']['rows_per_sec']:,.0f}",
            f"{summary['row_oracle']['elapsed_s'] * 1e3:.1f}",
            f"{summary['row_oracle']['sim_ms']:.2f}",
        ],
    ]


def columnar_report_rows(columnar: dict) -> list:
    return [
        [
            "native column pages",
            f"{columnar['native']['rows_per_sec']:,.0f}",
            f"{columnar['native']['elapsed_s'] * 1e3:.1f}",
            f"{columnar['native']['sim_ms']:.2f}",
        ],
        [
            "document transpose",
            f"{columnar['transpose']['rows_per_sec']:,.0f}",
            f"{columnar['transpose']['elapsed_s'] * 1e3:.1f}",
            f"{columnar['transpose']['sim_ms']:.2f}",
        ],
    ]


def print_report(summary: dict, n_orders: int) -> None:
    print_table(
        "EXEC: scan -> filter -> group-aggregate, %d rows" % n_orders,
        ["engine", "rows/sec", "wall ms", "sim ms"],
        report_rows(summary),
    )
    print(f"speedup: {summary['speedup']:.2f}x")
    print_table(
        "EXEC: scan-heavy shape, native columnar vs transpose, %d rows" % n_orders,
        ["scan path", "rows/sec", "wall ms", "sim ms"],
        columnar_report_rows(summary["columnar"]),
    )
    print(f"columnar scan speedup: {summary['columnar']['speedup']:.2f}x")


def write_results(summary: dict, path: str = RESULT_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def assert_claims(
    summary: dict, min_speedup: float = 2.0, min_columnar_speedup: float = 3.0
) -> None:
    assert summary["groups"] > 0, "query produced no groups"
    assert summary["speedup"] >= min_speedup, (
        f"compiled engine only {summary['speedup']:.2f}x over the row oracle"
        f" (claim: >= {min_speedup}x)"
    )
    columnar = summary["columnar"]
    assert columnar["groups"] > 0, "scan query produced no groups"
    assert columnar["speedup"] >= min_columnar_speedup, (
        f"native columnar scan only {columnar['speedup']:.2f}x over the"
        f" transpose scan (claim: >= {min_columnar_speedup}x)"
    )


@pytest.mark.benchmark(group="exec")
def test_vectorized_speedup_report(benchmark):
    summary = once(benchmark, run_comparison)
    print_report(summary, summary["n_orders"])
    write_results(summary)
    assert_claims(summary)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller corpus / fewer repeats (the make-verify target)",
    )
    parser.add_argument(
        "--out", default=RESULT_PATH,
        help="where to write the JSON summary (default: BENCH_exec.json;"
             " the perf-regress gate points this at a scratch path)",
    )
    args = parser.parse_args()
    n_orders = 6_000 if args.quick else N_ORDERS
    repeats = 2 if args.quick else 3

    summary = run_comparison(n_orders, repeats)
    print_report(summary, n_orders)
    write_results(summary, args.out)
    assert_claims(summary)
    print("\nEXEC smoke: OK (results in BENCH_exec.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
