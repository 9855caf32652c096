"""Row-at-a-time reference interpreter for physical plans.

The query engine runs every plan as compiled pipelines over column
batches.  This module is the oracle the equivalence suites hold it to:
it walks a physical plan one dict row at a time, using only the
``Repository`` protocol (``documents``, ``lookup``, ``views``,
``indexes`` and the optional ``probe_penalty``) and the row operators of
:mod:`repro.exec.operators` — no engine internals.  It charges the
engine's simulated cost model per row and counts per-operator
``rows_in``/``rows_out``, so a suite can compare rows exactly, simulated
cost up to float summation order, and operator row counts exactly
(:func:`assert_matches_oracle`).

It covers the non-adaptive semantics only: adaptive runs may change the
strategy mid-query, and the suites compare those by row multiset.

Usage::

    oracle = RowOracle(repo)
    expected = oracle.sql("SELECT ...", engine)   # planned by the engine's planner
    expected = oracle.run(physical_plan)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.exec import costs
from repro.exec.operators import (
    OperatorStats,
    Row,
    filter_rows,
    group_aggregate,
    hash_join,
    indexed_nl_join,
    project_rows,
    sort_rows,
)
from repro.query.planner import PhysHashJoin, PhysIndexedJoin
from repro.query.plans import Aggregate, Filter, Limit, Project, ScanView, Sort
from repro.query.sql import parse_sql


@dataclass
class OracleResult:
    rows: List[Row]
    sim_ms: float = 0.0
    operator_stats: Dict[str, OperatorStats] = field(default_factory=dict)


def row_counts(operator_stats: Dict[str, OperatorStats]) -> Dict[str, Tuple[int, int]]:
    """``{operator: (rows_in, rows_out)}`` — the batch-independent part
    of an execution's operator statistics."""
    return {name: (s.rows_in, s.rows_out) for name, s in operator_stats.items()}


def assert_matches_oracle(result: Any, expected: OracleResult) -> None:
    """An engine result equals the oracle's: rows exactly, simulated cost
    up to float summation order, per-operator row counts exactly."""
    assert result.rows == expected.rows
    assert result.sim_ms == pytest.approx(expected.sim_ms)
    assert row_counts(result.operator_stats) == row_counts(expected.operator_stats)


class _Meter:
    __slots__ = ("ms", "operators", "probe_cost_ms")

    def __init__(self, probe_cost_ms: float) -> None:
        self.ms = 0.0
        self.operators: Dict[str, OperatorStats] = {}
        self.probe_cost_ms = probe_cost_ms

    def charge(self, ms: float) -> None:
        self.ms += ms

    def stats(self, operator: str) -> OperatorStats:
        return self.operators.setdefault(operator, OperatorStats())


class RowOracle:
    """Evaluate physical plans against *repository*, row by row."""

    def __init__(self, repository: Any) -> None:
        self.repository = repository

    def sql(
        self, query: str, engine: Any, planner: str = "simple", statistics: Any = None
    ) -> OracleResult:
        return self.execute(parse_sql(query), engine, planner, statistics)

    def execute(
        self, logical: Any, engine: Any, planner: str = "simple", statistics: Any = None
    ) -> OracleResult:
        """Plan *logical* with *engine*'s planner, then run the plan here."""
        if planner == "simple":
            physical = engine.simple_planner.plan(logical)
        else:
            physical = engine.optimizer(statistics).plan(logical)
        return self.run(physical)

    def run(self, plan: Any) -> OracleResult:
        meter = _Meter(costs.INDEX_PROBE_MS * self._probe_penalty())
        rows = self._run(plan, meter)
        return OracleResult(rows, meter.ms, meter.operators)

    # ------------------------------------------------------------------
    def _probe_penalty(self) -> float:
        provider = getattr(self.repository, "probe_penalty", None)
        return 1.0 if provider is None else max(1.0, float(provider()))

    def _scan(self, view_name: str, meter: _Meter) -> List[Row]:
        view = self.repository.views.get(view_name)
        rows: List[Row] = []
        n_docs = 0
        for document in self.repository.documents():
            n_docs += 1
            if not view.matches(document):
                continue
            row = view.project(document, self.repository.lookup)
            if row is not None:
                rows.append(row)
        meter.charge(n_docs * costs.SCAN_CPU_MS_PER_DOC)
        meter.charge(len(rows) * costs.PROJECT_CPU_MS_PER_ROW)
        stats = meter.stats("scan")
        stats.rows_in += n_docs
        stats.rows_out += len(rows)
        return rows

    def _run(self, plan: Any, meter: _Meter) -> List[Row]:
        if isinstance(plan, ScanView):
            return self._scan(plan.view, meter)
        if isinstance(plan, Filter):
            child = self._run(plan.child, meter)
            meter.charge(len(child) * costs.FILTER_CPU_MS_PER_ROW)
            return list(filter_rows(child, plan.predicate.matches, meter.stats("filter")))
        if isinstance(plan, Project):
            child = self._run(plan.child, meter)
            meter.charge(len(child) * costs.PROJECT_CPU_MS_PER_ROW)
            stats = meter.stats("project")
            stats.rows_in += len(child)
            stats.rows_out += len(child)
            return list(project_rows(child, plan.columns))
        if isinstance(plan, Aggregate):
            child = self._run(plan.child, meter)
            meter.charge(len(child) * costs.AGG_MS_PER_ROW)
            rows = group_aggregate(child, plan.group_by, plan.aggs, meter.stats("aggregate"))
            return [{k: v for k, v in row.items() if k != "__distinct"} for row in rows]
        if isinstance(plan, Sort):
            child = self._run(plan.child, meter)
            meter.charge(costs.sort_cost_ms(len(child)))
            return sort_rows(child, plan.keys, plan.descending, meter.stats("sort"))
        if isinstance(plan, Limit):
            return self._run(plan.child, meter)[: plan.count]
        if isinstance(plan, PhysHashJoin):
            probe = self._run(plan.probe, meter)
            build = self._run(plan.build, meter)
            meter.charge(
                len(build) * costs.HASH_BUILD_MS_PER_ROW
                + len(probe) * costs.HASH_PROBE_MS_PER_ROW
            )
            return list(hash_join(
                probe, build, plan.probe_column, plan.build_column, meter.stats("hash_join")
            ))
        if isinstance(plan, PhysIndexedJoin):
            outer = self._run(plan.outer, meter)
            return self._indexed_join(plan, outer, meter)
        raise TypeError(f"the row oracle cannot execute {plan!r}")

    def _indexed_join(self, plan: PhysIndexedJoin, outer: List[Row], meter: _Meter) -> List[Row]:
        """One (penalty-priced) value-index probe per non-null outer key;
        matches in doc-id order."""
        repository = self.repository
        view = repository.views.get(plan.inner_view)
        path = next(
            c.path for c in view.columns if c.name == plan.inner_column and c.source == "self"
        )
        predicate: Optional[Any] = plan.inner_predicate

        def probe(key: Any) -> List[Row]:
            meter.charge(meter.probe_cost_ms)
            matches: List[Row] = []
            for doc_id in sorted(repository.indexes.values.docs_with_value(path, key)):
                document = repository.lookup(doc_id)
                if document is None or not view.matches(document):
                    continue
                row = view.project(document, repository.lookup)
                if row is None or (predicate is not None and not predicate.matches(row)):
                    continue
                matches.append(row)
            return matches

        return list(indexed_nl_join(outer, plan.outer_column, probe, meter.stats("indexed_join")))
