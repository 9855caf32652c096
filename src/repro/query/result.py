"""The one result shape every query interface returns.

Pre-unification, the appliance's four query entry points each returned a
different ad-hoc shape (hit lists, row lists + cost, sessions, optional
connection objects).  A :class:`QueryResult` now carries all of them:

- ``rows``    — relational form (always populated; hits/edges are
  projected into dicts so downstream tooling can treat any result
  uniformly),
- ``hits``    — ranked retrieval form (keyword/hybrid/faceted results),
- ``sim_ms``  — the simulated cost of producing the answer (``cost`` is
  an alias),
- ``trace``   — the telemetry span that produced it (None when
  telemetry is disabled),
- ``connection`` — the graph answer, when the query was a graph query,
- ``degraded`` / ``missing_segments`` — graceful-degradation flags: when
  replicas are unreachable the appliance still answers, but marks the
  result partial and says how many storage segments had no live copy at
  answer time (see docs/CHAOS.md),
- ``batches`` / ``operator_stats`` — the SQL engine's columnar output
  and per-operator row/batch counters (see docs/EXECUTION.md).

For compatibility the object still *behaves* like the old shapes:
iterating, indexing, ``len()``, truthiness, and equality against plain
lists all operate on the primary payload (hits when present, rows
otherwise), so ``app.search(q)[0].doc_id`` and ``result.rows`` both keep
working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

Row = Dict[str, Any]


@dataclass(eq=False)
class QueryResult:
    """Rows, hits, cost, and trace of one query — any interface."""

    rows: List[Row] = field(default_factory=list)
    hits: List[Any] = field(default_factory=list)
    sim_ms: float = 0.0
    plan_text: str = ""
    adaptive_reports: List[Any] = field(default_factory=list)
    trace: Optional[Any] = None
    connection: Optional[Any] = None
    #: True when the answer is partial because replicas were unreachable.
    degraded: bool = False
    #: Storage segments with zero live replicas at answer time.
    missing_segments: int = 0
    #: Columnar result batches, when the SQL engine executed the answer
    #: (``rows`` is their flattened adapter view); None otherwise.
    batches: Optional[List[Any]] = None
    #: Per-operator row/batch statistics from execution, keyed by
    #: operator name (scan, filter, hash_join, ...).
    operator_stats: Dict[str, Any] = field(default_factory=dict)
    #: True when the rows were served from the appliance result cache
    #: instead of being recomputed (see docs/CACHING.md); ``sim_ms`` is
    #: then the cache-lookup cost, not the execution cost.
    cached: bool = False

    def mark_degraded(self, missing_segments: int) -> "QueryResult":
        """Flag this result as partial (chained by the facade)."""
        if missing_segments > 0:
            self.degraded = True
            self.missing_segments = missing_segments
        return self

    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """Alias for ``sim_ms`` — the unified cost field."""
        return self.sim_ms

    def _payload(self) -> List[Any]:
        return self.hits if self.hits else self.rows

    def __iter__(self) -> Iterator[Any]:
        return iter(self._payload())

    def __len__(self) -> int:
        return len(self._payload())

    def __getitem__(self, index: Any) -> Any:
        return self._payload()[index]

    def __bool__(self) -> bool:
        return bool(self._payload()) or self.connection is not None

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, QueryResult):
            return (
                self.rows == other.rows
                and self.hits == other.hits
                and self.sim_ms == other.sim_ms
                and self.connection == other.connection
            )
        if isinstance(other, (list, tuple)):
            return self._payload() == list(other)
        return NotImplemented

    # ------------------------------------------------------------------
    # constructors for each interface family
    # ------------------------------------------------------------------
    @classmethod
    def from_hits(
        cls,
        hits: List[Any],
        sim_ms: float = 0.0,
        trace: Optional[Any] = None,
    ) -> "QueryResult":
        """Wrap ranked hits; rows become ``{doc_id, score}`` projections."""
        rows = [
            {
                "doc_id": getattr(h, "doc_id", None),
                "score": getattr(h, "score", None),
            }
            for h in hits
        ]
        return cls(rows=rows, hits=list(hits), sim_ms=sim_ms, trace=trace)

    @classmethod
    def from_rows(
        cls,
        rows: List[Row],
        sim_ms: float = 0.0,
        plan_text: str = "",
        trace: Optional[Any] = None,
    ) -> "QueryResult":
        return cls(rows=list(rows), sim_ms=sim_ms, plan_text=plan_text, trace=trace)

    @classmethod
    def from_connection(
        cls,
        connection: Optional[Any],
        sim_ms: float = 0.0,
        trace: Optional[Any] = None,
    ) -> "QueryResult":
        """Wrap a graph answer; rows become one dict per hop."""
        rows: List[Row] = []
        if connection is not None:
            rows = [
                {"from": a, "relation": rel, "to": b}
                for a, rel, b in connection.edges
            ]
        return cls(rows=rows, sim_ms=sim_ms, trace=trace, connection=connection)
