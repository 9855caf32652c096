"""Reference model of the benchmark's data, and the checks that compare
the appliance's answers with it.

The model is computed from the benchmark's own generated inputs and the
documents the appliance returned for them (their ids), never from the
appliance's query results.  Every check raises :class:`OracleMismatch`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Relative tolerance for floating-point aggregates: the appliance and
#: the model add the same values in different orders, and maintained
#: views add and subtract them incrementally.
REL_TOL = 1e-6
ABS_TOL = 1e-6


class OracleMismatch(AssertionError):
    """An answer differs from the reference model."""


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


# ----------------------------------------------------------------------
# query specs: each renders its SQL and evaluates itself on the model
# ----------------------------------------------------------------------
_OPS = {
    ">": lambda v, x: v > x,
    "<": lambda v, x: v < x,
    "=": lambda v, x: v == x,
}


def _literal(value: Any) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


def _where(pred: Sequence[Tuple[str, str, Any]]) -> str:
    if not pred:
        return ""
    return " WHERE " + " AND ".join(f"{c} {op} {_literal(v)}" for c, op, v in pred)


def _matches(row: Dict[str, Any], pred) -> bool:
    return all(_OPS[op](row[c], v) for c, op, v in pred)


@dataclass(frozen=True)
class GroupQuery:
    """``SELECT key, aggs FROM orders [WHERE] GROUP BY key
    [ORDER BY agg DESC LIMIT k]`` — aggs are (name, func, column)."""

    key: str
    aggs: Tuple[Tuple[str, str, Optional[str]], ...]
    pred: Tuple[Tuple[str, str, Any], ...] = ()
    top: Optional[Tuple[str, int]] = None  # (agg name, k), descending

    @property
    def sql(self) -> str:
        items = ", ".join(
            f"{func}({col or '*'}) AS {name}" for name, func, col in self.aggs
        )
        text = f"SELECT {self.key}, {items} FROM orders{_where(self.pred)} GROUP BY {self.key}"
        if self.top is not None:
            text += f" ORDER BY {self.top[0]} DESC LIMIT {self.top[1]}"
        return text

    def groups(self, model: "Model") -> Dict[Any, Dict[str, Any]]:
        """Every group the filter leaves, before ORDER BY/LIMIT."""
        return model.memo(self, self._groups)

    def _groups(self, model: "Model") -> Dict[Any, Dict[str, Any]]:
        members: Dict[Any, List[Dict[str, Any]]] = {}
        for row in model.orders.values():
            if _matches(row, self.pred):
                members.setdefault(row[self.key], []).append(row)
        out = {}
        for key, rows in members.items():
            result = {self.key: key}
            for name, func, col in self.aggs:
                if func == "count":
                    result[name] = len(rows)
                elif func == "sum":
                    result[name] = math.fsum(r[col] for r in rows)
                elif func == "avg":
                    result[name] = math.fsum(r[col] for r in rows) / len(rows)
                else:
                    raise ValueError(f"unsupported aggregate {func!r}")
            out[key] = result
        return out

    def check(self, rows: List[Dict[str, Any]], model: "Model") -> None:
        groups = self.groups(model)
        got = {row.get(self.key): row for row in rows}
        if len(got) != len(rows):
            raise OracleMismatch(f"duplicate groups in {self.sql}")
        if self.top is None:
            if set(got) != set(groups):
                raise OracleMismatch(
                    f"groups {sorted(got, key=str)} != {sorted(groups, key=str)} in {self.sql}"
                )
        else:
            # Near-equal sums may rank either way, so compare the ranked
            # values with tolerance and each row against its own group.
            name, k = self.top
            want = sorted((g[name] for g in groups.values()), reverse=True)[:k]
            values = [row[name] for row in rows]
            if len(values) != len(want) or values != sorted(values, reverse=True):
                raise OracleMismatch(f"rows not the top {k} by {name} in {self.sql}")
            for got_value, want_value in zip(values, want):
                if not _close(got_value, want_value):
                    raise OracleMismatch(
                        f"top-{k} {name} {got_value} != {want_value} in {self.sql}"
                    )
            unknown = [key for key in got if key not in groups]
            if unknown:
                raise OracleMismatch(f"unknown groups {unknown[:3]} in {self.sql}")
        for key, row in got.items():
            _check_row(row, groups[key], self.sql)


def _check_row(row: Dict[str, Any], want: Dict[str, Any], sql: str) -> None:
    if set(row) != set(want):
        raise OracleMismatch(f"columns {sorted(row)} != {sorted(want)} in {sql}")
    for column, value in want.items():
        if not _close(row[column], value):
            raise OracleMismatch(f"{column}={row[column]!r}, expected {value!r} in {sql}")


@dataclass(frozen=True)
class TopKQuery:
    """``SELECT oid, amount FROM orders WHERE ... ORDER BY amount DESC
    LIMIT k``.  Ties on amount may come back in any order, so the check
    compares the amounts in rank order and that each (oid, amount) pair
    is a live order passing the filter."""

    pred: Tuple[Tuple[str, str, Any], ...]
    k: int

    @property
    def sql(self) -> str:
        return (
            f"SELECT oid, amount FROM orders{_where(self.pred)} "
            f"ORDER BY amount DESC LIMIT {self.k}"
        )

    def _top_amounts(self, model: "Model") -> List[float]:
        matching = [r["amount"] for r in model.orders.values() if _matches(r, self.pred)]
        return sorted(matching, reverse=True)[: self.k]

    def check(self, rows: List[Dict[str, Any]], model: "Model") -> None:
        want = model.memo(self, self._top_amounts)
        got = [row["amount"] for row in rows]
        if got != want:
            raise OracleMismatch(f"top-{self.k} amounts differ in {self.sql}")
        oids = [row["oid"] for row in rows]
        if len(set(oids)) != len(oids):
            raise OracleMismatch(f"duplicate oid in {self.sql}")
        for row in rows:
            live = model.by_oid.get(row["oid"])
            if live is None or live["amount"] != row["amount"] or not _matches(live, self.pred):
                raise OracleMismatch(f"row {row} is not a matching live order in {self.sql}")


@dataclass(frozen=True)
class JoinQuery:
    """Orders joined to customers, aggregated per customer segment."""

    min_amount: float

    @property
    def sql(self) -> str:
        return (
            "SELECT segment, count(*) AS n, sum(amount) AS total FROM orders "
            f"JOIN customers ON cid = cid WHERE amount > {self.min_amount!r} GROUP BY segment"
        )

    def check(self, rows: List[Dict[str, Any]], model: "Model") -> None:
        groups: Dict[str, List[float]] = {}
        for row in model.orders.values():
            customer = model.customers.get(row["cid"])
            if customer is not None and row["amount"] > self.min_amount:
                groups.setdefault(customer["segment"], []).append(row["amount"])
        expected = {
            segment: {"segment": segment, "n": len(v), "total": math.fsum(v)}
            for segment, v in groups.items()
        }
        got = {row.get("segment"): row for row in rows}
        if len(got) != len(rows) or set(got) != set(expected):
            raise OracleMismatch(
                f"segments {sorted(got, key=str)} != {sorted(expected)} in {self.sql}"
            )
        for segment, row in got.items():
            _check_row(row, expected[segment], self.sql)


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
class Model:
    """Live documents as the client wrote them, keyed by the doc ids the
    appliance assigned."""

    def __init__(self) -> None:
        self.orders: Dict[str, Dict[str, Any]] = {}
        self.by_oid: Dict[int, Dict[str, Any]] = {}
        self.customers: Dict[int, Dict[str, Any]] = {}
        self.texts: Dict[str, frozenset] = {}
        self._order_ids: List[str] = []
        self._order_pos: Dict[str, int] = {}
        self._text_ids: List[str] = []
        self._text_pos: Dict[str, int] = {}
        #: Answers computed since the last write (repeated dashboard
        #: reads are checked without re-evaluating the model).
        self._memo: Dict[Any, Any] = {}

    def memo(self, spec: Any, evaluate) -> Any:
        if spec not in self._memo:
            self._memo[spec] = evaluate(self)
        return self._memo[spec]

    # -- writes ---------------------------------------------------------
    def put_order(self, doc_id: str, row: Dict[str, Any]) -> None:
        self._memo.clear()
        old = self.orders.get(doc_id)
        if old is not None:
            del self.by_oid[old["oid"]]
        else:
            self._order_pos[doc_id] = len(self._order_ids)
            self._order_ids.append(doc_id)
        self.orders[doc_id] = row
        self.by_oid[row["oid"]] = row

    def delete_order(self, doc_id: str) -> None:
        self._memo.clear()
        row = self.orders.pop(doc_id)
        del self.by_oid[row["oid"]]
        _swap_remove(self._order_ids, self._order_pos, doc_id)

    def put_customer(self, row: Dict[str, Any]) -> None:
        self._memo.clear()
        self.customers[row["cid"]] = row

    def put_text(self, doc_id: str, payload: Any) -> None:
        self._memo.clear()
        if doc_id not in self.texts:
            self._text_pos[doc_id] = len(self._text_ids)
            self._text_ids.append(doc_id)
        self.texts[doc_id] = frozenset(words_of(payload))

    def delete_text(self, doc_id: str) -> None:
        self._memo.clear()
        del self.texts[doc_id]
        _swap_remove(self._text_ids, self._text_pos, doc_id)

    # -- sampling live documents for updates and deletes ----------------
    def pick_order(self, rng) -> str:
        return self._order_ids[rng.randrange(len(self._order_ids))]

    def pick_text(self, rng) -> str:
        return self._text_ids[rng.randrange(len(self._text_ids))]

    # -- checks -----------------------------------------------------------
    def check_search(self, term: str, top_k: int, doc_ids: Sequence[str]) -> None:
        containing = {d for d, words in self.texts.items() if term in words}
        if len(set(doc_ids)) != len(doc_ids):
            raise OracleMismatch(f"duplicate hits for {term!r}")
        stray = [d for d in doc_ids if d not in containing]
        if stray:
            raise OracleMismatch(f"hits {stray[:3]} for {term!r} are not live docs containing it")
        if len(doc_ids) != min(top_k, len(containing)):
            raise OracleMismatch(
                f"{len(doc_ids)} hits for {term!r}, expected {min(top_k, len(containing))}"
            )


def _swap_remove(ids: List[str], pos: Dict[str, int], doc_id: str) -> None:
    index = pos.pop(doc_id)
    last = ids.pop()
    if last != doc_id:
        ids[index] = last
        pos[last] = index


def words_of(payload: Any) -> Iterable[str]:
    """Lower-case words of every string in a text or JSON payload."""
    if isinstance(payload, str):
        return payload.lower().split()
    if isinstance(payload, dict):
        return [w for value in payload.values() for w in words_of(value)]
    return []


def replay(deltas: Iterable[Any]) -> List[Dict[str, Any]]:
    """Rows of a SQL subscription rebuilt from its deltas (multisets)."""
    state: Counter = Counter()
    rows: Dict[str, Dict[str, Any]] = {}
    for delta in deltas:
        for row in delta.removed:
            key = json.dumps(row, sort_keys=True, default=str)
            state[key] -= 1
        for row in delta.added:
            key = json.dumps(row, sort_keys=True, default=str)
            state[key] += 1
            rows[key] = row
    if any(n < 0 for n in state.values()):
        raise OracleMismatch("subscription removed a row it never delivered")
    return [rows[key] for key, n in state.items() for _ in range(n)]
