"""The benchmark's workloads: seeded inputs, set-up, and the operations
one client issues through the public ``Session`` API.

Every workload runs every operation kind so that each end-to-end metric
is measured on each workload; what differs is the mix (how often each
kind comes round) and the data the appliance holds.  Why each workload
exists is recorded in ``BENCHMARK.json`` and ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import gc
import json
import random
from dataclasses import dataclass
from itertools import cycle
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from oracle import GroupQuery, JoinQuery, Model, OracleMismatch, TopKQuery, replay

REGIONS = ("east", "west", "north", "south")
STATUSES = ("open", "shipped", "returned", "hold")
SEGMENTS = ("enterprise", "smb", "public")
PRIORITIES = ("low", "normal", "urgent")
#: Topics of texts and search terms, with Zipf-like skew; none occurs in an
#: order or customer row, so the model knows exactly which docs match.
TOPICS = (
    "router", "billing", "outage", "refund", "firmware", "modem", "invoice",
    "warranty", "password", "latency", "upgrade", "cancellation", "roaming",
    "voicemail", "antenna", "battery", "screen", "charger", "contract", "discount",
)
FILLER = (
    "caller", "reported", "problem", "agent", "resolved", "escalated", "ticket",
    "followup", "requested", "device", "account", "service", "today", "again",
    "customer", "callback", "supervisor", "replacement", "store", "online",
)
TOPIC_WEIGHTS = [1.0 / (rank + 1) for rank in range(len(TOPICS))]
#: Searches per round of terms: Zipf-like counts, 20 for the commonest.
SEARCH_TERMS = tuple((term, max(1, round(20 / (rank + 1)))) for rank, term in enumerate(TOPICS))

N_CUSTOMERS = 500
#: Transcripts and tickets preloaded by every set-up.
N_TEXTS = 300
#: Set-ups per run of a workload that does not cycle: one before the
#: loop, the others at even shares of the loop's seconds, so that one
#: slow spell of the machine does not cover them all.  ``setup_s`` is
#: their median (a cycling workload sets up once per cycle instead).
SETUPS = 4
#: Payloads per ``Session.ingest_many`` call: above the ingest
#: pipeline's group-commit batch (256), so its bulk path runs.
BULK = 1000

#: Single-document writes: new and updated orders, order deletes, new
#: transcripts or tickets, text deletes.
WRITES = (("new_order", 2), ("update_order", 2), ("delete_order", 1), ("new_text", 1),
          ("delete_text", 1))
#: Ad-hoc query shapes (see ``Inputs.adhoc``).
ADHOC = (("region", 6), ("status", 5), ("top_cid", 4), ("top_orders", 3), ("join", 2))

MV_QUERY = GroupQuery("region", (("n", "count", None), ("total", "sum", "amount")))
SUB_QUERY = GroupQuery("status", (("n", "count", None), ("total", "sum", "amount")))
#: Dashboard statements and their skew (the repeated reads).
DASHBOARD = (
    (MV_QUERY, 6),
    (GroupQuery("status", (("n", "count", None), ("a", "avg", "amount"))), 3),
    (TopKQuery((("status", "=", "hold"),), 10), 1),
)


@dataclass(frozen=True)
class Workload:
    name: str
    orders: int          #: orders preloaded in set-up
    mv: bool             #: define a materialized GROUP BY in set-up
    subscribe: bool      #: open a standing GROUP BY query in set-up
    round: Tuple[Tuple[str, int], ...]  #: op kind -> count per round
    #: Metric families this workload exists to measure; their tails are
    #: read at the metric's own percentile, the others' at ``MINOR_TAIL``.
    own: Tuple[str, ...] = ()
    #: Start over on a fresh appliance (a new set-up, outside the timed
    #: calls) every this many rounds, and end the loop only at the end of
    #: such a cycle, so that every run covers the same range of
    #: appliance sizes however many documents it gets through.
    cycle_rounds: Optional[int] = None

    def tail(self, category: str) -> int:
        """The percentile the tail metric of *category* reads."""
        return OWN_TAIL if category in self.own else MINOR_TAIL

    def needs(self) -> Dict[str, int]:
        """Successful calls each op kind must reach before the loop may
        end: the fewest that put ten samples beyond the rank of the
        kind's tail percentile p, 10 * 100 / (100 - p).  Searches have
        only a median, and take ``SEARCH_NEED``."""
        out = {}
        for kind, _ in self.round:
            category = CATEGORY[kind]
            if category == "search":
                out[kind] = SEARCH_NEED
            elif category != "ingest":
                out[kind] = 10 * 100 // (100 - self.tail(category))
        return out


#: Tail percentile of a workload's own metric families (``*_p95_ms``),
#: and of the minority op kinds every workload also runs so that each
#: reports all end-to-end metrics: 200 and 100 samples respectively.
OWN_TAIL = 95
MINOR_TAIL = 90
#: Search latency spans 1-50 ms on bulk_ingest (it grows with the
#: term's postings and the corpus); with about 110 searches a run its
#: median spread 0.28-0.53 over five runs, so searches need as many
#: samples as a p95.
SEARCH_NEED = 200

#: Per-round counts of the minority kinds are the fewest that reach
#: ``Workload.needs()`` in a run at the median speed of the machine the
#: benchmark was tuned on (see WORKLOADS.md); a slower run goes on until
#: it reaches them.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bulk_ingest", orders=1000, mv=True, subscribe=False,
            round=(("bulk_orders", 4), ("bulk_mixed", 1), ("query", 7), ("read", 7),
                   ("search", 13), ("write", 7)),
            own=("ingest",),
            cycle_rounds=2,  # 10,000 bulk-loaded documents
        ),
        Workload(
            "analytic_sql", orders=20000, mv=False, subscribe=False,
            round=(("query", 8), ("read", 4), ("search", 8), ("write", 4)),
            own=("query",),
        ),
        # Seven reads per write keep the dashboard's result-cache hit
        # rate near 70% (every write invalidates it): at three reads per
        # write it is near 50%, and read_p50_ms flips between a hit and a
        # re-execution from run to run.
        Workload(
            "mixed_serving", orders=4000, mv=True, subscribe=True,
            round=(("read", 14), ("search", 4), ("write", 2), ("query", 1)),
            own=("read", "search", "write"),
        ),
    )
}

#: Metric family each op kind's latency feeds.
CATEGORY = {
    "bulk_orders": "ingest",
    "bulk_mixed": "ingest",
    "query": "query",
    "read": "read",
    "search": "search",
    "write": "write",
}


@dataclass
class Op:
    """One Session call: ``call`` is timed, ``check`` (the oracle, and
    the model update for writes) is not."""

    call: Callable[[], Any]
    check: Callable[[Any], None]


# ----------------------------------------------------------------------
# input generators
# ----------------------------------------------------------------------
def interleave(counts: Sequence[Tuple[Any, int]]) -> List[Any]:
    """One round of items, each *count* times and spread evenly through
    the round (smooth weighted round-robin).

    Op kinds, and the variants of one kind (query shapes, dashboard
    statements, search terms, write kinds), take turns in this order,
    the same on every run.  Their latencies differ by up to 20x, and
    where an op falls relative to the writes decides how much data it
    sees and whether the result cache holds its answer: drawn at random,
    which of them a median lands on would change with the seed."""
    total = sum(count for _, count in counts)
    credit = {kind: 0 for kind, _ in counts}
    order = []
    for _ in range(total):
        for kind, count in counts:
            credit[kind] += count
        pick = max(credit, key=credit.__getitem__)
        credit[pick] -= total
        order.append(pick)
    return order


class Turns:
    """The turns of each operation's variants.  One client keeps them
    across its set-ups, so that a run goes on through the variants
    instead of repeating the first few of them after every set-up."""

    def __init__(self) -> None:
        self.adhoc = cycle(interleave(ADHOC))
        self.dashboard = cycle(interleave(DASHBOARD))
        self.search_terms = cycle(interleave(SEARCH_TERMS))
        self.writes = cycle(interleave(WRITES))


class Inputs:
    """Seeded generator of rows, texts and query literals."""

    def __init__(self, seed: str, turns: Turns) -> None:
        self.rng = random.Random(seed)
        self.turns = turns
        self.next_oid = 0
        self.used_sql: set = set()

    def order(self) -> Dict[str, Any]:
        rng = self.rng
        self.next_oid += 1
        return {
            "oid": self.next_oid,
            "cid": rng.randrange(N_CUSTOMERS),
            "amount": round(rng.uniform(5.0, 500.0), 2),
            "region": rng.choice(REGIONS),
            "status": rng.choice(STATUSES),
            "day": rng.randrange(365),
        }

    def customer(self, cid: int) -> Dict[str, Any]:
        return {"cid": cid, "name": f"client{cid}", "segment": self.rng.choice(SEGMENTS)}

    def topic(self) -> str:
        return self.rng.choices(TOPICS, TOPIC_WEIGHTS)[0]

    def text(self) -> Any:
        """A free-text call transcript (60%) or a JSON ticket (40%)."""
        rng = self.rng
        if rng.random() < 0.6:
            words = [rng.choice(FILLER) for _ in range(rng.randrange(12, 30))]
            for _ in range(rng.randrange(1, 4)):
                words.insert(rng.randrange(len(words) + 1), self.topic())
            return " ".join(words)
        subject = [rng.choice(FILLER) for _ in range(rng.randrange(2, 5))]
        subject.insert(rng.randrange(len(subject) + 1), self.topic())
        return {"ticket": {"subject": " ".join(subject), "priority": rng.choice(PRIORITIES)}}

    def adhoc(self):
        """An analytic query with a literal not used before in this run,
        so the parse, plan and result caches all miss."""
        rng = self.rng
        shape = next(self.turns.adhoc)
        while True:
            x = round(rng.uniform(5.0, 450.0), 3)
            if shape == "region":
                spec = GroupQuery(
                    "region", (("n", "count", None), ("total", "sum", "amount")),
                    (("amount", ">", x),),
                )
            elif shape == "status":
                spec = GroupQuery(
                    "status", (("n", "count", None), ("a", "avg", "amount")),
                    (("day", "<", rng.randrange(30, 365)), ("amount", ">", x)),
                )
            elif shape == "top_cid":
                spec = GroupQuery(
                    "cid", (("spend", "sum", "amount"),),
                    (("region", "=", rng.choice(REGIONS)), ("amount", ">", x)),
                    top=("spend", 10),
                )
            elif shape == "top_orders":
                spec = TopKQuery((("status", "=", rng.choice(STATUSES)), ("amount", ">", x)), 20)
            else:
                # Joins are capped to the top ~5% of amounts so they do
                # not dominate the run's time.
                spec = JoinQuery(round(rng.uniform(475.0, 499.0), 3))
            if spec.sql not in self.used_sql:
                self.used_sql.add(spec.sql)
                return spec


def payload_bytes(payload: Any) -> int:
    return len(payload.encode()) if isinstance(payload, str) else len(json.dumps(payload))


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
class Client:
    """One closed-loop client of one appliance."""

    def __init__(self, workload: Workload, seed: int, clock) -> None:
        self.workload = workload
        self.seed = seed
        self.clock = clock
        self.app = None
        self.session = None
        self.model = Model()
        self.mv = None
        self.subscription = None
        self.turns = Turns()
        self.inputs = Inputs(f"{seed}:0", self.turns)
        #: Documents stored by Session.ingest_many calls (set-up preloads
        #: and the loop), and the scaled and wall seconds the set-up
        #: calls took (the loop times its calls itself).
        self.bulk_docs = 0
        self.bulk_seconds = 0.0
        self.bulk_wall_seconds = 0.0
        #: Payload bytes handed to the current appliance, and documents
        #: the loop wrote.
        self.user_bytes = 0
        self.docs_written = 0
        #: Scan rows read / rows returned over uncached SQL answers.
        self.scan_rows = 0
        self.result_rows = 0

    # -- set-up -----------------------------------------------------------
    def setup(self, cycle: int = 0) -> Tuple[float, float]:
        """Build a fresh appliance holding the workload's preload; the
        inputs from here on are drawn from (seed, *cycle*), so set-ups of
        one cycle load the same data.  Returns (scaled, wall) seconds;
        the clock is re-probed before each step."""
        workload = self.workload
        self.app = self.session = self.mv = self.subscription = None
        gc.collect()
        self.model = Model()
        self.user_bytes = 0
        inputs = self.inputs = Inputs(f"{self.seed}:{cycle}", self.turns)
        customers = [inputs.customer(cid) for cid in range(N_CUSTOMERS)]
        orders = [inputs.order() for _ in range(workload.orders)]
        texts = [inputs.text() for _ in range(N_TEXTS)]
        steps: List[Callable[[], None]] = [self._create, lambda: self._bulk(customers, "customers")]
        steps += [
            (lambda chunk: lambda: self._bulk(chunk, "orders"))(orders[i:i + BULK])
            for i in range(0, len(orders), BULK)
        ]
        steps.append(lambda: self._bulk(texts, None))
        steps.append(self._open_standing_queries)
        scaled = wall = 0.0
        for step in steps:
            self.clock.probe(force=True)
            start = perf_counter()
            step()
            elapsed = perf_counter() - start
            wall += elapsed
            scaled += self.clock.scaled(elapsed)
        return scaled, wall

    def _create(self) -> None:
        from repro import Impliance

        self.app = Impliance()
        if self.workload.mv:
            self.mv = self.app.materialize("orders_by_region", MV_QUERY.sql)
        self.session = self.app.connect()

    def _open_standing_queries(self) -> None:
        if self.mv is not None:
            self.mv.rows()  # the first read builds the incremental maintainer
        if self.workload.subscribe:
            self.subscription = self.session.subscribe(SUB_QUERY.sql)

    def _bulk(self, payloads: List[Any], table: Optional[str]) -> None:
        start = perf_counter()
        stored = self.session.ingest_many(payloads, table=table)
        elapsed = perf_counter() - start
        self.bulk_seconds += self.clock.scaled(elapsed)
        self.bulk_wall_seconds += elapsed
        self._apply_bulk(payloads, table, stored)

    def _apply_bulk(self, payloads, table, stored) -> None:
        if len(stored) != len(payloads) or len({d.doc_id for d in stored}) != len(stored):
            raise OracleMismatch(f"ingest_many stored {len(stored)} of {len(payloads)}")
        self.bulk_docs += len(stored)
        self.user_bytes += sum(payload_bytes(p) for p in payloads)
        model = self.model
        for payload, document in zip(payloads, stored):
            if table == "orders":
                if document.content != {"orders": payload}:
                    raise OracleMismatch(f"{document.doc_id} stored {document.content!r}")
                model.put_order(document.doc_id, payload)
            elif table == "customers":
                model.put_customer(payload)
            else:
                model.put_text(document.doc_id, payload)

    # -- operations ---------------------------------------------------------
    def make(self, kind: str) -> Op:
        return getattr(self, f"_op_{kind}")()

    def _op_bulk_orders(self) -> Op:
        return self._bulk_op([self.inputs.order() for _ in range(BULK)], "orders")

    def _op_bulk_mixed(self) -> Op:
        return self._bulk_op([self.inputs.text() for _ in range(BULK)], None)

    def _bulk_op(self, payloads: List[Any], table: Optional[str]) -> Op:
        def check(stored):
            self._apply_bulk(payloads, table, stored)
            self.docs_written += len(stored)

        return Op(lambda: self.session.ingest_many(payloads, table=table), check)

    def _op_query(self) -> Op:
        return self._sql_op(self.inputs.adhoc())

    def _op_read(self) -> Op:
        return self._sql_op(next(self.turns.dashboard))

    def _sql_op(self, spec) -> Op:
        def check(result):
            spec.check(result.rows, self.model)
            if not result.cached:
                scan = result.operator_stats.get("scan")
                if scan is not None:
                    self.scan_rows += scan.rows_in
                    self.result_rows += len(result.rows)

        return Op(lambda: self.session.sql(spec.sql), check)

    def _op_search(self) -> Op:
        term = next(self.turns.search_terms)
        return Op(
            lambda: self.session.search(term, top_k=10),
            lambda result: self.model.check_search(term, 10, [h.doc_id for h in result.hits]),
        )

    def _op_write(self) -> Op:
        kind = next(self.turns.writes)
        if kind == "delete_text" and not self.model.texts:
            kind = "new_text"
        return getattr(self, f"_write_{kind}")()

    def _write_new_order(self) -> Op:
        row = self.inputs.order()

        def check(document):
            self._expect_content(document, {"orders": row})
            self.model.put_order(document.doc_id, row)

        return self._write_op(lambda: self.session.ingest(row, table="orders"), check, row)

    def _write_update_order(self) -> Op:
        rng = self.inputs.rng
        doc_id = self.model.pick_order(rng)
        row = dict(self.model.orders[doc_id], amount=round(rng.uniform(5.0, 500.0), 2),
                   status=rng.choice(STATUSES))

        def check(document):
            self._expect_content(document, {"orders": row}, doc_id)
            self.model.put_order(doc_id, row)

        return self._write_op(lambda: self.session.update_document(doc_id, {"orders": row}),
                              check, row)

    def _write_delete_order(self) -> Op:
        doc_id = self.model.pick_order(self.inputs.rng)

        def check(tombstone):
            self._expect_tombstone(tombstone, doc_id)
            self.model.delete_order(doc_id)

        return Op(lambda: self.session.delete_document(doc_id), check)

    def _write_new_text(self) -> Op:
        text = self.inputs.text()

        def check(document):
            if document.doc_id in self.model.texts:
                raise OracleMismatch(f"new text reused id {document.doc_id}")
            self.model.put_text(document.doc_id, text)

        return self._write_op(lambda: self.session.ingest(text), check, text)

    def _write_delete_text(self) -> Op:
        doc_id = self.model.pick_text(self.inputs.rng)

        def check(tombstone):
            self._expect_tombstone(tombstone, doc_id)
            self.model.delete_text(doc_id)

        return Op(lambda: self.session.delete_document(doc_id), check)

    def _write_op(self, call, check, payload) -> Op:
        def counted(document):
            check(document)
            self.docs_written += 1
            self.user_bytes += payload_bytes(payload)

        return Op(call, counted)

    @staticmethod
    def _expect_content(document, content, doc_id=None) -> None:
        if document.content != content or (doc_id is not None and document.doc_id != doc_id):
            raise OracleMismatch(f"write returned {document.doc_id} {document.content!r}")

    @staticmethod
    def _expect_tombstone(document, doc_id) -> None:
        if document.doc_id != doc_id or not document.is_tombstone:
            raise OracleMismatch(f"delete of {doc_id} returned {document!r}")

    def counters(self) -> Dict[str, float]:
        """Counters the per-layer metrics difference across the loop: the
        client's own, and the appliance's bus, replication and view
        stats."""
        recovery = self.app.recovery.report()
        return {
            "bus.publications": self.app.caches.bus.stats.put_events,
            "recovery.snapshots": recovery["snapshots"],
            "recovery.shipped_bytes": recovery["shipped_bytes"],
            "ivm.fallbacks": self.mv.stats.fallbacks if self.mv is not None else 0,
            "user_bytes": self.user_bytes,
            "docs_written": self.docs_written,
            "scan_rows": self.scan_rows,
            "result_rows": self.result_rows,
        }

    # -- end-of-run checks ----------------------------------------------------
    def final_checks(self) -> List[Tuple[str, Callable[[], None]]]:
        """Whole-state checks run once after the loop."""
        model = self.model
        session = self.session
        checks = [
            ("count", lambda: _check_count(session.sql("SELECT count(*) AS n FROM orders").rows,
                                           len(model.orders))),
            ("dashboard", lambda: MV_QUERY.check(session.sql(MV_QUERY.sql).rows, model)),
        ]
        if self.mv is not None:
            checks.append(("materialized", lambda: MV_QUERY.check(self.mv.rows(), model)))
        if self.subscription is not None:
            checks.append(
                ("subscription",
                 lambda: SUB_QUERY.check(replay(self.subscription.poll()), model))
            )
        return checks


def _check_count(rows, expected: int) -> None:
    if rows != [{"n": expected}]:
        raise OracleMismatch(f"count(*) returned {rows}, expected {expected}")
