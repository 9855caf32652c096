"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from clock import Clock  # noqa: E402
from oracle import GroupQuery, OracleMismatch, TopKQuery  # noqa: E402
from tracing import SESSION, Tracer  # noqa: E402
from workloads import SETUPS, WORKLOADS, Client, Workload  # noqa: E402

TINY = Workload(
    "tiny", orders=300, mv=True, subscribe=True,
    round=(("bulk_orders", 1), ("bulk_mixed", 1), ("query", 3), ("read", 3),
           ("search", 2), ("write", 4)),
)


@pytest.fixture
def client():
    c = Client(TINY, seed=3, clock=Clock())
    c.setup()
    return c


def _corrupt(rows, column):
    rows = [dict(r) for r in rows]
    rows[0][column] = rows[0][column] + 1
    return rows


def test_correct_answers_pass_the_oracle(client):
    for _ in range(20):
        for kind in ("query", "read", "search", "write"):
            op = client.make(kind)
            op.check(op.call())


def test_corrupted_aggregate_trips_the_oracle(client):
    spec = GroupQuery("region", (("n", "count", None), ("total", "sum", "amount")))
    rows = client.session.sql(spec.sql).rows
    spec.check(rows, client.model)
    with pytest.raises(OracleMismatch):
        spec.check(_corrupt(rows, "n"), client.model)
    with pytest.raises(OracleMismatch):
        spec.check(_corrupt(rows, "total"), client.model)
    with pytest.raises(OracleMismatch):
        spec.check(rows[1:], client.model)


def test_corrupted_top_k_trips_the_oracle(client):
    spec = TopKQuery((("status", "=", "open"),), 5)
    rows = client.session.sql(spec.sql).rows
    spec.check(rows, client.model)
    swapped = [dict(r) for r in rows]
    swapped[0]["oid"], swapped[1]["oid"] = swapped[1]["oid"], swapped[0]["oid"]
    with pytest.raises(OracleMismatch):
        spec.check(swapped, client.model)
    with pytest.raises(OracleMismatch):
        spec.check(_corrupt(rows, "amount"), client.model)


def test_search_hits_must_be_live_docs_with_the_term(client):
    term = "router"
    hits = [h.doc_id for h in client.session.search(term, top_k=10).hits]
    client.model.check_search(term, 10, hits)
    order_id = next(iter(client.model.orders))
    with pytest.raises(OracleMismatch):
        client.model.check_search(term, 10, hits[:-1] + [order_id])
    client.session.delete_document(hits[0])
    with pytest.raises(OracleMismatch):  # the model still counts it live
        client.model.check_search(term, 10, hits[1:])


def test_final_checks_cover_views_and_subscription(client):
    loop = run.run_loop(client, 0.5, needs={})
    assert not loop.failures and loop.latencies
    names = [name for name, check in client.final_checks()]
    assert {"materialized", "subscription"} <= set(names)
    for _, check in client.final_checks():
        check()
    # The model drops an order the appliance still holds.
    client.model.delete_order(client.model.pick_order(client.inputs.rng))
    for name, check in client.final_checks():
        if name in ("count", "materialized", "subscription"):
            with pytest.raises(OracleMismatch):
                check()


def test_cycling_loop_starts_over_and_ends_on_a_cycle_boundary():
    cycling = Workload(
        "tiny_cycles", orders=100, mv=True, subscribe=False,
        round=(("bulk_orders", 1), ("query", 1), ("write", 2)), cycle_rounds=2,
    )
    c = Client(cycling, seed=5, clock=Clock())
    c.setup()
    loop = run.run_loop(c, 0.2, needs={})
    assert not loop.failures
    assert len(loop.latencies["bulk_orders"]) == 2 * (len(loop.setups) + 1)
    assert c.model.orders and len(c.model.orders) < 100 + 2 * 1000 + 4  # one cycle's data
    for _, check in c.final_checks():
        check()


def test_loop_sets_up_again_through_the_run_and_meets_its_needs():
    steady = Workload("tiny_steady", orders=100, mv=False, subscribe=False,
                      round=(("query", 1), ("search", 1), ("write", 2)))
    c = Client(steady, seed=6, clock=Clock())
    c.setup()
    loop = run.run_loop(c, 0.4, needs={"query": 300})
    assert not loop.failures
    assert len(loop.setups) == SETUPS - 1
    assert len(loop.latencies["query"]) >= 300  # past its seconds, to its need
    assert len(loop.latencies["write"]) == 2 * len(loop.latencies["query"])  # whole rounds
    for _, check in c.final_checks():
        check()


def test_workload_needs_follow_from_the_tail_percentiles():
    for workload in WORKLOADS.values():
        needs = workload.needs()
        for kind, need in needs.items():
            if kind == "search":
                continue
            p = workload.tail(kind)
            assert p == (95 if kind in workload.own else 90)
            # ten samples beyond the nearest rank, and not one fewer
            assert need - (math.ceil(p * need / 100) - 1) - 1 == 10
            assert (need - 1) - (math.ceil(p * (need - 1) / 100) - 1) - 1 < 10
    assert WORKLOADS["analytic_sql"].needs()["query"] == 200
    assert WORKLOADS["bulk_ingest"].needs()["query"] == 100


def test_self_times_add_up_to_the_parent_span():
    tracer = Tracer()
    tracer.active = True
    root = tracer.open("session.x", SESSION)
    for _ in range(3):
        child = tracer.open("child", "storage")
        grandchild = tracer.open("grandchild", "index")
        sum(range(2000))
        tracer.close(grandchild)
        tracer.close(child)
    sum(range(2000))
    tracer.close(root)
    own = tracer.self_times()
    start, end = tracer.spans[root][2], tracer.spans[root][3]
    assert sum(own) == pytest.approx(end - start, rel=1e-9)
    assert all(t >= 0 for t in own)


def test_traced_loop_shares_sum_to_one_and_names_match(client):
    tracer = Tracer()
    tracer.install()
    try:
        traced = Client(TINY, seed=4, clock=Clock())
        traced.setup()
        tracer.active = True
        loop = run.run_loop(traced, 0.5, tracer=tracer, needs={})
        tracer.active = False
    finally:
        tracer.uninstall()
    from tracing import layer_metrics

    metrics = layer_metrics(tracer, traced, loop.counters)
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".share"))
    assert shares + metrics["unattributed_share"][0] == pytest.approx(1.0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_traced_notification_is_charged_to_subscriptions():
    tracer = Tracer()
    tracer.install()
    try:
        traced = Client(TINY, seed=7, clock=Clock())
        traced.setup()
        traced.subscription.poll()
        tracer.active = True
        root = tracer.open("session.write", SESSION)
        op = traced._write_new_order()
        op.check(op.call())
        tracer.close(root)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert traced.subscription.poll(), "the write notified the subscription"
    spans = tracer.spans
    notify = {i for i, span in enumerate(spans) if span[1] == "subscriptions"}
    assert notify

    def under_notify(i):
        while spans[i][4] >= 0:
            i = spans[i][4]
            if i in notify:
                return True
        return False

    nested = [spans[i][1] for i in range(len(spans)) if under_notify(i)]
    assert "serving" not in nested and None not in nested
    # The only scheduler and body spans are the Session call's own.
    assert [span[1] for span in spans if span[1] in ("serving", None)] == ["serving", None]


def test_percentile_stops_where_ten_samples_remain():
    samples = list(range(1, 101))
    assert run.percentile(samples, 0.5) == (50, 50.0)
    assert run.percentile(samples, 0.95) == (90, 90.0)  # not 95: only 5 beyond
    assert run.percentile(list(range(1, 1001)), 0.99) == (990, 99.0)
    assert run.percentile([3.0, 1.0, 2.0], 0.95)[0] == 2.0  # falls back to the median


def test_without_appliance_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_serving", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert perf_counter() - start < 60
