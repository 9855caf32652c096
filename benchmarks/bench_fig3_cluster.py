"""FIG3 — Figure 3 / Section 3.3: the three-flavor cluster.

Claims reproduced:
(1) the canonical pipeline — full-text search on data nodes → join /
    aggregation on grid nodes → consistent updates via cluster nodes —
    beats placing every stage on a single flavor;
(2) data capacity and compute capacity scale independently ("add more
    data nodes for throughput; add more computing nodes for users");
(3) consistency-group membership carries a real heartbeat overhead that
    grows with group size.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import ImplianceCluster
from repro.exec.operators import AggSpec
from repro.exec.parallel import ExecReport, ParallelExecutor
from repro.workloads.callcenter import CallCenterWorkload

from conftest import once, print_table


def build_cluster(n_data=3, n_grid=2, n_cluster=1, n_transcripts=150):
    cluster = ImplianceCluster(n_data=n_data, n_grid=n_grid, n_cluster=n_cluster)
    workload = CallCenterWorkload(n_customers=30, n_transcripts=n_transcripts, seed=11)
    for doc in workload.documents():
        cluster.ingest(doc)
    cluster.reset_timelines()
    return cluster, workload


def canonical_pipeline(cluster, placement="paper"):
    """search → join(customer master) → aggregate → update, with the
    stage→flavor mapping chosen by *placement*."""
    executor = ParallelExecutor(cluster)
    report = ExecReport()

    if placement == "paper":
        compute_node = cluster.work_crew(1)[0]
    elif placement == "data-only":
        compute_node = cluster.data_nodes[0]
    else:
        raise ValueError(placement)

    # Stage 1: full-text search always runs where the documents live.
    partitions = executor.search("excellent widgetpro", top_n=20, report=report)
    hits, ready = executor.gather(partitions, compute_node, report=report)

    # Stage 2: join hits against customer master data, then aggregate.
    customer_rows = [
        dict(d.content["customers"])
        for d in cluster.scan_all()
        if d.metadata.get("table") == "customers"
    ]
    from repro.util import stable_hash

    seg_of = {r["cid"]: r["segment"] for r in customer_rows}
    joined = [
        {**h, "segment": seg_of.get(
            stable_hash(h["doc_id"], len(seg_of)), "consumer")}
        for h in hits
    ]
    joined, ready = executor.compute_aggregate(
        joined, ["segment"], [AggSpec("n", "count")], compute_node, ready, report=report
    )

    # Stage 3: drive updates through the consistency group.
    target_ids = [h["doc_id"] for h in hits[:5]]
    updates = {
        doc_id: (lambda d: {**d.content, "flagged": True}) for doc_id in target_ids
    }
    executor.cluster_update(updates, after=ready, report=report)
    return report


def test_fig3_paper_placement(benchmark):
    cluster, _ = build_cluster()

    def run():
        cluster.reset_timelines()
        return canonical_pipeline(cluster, "paper")

    report = benchmark(run)
    assert report.finish_ms > 0


def test_fig3_placement_report(benchmark):
    """Paper placement vs all-on-data-node placement."""

    def run():
        results = {}
        for placement in ("paper", "data-only"):
            cluster, _ = build_cluster()
            report = canonical_pipeline(cluster, placement)
            results[placement] = report.finish_ms
        return results

    results = once(benchmark, run)
    print_table(
        "FIG3: stage placement (simulated ms, lower is better)",
        ["placement", "finish_ms"],
        [[k, round(v, 3)] for k, v in results.items()],
    )
    # Grid nodes host the join/aggregate faster than a data node would.
    assert results["paper"] <= results["data-only"]


def test_fig3_independent_scaling_report(benchmark):
    """Add data nodes → search stage speeds up; add grid nodes → the
    compute stage parallelizes independently."""

    def run():
        rows = []
        for n_data, n_grid in [(1, 1), (2, 1), (4, 1), (4, 2), (4, 4)]:
            cluster, _ = build_cluster(n_data=n_data, n_grid=n_grid)
            executor = ParallelExecutor(cluster)
            report = ExecReport()
            partitions = executor.scan(
                lambda d: dict(d.content["customers"])
                if d.metadata.get("table") == "customers" else None,
                report=report,
            )
            search_ms = report.stage("scan").finish_ms
            # compute stage: every grid node gets an equal shard of work
            crew = cluster.work_crew(n_grid)
            per_node = 120.0 / len(crew)
            compute_ms = max(
                n.run(per_node, search_ms, label="analytics") for n in crew
            ) - search_ms
            rows.append([n_data, n_grid, round(search_ms, 3), round(compute_ms, 3)])
        return rows

    rows = once(benchmark, run)
    print_table(
        "FIG3: independent scaling of data and compute",
        ["data nodes", "grid nodes", "search_ms", "compute_ms"],
        rows,
    )
    by_config = {(r[0], r[1]): (r[2], r[3]) for r in rows}
    # more data nodes -> faster search stage, compute unchanged
    assert by_config[(4, 1)][0] < by_config[(1, 1)][0]
    # more grid nodes -> faster compute stage
    assert by_config[(4, 4)][1] < by_config[(4, 1)][1]


def test_fig3_heartbeat_overhead_report(benchmark):
    """The cost of consistency-group membership (Section 3.3 caveat)."""

    def run():
        rows = []
        for size in (2, 4, 8):
            cluster = ImplianceCluster(n_data=1, n_grid=0, n_cluster=size)
            group = cluster.consistency_group
            for _ in range(10):
                group.heartbeat_round()
            rows.append([size, group.stats.heartbeats_sent,
                         round(cluster.network.stats.bytes_sent, 1)])
        return rows

    rows = once(benchmark, run)
    print_table(
        "FIG3: heartbeat overhead vs consistency-group size",
        ["group size", "heartbeats (10 rounds)", "bytes"],
        rows,
    )
    # quadratic growth: doubling size ~4x messages
    assert rows[1][1] == pytest.approx(rows[0][1] * (4 * 3) / (2 * 1))
    assert rows[2][1] > rows[1][1] > rows[0][1]


def test_fig3_distributed_discovery_report(benchmark):
    """The paper's own Figure-3 workload: annotation extraction across
    all three flavors (intra-doc on data, inter-doc on grid, persist via
    cluster), with each stage's makespan attributed to its flavor."""
    from repro.discovery.annotators import default_annotators
    from repro.exec.discovery_flow import run_distributed_discovery

    def run():
        cluster, workload = build_cluster(n_data=3, n_grid=2, n_cluster=2)
        result = run_distributed_discovery(
            cluster, default_annotators(products=workload.product_lexicon())
        )
        return cluster, result

    cluster, result = once(benchmark, run)
    rows = [
        [s.label, round(s.finish_ms, 3), s.rows, ",".join(s.nodes[:3])]
        for s in result.report.stages
    ]
    print_table(
        "FIG3: annotation-extraction pipeline across node flavors",
        ["stage", "finish_ms", "items", "nodes"],
        rows,
    )
    assert result.annotations > 0
    assert result.entities > 0
    # each flavor hosted its stage
    assert set(result.report.stage("intra-doc").nodes) == {
        n.node_id for n in cluster.data_nodes
    }
    assert set(result.report.stage("persist").nodes) == {
        n.node_id for n in cluster.cluster_nodes
    }
