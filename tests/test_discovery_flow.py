"""Tests for the distributed discovery dataflow (§3.3 stage placement)."""

import pytest

from repro.cluster.topology import ImplianceCluster
from repro.discovery.annotators import default_annotators
from repro.exec.discovery_flow import run_distributed_discovery
from repro.workloads.callcenter import CallCenterWorkload


@pytest.fixture
def loaded():
    workload = CallCenterWorkload(n_customers=10, n_transcripts=30, seed=11)
    cluster = ImplianceCluster(n_data=3, n_grid=2, n_cluster=2)
    for doc in workload.documents():
        cluster.ingest(doc)
    cluster.reset_timelines()
    return cluster, workload


def run(cluster, workload, **kwargs):
    return run_distributed_discovery(
        cluster, default_annotators(products=workload.product_lexicon()), **kwargs
    )


class TestStagePlacement:
    def test_all_three_flavors_do_their_part(self, loaded):
        cluster, workload = loaded
        result = run(cluster, workload)
        # intra-doc ran on data nodes
        assert set(result.report.stage("intra-doc").nodes) == {
            n.node_id for n in cluster.data_nodes
        }
        # inter-doc ran on grid nodes
        assert set(result.report.stage("inter-doc").nodes) <= {
            n.node_id for n in cluster.grid_nodes
        }
        # persist stage names the cluster nodes (locks serialized there)
        assert set(result.report.stage("persist").nodes) == {
            n.node_id for n in cluster.cluster_nodes
        }

    def test_stages_ordered_in_time(self, loaded):
        cluster, workload = loaded
        result = run(cluster, workload)
        finishes = [s.finish_ms for s in result.report.stages]
        assert finishes == sorted(finishes)

    def test_work_actually_charged_to_flavors(self, loaded):
        cluster, workload = loaded
        run(cluster, workload)
        assert all(n.busy_ms > 0 for n in cluster.data_nodes)
        assert any(n.busy_ms > 0 for n in cluster.grid_nodes)
        assert any(n.busy_ms > 0 for n in cluster.cluster_nodes)


class TestOutputs:
    def test_annotations_persisted_and_queryable(self, loaded):
        cluster, workload = loaded
        result = run(cluster, workload)
        assert result.persisted == result.annotations > 0
        stored_annotations = [
            d for d in cluster.scan_all() if d.kind.value == "annotation"
        ]
        assert len(stored_annotations) == result.persisted

    def test_entities_resolved_across_documents(self, loaded):
        cluster, workload = loaded
        result = run(cluster, workload)
        assert result.entities > 0
        # co-mention edges land in the cluster's one join index
        assert "co_mentions" in cluster.indexes.joins.relations()

    def test_locks_all_released(self, loaded):
        cluster, workload = loaded
        run(cluster, workload)
        assert cluster.consistency_group.lock_count == 0

    def test_scaling_data_nodes_speeds_intra_stage(self):
        workload = CallCenterWorkload(n_customers=10, n_transcripts=60, seed=11)
        finishes = {}
        for n_data in (1, 4):
            cluster = ImplianceCluster(n_data=n_data, n_grid=2, n_cluster=1)
            for doc in workload.documents():
                cluster.ingest(doc)
            cluster.reset_timelines()
            result = run_distributed_discovery(
                cluster, default_annotators(products=workload.product_lexicon())
            )
            finishes[n_data] = result.report.stage("intra-doc").finish_ms
        assert finishes[4] < finishes[1] / 2  # parallel intra-doc analysis
