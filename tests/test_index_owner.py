"""One index owner: the cluster's IndexManager is the only index.

Every data-node store's commit hook feeds the one ``IndexManager`` the
cluster owns, so each committed version is indexed exactly once — on
every write path (single ingest, bulk ingest, update, delete, failover
re-homing, restore) — and the scatter search over the data nodes
returns the same top-n as the one index.
"""

import pytest

from repro.cluster.node import NodeKind
from repro.cluster.topology import ImplianceCluster
from repro.core import ApplianceConfig, Impliance
from repro.exec.parallel import ParallelExecutor
from repro.index.manager import IndexManager
from repro.model.converters import from_text

WORDS = ["widget", "gadget", "sprocket", "shipped", "late", "great", "broken", "blue"]


def text_doc(i: int):
    words = [WORDS[(i * k + k) % len(WORDS)] for k in range(1, 2 + i % 4)]
    return from_text(f"t-{i}", " ".join(words), f"t-{i}")


@pytest.fixture
def indexed(monkeypatch):
    """Count the documents every IndexManager indexes, class-wide.

    ``index_batch`` falls back to ``index_document`` for batches with
    tombstones or repeated ids, so only the outermost call counts.
    """
    counted = {"docs": 0}
    depth = [0]

    def counting(original, size):
        def wrapper(self, arg):
            if depth[0] == 0:
                counted["docs"] += size(arg)
            depth[0] += 1
            try:
                return original(self, arg)
            finally:
                depth[0] -= 1

        return wrapper

    monkeypatch.setattr(
        IndexManager, "index_batch", counting(IndexManager.index_batch, len)
    )
    monkeypatch.setattr(
        IndexManager, "index_document", counting(IndexManager.index_document, lambda d: 1)
    )
    return counted


def committed_versions(app: Impliance) -> int:
    """Versions held by the data-node stores (a failed node's included)."""
    return sum(
        node.store.version_count
        for node in app.cluster.nodes_of(NodeKind.DATA, alive_only=False)
    )


def homed_on(cluster, node_id: str, prefix: str, count: int):
    """The first *count* ids ``prefix-N`` whose home is *node_id*."""
    ids = []
    n = 0
    while len(ids) < count:
        doc_id = f"{prefix}-{n}"
        if cluster.home_of(doc_id).node_id == node_id:
            ids.append(doc_id)
        n += 1
    return ids


class TestIndexedOnce:
    def test_one_index_owner(self):
        app = Impliance(ApplianceConfig(n_data_nodes=3))
        assert app.indexes is app.cluster.indexes
        for node in app.cluster.data_nodes:
            assert not hasattr(node, "indexes")

    def test_each_committed_version_indexed_once(self, indexed):
        app = Impliance(ApplianceConfig(n_data_nodes=3, n_grid_nodes=1))
        app.ingest("a lone widget arrives", "text", doc_id="solo")
        app.ingest_many([text_doc(i) for i in range(24)], "document")
        app.update_document("t-3", {"body": "updated gadget"})
        app.delete_document("t-5")
        assert indexed["docs"] == committed_versions(app)

        # Failover re-homes the victim's chains onto survivors: each
        # re-homed copy is a committed version of its new store.
        app.fail_node("data-1")
        assert indexed["docs"] == committed_versions(app)

        # Restore replays into a fresh store without re-indexing; later
        # commits on the restored node are indexed once.
        app.restore("data-1")
        assert indexed["docs"] == committed_versions(app)
        later = homed_on(app.cluster, "data-1", "late", 3)
        app.ingest_many([from_text(i, "blue sprocket", i) for i in later], "document")
        app.ingest("one more widget", "text", doc_id=later[0] + "-solo")
        assert indexed["docs"] == committed_versions(app)


class TestStandaloneCluster:
    def loaded(self, n_data: int = 3, n_docs: int = 60) -> ImplianceCluster:
        cluster = ImplianceCluster(n_data=n_data)
        for i in range(n_docs):
            cluster.ingest(text_doc(i))
        return cluster

    @pytest.mark.parametrize("query", ["widget", "shipped late", "great blue gadget"])
    @pytest.mark.parametrize("top_n", [1, 5, 20])
    def test_scatter_search_equals_one_index(self, query, top_n):
        cluster = self.loaded()
        partitions = ParallelExecutor(cluster).search(query, top_n=top_n)
        merged = sorted(
            (row for rows, _finish in partitions.values() for row in rows),
            key=lambda row: (-row["score"], row["doc_id"]),
        )[:top_n]
        want = cluster.indexes.text.search(query, top_n)
        assert want
        assert [(r["doc_id"], r["score"]) for r in merged] == [
            (hit.doc_id, hit.score) for hit in want
        ]

    def test_hot_added_data_node_is_indexed(self):
        cluster = self.loaded(n_data=2, n_docs=0)
        added = cluster.add_node(NodeKind.DATA)
        doc_id = homed_on(cluster, added.node_id, "hot", 1)[0]
        cluster.ingest(from_text(doc_id, "a hot sprocket", doc_id))
        assert doc_id in cluster.indexes.text.match_all("sprocket")
