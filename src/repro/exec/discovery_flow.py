"""Distributed discovery over the three node flavors (Section 3.3).

"Annotation extraction requires the capabilities of all three node
types.  Data nodes perform intra-document analyses: tasks like entity
extraction and sentiment detection within a single document.  The output
of intra-document analyses may be fed to grid nodes for inter-document
analyses to identify relationships spanning documents.  Finally, cluster
nodes are responsible for persisting newly extracted structures and
relationships reliably and consistently."

:func:`run_distributed_discovery` executes that exact dataflow against a
simulated cluster: annotators run where the documents live (cost charged
to data nodes), mentions ship to a grid work crew for entity resolution
(inter-document), and the resulting annotation documents and co-mention
edges persist through consistency-group locks at the cluster nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.topology import ImplianceCluster
from repro.discovery.annotators import Annotator
from repro.discovery.resolution import EntityResolver, Mention
from repro.exec import costs
from repro.exec.parallel import ExecReport, StageTiming
from repro.index.joins import JoinEdge
from repro.model.annotations import Annotation, make_annotation_document
from repro.model.document import DocumentKind
from repro.util import IdGenerator

#: Approximate wire size of one shipped annotation record.
ANNOTATION_BYTES = 160
#: CPU cost of resolving one mention against the entity blocks.
RESOLVE_MS_PER_MENTION = 0.05


@dataclass
class DistributedDiscoveryResult:
    """What one distributed discovery pass produced."""

    annotations: int = 0
    entities: int = 0
    edges: int = 0
    persisted: int = 0
    report: ExecReport = field(default_factory=ExecReport)

    @property
    def finish_ms(self) -> float:
        return self.report.finish_ms


def run_distributed_discovery(
    cluster: ImplianceCluster,
    annotators: Sequence[Annotator],
    entity_labels: Optional[Dict[str, str]] = None,
    crew_size: int = 2,
    after: float = 0.0,
) -> DistributedDiscoveryResult:
    """Run one full discovery pass with paper-faithful stage placement.

    Returns counts plus the per-stage cost report.  Annotation documents
    are persisted at each subject's home data node under consistency-
    group locks; each co-mention edge lands once in the cluster's join
    index (``cluster.indexes.joins``).
    """
    labels = dict(entity_labels or {"person": "name"})
    result = DistributedDiscoveryResult()
    ids = IdGenerator("dann")

    # ------------------------------------------------------------------
    # Stage 1 (data nodes): intra-document analyses where the data lives.
    # ------------------------------------------------------------------
    per_node_annotations: Dict[str, Tuple[List[Annotation], float]] = {}
    for node in cluster.data_nodes:
        assert node.store is not None
        produced: List[Annotation] = []
        analysed_bytes = 0
        for document in node.store.scan():
            if document.kind is DocumentKind.ANNOTATION:
                continue
            analysed_bytes += document.size_bytes()
            for annotator in annotators:
                if annotator.applies_to(document):
                    produced.extend(annotator.annotate(document))
        cost = costs.ANNOTATE_MS_PER_KB * analysed_bytes / 1024.0
        finish = node.run(cost, after, label="intra-doc-analysis", operator="annotate")
        per_node_annotations[node.node_id] = (produced, finish)
        result.annotations += len(produced)
    result.report.record(
        StageTiming(
            "intra-doc",
            max((f for _, f in per_node_annotations.values()), default=after),
            result.annotations,
            nodes=tuple(sorted(per_node_annotations)),
        )
    )

    # ------------------------------------------------------------------
    # Stage 2 (grid crew): inter-document analyses — entity resolution.
    # ------------------------------------------------------------------
    crew = cluster.work_crew(crew_size)
    coordinator = crew[0] if crew else cluster.data_nodes[0]
    gathered: List[Annotation] = []
    ready = after
    for node_id, (produced, produced_at) in sorted(per_node_annotations.items()):
        wire = cluster.network.transfer(
            ANNOTATION_BYTES * len(produced), node_id, coordinator.node_id
        )
        gathered.extend(produced)
        ready = max(ready, produced_at + wire)
    result.report.record(
        StageTiming("ship-annotations", ready, len(gathered),
                    bytes_shipped=ANNOTATION_BYTES * len(gathered),
                    nodes=(coordinator.node_id,))
    )

    resolver = EntityResolver()
    mentions = [
        Mention(a.subject_id, str(a.payload[labels[a.label]]), a.label)
        for a in gathered
        if a.label in labels and a.payload.get(labels[a.label])
    ]
    # The crew splits resolution cost evenly (blocking makes this fair).
    resolve_finish = ready
    if mentions and crew:
        share = len(mentions) * RESOLVE_MS_PER_MENTION / len(crew)
        for node in crew:
            resolve_finish = max(
                resolve_finish,
                node.run(share, ready, label="inter-doc-analysis", operator="annotate"),
            )
    for mention in mentions:
        resolver.resolve(mention)
    result.entities = resolver.entity_count
    result.report.record(
        StageTiming("inter-doc", resolve_finish, len(mentions),
                    nodes=tuple(n.node_id for n in crew))
    )

    # ------------------------------------------------------------------
    # Stage 3 (cluster nodes): persist structures reliably/consistently.
    # ------------------------------------------------------------------
    group = cluster.consistency_group
    persist_finish = resolve_finish
    for annotation in gathered:
        ann_doc = make_annotation_document(ids.next(), annotation)
        home = cluster.home_of(ann_doc.doc_id)
        assert home.store is not None
        granted = group.acquire(ann_doc.doc_id, "discovery", home.node_id, resolve_finish)
        home.store.put(ann_doc)
        end = home.run(costs.UPDATE_CPU_MS, granted, label="persist-annotation",
                       operator="update")
        group.release(ann_doc.doc_id, "discovery")
        persist_finish = max(persist_finish, end)
        result.persisted += 1

    edges = 0
    for entity in resolver.entities():
        doc_ids = sorted(entity.doc_ids)
        for a, b in zip(doc_ids, doc_ids[1:]):
            cluster.indexes.joins.add(JoinEdge("co_mentions", a, b, confidence=0.7))
            edges += 1
    result.edges = edges
    result.report.record(
        StageTiming("persist", persist_finish, result.persisted + edges,
                    nodes=tuple(n.node_id for n in cluster.cluster_nodes))
    )
    return result
