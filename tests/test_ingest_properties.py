"""Property: batched ingest is observably identical to sequential ingest.

For any generated document mix — and any interleaved chaos schedule of
node failures and recoveries between chunks — pushing the documents
through ``ingest_many`` (group commits, shared projections, coalesced
invalidation) must leave the appliance in exactly the state that
one-at-a-time ``ingest_document`` calls produce: same store contents,
same index probe answers, same SQL answers, same annotations after a
discovery drain.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.ingest import IngestConfig
from repro.model.converters import from_json_object, from_relational_row, from_text
from repro.model.document import DocumentKind

REGIONS = ("east", "west", "north")

doc_specs = st.lists(
    st.tuples(st.sampled_from(("row", "text", "json")), st.integers(0, 99)),
    min_size=1,
    max_size=24,
)

#: Chaos events applied between chunks (identically on both sides).
chaos_events = st.lists(
    st.sampled_from(("fail", "recover", "none")), min_size=0, max_size=4
)


def build_documents(spec) -> list:
    documents = []
    for i, (kind, value) in enumerate(spec):
        if kind == "row":
            documents.append(
                from_relational_row(
                    f"r{i}",
                    "orders",
                    {
                        "oid": i,
                        "amount": float(value),
                        "region": REGIONS[value % len(REGIONS)],
                    },
                )
            )
        elif kind == "text":
            documents.append(
                from_text(f"t{i}", f"widget report number {value} from Alice")
            )
        else:
            documents.append(
                from_json_object(f"j{i}", {"claim": {"amount": value, "idx": i}})
            )
    return documents


def make_app(batch_size: int = 8) -> Impliance:
    return Impliance(
        ApplianceConfig(
            ingest=IngestConfig(batch_size=batch_size, queue_capacity=batch_size * 4)
        )
    )


def fingerprint(app: Impliance) -> dict:
    amount_path = ("orders", "amount")
    return {
        "docs": sorted(
            (d.doc_id, d.version, d.ingest_ts, d.to_json())
            for d in app.cluster.scan_all()
        ),
        "text_probe": sorted(app.indexes.text.match_all("widget")),
        "value_probe": sorted(app.indexes.values.docs_with_value(amount_path, 3.0)),
        "structure_probe": sorted(app.indexes.structure.docs_with_path(amount_path)),
        "search": [hit.doc_id for hit in app.search("widget", top_k=20)],
        "annotations": sorted(
            (d.doc_id, d.to_json())
            for d in app.cluster.scan_all()
            if d.kind is DocumentKind.ANNOTATION
        ),
    }


def sql_fingerprint(app: Impliance):
    return app.sql(
        "SELECT region, count(*) AS n, sum(amount) AS total "
        "FROM orders GROUP BY region ORDER BY region"
    ).rows


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=doc_specs)
def test_ingest_many_matches_sequential(spec):
    documents = build_documents(spec)
    batch_app, seq_app = make_app(), make_app()

    stored_batch = batch_app.ingest_many([d for d in documents])
    stored_seq = [seq_app.ingest_document(d) for d in documents]

    assert [d.vid for d in stored_batch] == [d.vid for d in stored_seq]
    assert fingerprint(batch_app) == fingerprint(seq_app)
    if any(kind == "row" for kind, _ in spec):
        assert sql_fingerprint(batch_app) == sql_fingerprint(seq_app)

    # Asynchronous discovery drains to the same annotations either way.
    assert batch_app.discover() == seq_app.discover()
    assert fingerprint(batch_app) == fingerprint(seq_app)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=doc_specs, events=chaos_events)
def test_ingest_many_matches_sequential_under_chaos(spec, events):
    """Interleave the same fail/recover schedule between same-sized
    chunks on both sides; every observable stays identical."""
    documents = build_documents(spec)
    batch_app, seq_app = make_app(), make_app()

    def apply_event(app: Impliance, event: str) -> None:
        if event == "fail" and len(app.cluster.data_nodes) > 1:
            app.fail_node(app.cluster.data_nodes[0].node_id)
        elif event == "recover":
            dead = [
                n
                for n in app.cluster.nodes_of(
                    app.cluster.data_nodes[0].kind, alive_only=False
                )
                if not n.alive
            ]
            if dead:
                app.recover_node(dead[0].node_id)

    # Split the corpus into len(events)+1 chunks with an event between.
    chunk_size = max(1, len(documents) // (len(events) + 1))
    chunks = [
        documents[i : i + chunk_size] for i in range(0, len(documents), chunk_size)
    ]
    for index, chunk in enumerate(chunks):
        batch_app.ingest_many(list(chunk))
        for document in chunk:
            seq_app.ingest_document(document)
        if index < len(events):
            apply_event(batch_app, events[index])
            apply_event(seq_app, events[index])

    assert fingerprint(batch_app) == fingerprint(seq_app)
    batch_app.discover(), seq_app.discover()
    assert fingerprint(batch_app) == fingerprint(seq_app)
