"""Shared fixtures for the Impliance reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.model.converters import from_relational_row
from repro.model.views import base_table_view
from repro.query.engine import LocalRepository, QueryEngine
from repro.storage.store import DocumentStore

# Detailed assertion messages inside the shared row-oracle helpers.
pytest.register_assert_rewrite("tests.row_oracle")


@pytest.fixture
def store() -> DocumentStore:
    return DocumentStore()


@pytest.fixture
def small_store() -> DocumentStore:
    """Tiny pages/segments so layout paths get exercised."""
    return DocumentStore(page_bytes=512, segment_pages=2, buffer_capacity=8)


@pytest.fixture
def repo(store: DocumentStore) -> LocalRepository:
    return LocalRepository(store)


@pytest.fixture
def sales_repo() -> LocalRepository:
    """A small customers/orders repository with views, for SQL tests."""
    repository = LocalRepository(DocumentStore())
    repository.views.define(
        base_table_view("customers", "customers", ["cid", "name", "segment"])
    )
    repository.views.define(
        base_table_view("orders", "orders", ["oid", "cid", "amount", "region"])
    )
    customers = [
        {"cid": 1, "name": "Acme", "segment": "enterprise"},
        {"cid": 2, "name": "Beta", "segment": "smb"},
        {"cid": 3, "name": "Gamma", "segment": "smb"},
    ]
    orders = [
        {"oid": 1, "cid": 1, "amount": 100.0, "region": "east"},
        {"oid": 2, "cid": 1, "amount": 250.0, "region": "west"},
        {"oid": 3, "cid": 2, "amount": 75.0, "region": "east"},
        {"oid": 4, "cid": 3, "amount": 500.0, "region": "west"},
        {"oid": 5, "cid": 2, "amount": 20.0, "region": "east"},
    ]
    for row in customers:
        repository.store.put(from_relational_row(f"c{row['cid']}", "customers", row))
    for row in orders:
        repository.store.put(from_relational_row(f"o{row['oid']}", "orders", row))
    return repository


@pytest.fixture
def sales_engine(sales_repo: LocalRepository) -> QueryEngine:
    return QueryEngine(sales_repo)


@pytest.fixture
def tiny_app() -> Impliance:
    """A small appliance with product lexicon, for integration tests."""
    return Impliance(
        ApplianceConfig(
            n_data_nodes=2,
            n_grid_nodes=1,
            n_cluster_nodes=1,
            product_lexicon=("WidgetPro", "GadgetMax"),
        )
    )


CHAOS_DOC_IDS = tuple(f"cd-{i}" for i in range(24))


@pytest.fixture
def chaos_cluster() -> Impliance:
    """A wider appliance for fault-injection scenarios: 4 data nodes (so
    GOLD's 3 replicas always have a spare home), pre-loaded with BASE
    documents and with every segment replica-placed."""
    app = Impliance(
        ApplianceConfig(n_data_nodes=4, n_grid_nodes=2, n_cluster_nodes=1)
    )
    for doc_id in CHAOS_DOC_IDS:
        app.ingest(f"chaos corpus document {doc_id} mentions widget", "text",
                   doc_id=doc_id)
    for manager in app._storage_managers:
        manager.place_open_segments()
    return app
