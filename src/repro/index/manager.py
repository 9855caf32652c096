"""Index manager: keeps every index current as documents arrive.

Subscribes to the document store's put hook, so "this indexing need not
take place as part of the same transaction that infused that document
initially" (Section 3.2) — the manager can run in immediate mode (index
on put) or deferred mode (queue and apply in batches from a background
task), and the IDX experiment measures the difference against periodic
full rebuilds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.index.facets import FacetDefinition, FacetIndex
from repro.index.joins import JoinIndex
from repro.index.structural import StructuralIndex, ValueIndex
from repro.index.text import InvertedIndex
from repro.model.document import Document
from repro.model.projection import projection_of
from repro.storage.pages import PageAddress
from repro.storage.store import DocumentStore


@dataclass
class IndexManagerStats:
    indexed: int = 0
    deferred: int = 0
    batches_applied: int = 0


class IndexManager:
    """One handle owning the text, structural, value, and facet indexes.

    Parameters
    ----------
    store:
        The document store to attach to (may be ``None`` for standalone
        index use; call :meth:`index_document` directly).
    facets:
        Facet definitions to maintain.
    deferred:
        When True, puts are queued and indexed by :meth:`apply_pending`
        (a background-task budget decides when); when False, indexing is
        synchronous with the put.
    """

    def __init__(
        self,
        store: Optional[DocumentStore] = None,
        facets: Iterable[FacetDefinition] = (),
        deferred: bool = False,
        telemetry=None,
    ) -> None:
        # Telemetry stays None-guarded (not the DISABLED singleton): the
        # store commit hook runs once per group commit on the write path.
        self.telemetry = telemetry
        self.text = InvertedIndex()
        self.structure = StructuralIndex()
        self.values = ValueIndex()
        self.facets = FacetIndex(facets)
        self.joins = JoinIndex()
        self.deferred = deferred
        self.stats = IndexManagerStats()
        self._pending: Deque[Document] = deque()
        if store is not None:
            self.attach(store)

    # ------------------------------------------------------------------
    def attach(self, store: DocumentStore) -> None:
        """Index every version *store* commits from now on (its commit
        hook is this manager's maintenance path)."""
        store.batch_put_listeners.append(self._on_put_batch)

    def _on_put_batch(self, pairs: List[Tuple[Document, PageAddress]]) -> None:
        """Store hook: one call per group commit.

        A batch of one is the reactive document-at-a-time path and is
        indexed exactly as before; a real batch takes the bulk path,
        where every index reuses the shared model projection.
        """
        if self.deferred:
            for document, _ in pairs:
                self._pending.append(document)
            self.stats.deferred += len(pairs)
        elif len(pairs) == 1:
            self.index_document(pairs[0][0])
        else:
            self.index_batch([document for document, _ in pairs])

    def index_document(self, document: Document) -> None:
        """(Re-)index one document version across all indexes.

        Indexing the same doc_id again replaces the previous version's
        entries — superseded versions never pollute search results.  A
        tombstone version removes the document from every index: deleted
        documents must stop matching immediately.
        """
        if document.is_tombstone:
            self.unindex(document.doc_id)
            return
        self.text.add(document.doc_id, document.text)
        self.structure.add(document)
        self.values.add(document)
        self.facets.add(document)
        self.stats.indexed += 1
        if self.telemetry is not None:
            self.telemetry.inc("index.documents_indexed")

    def index_batch(self, documents: List[Document]) -> int:
        """Group index maintenance: one bulk pass over every index.

        Each document's projection (one content walk: text, postings,
        structure, value entries — see ``repro.model.projection``) feeds
        all four indexes, and documents sharing a structural signature are
        loaded into the structural index as one group.  Final index state
        and probe answers are identical to calling :meth:`index_document`
        per document in the same order.

        A batch that mentions the same doc_id twice (two versions in one
        group commit) falls back to the sequential path — replacement
        semantics depend on arrival order, which grouping would lose.
        """
        if not documents:
            return 0
        if any(document.is_tombstone for document in documents):
            # Deletes take the sequential path: arrival order decides
            # whether a doc_id ends the batch indexed or removed.
            for document in documents:
                self.index_document(document)
            return len(documents)
        doc_ids = [document.doc_id for document in documents]
        if len(set(doc_ids)) != len(doc_ids):
            for document in documents:
                self.index_document(document)
            return len(documents)

        projections = [projection_of(document) for document in documents]
        for document, projection in zip(documents, projections):
            self.text.add_projected(
                document.doc_id, projection.term_positions, projection.token_count
            )
        groups: Dict[frozenset, List[str]] = {}
        group_order: List[frozenset] = []
        for document, projection in zip(documents, projections):
            members = groups.get(projection.structure)
            if members is None:
                groups[projection.structure] = members = []
                group_order.append(projection.structure)
            members.append(document.doc_id)
        for signature in group_order:
            self.structure.add_group(signature, groups[signature])
        for document, projection in zip(documents, projections):
            self.values.add_entries(document.doc_id, projection.value_entries)
            self.facets.add(document)
        self.stats.indexed += len(documents)
        if self.telemetry is not None:
            self.telemetry.inc("index.documents_indexed", len(documents))
        return len(documents)

    def unindex(self, doc_id: str) -> None:
        # Purge queued copies too: in deferred mode an unindexed document
        # must not be resurrected by a later apply_pending pass.
        if self._pending:
            self._pending = deque(
                document for document in self._pending if document.doc_id != doc_id
            )
        self.text.remove(doc_id)
        self.structure.remove(doc_id)
        self.values.remove(doc_id)
        self.facets.remove(doc_id)
        self.joins.remove_doc(doc_id)

    # ------------------------------------------------------------------
    def apply_pending(self, budget: Optional[int] = None) -> int:
        """Index up to *budget* queued documents (all, when ``None``).

        Returns how many were applied.  Called from the execution
        manager's background-task slots.  The drained chunk is applied as
        one :meth:`index_batch`, so deferred maintenance gets the same
        projection sharing the pipeline's group stage does.
        """
        if not self._pending:
            return 0
        take = len(self._pending) if budget is None else min(budget, len(self._pending))
        if take <= 0:
            return 0
        batch = [self._pending.popleft() for _ in range(take)]
        applied = self.index_batch(batch)
        self.stats.batches_applied += 1
        if self.telemetry is not None:
            self.telemetry.inc("index.batches_applied")
        return applied

    @property
    def pending_count(self) -> int:
        return len(self._pending)
