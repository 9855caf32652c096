"""Span tracing around the appliance's layer entry points.

The traced run patches the public entry point of each layer (class
attributes, so every instance is covered) with a wrapper that records a
span: name, layer, start, end, parent span and request id.  Spans are
kept in memory; :meth:`Tracer.dump` writes them out when the run ends.

Install the wrappers *before* the appliance is built: the invalidation
bus stores bound methods of its subscribers when they attach, so a
listener patched after construction would never be called through the
wrapper.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Root spans (one per Session call made by the client) carry this layer.
SESSION = "session"


class Tracer:
    """In-memory span recorder; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        #: [name, layer, start, end, parent index, request id]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._request = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str, layer: Optional[str]) -> int:
        if not self._stack and layer == SESSION:
            self._request += 1
        parent = self._stack[-1] if self._stack else -1
        # Build the record before taking its index: allocating it may run
        # a collection, whose gc callback opens a span of its own.
        record = [name, layer, 0.0, 0.0, parent, self._request]
        index = len(self.spans)
        self.spans.append(record)
        record[2] = perf_counter()
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    def at_root(self) -> bool:
        """Whether the innermost open span is a Session call's root."""
        return bool(self._stack) and self.spans[self._stack[-1]][1] == SESSION

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name: str, layer: Optional[str], fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span (a no-op wrapper while inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        index = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(tracer, args, kwargs, result)`` runs after each recorded
        call, to take counts where the work happens.
        """
        original = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the entry points of every layer in ``LAYERS``."""
        for owner, attr, layer, after in _entry_points(self):
            self.wrap(owner, attr, layer, after)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.active:
            return
        if phase == "start":
            self.open("gc", "runtime.gc")
        elif self._stack and self.spans[self._stack[-1]][1] == "runtime.gc":
            self.close(self._stack[-1])

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap: the client is one thread)."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for name, layer, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "layer": layer, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# layer entry points
# ----------------------------------------------------------------------
#: Every layer the traced run reports, in path order.  Spans of layer
#: ``None`` (the request body) are time no layer claims.
LAYERS = (
    "serving",
    "cache.parse",
    "cache.plan",
    "cache.result",
    "compile",
    "exec.scan_filter",
    "exec.aggregate",
    "search",
    "ingest.convert",
    "ingest.commit",
    "storage",
    "index",
    "bus",
    "cache.invalidate",
    "recovery",
    "ivm",
    "subscriptions",
    "runtime.gc",
)


def _entry_points(tracer: Tracer):
    from repro.cache.bus import InvalidationBus
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.plancache import PlanCache
    from repro.cache.resultcache import ResultCache
    from repro.core.appliance import Impliance
    from repro.exec.operators import GroupAggregator
    from repro.exec.parallel import ParallelExecutor
    from repro.index.manager import IndexManager
    from repro.ingest.pipeline import IngestPipeline
    from repro.query.compile import CompiledPipeline
    from repro.query.continuous import SubscriptionManager
    from repro.query.keyword import KeywordSearch
    from repro.query.materialized import MaterializationManager
    from repro.serving.scheduler import RequestScheduler
    from repro.storage.recovery import ContinuousReplicator

    # The scheduler's own cost is execute_inline minus the request body,
    # so the body of a request a Session call makes gets a span of its
    # own (layer None: unattributed).  A request made inside another
    # layer (a subscription's notification) gets no span: scheduler and
    # body are charged to that layer.
    original_execute = RequestScheduler.__dict__["execute_inline"]

    def execute_inline(self, request):
        if not tracer.active or not tracer.at_root():
            return original_execute(self, request)
        fn = request.fn
        if fn is not None:
            request.fn = lambda: tracer.call("request.body", None, fn)
        return tracer.call("RequestScheduler.execute_inline", "serving",
                           original_execute, self, request)

    execute_inline.__name__ = "execute_inline"
    RequestScheduler.execute_inline = execute_inline
    tracer._patches.append((RequestScheduler, "execute_inline", original_execute))

    # A compiled-tier miss calls ``build``; wrap it to count misses and
    # time the build apart from the lookup.
    original_compiled = PlanCache.__dict__["compiled"]

    def compiled(self, fingerprint, build):
        if not tracer.active:
            return original_compiled(self, fingerprint, build)

        def timed_build():
            tracer.count("compile.builds")
            return tracer.call("compile.build", "compile", build)

        tracer.count("compile.lookups")
        return original_compiled(self, fingerprint, timed_build)

    compiled.__name__ = "compiled"
    PlanCache.compiled = compiled
    tracer._patches.append((PlanCache, "compiled", original_compiled))

    def result_lookup(t, args, kwargs, result):
        t.count("cache.result.lookups")
        if result is not None:
            t.count("cache.result.hits")

    def invalidated(t, args, kwargs, result):
        t.count("cache.invalidations", result)

    # Documents indexed, counted once whichever entry point indexed them
    # (index_batch falls back to index_document for some batches).
    def indexed_batch(t, args, kwargs, result):
        t.count("index.docs", len(args[1]))

    def indexed_one(t, args, kwargs, result):
        parent = t.spans[t._stack[-1]][0] if t._stack else ""
        if parent != "IndexManager.index_batch" and not args[1].is_tombstone:
            t.count("index.docs")

    return [
        (PlanCache, "parse", "cache.parse", None),
        (PlanCache, "physical", "cache.plan", None),
        (PlanCache, "compiled", "compile", None),
        (ResultCache, "lookup", "cache.result", result_lookup),
        (ResultCache, "invalidate_table", "cache.invalidate", invalidated),
        (CompiledPipeline, "execute", "exec.scan_filter", None),
        (GroupAggregator, "add_batch", "exec.aggregate", None),
        (GroupAggregator, "finish", "exec.aggregate", None),
        (KeywordSearch, "search", "search", None),
        (Impliance, "ingest", "ingest.convert", None),
        (Impliance, "ingest_many", "ingest.convert", None),
        (IngestPipeline, "run_documents", "ingest.commit", None),
        (ParallelExecutor, "ingest_batch", "storage", None),
        (IndexManager, "index_batch", "index", indexed_batch),
        (IndexManager, "index_document", "index", indexed_one),
        (InvalidationBus, "publish_put_batch", "bus", None),
        (CacheHierarchy, "_on_changes", "cache.invalidate", None),
        (ContinuousReplicator, "on_change_set", "recovery", None),
        (MaterializationManager, "on_changes", "ivm", None),
        (SubscriptionManager, "on_changes", "subscriptions", None),
    ]


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, client, delta: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced loop.

    Times (``*_ms``) are a layer's self time per Session call; counts are
    per Session call; ``layer.<name>.share`` is a layer's self time over
    the wall time of all Session calls, and ``unattributed_share`` is the
    rest (Session and request-body code outside every wrapped layer), so
    the shares sum to one.  *delta* holds the loop's changes of
    ``client.counters()``.
    """
    spans = tracer.spans
    own = tracer.self_times()
    root: List[int] = []
    for i, span in enumerate(spans):
        root.append(i if span[4] < 0 else root[span[4]])
    sessions = [i for i, span in enumerate(spans) if span[1] == SESSION]
    calls = len(sessions)
    if calls == 0:
        raise RuntimeError("the traced loop made no Session call")
    wall = sum(spans[i][3] - spans[i][2] for i in sessions)
    self_by: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls_by: Dict[str, int] = {layer: 0 for layer in LAYERS}
    unattributed = 0.0
    build = 0.0
    gc_total = 0.0
    gc_max = 0.0
    for i, (name, layer, start, end, parent, _) in enumerate(spans):
        if layer == "runtime.gc":
            gc_total += end - start
            gc_max = max(gc_max, end - start)
        if name == "compile.build":
            build += own[i]
        if spans[root[i]][1] != SESSION:
            continue  # e.g. a collection between two calls
        if layer == SESSION or layer is None:
            unattributed += own[i]
        else:
            self_by[layer] += own[i]
            calls_by[layer] += 1
    counts = tracer.counts

    def per_call_ms(seconds: float) -> float:
        return seconds * 1000.0 / calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    storage = client.app.storage_stats()
    stored_bytes = storage["row_bytes_stored"] + storage["columnar"]["bytes_encoded"]
    out: Dict[str, Tuple[float, str]] = {
        "serving.self_ms": (per_call_ms(self_by["serving"]), "ms"),
        "cache.parse_ms": (per_call_ms(self_by["cache.parse"]), "ms"),
        "cache.plan_ms": (per_call_ms(self_by["cache.plan"]), "ms"),
        "cache.result_lookup_ms": (per_call_ms(self_by["cache.result"]), "ms"),
        "cache.result_hit_ratio": (
            ratio(counts.get("cache.result.hits", 0), counts.get("cache.result.lookups", 0)),
            "ratio"),
        "cache.invalidations": (counts.get("cache.invalidations", 0) / calls, "count"),
        "compile.hit_ratio": (
            1.0 - ratio(counts.get("compile.builds", 0), counts.get("compile.lookups", 0))
            if counts.get("compile.lookups") else 0.0, "ratio"),
        "compile.build_ms": (per_call_ms(build), "ms"),
        "exec.scan_filter_ms": (per_call_ms(self_by["exec.scan_filter"]), "ms"),
        "exec.rows_in_per_row_out": (ratio(delta["scan_rows"], delta["result_rows"]), "ratio"),
        "exec.aggregate_ms": (per_call_ms(self_by["exec.aggregate"]), "ms"),
        "search_ms": (per_call_ms(self_by["search"]), "ms"),
        "ingest.convert_ms": (per_call_ms(self_by["ingest.convert"]), "ms"),
        "ingest.commit_self_ms": (per_call_ms(self_by["ingest.commit"]), "ms"),
        "storage.put_ms": (per_call_ms(self_by["storage"]), "ms"),
        "storage.bytes_per_user_byte": (ratio(stored_bytes, client.user_bytes), "ratio"),
        "index.index_ms": (per_call_ms(self_by["index"]), "ms"),
        "index.docs_indexed_per_doc": (
            ratio(counts.get("index.docs", 0), delta["docs_written"]), "ratio"),
        "bus.publish_self_ms": (per_call_ms(self_by["bus"]), "ms"),
        "bus.publications": (delta["bus.publications"] / calls, "count"),
        "recovery.ship_ms": (per_call_ms(self_by["recovery"]), "ms"),
        "recovery.snapshots": (delta["recovery.snapshots"] / calls, "count"),
        "recovery.shipped_bytes_per_user_byte": (
            ratio(delta["recovery.shipped_bytes"], delta["user_bytes"]), "ratio"),
        "ivm.apply_ms": (per_call_ms(self_by["ivm"]), "ms"),
        "ivm.fallbacks": (delta["ivm.fallbacks"] / calls, "count"),
        "subscriptions.notify_ms": (per_call_ms(self_by["subscriptions"]), "ms"),
        "runtime.gc_ms": (per_call_ms(gc_total), "ms"),
        "runtime.gc_max_pause_ms": (gc_max * 1000.0, "ms"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.calls"] = (calls_by[layer] / calls, "count")
        out[f"layer.{layer}.share"] = (self_by[layer] / wall, "ratio")
    out["unattributed_share"] = (unattributed / wall, "ratio")
    out["session.calls"] = (float(calls), "count")
    return out
