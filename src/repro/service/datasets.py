"""The dataset lifecycle: registration, lookup, stats, and hot-reload.

A :class:`DatasetRegistry` owns every open dataset a
:class:`~repro.service.service.GMineService` serves: the shared tree, the
optional full graph, the backing :class:`~repro.storage.gtree_store.GTreeStore`,
and the content fingerprint that keys the result cache.  Pulling this out
of the service proper gives the lifecycle a seam of its own:

* a :class:`DatasetHandle` is an **immutable snapshot**: tree, graph,
  store and fingerprint always describe one consistent dataset state, so
  a request that resolved its handle before a reload keeps computing (and
  cache-keying) against exactly the content it started with;
* :meth:`DatasetRegistry.reload` reopens a store-backed dataset from its
  file (picking up a rebuilt ``.gtree``) and atomically **swaps in a new
  handle**, reporting the old fingerprint so the service can invalidate
  the stale cache entries — the machinery behind
  ``POST /v1/datasets/<name>/reload``.  The superseded store is *retired*,
  not closed: live sessions and in-flight queries still hold engines over
  it, and closing their pager mid-query would turn the typed-error
  guarantee into raw ``ValueError``\\ s.  Retired stores are closed when
  the registry drains at service shutdown;
* :meth:`DatasetHandle.exec_spec` flattens a dataset to the picklable
  :class:`~repro.service.executors.DatasetExecSpec` process workers use to
  reopen it by ``(path, fingerprint)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..api.plans import prepared_applies
from ..api.registry import CanonicalizationContext
from ..core.editing import GraphEditor, apply_edit_script
from ..core.engine import GMineEngine
from ..core.gtree import GTree
from ..errors import DatasetNotFoundError, DatasetReadOnlyError, ServiceError
from ..graph.graph import Graph
from ..graph.io import load_graph_auto
from ..graph.matrix import PreparedGraph, PreparedViewCache
from ..storage.gtree_store import GTreeStore
from .executors import DatasetExecSpec

DEFAULT_DATASET = "default"


def partition_changes(
    old_tree: GTree,
    old_parts: Dict[int, str],
    new_tree: GTree,
    new_parts: Dict[int, str],
) -> "tuple[Dict[str, str], Dict[str, str]]":
    """Diff two partition-fingerprint maps by community label.

    Returns ``(changed, retired)``: ``changed`` maps each community label
    whose sub-fingerprint differs (or is new) to its **new** value — the
    payload change-feed subscribers receive; ``retired`` maps every label
    whose **old** sub-fingerprint is no longer served (changed or
    vanished) to that old value — the keys whose cache entries and
    prepared views are now stale.
    """
    old_by_label = {
        old_tree.node(node_id).label: digest
        for node_id, digest in old_parts.items()
        if old_tree.has_node(node_id)
    }
    changed: Dict[str, str] = {}
    retired: Dict[str, str] = {}
    for node_id, digest in new_parts.items():
        label = new_tree.node(node_id).label
        if old_by_label.get(label) != digest:
            changed[label] = digest
            if label in old_by_label:
                retired[label] = old_by_label[label]
    for label, digest in old_by_label.items():
        if not new_tree.has_label(label):
            retired[label] = digest
    return changed, retired


class _PreparedCell:
    """One lazily built, thread-safe :class:`PreparedGraph` slot.

    Lives on a :class:`DatasetHandle`, which is an immutable snapshot of
    one dataset state — so the cell's lifetime *is* the invalidation
    policy: a hot-reload swaps in a replacement handle with a fresh,
    empty cell, and the old preparation retires with the old handle.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._prepared: Optional[PreparedGraph] = None

    def get(self, graph: Graph, fingerprint: str) -> PreparedGraph:
        with self._lock:
            if self._prepared is None:
                self._prepared = PreparedGraph.from_graph(
                    graph, fingerprint=fingerprint
                )
            return self._prepared

    @property
    def ready(self) -> bool:
        return self._prepared is not None


class DatasetContext(CanonicalizationContext):
    """Canonicalization context over one dataset's tree: ids -> labels."""

    def __init__(self, tree: GTree) -> None:
        self._tree = tree

    def resolve_community(self, value: Any) -> Any:
        # Communities may be addressed by tree-node id or label; key on the
        # label so both spellings share one cache entry.
        if isinstance(value, int) and self._tree.has_node(value):
            return self._tree.node(value).label
        return value

    @property
    def tree(self) -> GTree:
        return self._tree


@dataclass(frozen=True)
class DatasetHandle:
    """One registered dataset: shared tree, optional graph/store, fingerprint.

    Frozen on purpose: a handle is a consistent snapshot of one dataset
    state.  Hot-reload never mutates a handle — it swaps a replacement
    into the registry — so any code holding a handle (a dispatching
    request, a session's metrics closure) sees tree, store, context and
    fingerprint that always agree with each other.
    """

    name: str
    tree: GTree
    graph: Optional[Graph]
    store: Optional[GTreeStore]
    fingerprint: str
    owns_store: bool = False
    graph_path: Optional[str] = None
    context: Optional[DatasetContext] = None
    #: Per-community Merkle sub-fingerprints (tree-node id -> digest),
    #: computed once per handle; the scoped-cache and cursor machinery
    #: read them through :meth:`scope_fingerprint`.
    partition_fingerprints: Optional[Dict[int, str]] = field(
        default=None, repr=False, compare=False
    )
    #: Registry-shared, fingerprint-keyed PreparedGraph residency; views
    #: for untouched partitions survive handle swaps because their keys
    #: (sub-fingerprints) do.  ``None`` falls back to the per-handle cell.
    prepared_views: Optional[PreparedViewCache] = field(
        default=None, repr=False, compare=False
    )
    # Per-handle PreparedGraph slot (excluded from comparison/repr: it is
    # a cache, not part of the dataset's identity).
    prepared_cell: _PreparedCell = field(
        default_factory=_PreparedCell, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.context is None:
            object.__setattr__(self, "context", DatasetContext(self.tree))
        if self.partition_fingerprints is None:
            if self.store is not None:
                parts = self.store.partition_fingerprints
            else:
                parts = self.tree.partition_fingerprints()
            object.__setattr__(self, "partition_fingerprints", dict(parts))

    @property
    def store_path(self) -> Optional[str]:
        """The backing store file, when this dataset has one."""
        return None if self.store is None else str(self.store.path)

    def scope_fingerprint(self, community: Any = None) -> str:
        """The content fingerprint governing one request scope.

        ``None`` (widest scope) is the dataset's Merkle root; a community
        label or tree-node id resolves to that partition's sub-fingerprint.
        Unknown communities fall back to the root — strictly safe: the
        root changes on *every* edit, so a fallback key can never serve a
        stale entry, it only invalidates more than necessary.
        """
        if community is None:
            return self.fingerprint
        node_id: Optional[int] = None
        if isinstance(community, str) and self.tree.has_label(community):
            node_id = self.tree.by_label(community).node_id
        elif isinstance(community, int) and not isinstance(community, bool):
            if self.tree.has_node(community):
                node_id = community
        if node_id is None:
            return self.fingerprint
        assert self.partition_fingerprints is not None
        return self.partition_fingerprints.get(node_id, self.fingerprint)

    def prepared_graph(self) -> Optional[PreparedGraph]:
        """The dataset's widest-scope :class:`PreparedGraph` (built once).

        Only datasets served with a full graph have one — the widest scope
        of a store-only dataset is re-materialised per request and has no
        stable identity to prepare against.  When the registry shares a
        :class:`PreparedViewCache`, the view is keyed by the Merkle root
        there (so an unchanged dataset re-registered under a new handle —
        a no-op reload — reuses it); otherwise the per-handle cell serves.
        The preparation is private to this process: process and shard
        workers build their own, so dropping a view on edit or reload can
        never pull arrays out from under a running kernel.
        """
        if self.graph is None:
            return None
        if self.prepared_views is not None:
            return self.prepared_views.get(
                self.fingerprint,
                lambda: PreparedGraph.from_graph(
                    self.graph, fingerprint=self.fingerprint
                ),
            )
        return self.prepared_cell.get(self.graph, self.fingerprint)

    def community_prepared(
        self, scope: Any, subgraph: Any
    ) -> Optional[PreparedGraph]:
        """Sub-fingerprint-keyed preparation for a community-scope kernel.

        The materialised community subgraph is fresh per request, but its
        *content* is addressed by the partition's Merkle sub-fingerprint —
        so the first kernel run over a community pays the O(E) conversion
        and every later run (including runs after edits that did not touch
        this partition) reuses the view.  Scopes that do not resolve to a
        known partition convert cold, exactly as before.
        """
        if self.prepared_views is None or subgraph is None or scope is None:
            return None
        if not isinstance(scope, (str, int)) or isinstance(scope, bool):
            return None
        sub_fingerprint = self.scope_fingerprint(scope)
        if sub_fingerprint == self.fingerprint:
            # Unresolved scope (or the root community itself): the root
            # fingerprint key is reserved for the full-graph preparation.
            return None
        return self.prepared_views.get(
            sub_fingerprint,
            lambda: PreparedGraph.from_graph(subgraph, fingerprint=sub_fingerprint),
        )

    def prepared_provider(self, scope: Any, subgraph: Any) -> Optional[PreparedGraph]:
        """The :class:`~repro.api.ops.OpContext` hook for this handle.

        Widest scope hands out the full-graph preparation only where
        :func:`~repro.api.plans.prepared_applies` says it may serve: the
        kernel really running on this handle's full graph.  Community
        scopes are served by :meth:`community_prepared` when a shared
        view cache is attached.
        """
        if prepared_applies(scope, subgraph, self.graph):
            return self.prepared_graph()
        return self.community_prepared(scope, subgraph)

    @property
    def kind(self) -> str:
        return "store" if self.store is not None else "tree"

    def exec_spec(self) -> DatasetExecSpec:
        """Flatten to the picklable spec process workers reopen datasets by."""
        return DatasetExecSpec(
            name=self.name,
            fingerprint=self.fingerprint,
            store_path=self.store_path,
            graph_path=self.graph_path,
            has_graph=self.graph is not None,
        )

    def make_engine(self, metrics_fn: Optional[Callable] = None) -> GMineEngine:
        """A fresh engine over the shared tree (cheap: focus + history only)."""
        return GMineEngine(
            self.tree, graph=self.graph, store=self.store, metrics_fn=metrics_fn
        )

    @property
    def mutable(self) -> bool:
        """Whether ``dataset.apply`` may edit this dataset in place.

        Only datasets served from an in-memory tree *with* a full graph
        qualify: the store pager is read-only (rebuild + reload is the
        write path for store-backed data), and edits without the full
        graph could not repair connectivity edges.
        """
        return self.store is None and self.graph is not None

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly row for ``GET /v1/datasets`` and ``/v1/stats``."""
        prepared_ready = self.prepared_cell.ready
        if self.prepared_views is not None:
            prepared_ready = (
                prepared_ready
                or self.prepared_views.peek(self.fingerprint) is not None
            )
        return {
            "name": self.name,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "store_path": self.store_path,
            "graph_path": self.graph_path,
            "tree_nodes": self.tree.num_tree_nodes,
            "partitions": 0 if self.partition_fingerprints is None
            else len(self.partition_fingerprints),
            "mutable": self.mutable,
            "prepared": prepared_ready,
        }


class DatasetRegistry:
    """Thread-safe name -> :class:`DatasetHandle` table with hot-reload."""

    def __init__(self, prepared_capacity: int = 64) -> None:
        self._lock = threading.RLock()
        self._handles: Dict[str, DatasetHandle] = {}
        # Stores superseded by reload.  They stay open — sessions and
        # in-flight queries may still hold engines over them — and are
        # closed when the registry drains at shutdown.
        self._retired_stores: List[GTreeStore] = []
        # Serialises reloads against each other so the slow I/O (store
        # reopen, graph parse) can run outside ``_lock`` without two
        # reloads racing on the same handle swap.  ``apply`` shares it:
        # a writer and a reload must never race on the same handle swap.
        self._reload_lock = threading.Lock()
        # Fingerprint-keyed PreparedGraph residency shared by every handle
        # this registry ever creates — the reason prepared views survive
        # the handle swap an edit performs.
        self.prepared_views = PreparedViewCache(capacity=prepared_capacity)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_tree(
        self,
        tree: GTree,
        graph: Optional[Graph] = None,
        name: str = DEFAULT_DATASET,
    ) -> DatasetHandle:
        """Share an in-memory G-Tree (and optionally its full graph)."""
        handle = DatasetHandle(
            name=name, tree=tree, graph=graph, store=None,
            fingerprint=tree.fingerprint(),
            prepared_views=self.prepared_views,
        )
        return self._register(handle)

    def register_store(
        self,
        store: Union[GTreeStore, str, Path],
        graph: Optional[Graph] = None,
        name: str = DEFAULT_DATASET,
        graph_path: Optional[Union[str, Path]] = None,
    ) -> DatasetHandle:
        """Share a stored G-Tree; a path is opened (and owned) by the registry.

        ``graph_path`` tells process workers where to reload the full graph
        from; without it a dataset served with a live ``graph`` falls back
        to in-parent execution (the workers could not reproduce widest-scope
        results).
        """
        if graph is None and graph_path is not None:
            # Load the graph before opening the store: a bad graph file
            # must not leak a freshly opened pager.
            graph = load_graph_auto(graph_path)
        owns = not isinstance(store, GTreeStore)
        if owns:
            store = GTreeStore(store)
        try:
            handle = DatasetHandle(
                name=name, tree=store.tree, graph=graph, store=store,
                fingerprint=store.fingerprint, owns_store=owns,
                graph_path=None if graph_path is None else str(graph_path),
                prepared_views=self.prepared_views,
            )
            return self._register(handle)
        except Exception:
            if owns:
                store.close()
            raise

    def _register(self, handle: DatasetHandle) -> DatasetHandle:
        with self._lock:
            if handle.name in self._handles:
                raise ServiceError(f"dataset {handle.name!r} is already registered")
            self._handles[handle.name] = handle
            return handle

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._handles)

    def get(self, name: Optional[str]) -> DatasetHandle:
        """Resolve a dataset name (``None`` = the only/default dataset)."""
        with self._lock:
            if name is None:
                if len(self._handles) == 1:
                    return next(iter(self._handles.values()))
                if DEFAULT_DATASET in self._handles:
                    return self._handles[DEFAULT_DATASET]
                raise ServiceError(
                    "dataset name required: service has "
                    f"{len(self._handles)} datasets registered"
                )
            if name not in self._handles:
                raise DatasetNotFoundError(f"no dataset registered under {name!r}")
            return self._handles[name]

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [self._handles[name].describe() for name in sorted(self._handles)]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def reload(self, name: Optional[str]) -> Dict[str, Any]:
        """Reopen a dataset from its backing file; returns a change report.

        Store-backed datasets get a fresh :class:`GTreeStore` over the same
        path (picking up a rebuilt file) and, when ``graph_path`` is known,
        a freshly loaded graph; a **replacement handle** over the new
        resources is swapped into the registry atomically.  The superseded
        store is retired — kept open for the sessions and in-flight queries
        whose engines still read it — and closed at :meth:`drain`.  When
        the reopened content is byte-identical (``changed`` is false) the
        existing handle keeps serving and nothing is retired, so periodic
        no-op reloads cost no file handles.
        In-memory tree datasets get a re-fingerprinted handle over the same
        shared tree (covering live tree edits).  The caller is responsible
        for invalidating the previous fingerprint in its result cache — the
        report carries both fingerprints for exactly that.

        The slow part — reopening the store and re-parsing the graph file —
        happens *outside* the registry lock (queries on every dataset keep
        flowing during a multi-second reload); only the handle swap takes
        it.  Concurrent reloads are serialised by a dedicated mutex, so
        the handle read at the top is still the one swapped out below.
        """
        with self._reload_lock:
            with self._lock:
                handle = self.get(name)
            previous = handle.fingerprint
            if handle.store is not None:
                # Acquire every new resource *before* touching the registry:
                # a failed reopen or graph reload must leave the dataset
                # exactly as it was (fingerprint, store, graph, cache keys
                # all still consistent with each other).
                reopened = GTreeStore(handle.store.path)
                graph = handle.graph
                if handle.graph_path is not None:
                    try:
                        graph = load_graph_auto(handle.graph_path)
                    except Exception:
                        reopened.close()
                        raise
                replacement = DatasetHandle(
                    name=handle.name,
                    tree=reopened.tree,
                    graph=graph,
                    store=reopened,
                    fingerprint=reopened.fingerprint,
                    owns_store=True,
                    graph_path=handle.graph_path,
                    prepared_views=self.prepared_views,
                )
            else:
                replacement = DatasetHandle(
                    name=handle.name,
                    tree=handle.tree,
                    graph=handle.graph,
                    store=None,
                    fingerprint=handle.tree.fingerprint(),
                    graph_path=handle.graph_path,
                    context=handle.context,
                    prepared_views=self.prepared_views,
                )
            with self._lock:
                if self._handles.get(handle.name) is not handle:
                    # Drained (service shutdown) while we were reloading.
                    if replacement.store is not None:
                        replacement.store.close()
                    raise DatasetNotFoundError(
                        f"dataset {handle.name!r} was deregistered during reload"
                    )
                if handle.store is not None:
                    if replacement.fingerprint == previous:
                        # Same content: keep serving the existing handle
                        # and drop the redundant reopen, so periodic no-op
                        # reloads don't grow the retired-store parking lot.
                        replacement.store.close()
                        replacement = handle
                    elif handle.owns_store:
                        self._retired_stores.append(handle.store)
                self._handles[replacement.name] = replacement
            changed_partitions, retired_parts = partition_changes(
                handle.tree,
                dict(handle.partition_fingerprints or {}),
                replacement.tree,
                dict(replacement.partition_fingerprints or {}),
            )
            if replacement.fingerprint != previous:
                self.prepared_views.invalidate(previous)
                for stale in retired_parts.values():
                    self.prepared_views.invalidate(stale)
            return {
                "dataset": replacement.name,
                "kind": replacement.kind,
                "fingerprint": replacement.fingerprint,
                "previous_fingerprint": previous,
                "changed": replacement.fingerprint != previous,
                "changed_partitions": changed_partitions,
                "retired_partition_fingerprints": sorted(retired_parts.values()),
            }

    def apply(self, name: Optional[str], script: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Apply an edit script copy-on-write and swap in the edited handle.

        The write path mirrors :meth:`reload`'s discipline exactly —
        readers never block and never see a torn state:

        1. clone the current handle's graph and tree **outside** the
           registry lock (queries keep flowing while the script runs);
        2. run the script through :class:`~repro.core.editing.GraphEditor`
           against the private clone, then re-validate the tree;
        3. recompute the Merkle partition map and root fingerprint;
        4. swap a replacement handle in atomically.  In-flight requests
           that resolved the old handle keep computing (and cache-keying)
           against exactly the content they started with.

        A script that fails mid-way discards the clone — the served
        dataset is untouched, which is what makes ``dataset.apply``
        atomic.  A script whose net effect is nil (``changed`` false)
        keeps the existing handle, like a no-op reload.

        The report carries everything the service needs for
        partition-scoped invalidation and the change feed: the new and
        previous root fingerprints, the changed partitions with their new
        sub-fingerprints, and the retired sub-fingerprints whose cache
        entries are now stale.
        """
        with self._reload_lock:
            with self._lock:
                handle = self.get(name)
            if not handle.mutable:
                raise DatasetReadOnlyError(
                    f"dataset {handle.name!r} ({handle.kind}) cannot be edited "
                    "in place"
                    + (
                        "; rebuild the store file and POST "
                        f"/v1/datasets/{handle.name}/reload"
                        if handle.store is not None
                        else "; register it with a full graph to enable edits"
                    )
                )
            previous = handle.fingerprint
            old_parts = dict(handle.partition_fingerprints or {})
            assert handle.graph is not None
            graph = handle.graph.copy()
            tree = handle.tree.clone()
            editor = GraphEditor(graph, tree)
            records = apply_edit_script(editor, script)
            tree.assert_valid()
            new_parts = tree.partition_fingerprints()
            fingerprint = tree.fingerprint()
            changed_partitions, retired_parts = partition_changes(
                handle.tree, old_parts, tree, new_parts
            )
            replacement = DatasetHandle(
                name=handle.name,
                tree=tree,
                graph=graph,
                store=None,
                fingerprint=fingerprint,
                # The on-disk graph file (if any) no longer matches the
                # edited content; dropping the path routes execution to
                # the parent instead of letting workers warm stale bytes.
                graph_path=None,
                partition_fingerprints=new_parts,
                prepared_views=self.prepared_views,
            )
            changed = fingerprint != previous
            with self._lock:
                if self._handles.get(handle.name) is not handle:
                    raise DatasetNotFoundError(
                        f"dataset {handle.name!r} was deregistered during apply"
                    )
                if changed:
                    self._handles[replacement.name] = replacement
            if changed:
                # Retired preparations can never be keyed again (their
                # fingerprints are gone from every handle); drop them now
                # rather than waiting for LRU pressure.
                self.prepared_views.invalidate(previous)
                for stale in retired_parts.values():
                    self.prepared_views.invalidate(stale)
            return {
                "dataset": handle.name,
                "kind": (replacement if changed else handle).kind,
                "fingerprint": fingerprint if changed else previous,
                "previous_fingerprint": previous,
                "changed": changed,
                "edits": len(records),
                "touched_communities": sorted(
                    tree.node(node_id).label
                    for node_id in editor.touched_communities
                    if tree.has_node(node_id)
                ),
                "changed_partitions": changed_partitions,
                "retired_partition_fingerprints": sorted(retired_parts.values()),
            }

    def retired_store_count(self) -> int:
        """How many superseded stores are parked awaiting shutdown."""
        with self._lock:
            return len(self._retired_stores)

    def drain(self) -> List[DatasetHandle]:
        """Detach and return every handle; closes retired stores (shutdown).

        Also clears the shared prepared-view cache.
        """
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
            retired, self._retired_stores = self._retired_stores, []
        for store in retired:
            store.close()
        self.prepared_views.clear()
        return handles
