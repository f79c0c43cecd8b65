"""The GMine query service: shared datasets, many sessions, cached mining.

The paper's GMine is a single-user desktop tool.  This module turns the same
machinery into a multi-session query service:

* one :class:`GMineService` owns a shared :class:`~repro.core.gtree.GTree`
  (in-memory or backed by a :class:`~repro.storage.gtree_store.GTreeStore`)
  per registered dataset — the open handles live in a
  :class:`~repro.service.datasets.DatasetRegistry` that also implements
  hot-reload (``POST /v1/datasets/<name>/reload``),
* every user gets an independent :class:`ServiceSession` (its own focus and
  history) created/resumed/expired through the :class:`SessionManager`,
* every operation is **declared, not hand-dispatched**: the service executes
  whatever the GMine Protocol v2 registry (:mod:`repro.api.ops`) declares
  — dataset-scoped mining ops and session-scoped ops alike.
  Validation, canonicalization and cache keys all derive from each op's
  :class:`~repro.api.registry.OpSpec`, so the service has no per-op
  ``if/elif`` branching left,
* every **expensive** op compiles to a pure, picklable
  :class:`~repro.api.plans.ComputePlan` and runs on the configured
  :class:`~repro.service.executors.ExecutionBackend` —
  ``backend="inline"`` (calling thread), ``"process"`` (warm worker
  processes that pre-load stores by path+fingerprint and scale CPU-bound
  mining with cores) or ``"sharded"`` (one worker per G-Tree shard).
  Every venue computes on its own private prepared matrices.  Cheap ops
  always run in the parent; encoding always happens in the parent,
* results are memoised in a thread-safe :class:`~repro.service.cache.ResultCache`
  keyed by ``(tree fingerprint, operation, spec-ordered canonical args)``;
  with ``cache_path=`` the cache resides in a SQLite file shared across
  processes and restarts,
* :meth:`GMineService.batch` deduplicates identical requests in flight and
  fans independent ones out over a worker pool, with per-request error
  isolation: one failing request poisons only its own result.

Remote access lives in :mod:`repro.api`: the HTTP front-end and the
:class:`~repro.api.client.GMineClient` both route through this class.
"""

from __future__ import annotations

import logging
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..api.ops import DEFAULT_REGISTRY, DelegatedResult, OpContext, ServiceOpContext
from ..api.registry import OperationRegistry, OpSpec
from ..api.wire import error_code_for, exception_for_code
from ..core.builder import build_gtree
from ..core.gtree import GTree
from ..core.session import ExplorationSession
from ..errors import GMineError, InvalidArgumentError, ServiceError
from ..graph.graph import Graph
from ..graph.io import load_graph_auto
from ..storage.gtree_store import GTreeStore, save_gtree
from .cache import ResultCache, SQLiteCacheStore, StaleServe
from .datasets import DEFAULT_DATASET, DatasetHandle, DatasetRegistry
from .executors import ExecutionBackend, make_backend
from .feeds import ChangeFeed
from .resilience import Deadline
from .sessions import DEFAULT_SESSION_TTL, ServiceSession, SessionManager

logger = logging.getLogger(__name__)

#: Server-side ceiling on one ``dataset.subscribe`` long-poll wait.  Clients
#: wanting to wait longer re-issue the poll from the returned ``next_since``.
MAX_SUBSCRIBE_TIMEOUT = 30.0

#: Operations the default registry declares (kept for backward compatibility;
#: the authoritative source is ``GMineService.registry``).
OPERATIONS = DEFAULT_REGISTRY.names()


@dataclass
class QueryRequest:
    """One service request: an operation plus canonicalizable arguments."""

    operation: str
    args: Dict[str, Any] = field(default_factory=dict)
    dataset: Optional[str] = None
    #: Total latency budget in milliseconds (``None`` = no deadline).
    deadline_ms: Optional[float] = None

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryRequest":
        """Build a request from a JSON-ish dict (``op``/``operation`` keys)."""
        operation = payload.get("operation", payload.get("op"))
        if not operation:
            raise ServiceError(f"request payload has no operation: {payload!r}")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
        return cls(
            operation=str(operation),
            args=dict(payload.get("args", {})),
            dataset=payload.get("dataset"),
            deadline_ms=deadline_ms,
        )


@dataclass
class QueryResult:
    """Outcome of one request: either a value or an isolated error.

    ``code`` carries the stable GMine Protocol error code (taxonomy in
    :mod:`repro.api.wire`) alongside the raw exception type name, so both
    transports surface the same structured failure.
    """

    request: QueryRequest
    ok: bool
    value: Any = None
    error: str = ""
    error_type: str = ""
    code: str = ""
    cached: bool = False
    #: True when the value is an expired cache entry served because the
    #: backing computation failed (degraded mode); ``cached`` is also set.
    degraded: bool = False
    #: Structured extras for the wire error (e.g. a GPath parse error's
    #: source span); forwarded verbatim into ``WireError.details``.
    error_details: Optional[Dict[str, Any]] = None
    #: Scope fingerprint of the dataset snapshot that actually produced
    #: ``value`` (populated for streamable ops only).  The stream router
    #: stamps cursors with it, so a cursor issued for one content version
    #: can never serve pages computed on another — even when an edit
    #: lands between fingerprint read and dispatch.
    fingerprint: Optional[str] = None

    def unwrap(self) -> Any:
        """Return the value, re-raising the recorded failure as a typed error.

        The exception class is resolved from the structured error code —
        an expired session raises :class:`~repro.errors.SessionExpiredError`,
        a bad argument raises :class:`~repro.errors.InvalidArgumentError`,
        and so on; every one is a :class:`~repro.errors.GMineError`.
        """
        if not self.ok:
            message = (
                f"request {self.request.operation!r} failed: "
                f"{self.error_type}: {self.error}"
            )
            if self.code:
                raise exception_for_code(self.code, message)
            raise ServiceError(message)
        return self.value


class GMineService:
    """Concurrent multi-session query engine over shared G-Trees.

    Parameters
    ----------
    cache_capacity / cache_ttl:
        Sizing of the shared :class:`ResultCache`.
    session_ttl:
        Seconds of inactivity after which a session expires
        (``None`` disables expiry).
    max_workers:
        Worker threads used by :meth:`batch` (and the default worker count
        for pooled execution backends).
    clock:
        Injectable monotonic time source shared by cache and sessions.
    registry:
        The :class:`~repro.api.registry.OperationRegistry` to serve;
        defaults to the GMine Protocol v2 table.  Every op the service can
        execute is declared there — there is no other dispatch path.
    backend:
        Where expensive compute plans run: ``"inline"`` (default; the
        calling thread), ``"process"``/``"process:N"``,
        ``"sharded"``/``"sharded:N"``, or a pre-built
        :class:`~repro.service.executors.ExecutionBackend` instance.
    cache_path:
        Optional SQLite file for the result cache.  Entries persist across
        restarts and are shared by every process pointing at the same file
        (keys carry the tree fingerprint, so a rebuilt dataset never serves
        stale answers).
    fault_injector:
        Optional :class:`~repro.service.faults.FaultPlan` wired into the
        cache, worker and store seams (chaos testing; zero cost when
        absent).
    """

    def __init__(
        self,
        cache_capacity: int = 512,
        cache_ttl: Optional[float] = None,
        session_ttl: Optional[float] = DEFAULT_SESSION_TTL,
        max_workers: int = 4,
        clock=None,
        registry: Optional[OperationRegistry] = None,
        backend: Union[str, ExecutionBackend, None] = "inline",
        cache_path: Optional[Union[str, Path]] = None,
        fault_injector: Optional[Any] = None,
    ) -> None:
        import time

        clock = clock or time.monotonic
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._injector = fault_injector
        self._clock = clock
        store = None
        if cache_path is not None:
            store = SQLiteCacheStore(cache_path, capacity=cache_capacity)
        self.cache = ResultCache(
            capacity=cache_capacity,
            ttl=cache_ttl,
            clock=clock,
            store=store,
            injector=fault_injector,
        )
        self.backend = make_backend(backend, workers=max_workers)
        self.sessions = SessionManager(default_ttl=session_ttl, clock=clock)
        self.max_workers = max_workers
        self.registry_of_datasets = DatasetRegistry()
        self._lock = threading.RLock()
        self._compute_counts: Counter = Counter()
        self._executor: Optional[ThreadPoolExecutor] = None
        # Per-dataset change feeds driving ``dataset.subscribe``; created
        # lazily so subscribing to a dataset that never changes costs one
        # small ring buffer at most.
        self._feeds: Dict[str, ChangeFeed] = {}
        self._closing = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down workers, the backend, the cache store, and owned stores.

        The executor is detached under the lock but shut down outside it:
        in-flight worker tasks take the service lock themselves, so waiting
        for them while holding it would deadlock.  Stores are closed only
        after the workers have drained.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            feeds = list(self._feeds.values())
            self._closing = True
        # Wake long-polling subscribers first: worker threads blocked in
        # ``dataset.subscribe`` return immediately instead of sleeping out
        # their timeout, so the executor shutdown below cannot hang.
        for feed in feeds:
            feed.close()
        if executor is not None:
            executor.shutdown(wait=True)
        self.backend.close()
        for handle in self.registry_of_datasets.drain():
            if handle.owns_store and handle.store is not None:
                handle.store.close()
        self.cache.close()

    def __enter__(self) -> "GMineService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dataset registry
    # ------------------------------------------------------------------ #
    def register_tree(
        self, tree: GTree, graph: Optional[Graph] = None, name: str = DEFAULT_DATASET
    ) -> str:
        """Share an in-memory G-Tree (and optionally its full graph)."""
        handle = self.registry_of_datasets.register_tree(tree, graph=graph, name=name)
        self._warm_backend(handle)
        return handle.name

    def _warm_backend(self, handle: DatasetHandle) -> None:
        """Hint the backend that ``handle`` is now served (workers pre-load)."""
        self.backend.warm(handle.exec_spec(), handle)

    def register_store(
        self,
        store: Union[GTreeStore, str, Path],
        graph: Optional[Graph] = None,
        name: str = DEFAULT_DATASET,
        graph_path: Optional[Union[str, Path]] = None,
    ) -> str:
        """Share a stored G-Tree; a path is opened (and owned) by the service.

        ``graph_path`` lets process-backend workers reload the full graph
        by file; when a live ``graph`` is attached without it, plans that
        need the graph fall back to in-parent execution.
        """
        handle = self.registry_of_datasets.register_store(
            store, graph=graph, name=name, graph_path=graph_path
        )
        self._warm_backend(handle)
        return handle.name

    def ingest_dataset(
        self,
        name: str,
        path: Union[str, Path],
        fanout: int = 5,
        levels: int = 5,
        seed: int = 0,
        store: Optional[Union[str, Path]] = None,
    ) -> Dict[str, Any]:
        """Load a user graph file, build its G-Tree, register it live.

        The loading pipeline behind the ``dataset.ingest`` op and the
        ``gmine ingest`` CLI: read the graph (format by suffix — see
        :func:`~repro.graph.io.load_graph_auto`), partition it into a
        G-Tree, and register the result so every op, session, stream and
        cache immediately serves it.  With ``store`` the built tree is
        persisted and served from the store file (process workers reload
        the graph by ``path``); otherwise it stays in memory.
        """
        if name in self.registry_of_datasets.names():
            raise InvalidArgumentError(
                f"dataset {name!r} is already registered"
            )
        try:
            graph = load_graph_auto(path)
        except OSError as error:
            raise InvalidArgumentError(
                f"cannot read graph file {str(path)!r}: {error}"
            ) from error
        if graph.num_nodes == 0:
            raise InvalidArgumentError(
                f"graph file {str(path)!r} contains no vertices"
            )
        tree = build_gtree(graph, fanout=fanout, levels=levels, seed=seed)
        if store is not None:
            save_gtree(tree, store)
            registered = self.register_store(
                store, graph=graph, name=name, graph_path=path
            )
        else:
            registered = self.register_tree(tree, graph=graph, name=name)
        handle = self._dataset(registered)
        return {
            "dataset": registered,
            "fingerprint": handle.fingerprint,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "tree": {
                "communities": tree.num_tree_nodes,
                "leaves": len(tree.leaves()),
                "depth": tree.depth(),
            },
            "store": None if store is None else str(store),
            "source": str(path),
        }

    def datasets(self) -> List[str]:
        """Names of every registered dataset."""
        return self.registry_of_datasets.names()

    def describe_datasets(self) -> List[Dict[str, Any]]:
        """Full dataset table: kind, fingerprint, backing paths."""
        return self.registry_of_datasets.describe()

    def reload_dataset(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Hot-reload a dataset from its backing file and invalidate its cache.

        Reopens the store (picking up a rebuilt ``.gtree``), swaps a fresh
        immutable :class:`~repro.service.datasets.DatasetHandle` into the
        registry, drops every cached result keyed by the *previous*
        fingerprint, and re-warms process workers.  Live sessions and
        requests already dispatched keep working: they hold the old handle,
        whose store stays open (retired, closed at shutdown) — everything
        they compute is keyed by the old fingerprint against the old tree,
        a consistent pair, so nothing stale is ever served under the new
        key and nothing wrong under the old one.
        """
        report = self.registry_of_datasets.reload(name)
        report["invalidated"] = self._invalidate_for(report)
        self._warm_backend(self.registry_of_datasets.get(report["dataset"]))
        if report["changed"]:
            self._publish_change(report, kind="reload")
        return report

    def apply_dataset(
        self,
        name: Optional[str] = None,
        script: Sequence[Dict[str, Any]] = (),
    ) -> Dict[str, Any]:
        """Apply an edit script to a mutable dataset (``dataset.apply``).

        Delegates the copy-on-write edit and handle swap to
        :meth:`~repro.service.datasets.DatasetRegistry.apply`, then does the
        service-side bookkeeping the swap mandates: drops every cached
        result keyed by the previous **root** fingerprint or by a retired
        partition sub-fingerprint (entries for untouched communities keep
        their keys and survive), and publishes the change event subscribers
        long-polling ``dataset.subscribe`` are waiting on.
        """
        report = self.registry_of_datasets.apply(name, list(script))
        report["invalidated"] = self._invalidate_for(report)
        if report["changed"]:
            self._warm_backend(self._dataset(report["dataset"]))
            self._publish_change(report, kind="apply")
        return report

    def subscribe(
        self,
        dataset: Optional[str] = None,
        since: int = 0,
        timeout: float = 0.0,
        community: Optional[Union[int, str]] = None,
    ) -> Dict[str, Any]:
        """Long-poll a dataset's change feed (``dataset.subscribe``).

        Returns every change event after sequence number ``since``
        (optionally filtered to those touching ``community``), waiting up
        to ``timeout`` seconds (capped server-side at
        :data:`MAX_SUBSCRIBE_TIMEOUT`) for one to arrive.  The reply
        always carries the dataset's **current** root fingerprint and the
        ``next_since`` watermark to resume from, so a poll loop never
        misses or re-reads an event; ``lagged`` warns that the bounded
        feed history overflowed the gap and a full resync is in order.
        """
        handle = self._dataset(dataset)
        scope = community
        if (
            isinstance(scope, int)
            and not isinstance(scope, bool)
            and handle.tree.has_node(scope)
        ):
            scope = handle.tree.node(scope).label
        feed, wait = self.subscribe_feed(handle.name, timeout)
        events, lagged, next_since = feed.wait_for(
            int(since), wait, scope if isinstance(scope, str) else None
        )
        # Re-resolve for the freshest fingerprint (the dataset may have
        # been swapped while we waited) — but a wake caused by shutdown
        # finds the registry already cleared, so fall back to the handle
        # resolved at entry rather than failing the (clean) long-poll.
        try:
            fingerprint = self._dataset(dataset).fingerprint
        except GMineError:
            fingerprint = handle.fingerprint
        return {
            "dataset": handle.name,
            "fingerprint": fingerprint,
            "since": int(since),
            "next_since": next_since,
            "lagged": lagged,
            "events": [event.as_payload() for event in events],
        }

    def subscribe_feed(
        self, dataset: Optional[str], timeout: float
    ) -> Tuple[ChangeFeed, float]:
        """The feed a ``dataset.subscribe`` waits on and its capped wait.

        The hand-off the HTTP server parks long-polls with: it listens on
        the feed (:meth:`ChangeFeed.add_listener`) for at most the
        returned number of seconds instead of blocking a thread in
        :meth:`subscribe`.
        """
        wait = min(max(0.0, float(timeout)), MAX_SUBSCRIBE_TIMEOUT)
        return self._feed(self._dataset(dataset).name), wait

    def _feed(self, name: str) -> ChangeFeed:
        with self._lock:
            feed = self._feeds.setdefault(name, ChangeFeed(injector=self._injector))
            if self._closing:
                # A long-poll that races service shutdown must not park on
                # a fresh feed nobody will ever wake.
                feed.close()
            return feed

    def _invalidate_for(self, report: Dict[str, Any]) -> int:
        """Drop cache entries retired by one apply/reload change report.

        The previous root fingerprint keys every widest-scope entry; each
        retired partition sub-fingerprint keys the entries scoped to a
        community the change touched.  Entries keyed by a *surviving*
        sub-fingerprint are deliberately left in place — that survival is
        the point of partition-scoped keys.

        Invalidation is best-effort residency cleanup: by the time it runs
        the handle swap has already committed, and every retired key is
        unreachable anyway (cache keys derive from the fingerprints the
        *current* handle serves).  A failing cache store therefore must not
        fail the edit or swallow its change event; failures are counted in
        the report's ``invalidation_errors`` and logged.
        """
        if not report["changed"]:
            return 0
        invalidated = 0
        errors = 0
        stale_fingerprints = (
            report["previous_fingerprint"],
            *report.get("retired_partition_fingerprints", ()),
        )
        for stale in stale_fingerprints:
            try:
                invalidated += self.cache.invalidate_fingerprint(stale)
            except Exception:  # noqa: BLE001 — residency cleanup only
                errors += 1
                logger.warning(
                    "cache invalidation failed for retired fingerprint %s "
                    "of dataset %r; entries are unreachable and will age out",
                    stale, report["dataset"], exc_info=True,
                )
        if errors:
            report["invalidation_errors"] = errors
        return invalidated

    def _publish_change(self, report: Dict[str, Any], kind: str) -> None:
        # The edit has already committed; a broken feed (or an injected
        # ``feed.publish`` fault) must not turn a successful apply into an
        # error.  Subscribers that miss the event resync via ``lagged``.
        try:
            self._feed(report["dataset"]).publish(
                dataset=report["dataset"],
                kind=kind,
                fingerprint=report["fingerprint"],
                previous_fingerprint=report["previous_fingerprint"],
                changed_partitions=dict(report.get("changed_partitions", {})),
                edits=int(report.get("edits", 0)),
            )
        except Exception:  # noqa: BLE001 — notification is best-effort
            logger.warning(
                "change-feed publish failed for dataset %r (%s); subscribers "
                "will observe the change as a lag/resync",
                report["dataset"], kind, exc_info=True,
            )

    def fingerprint(self, dataset: Optional[str] = None) -> str:
        """The cache-key fingerprint of a dataset's tree."""
        return self._dataset(dataset).fingerprint

    def stream_fingerprint(
        self, dataset: Optional[str], operation: str, args: Dict[str, Any]
    ) -> str:
        """The content fingerprint a stream cursor for this request pins.

        Partition-scoped ops pin the community's Merkle sub-fingerprint, so
        a cursor over a community an edit did not touch stays valid across
        ``dataset.apply``; everything else pins the root, expiring on any
        change.  The router validates resumed cursors against this value.
        """
        spec = self.registry.get(operation)
        if spec.scope == "session":
            # Session-context variants stream against the *session's*
            # dataset, and a defaulted community resolves to its focus —
            # mirroring the handler's delegation, so the cursor pins the
            # very sub-fingerprint the delegated dispatch keys by.
            canonical = spec.canonicalize(dict(args))
            session = self.peek_session(canonical["session_id"])
            handle = self._dataset(session.dataset)
            if spec.partition_arg is None:
                return handle.fingerprint
            scope = handle.context.resolve_community(
                canonical.get(spec.partition_arg)
            )
            if scope is None:
                scope = session.engine.focus.label
            return handle.scope_fingerprint(scope)
        handle = self._dataset(dataset)
        if spec.scope != "dataset" or spec.partition_arg is None:
            return handle.fingerprint
        canonical = spec.canonicalize(dict(args), handle.context)
        return self._scope_fp(handle, spec, canonical)

    def describe_ops(self) -> List[Dict[str, Any]]:
        """The registry's op table (name, schema, cacheability, cost class)."""
        return self.registry.describe()

    def _dataset(self, name: Optional[str]) -> DatasetHandle:
        return self.registry_of_datasets.get(name)

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #
    def open_session(
        self,
        dataset: Optional[str] = None,
        ttl: Optional[float] = None,
        focus: Optional[Union[int, str]] = None,
        name: str = "session",
    ) -> ServiceSession:
        """Create an independent exploration session over a shared dataset.

        The session's engine routes its metric computations through the
        shared result cache, so interactive calls benefit from (and feed)
        the same memoisation as direct service calls.
        """
        handle = self._dataset(dataset)
        engine = handle.make_engine(metrics_fn=self._session_metrics_fn(handle))
        session = self.sessions.create(handle.name, engine, ttl=ttl, name=name)
        if focus is not None:
            if isinstance(focus, int):
                focus = handle.tree.node(focus).label
            session.recording.focus(focus)
        return session

    def resume_session(self, session_id: str) -> ServiceSession:
        """Return a live session, refreshing its TTL.

        Raises the structured taxonomy errors —
        :class:`~repro.errors.SessionExpiredError` for an aged-out id and
        :class:`~repro.errors.SessionNotFoundError` for one never issued —
        which both transports map to ``SESSION_EXPIRED`` /
        ``SESSION_NOT_FOUND`` wire codes.
        """
        return self.sessions.resume(session_id)

    def restore_session(
        self, payload: Dict[str, Any], dataset: Optional[str] = None
    ) -> ServiceSession:
        """Recreate a session from a serialized ``state_dict`` payload.

        The focus, bookmarks and recorded steps come back; the session gets
        a fresh id (state files can be restored more than once).
        """
        handle = self._dataset(dataset or payload.get("dataset"))
        engine = handle.make_engine(metrics_fn=self._session_metrics_fn(handle))
        recording = ExplorationSession.restore(engine, payload)
        session = self.sessions.create(
            handle.name, engine, name=recording.name
        )
        session.recording = recording
        return session

    def peek_session(self, session_id: str) -> ServiceSession:
        """Return a live session without refreshing its TTL (read-only)."""
        return self.sessions.peek(session_id)

    def close_session(self, session_id: str) -> None:
        """End a session explicitly (idempotent)."""
        self.sessions.close(session_id)

    def _session_metrics_fn(self, handle: DatasetHandle):
        """Metrics seam injected into session engines: cache by community.

        The cache key is built through the registry's ``metrics`` spec, so a
        session's interactive call and a direct service call for the same
        community share one cache entry by construction.
        """
        spec = self.registry.get("metrics")

        def metrics_fn(subgraph: Graph, community_label: str, hop_sample_size):
            canonical = spec.canonicalize(
                {"community": community_label, "hop_sample_size": hop_sample_size},
                handle.context,
            )
            key = spec.cache_key(self._scope_fp(handle, spec, canonical), canonical)
            return self.cache.get_or_compute(
                key,
                lambda: self._computed(
                    "metrics",
                    lambda: _metrics_on_subgraph(subgraph, canonical),
                ),
            )

        return metrics_fn

    # ------------------------------------------------------------------ #
    # cached operations
    # ------------------------------------------------------------------ #
    def call(self, operation: str, dataset: Optional[str] = None, **args) -> Any:
        """Execute one registered operation through the cache; raises on failure."""
        spec = self.registry.get(operation)
        if spec.scope != "dataset":
            value, _, _, _ = self._dispatch_session(
                spec, self._session_args(spec, args, dataset)
            )
            return value
        handle = self._dataset(dataset)
        value, _, _ = self._dispatch(handle, operation, args)
        return value

    def metrics(self, community=None, dataset=None, hop_sample_size=None):
        """Cached subgraph metric suite for a community (root by default)."""
        return self.call(
            "metrics", dataset=dataset,
            community=community, hop_sample_size=hop_sample_size,
        )

    def rwr(
        self,
        sources: Sequence,
        community=None,
        dataset=None,
        restart_probability: float = 0.15,
        solver: str = "power",
    ):
        """Cached RWR steady state over a community (or the full graph)."""
        return self.call(
            "rwr", dataset=dataset,
            sources=list(sources), community=community,
            restart_probability=restart_probability, solver=solver,
        )

    def connection_subgraph(
        self,
        sources: Sequence,
        community=None,
        dataset=None,
        budget: int = 30,
        restart_probability: float = 0.15,
    ):
        """Cached multi-source connection-subgraph extraction."""
        return self.call(
            "connection_subgraph", dataset=dataset,
            sources=list(sources), community=community,
            budget=budget, restart_probability=restart_probability,
        )

    def connectivity(self, community=None, dataset=None):
        """Cached connectivity edges among a community's children."""
        return self.call("connectivity", dataset=dataset, community=community)

    def inspect_edge(self, community_a, community_b, dataset=None):
        """Cached cross-edge inspection between two communities."""
        return self.call(
            "inspect_edge", dataset=dataset,
            community_a=community_a, community_b=community_b,
        )

    # ------------------------------------------------------------------ #
    # request execution and batching
    # ------------------------------------------------------------------ #
    def execute(self, request: Union[QueryRequest, Dict[str, Any]]) -> QueryResult:
        """Run one request, converting any failure into an errored result.

        Session-scoped operations dispatch through the same registry path
        as dataset ops; their failures — including an expired session
        inside a batch — carry the structured taxonomy code
        (``SESSION_EXPIRED``/``SESSION_NOT_FOUND``), never a generic one.
        """
        if isinstance(request, dict):
            request = QueryRequest.from_dict(request)
        fingerprint: Optional[str] = None
        degraded = False
        try:
            deadline = (
                None
                if request.deadline_ms is None
                else Deadline(request.deadline_ms, clock=self._clock)
            )
            spec = self.registry.get(request.operation)
            if spec.scope != "dataset":
                if deadline is not None:
                    deadline.check("dispatch")
                value, cached, degraded, fingerprint = self._dispatch_session(
                    spec,
                    self._session_args(spec, dict(request.args), request.dataset),
                )
            else:
                handle = self._dataset(request.dataset)
                value, cached, degraded = self._dispatch(
                    handle, request.operation, dict(request.args),
                    deadline=deadline,
                )
                if spec.stream is not None:
                    # Streamed results carry the fingerprint of the very
                    # snapshot the dispatch keyed by (same handle object),
                    # so cursors and content can never disagree.
                    canonical = spec.canonicalize(
                        dict(request.args), handle.context
                    )
                    fingerprint = self._scope_fp(handle, spec, canonical)
        except (GMineError, KeyError, TypeError, ValueError) as error:
            wire_details = getattr(error, "wire_details", None)
            return QueryResult(
                request=request,
                ok=False,
                error=str(error),
                error_type=type(error).__name__,
                code=error_code_for(error),
                error_details=(
                    wire_details() if callable(wire_details) else None
                ),
            )
        return QueryResult(
            request=request, ok=True, value=value, cached=cached,
            degraded=degraded, fingerprint=fingerprint,
        )

    def batch(
        self,
        requests: Sequence[Union[QueryRequest, Dict[str, Any]]],
        max_workers: Optional[int] = None,
    ) -> List[QueryResult]:
        """Execute many requests: dedup identical ones, parallelise the rest.

        Identical requests (same dataset fingerprint, operation and
        canonical arguments) are executed once and their result is shared;
        independent requests run concurrently on the worker pool.  A request
        that fails (unknown community, unloadable leaf, bad arguments)
        yields an errored :class:`QueryResult` without affecting any other
        request in the batch.
        """
        parsed: List[Union[QueryRequest, QueryResult]] = []
        for item in requests:
            if isinstance(item, QueryRequest):
                parsed.append(item)
                continue
            try:
                parsed.append(QueryRequest.from_dict(item))
            except (GMineError, TypeError, AttributeError) as error:
                # A malformed entry is isolated like any other failure: it
                # becomes an errored result without sinking the batch.
                placeholder = QueryRequest(operation="<malformed>", args={})
                parsed.append(
                    QueryResult(
                        request=placeholder,
                        ok=False,
                        error=str(error),
                        error_type=type(error).__name__,
                        code=error_code_for(error),
                    )
                )
        order: List[Any] = []  # dedup key per request, in submission order
        unique: Dict[Any, QueryRequest] = {}
        for position, request in enumerate(parsed):
            if isinstance(request, QueryResult):
                order.append(None)
                continue
            # Only cacheable dataset ops have a stable request identity to
            # dedup on.  Session-scoped ops act on live, mutable session
            # state (two identical session.step requests must both apply)
            # and non-cacheable ops promise a fresh execution — both run
            # once per occurrence.
            key: Any = ("__undeduplicable__", position)
            try:
                spec = self.registry.get(request.operation)
                if spec.scope == "dataset" and spec.cacheable:
                    handle = self._dataset(request.dataset)
                    canonical = spec.canonicalize(request.args, handle.context)
                    # Requests with different deadlines are not identical:
                    # one may fast-reject while its twin completes.
                    key = (
                        spec.cache_key(
                            self._scope_fp(handle, spec, canonical), canonical
                        ),
                        request.deadline_ms,
                    )
            except (GMineError, TypeError, ValueError):
                pass
            order.append(key)
            unique.setdefault(key, request)

        executor = self._ensure_executor(max_workers)
        futures = {
            key: executor.submit(self.execute, request)
            for key, request in unique.items()
        }
        shared = {key: future.result() for key, future in futures.items()}
        results: List[QueryResult] = []
        for position, request in enumerate(parsed):
            if isinstance(request, QueryResult):
                results.append(request)
                continue
            outcome = shared[order[position]]
            if outcome.request is request:
                results.append(outcome)
            else:  # a deduplicated duplicate: same value, its own request
                results.append(
                    QueryResult(
                        request=request,
                        ok=outcome.ok,
                        value=outcome.value,
                        error=outcome.error,
                        error_type=outcome.error_type,
                        code=outcome.code,
                        cached=True,
                        degraded=outcome.degraded,
                        error_details=outcome.error_details,
                        fingerprint=outcome.fingerprint,
                    )
                )
        return results

    def _ensure_executor(self, max_workers: Optional[int]) -> ThreadPoolExecutor:
        stale: Optional[ThreadPoolExecutor] = None
        with self._lock:
            if (
                max_workers is not None
                and self._executor is not None
                and max_workers != self.max_workers
            ):
                stale, self._executor = self._executor, None
            if max_workers is not None:
                self.max_workers = max_workers
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="gmine-service",
                )
            executor = self._executor
        if stale is not None:
            # Outside the lock: its tasks may need the lock to finish.
            stale.shutdown(wait=True)
        return executor

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def compute_counts(self) -> Dict[str, int]:
        """How many times each operation was actually computed (not cached)."""
        with self._lock:
            return dict(self._compute_counts)

    def stats(self) -> Dict[str, Any]:
        """One JSON-friendly snapshot of cache, backend, compute and sessions."""
        with self._lock:
            computed = dict(self._compute_counts)
        with self._lock:
            feeds = {name: feed.last_seq for name, feed in self._feeds.items()}
        backend_stats = self.backend.stats()
        return {
            "cache": self.cache.describe(),
            "backend": backend_stats,
            "resilience": self._resilience_stats(backend_stats),
            "computed": computed,
            "sessions": {
                "active": len(self.sessions),
                "ids": self.sessions.active_ids(),
            },
            "datasets": self.datasets(),
            "dataset_info": self.describe_datasets(),
            "prepared_views": self.registry_of_datasets.prepared_views.describe(),
            "feeds": feeds,
        }

    def _breaker_states(
        self, backend_stats: Optional[Dict[str, Any]] = None
    ) -> List[Dict[str, Any]]:
        """Every circuit breaker's ``describe()`` across backend and cache."""
        found: List[Dict[str, Any]] = []

        def walk(node: Any) -> None:
            if not isinstance(node, dict):
                return
            breaker = node.get("breaker")
            if isinstance(breaker, dict) and "state" in breaker:
                found.append(breaker)
            for value in node.values():
                if isinstance(value, dict):
                    walk(value)

        walk(backend_stats if backend_stats is not None else self.backend.stats())
        store_breaker = getattr(self.cache.store, "breaker", None)
        if store_breaker is not None:
            found.append(store_breaker.describe())
        return found

    def _resilience_stats(
        self, backend_stats: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """The ``resilience`` block of ``/v1/stats``: breakers, deadlines, degradation."""
        if backend_stats is None:
            backend_stats = self.backend.stats()
        cache_stats = self.cache.stats.as_dict()
        payload: Dict[str, Any] = {
            "breakers": self._breaker_states(backend_stats),
            "deadline": dict(
                backend_stats.get(
                    "deadline",
                    {"rejected": 0, "abandoned": 0, "worker_cancelled": 0},
                )
            ),
            "stale_serves": cache_stats.get("stale_serves", 0),
            "store_errors": cache_stats.get("store_errors", 0),
        }
        if self._injector is not None and hasattr(self._injector, "describe"):
            payload["faults"] = self._injector.describe()
        return payload

    def health(self) -> Dict[str, Any]:
        """Liveness/readiness snapshot backing ``/healthz`` and ``/readyz``.

        ``ok`` is liveness (the service object answers at all); ``ready``
        means it can serve real traffic: at least one dataset is
        registered and no circuit breaker is currently open.  Half-open
        breakers count as ready — probes are how they heal.
        """
        breakers = self._breaker_states()
        open_breakers = [
            breaker["name"] for breaker in breakers if breaker["state"] == "open"
        ]
        datasets = self.datasets()
        return {
            "ok": True,
            "ready": bool(datasets) and not open_breakers,
            "datasets": len(datasets),
            "open_breakers": open_breakers,
        }

    def _computed(self, operation: str, compute: Callable[[], Any]) -> Any:
        """Run a computation, counting it against ``operation``."""
        value = compute()
        with self._lock:
            self._compute_counts[operation] += 1
        return value

    # ------------------------------------------------------------------ #
    # operation dispatch (fully registry-driven)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _session_args(spec: OpSpec, args: Dict[str, Any], dataset: Optional[str]):
        """Fold an envelope-level dataset into a session op's arguments.

        Session ops that accept a ``dataset`` argument (``session.create``,
        ``session.restore``) honour the request envelope's ``dataset``
        field when the argument itself was not given, so both spellings
        behave identically.
        """
        args = dict(args)
        if (
            dataset is not None
            and "dataset" in spec.arg_names
            and args.get("dataset") is None
        ):
            args["dataset"] = dataset
        return args

    def _dispatch_session(self, spec: OpSpec, args: Dict[str, Any]):
        """Run one session- or service-scoped op.

        Returns ``(value, cached, degraded, fingerprint)`` — the
        fingerprint is the delegated dataset snapshot's scope fingerprint
        for streamable mining variants, ``None`` for lifecycle ops.

        Session ops canonicalize through their spec exactly like dataset
        ops but bypass the result cache — their outcomes depend on live
        session state the cache key cannot see.  The session-context
        mining variants delegate the heavy kernel back into the dataset
        dispatch (wrapped in a :class:`~repro.api.ops.DelegatedResult`),
        so it still runs on the configured backend and shares cache
        entries with direct calls; only those delegations report honest
        ``cached`` flags, and their compute is counted under the dataset
        op's name by the inner dispatch.
        """
        canonical = spec.canonicalize(args)
        value = spec.handler(ServiceOpContext(service=self), canonical)
        if isinstance(value, DelegatedResult):
            return value.value, value.cached, value.degraded, value.fingerprint
        with self._lock:
            self._compute_counts[spec.name] += 1
        return value, False, False, None

    def dispatch_in_session(self, session: ServiceSession, operation: str, args):
        """Dataset dispatch under a session's dataset.

        The seam the registry's session-context mining variants call back
        into: same validation, cache keying and backend execution as a
        direct dataset call.  Returns ``(value, cached, fingerprint)``;
        the fingerprint (streamable twins only) is the scope fingerprint
        of the exact handle snapshot the dispatch ran against, so session
        stream cursors pin the content version that produced their pages.
        Returns ``(value, cached, degraded, fingerprint)``.
        """
        handle = self._dataset(session.dataset)
        value, cached, degraded = self._dispatch(handle, operation, dict(args))
        spec = self.registry.get(operation)
        fingerprint = None
        if spec.stream is not None:
            canonical = spec.canonicalize(dict(args), handle.context)
            fingerprint = self._scope_fp(handle, spec, canonical)
        return value, cached, degraded, fingerprint

    def _dispatch(
        self,
        handle: DatasetHandle,
        operation: str,
        args: Dict[str, Any],
        deadline: Optional[Deadline] = None,
    ):
        """Run one registered operation; returns ``(value, cached, degraded)``.

        The spec supplies everything: validation and canonicalization
        (:meth:`OpSpec.canonicalize`), the cache key derived from spec
        field order (:meth:`OpSpec.cache_key`), the compute handler, and —
        for plannable expensive ops — the picklable plan the configured
        backend executes.  Non-cacheable ops bypass the result cache
        entirely.

        Cacheable ops ask the cache for ``stale_ok`` degraded serving: if
        the compute fails with anything but a deadline expiry and an
        expired entry for the key is still resident, that stale value is
        served with ``degraded=True`` instead of the error.
        """
        spec = self.registry.get(operation)
        canonical = spec.canonicalize(args, handle.context)

        def compute() -> Any:
            performed.append(True)
            return self._computed(
                operation,
                lambda: self._execute_op(handle, spec, canonical, deadline),
            )

        performed: List[bool] = []
        if deadline is not None:
            deadline.check("dispatch")
        if not spec.cacheable:
            return compute(), False, False
        key = spec.cache_key(self._scope_fp(handle, spec, canonical), canonical)
        value = self.cache.get_or_compute(key, compute, stale_ok=True)
        if isinstance(value, StaleServe):
            # Expired entry served because the backend failed: honest flags.
            return value.value, True, True
        return value, not performed, False

    @staticmethod
    def _scope_fp(handle: DatasetHandle, spec: OpSpec, canonical) -> str:
        """The fingerprint keying one canonical request: root or partition.

        Ops whose spec declares a ``partition_arg`` (their result is a pure
        function of that community's induced content) key on the Merkle
        sub-fingerprint, so their entries survive edits that do not touch
        the community; everything else keys on the root as before.
        """
        if spec.partition_arg is None:
            return handle.fingerprint
        return handle.scope_fingerprint(canonical.get(spec.partition_arg))

    def _execute_op(
        self,
        handle: DatasetHandle,
        spec: OpSpec,
        canonical: Dict[str, Any],
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Run one canonicalized op on the right venue.

        Expensive plannable ops go to the execution backend (which may ship
        the plan to a worker process, run it on a kernel thread, or fall
        back to the parent); cheap ops — tree lookups, edge inspection —
        always run in the parent, honouring the spec's declared cost class.
        The deadline travels with the plan so backends can fast-reject and
        abandon; injected ``worker.run``/``store.read`` faults fire at the
        same boundaries real backend/store failures occur.
        """
        injector = self._injector

        def local() -> Any:
            if injector is not None:
                injector.fire("store.read")
            return spec.handler(
                OpContext(
                    engine=handle.make_engine(),
                    prepared_provider=handle.prepared_provider,
                ),
                canonical,
            )

        if spec.planner is None or spec.cost != "expensive":
            return local()
        if injector is not None:
            injector.fire("worker.run")
        plan = spec.plan(canonical)
        return self.backend.run(handle.exec_spec(), plan, local, deadline=deadline)


def _metrics_on_subgraph(subgraph: Graph, canonical: Dict[str, Any]):
    """Run the metrics kernel against an already-materialised subgraph.

    Delegates to the same :data:`~repro.api.plans.KERNELS` entry the
    execution backends run, so the session path and the plan path cannot
    drift apart while sharing cache keys.
    """
    from ..api.plans import KERNELS

    return KERNELS["metrics"](subgraph, canonical)
