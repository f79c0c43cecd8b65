"""Pluggable execution backends: *where* a compute plan runs.

The GMine service funnels every expensive kernel (RWR power iteration,
metric suites, connection subgraphs) through one of three venues:

* :class:`InlineBackend` — the plan runs on the calling thread.  Zero
  overhead; throughput is whatever the caller's own concurrency delivers
  (under the GIL, roughly one core).
* :class:`ProcessBackend` — plans are pickled to a pool of **warm worker
  processes** that pre-load each dataset's :class:`~repro.storage.gtree_store.GTreeStore`
  by ``(path, fingerprint)`` and keep it open across tasks, so only the
  first task per dataset pays the open cost.  This is the backend that
  scales CPU-bound mining with cores: each worker owns its own
  interpreter, its own GIL, its own buffer pool and its own private
  :class:`~repro.graph.matrix.PreparedGraph`, built at warm time from
  the graph file it parses.
* :class:`~repro.shard.backend.ShardedBackend` (``sharded[:N]``) — one
  single-worker pool per G-Tree shard; see :mod:`repro.shard.backend`.

All of them execute the *same* :class:`~repro.api.plans.ComputePlan` through
:func:`~repro.api.plans.run_plan`; a backend never sees a service or an
engine, only a plan plus a :class:`DatasetExecSpec` describing how a worker
may rematerialise the dataset.  Results come back as the rich mining
objects — the wire encode step always happens in the parent.

Ops that cannot be shipped (no planner, ``cost="cheap"``, or a dataset the
workers cannot reopen by path) run through the ``local`` fallback the
service provides, so every backend serves the full protocol surface.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..api.plans import ComputePlan, prepared_applies, run_plan
from ..errors import DeadlineExceededError, ServiceError, WorkerDeadlineCancelled
from .resilience import CircuitBreaker, Deadline

logger = logging.getLogger(__name__)

#: Backend names accepted by :func:`make_backend` / ``gmine serve --backend``.
BACKEND_NAMES = ("inline", "process", "sharded")

#: Default worker count for pooled backends.
DEFAULT_BACKEND_WORKERS = 4


class StaleDatasetError(ServiceError):
    """A worker's on-disk store no longer matches the spec's fingerprint.

    Raised inside worker processes when the dataset file was rebuilt (and
    typically hot-reloaded in the parent) after the shipping request
    resolved its handle.  Picklable across the pool boundary; the process
    backend catches it and serves the request from the parent, whose
    retired store still holds the content the request's fingerprint names.
    """


@dataclass(frozen=True)
class DatasetExecSpec:
    """How a worker process can rebuild one dataset's scope resolver.

    Entirely picklable: paths and the content fingerprint, never live
    objects.  ``has_graph`` records whether the parent serves the dataset
    with a full graph attached — a worker that cannot reload that graph
    (no ``graph_path``) would resolve widest-scope requests differently,
    so such datasets are not process-capable and fall back to the parent.
    """

    name: str
    fingerprint: str
    store_path: Optional[str] = None
    graph_path: Optional[str] = None
    has_graph: bool = False

    @property
    def process_capable(self) -> bool:
        """Whether a worker can reproduce the parent's scope resolution."""
        if self.store_path is None:
            return False
        return (not self.has_graph) or (self.graph_path is not None)


class ExecutionBackend:
    """Common interface + shared accounting for every backend."""

    name = "base"

    def __init__(self) -> None:
        self._stats_lock = threading.Lock()
        self._executed = 0
        self._shipped = 0
        self._fallbacks = 0
        self._errors = 0
        self._deadline_rejected = 0
        self._deadline_abandoned = 0
        self._deadline_worker_cancelled = 0

    # ------------------------------------------------------------------ #
    # interface
    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: DatasetExecSpec,
        plan: ComputePlan,
        local: Callable[[], Any],
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Execute one plan; ``local`` runs it in the parent as a fallback.

        ``deadline``, when given, bounds the whole run: an already-expired
        budget is rejected before any work, and a plan still running past
        it is abandoned (result discarded, ``DEADLINE_EXCEEDED`` raised,
        pools left healthy).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # deadline bookkeeping shared by every backend
    # ------------------------------------------------------------------ #
    def _admit(self, deadline: Optional[Deadline]) -> None:
        """Reject before dispatch if the budget is already spent."""
        if deadline is not None and deadline.expired:
            self._count(deadline_rejected=1)
            raise DeadlineExceededError(
                f"deadline of {deadline.budget_ms:g}ms expired before dispatch"
            )

    def _abandon(self, deadline: Deadline) -> None:
        """Discard an in-flight result that finished (or hung) past budget."""
        self._count(deadline_abandoned=1)
        raise DeadlineExceededError(
            f"plan exceeded its {deadline.budget_ms:g}ms deadline; "
            "result abandoned"
        )

    def _finish(self, deadline: Optional[Deadline]) -> None:
        """Post-completion check: a result computed past budget is discarded."""
        if deadline is not None and deadline.expired:
            self._abandon(deadline)

    def warm(self, spec: DatasetExecSpec, handle: Any = None) -> None:
        """Hint that a dataset was registered (process pools pre-load it).

        ``handle`` is the live :class:`~repro.service.datasets.DatasetHandle`
        when the caller has one: a sharded backend needs the tree/graph
        objects themselves to plan the split, while path-based pools only
        consume the picklable ``spec``.
        """

    def close(self) -> None:
        """Release pools; idempotent."""

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def _count(
        self,
        *,
        executed=0,
        shipped=0,
        fallbacks=0,
        errors=0,
        deadline_rejected=0,
        deadline_abandoned=0,
        deadline_worker_cancelled=0,
    ) -> None:
        with self._stats_lock:
            self._executed += executed
            self._shipped += shipped
            self._fallbacks += fallbacks
            self._errors += errors
            self._deadline_rejected += deadline_rejected
            self._deadline_abandoned += deadline_abandoned
            self._deadline_worker_cancelled += deadline_worker_cancelled

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (surfaced through ``/v1/stats``)."""
        with self._stats_lock:
            return {
                "name": self.name,
                "executed": self._executed,
                "shipped": self._shipped,
                "fallbacks": self._fallbacks,
                "errors": self._errors,
                "deadline": {
                    "rejected": self._deadline_rejected,
                    "abandoned": self._deadline_abandoned,
                    "worker_cancelled": self._deadline_worker_cancelled,
                },
            }


class InlineBackend(ExecutionBackend):
    """Run every plan on the calling thread (the pre-v2 behaviour)."""

    name = "inline"

    def run(self, spec, plan, local, deadline=None):
        self._admit(deadline)
        self._count(executed=1)
        value = local()
        # Inline has nowhere to park an overdue computation, so the check
        # happens after the fact: the result is discarded, the overrun
        # counted, and the caller gets the typed deadline failure.
        self._finish(deadline)
        return value


# --------------------------------------------------------------------------- #
# process backend: warm workers keyed by (store path, fingerprint)
# --------------------------------------------------------------------------- #
#: Per-worker dataset cache: (store_path, graph_path) -> (fingerprint, ctx).
#: Module-level so it survives across tasks — that is what makes the
#: workers "warm": the store skeleton is parsed and the buffer pool filled
#: once, then every subsequent plan for the same fingerprint reuses them.
_WORKER_DATASETS: Dict[Tuple[str, Optional[str]], Tuple[str, Any]] = {}


class _WorkerPrepared:
    """A worker's :class:`~repro.graph.matrix.PreparedGraph` slot.

    One per warm dataset context, mirroring the parent's per-handle cell:
    built once (eagerly at warm time, lazily on the first plan otherwise)
    and handed to kernels only for widest-scope plans over the context's
    full graph.  Dies with the context on fingerprint change, so a
    hot-reloaded dataset is re-prepared exactly once per worker.

    Workers execute one task at a time, so no lock is needed — which also
    keeps the context it lives on simple.  The preparation is private to
    the worker: nothing outside this process holds or retires its arrays.
    """

    def __init__(self, graph, fingerprint: str) -> None:
        self._graph = graph
        self._fingerprint = fingerprint
        self._prepared = None

    def prepare(self) -> None:
        """Materialise the prepared view now (called by the warm task)."""
        if self._graph is None or self._prepared is not None:
            return
        from ..graph.matrix import PreparedGraph

        self._prepared = PreparedGraph.from_graph(
            self._graph, fingerprint=self._fingerprint
        )

    def __call__(self, scope, subgraph):
        if not prepared_applies(scope, subgraph, self._graph):
            return None
        self.prepare()
        return self._prepared


def _worker_context(spec: DatasetExecSpec):
    """Return (creating if needed) this worker's resolver for ``spec``.

    The store is reopened whenever the expected fingerprint changes —
    exactly what happens after a dataset hot-reload in the parent — and a
    store whose content does not match the parent's fingerprint is
    rejected rather than silently serving stale or torn data.
    """
    from ..api.ops import OpContext
    from ..core.engine import GMineEngine
    from ..graph.io import load_graph_auto
    from ..storage.gtree_store import GTreeStore

    if spec.store_path is None:  # pragma: no cover - guarded by process_capable
        raise ServiceError(f"dataset {spec.name!r} has no store path to reopen")
    key = (spec.store_path, spec.graph_path)
    cached = _WORKER_DATASETS.get(key)
    if cached is not None and cached[0] == spec.fingerprint:
        return cached[1]
    store = GTreeStore(spec.store_path)
    if store.fingerprint != spec.fingerprint:
        # A stale plan (the parent hot-reloaded after this request took
        # its handle) must not wreck the warm context other plans use —
        # leave the cache alone and let the parent serve this one.
        fingerprint = store.fingerprint
        store.close()
        raise StaleDatasetError(
            f"worker reopened {spec.store_path} with fingerprint "
            f"{fingerprint[:12]}… but the plan expects "
            f"{spec.fingerprint[:12]}…"
        )
    try:
        graph = load_graph_auto(spec.graph_path) if spec.graph_path else None
        context = OpContext(
            engine=GMineEngine(tree=store.tree, graph=graph, store=store),
            prepared_provider=_WorkerPrepared(graph, spec.fingerprint),
        )
    except Exception:
        store.close()
        raise
    # Only retire the previous context once its replacement is fully
    # built: a failed graph load must leave the cache serving the old
    # (still-open) context, never a closed one.
    if cached is not None:
        del _WORKER_DATASETS[key]
        cached[1].engine.store.close()
    _WORKER_DATASETS[key] = (spec.fingerprint, context)
    return context


def _process_warm(spec: DatasetExecSpec) -> None:
    """Pre-load one dataset in this worker.

    Warming opens the store *and* builds the dataset's prepared view from
    the graph file the context just parsed, so the first real plan pays
    neither the file open nor the matrix conversion.
    """
    _worker_context(spec).prepared_provider.prepare()


def _log_warm_failure(future) -> None:
    """Surface a failed warm-up task instead of dropping it silently.

    Warming stays best-effort — the first real plan will retry and raise
    properly — but an operator watching the log should still see that the
    pre-load did not take (bad path, fingerprint drift, worker death).
    """
    try:
        error = future.exception()
    except BaseException as cancelled:  # pragma: no cover - shutdown race
        error = cancelled
    if error is not None:
        logger.warning("dataset warm-up failed (first plan will retry): %s", error)


def deadline_wall_clock(deadline: Optional[Deadline]) -> Optional[float]:
    """Translate a deadline's remaining budget to absolute wall-clock time.

    Deadlines are monotonic-clock objects and cannot cross a process
    boundary; what can is "the instant, in ``time.time()`` terms, after
    which the work is pointless".  Workers compare against their own wall
    clock — same-host processes share it, so skew is microseconds against
    millisecond budgets.
    """
    if deadline is None:
        return None
    return time.time() + max(0.0, deadline.remaining())


def _check_worker_deadline(deadline_at: Optional[float], label: str) -> None:
    """Cancel overdue work at task start, inside the worker."""
    if deadline_at is not None and time.time() >= deadline_at:
        raise WorkerDeadlineCancelled(
            f"deadline expired before the worker started {label}; "
            "cancelled in the worker"
        )


def _process_execute(
    spec: DatasetExecSpec,
    plan: ComputePlan,
    deadline_at: Optional[float] = None,
) -> Any:
    """Run one plan in this worker against its warm dataset context.

    A task that reaches the front of the queue after ``deadline_at`` is
    cancelled here rather than computed: the parent has already abandoned
    (or will reject) the result, so finishing it would only keep the
    worker busy past every caller's interest.
    """
    _check_worker_deadline(deadline_at, f"plan {plan.operation!r}")
    context = _worker_context(spec)
    return run_plan(plan, context.community_subgraph, context.prepared_for)


def _pick_mp_context():
    """Prefer ``forkserver``; never ``fork``.

    The pool is created lazily, on the first ``warm()``/``run()`` — by
    then the HTTP server and the batch thread pool are usually running,
    and forking a multi-threaded process can deadlock children on locks
    some other thread held at fork time (CPython deprecated that in 3.12
    for exactly this reason).  ``forkserver`` keeps most of fork's cheap
    worker startup without that hazard: workers fork from a dedicated,
    single-threaded server process.  Where it is unavailable, ``spawn``
    applies; workers then re-import the package, which the module-level
    task functions are written for.
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


class ProcessBackend(ExecutionBackend):
    """Ship plans to warm worker processes (true multi-core execution)."""

    name = "process"

    def __init__(
        self,
        workers: int = DEFAULT_BACKEND_WORKERS,
        mp_context=None,
        breaker: Union[CircuitBreaker, None, str] = "default",
    ) -> None:
        super().__init__()
        if workers < 1:
            raise ServiceError(f"process backend needs >= 1 worker, got {workers}")
        self.workers = workers
        if breaker == "default":
            # Trips on repeated pool deaths (BrokenProcessPool), not on
            # plan errors: a venue that keeps losing workers stops being
            # offered work and every plan runs in the parent until the
            # half-open probe proves the pool healthy again.
            breaker = CircuitBreaker(
                name="process-pool", failure_threshold=3, reset_timeout=10.0
            )
        self.breaker = breaker
        self._breaker_skips = 0
        self._mp_context = mp_context or _pick_mp_context()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._warmed: List[DatasetExecSpec] = []

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self._mp_context
                )
            return self._pool

    def warm(self, spec: DatasetExecSpec, handle: Any = None) -> None:
        """Ask every worker to pre-load ``spec`` (best effort, non-blocking).

        One warm task per worker slot: idle workers pick them up and open
        the store before the first real plan arrives.  The pool gives no
        affinity, so one idle worker may drain several warm tasks and
        leave its siblings to pay the cold open on their first real plan —
        acceptable for a hint.  Failures are logged and otherwise surface
        on the first real task, so warming never wedges registration.
        """
        if not spec.process_capable:
            return
        with self._pool_lock:
            if spec in self._warmed:
                # Identical spec (same paths and fingerprint) already
                # warmed: the workers hold it, and re-submitting
                # another N warm futures is pure pool churn.
                return
            self._warmed = [
                known for known in self._warmed if known.name != spec.name
            ]
            self._warmed.append(spec)
        pool = self._ensure_pool()
        for _ in range(self.workers):
            pool.submit(_process_warm, spec).add_done_callback(_log_warm_failure)

    def _note_worker_cancelled(self, future) -> None:
        """Done callback: tally tasks the worker itself cancelled as overdue."""
        if future.cancelled():
            return
        try:
            error = future.exception()
        except BaseException:  # pragma: no cover - shutdown race
            return
        if isinstance(error, WorkerDeadlineCancelled):
            self._count(deadline_worker_cancelled=1)

    def run(self, spec, plan, local, deadline=None):
        self._admit(deadline)
        if not spec.process_capable:
            self._count(executed=1, fallbacks=1)
            value = local()
            self._finish(deadline)
            return value
        if self.breaker is not None and not self.breaker.allow():
            # Venue quarantined: serve from the parent without touching
            # (or creating) the pool.
            with self._stats_lock:
                self._breaker_skips += 1
            self._count(executed=1, fallbacks=1)
            value = local()
            self._finish(deadline)
            return value
        pool = self._ensure_pool()
        future = pool.submit(
            _process_execute, spec, plan, deadline_wall_clock(deadline)
        )
        if deadline is not None:
            # Count in-worker cancellations exactly once, even when this
            # caller timed out first and abandoned the future: the callback
            # fires whenever the task resolves, observed or not.
            future.add_done_callback(self._note_worker_cancelled)
        try:
            value = future.result(
                timeout=None if deadline is None else max(0.0, deadline.remaining())
            )
        except FuturesTimeoutError:
            # Abandon the result but leave the pool healthy: the worker
            # finishes (or keeps warming its dataset) and serves the next
            # request; only this caller's wait is cut short.
            self._abandon(deadline)
        except WorkerDeadlineCancelled:
            # The worker refused overdue work before computing it.  The
            # venue did its job (transported the refusal), so the breaker
            # records a success; the counter rides the done callback.
            if self.breaker is not None:
                self.breaker.record_success()
            raise
        except StaleDatasetError:
            # The file on disk moved past this request's fingerprint (a
            # hot-reload raced the dispatch).  The parent still holds the
            # retired store this fingerprint names, so local() serves the
            # request correctly instead of surfacing a spurious error.
            # Not a venue failure: the pool did its job.
            if self.breaker is not None:
                self.breaker.record_success()
            self._count(executed=1, fallbacks=1)
            value = local()
            self._finish(deadline)
            return value
        except BrokenProcessPool:
            # A worker died (OOM, hard kill).  Recreate the pool lazily and
            # keep serving this request from the parent.  This *is* the
            # venue failure the breaker watches for.
            with self._pool_lock:
                broken, self._pool = self._pool, None
            if broken is not None:
                broken.shutdown(wait=False)
            if self.breaker is not None:
                self.breaker.record_failure()
            self._count(executed=1, fallbacks=1, errors=1)
            value = local()
            self._finish(deadline)
            return value
        except BaseException:
            # The plan itself failed in the worker (typed mining/service
            # error, pickled back).  It still executed and shipped — count
            # it so backend accounting agrees across venues for identical
            # traffic — and re-raise for the normal error envelope path.
            # The venue worked (it transported the failure), so the
            # breaker records a success.
            if self.breaker is not None:
                self.breaker.record_success()
            self._count(executed=1, shipped=1, errors=1)
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        self._count(executed=1, shipped=1)
        self._finish(deadline)
        return value

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def stats(self) -> Dict[str, Any]:
        payload = super().stats()
        payload["workers"] = self.workers
        payload["warm_datasets"] = [spec.name for spec in self._warmed]
        if self.breaker is not None:
            payload["breaker"] = self.breaker.describe()
        with self._stats_lock:
            payload["breaker_skips"] = self._breaker_skips
        return payload


def make_backend(
    backend: Union[str, ExecutionBackend, None],
    workers: int = DEFAULT_BACKEND_WORKERS,
) -> ExecutionBackend:
    """Resolve a backend selector: an instance, ``None``, or ``"name[:N]"``.

    ``"process:2"`` / ``"sharded:4"`` override the worker/shard count
    inline — handy for the CLI, benchmarks, and Makefile one-liners.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        return InlineBackend()
    name, _, count = str(backend).partition(":")
    if count:
        try:
            workers = int(count)
        except ValueError:
            raise ServiceError(
                f"backend worker count must be an integer, got {backend!r}"
            ) from None
    if name == "inline":
        return InlineBackend()
    if name == "process":
        return ProcessBackend(workers=workers)
    if name == "sharded":
        # Imported lazily: the shard subsystem imports this module for the
        # backend base class, so a top-level import would be circular.
        from ..shard.backend import ShardedBackend

        return ShardedBackend(shards=workers)
    raise ServiceError(
        f"unknown execution backend {backend!r}; expected one of {BACKEND_NAMES}"
    )
