"""The sharded execution backend: scatter-gather over G-Tree partitions.

One single-worker process pool per shard (the process stands in for a
host; the seams — picklable plans, warm state keyed by fingerprint,
shared-memory manifests — are exactly what a TCP transport would carry).
A :class:`~repro.shard.planner.ShardPlanner` splits each warmed dataset
along the root's community subtrees; routing then follows the
:class:`~repro.api.registry.MergeSpec` declared on the op:

* **point-to-point** — a plan scoped to one shard-owned community (or a
  multi-community GPath scope one shard owns entirely) ships to exactly
  that shard and the answer returns whole: zero merge cost, and
  byte-identical to the parent's answer by the order-preserving slice
  construction (``Graph.induced_ordered``).
* **scatter** — a widest-scope power-iteration RWR runs its driver loop
  in the parent while every matvec round fans out to the shards' row
  slices of the transition matrix; gathering the row blocks reconstructs
  the monolithic product bit-for-bit (CSR products accumulate per row),
  so the merged result is byte-identical by construction, with the
  cross-shard edge table accounted for inside the row slices themselves
  (each slice keeps *all* columns, so cross-shard mass flows exactly as
  in the monolithic matrix).
* **parent** — everything else (cross-shard scopes, exact solver,
  non-mergeable ops) runs locally, same as before.

Failure discipline: a shard failure mid-route falls back to one whole
local execution — never a partial merge — except deadline errors, which
propagate typed.  Killed shard workers trip a per-backend circuit
breaker and the pool is rebuilt lazily; lost warm state re-warms once
before falling back.
"""

from __future__ import annotations

import logging
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..api.plans import ComputePlan
from ..api.registry import MergeSpec
from ..errors import (
    DeadlineExceededError,
    ServiceError,
    WorkerDeadlineCancelled,
)
from ..query.plan import Expand, Seed
from ..service.executors import (
    DEFAULT_BACKEND_WORKERS,
    DatasetExecSpec,
    ExecutionBackend,
    _pick_mp_context,
    deadline_wall_clock,
)
from ..service.resilience import CircuitBreaker, Deadline
from .planner import ShardPlan, ShardPlanner
from .rwr import scatter_rwr
from .worker import ShardStateError, _shard_drop, _shard_execute, _shard_matvec, _shard_warm

logger = logging.getLogger(__name__)

#: How long a blocking shard warm may take before it is abandoned.
WARM_TIMEOUT_SECONDS = 120.0


@dataclass
class _ShardedDataset:
    """Parent-side record of one warmed (planned + shipped) dataset."""

    name: str
    fingerprint: str
    plan: ShardPlan
    #: shard id -> parent-side CSR row slice ``W[rows_s, :]`` (kept for
    #: re-warm after a pool rebuild; also the publish source).
    matrices: Dict[int, Any] = field(default_factory=dict)
    #: shard id -> np.ndarray of parent row positions (scatter gather).
    rows: Dict[int, Any] = field(default_factory=dict)
    #: parent VertexIndex (scatter driver needs node_at / membership).
    index: Any = None
    #: live SharedMatrixSegments to release on retire.
    segments: List[Any] = field(default_factory=list)
    #: shard id -> last warm report from the worker.
    reports: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    matvec_ready: bool = False

    @property
    def shard_count(self) -> int:
        return len(self.plan.shards)

    def release(self) -> None:
        for segment in self.segments:
            try:
                segment.release()
            except Exception:  # pragma: no cover - release best-effort
                pass
        self.segments.clear()


def _chain(node) -> List[Any]:
    """A plan chain root-to-seed as a list."""
    out = []
    while node is not None:
        out.append(node)
        node = getattr(node, "child", None)
    return out


class ShardedBackend(ExecutionBackend):
    """Fan compute plans out to per-shard worker processes (scatter-gather)."""

    name = "sharded"

    def __init__(
        self,
        shards: int = DEFAULT_BACKEND_WORKERS,
        mp_context=None,
        breaker: Any = "default",
    ) -> None:
        super().__init__()
        if shards < 1:
            raise ServiceError(f"sharded backend needs >= 1 shard, got {shards}")
        self.shards = shards
        if breaker == "default":
            breaker = CircuitBreaker(
                name="shard-pools", failure_threshold=3, reset_timeout=10.0
            )
        self.breaker = breaker
        self._mp_context = mp_context or _pick_mp_context()
        self._pools: Dict[int, ProcessPoolExecutor] = {}
        self._pool_lock = threading.Lock()
        #: fingerprint -> warmed dataset record.
        self._datasets: Dict[str, _ShardedDataset] = {}
        #: dataset name -> fingerprint currently warmed under that name.
        self._generations: Dict[str, str] = {}
        self._datasets_lock = threading.Lock()
        self._routes: Counter = Counter()
        self._shard_executed: Counter = Counter()

    # ------------------------------------------------------------------ #
    # pools
    # ------------------------------------------------------------------ #
    def _pool(self, shard_id: int) -> ProcessPoolExecutor:
        with self._pool_lock:
            pool = self._pools.get(shard_id)
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=1, mp_context=self._mp_context
                )
                self._pools[shard_id] = pool
            return pool

    def _rebuild_pool(self, shard_id: int) -> None:
        with self._pool_lock:
            broken = self._pools.pop(shard_id, None)
        if broken is not None:
            broken.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # warm: plan the split and ship slices
    # ------------------------------------------------------------------ #
    def warm(self, spec: DatasetExecSpec, handle: Any = None) -> None:
        """Plan the shard split for ``handle`` and ship every slice.

        Blocking (unlike the process backend's best-effort hint): routing
        correctness depends on knowing which shards actually hold state,
        so registration pays the ship cost up front.  Any failure leaves
        the dataset unsharded — every plan then runs in the parent, which
        is always correct.
        """
        if handle is None or getattr(handle, "tree", None) is None:
            return
        with self._datasets_lock:
            if spec.fingerprint in self._datasets:
                return
        try:
            state = self._build_state(spec, handle)
        except Exception as error:
            logger.warning(
                "shard planning failed for dataset %s (%s); serving unsharded",
                spec.name, error,
            )
            return
        try:
            self._ship_state(state)
        except Exception as error:
            logger.warning(
                "shard warm failed for dataset %s (%s); serving unsharded",
                spec.name, error,
            )
            state.release()
            return
        with self._datasets_lock:
            previous_fp = self._generations.get(spec.name)
            self._generations[spec.name] = spec.fingerprint
            self._datasets[spec.fingerprint] = state
            retired = (
                self._datasets.pop(previous_fp, None)
                if previous_fp and previous_fp != spec.fingerprint
                else None
            )
        if retired is not None:
            self._drop_state(retired)

    def _build_state(self, spec: DatasetExecSpec, handle: Any) -> _ShardedDataset:
        graph = getattr(handle, "graph", None)
        prepared = handle.prepared_graph() if graph is not None else None
        index = prepared.index if prepared is not None else None
        plan = ShardPlanner(self.shards).plan(
            handle.tree, graph, spec.fingerprint, index=index
        )
        state = _ShardedDataset(
            name=spec.name, fingerprint=spec.fingerprint, plan=plan, index=index
        )
        if plan.scatter_capable and prepared is not None:
            transition = prepared.transition
            for shard in plan.shards:
                rows = np.asarray(shard.rows, dtype=np.int64)
                state.rows[shard.shard_id] = rows
                state.matrices[shard.shard_id] = transition[rows, :]
        return state

    def _warm_payload(self, state: _ShardedDataset, shard_id: int) -> Dict[str, Any]:
        shard = state.plan.shards[shard_id]
        payload: Dict[str, Any] = {
            "fingerprint": state.fingerprint,
            "shard_id": shard_id,
            "tree": shard.tree,
            "graph": shard.graph,
        }
        matrix = state.matrices.get(shard_id)
        if matrix is not None:
            manifest = self._publish_matrix(state, matrix)
            if manifest is not None:
                payload["matrix_manifest"] = manifest
            else:
                payload["matrix"] = matrix
        return payload

    def _publish_matrix(self, state: _ShardedDataset, matrix) -> Optional[Any]:
        """Publish one row slice to shared memory (fast path, never required)."""
        try:
            from ..graph.shm import SharedMatrixSegment, shared_memory_available

            if not shared_memory_available():
                return None
            segment = SharedMatrixSegment.publish(matrix)
        except Exception:
            logger.warning("per-shard segment publish failed; shipping pickled",
                           exc_info=True)
            return None
        state.segments.append(segment)
        return segment.manifest

    def _ship_state(self, state: _ShardedDataset) -> None:
        futures = {
            shard.shard_id: self._pool(shard.shard_id).submit(
                _shard_warm, self._warm_payload(state, shard.shard_id)
            )
            for shard in state.plan.shards
        }
        for shard_id, future in futures.items():
            report = future.result(timeout=WARM_TIMEOUT_SECONDS)
            state.reports[shard_id] = report
        state.matvec_ready = state.plan.scatter_capable and all(
            state.reports.get(s.shard_id, {}).get("matvec_ready")
            for s in state.plan.shards
        )

    def _rewarm_shard(self, state: _ShardedDataset, shard_id: int) -> None:
        """Re-ship one slice after a pool rebuild lost the worker state."""
        future = self._pool(shard_id).submit(
            _shard_warm, self._warm_payload(state, shard_id)
        )
        state.reports[shard_id] = future.result(timeout=WARM_TIMEOUT_SECONDS)

    def _drop_state(self, state: _ShardedDataset) -> None:
        for shard in state.plan.shards:
            try:
                self._pool(shard.shard_id).submit(
                    _shard_drop, state.fingerprint, shard.shard_id
                )
            except Exception:  # pragma: no cover - pool already gone
                pass
        state.release()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _route(self, state: Optional[_ShardedDataset], plan: ComputePlan):
        """``(kind, shard_id)`` where kind ∈ route/scatter/parent."""
        if state is None:
            return ("parent", None)
        merge = self._merge_spec(plan.operation)
        if merge is None:
            return ("parent", None)
        if plan.scope is not None:
            owner = state.plan.owner_of(plan.scope)
            if owner is None:
                return ("parent", None)
            return ("route", owner)
        communities = plan.arg_dict.get("communities")
        if communities:
            return self._route_communities(state, plan, communities)
        if (
            merge.kind == "scatter"
            and plan.kernel == "rwr"
            and plan.arg_dict.get("solver") == "power"
            and state.matvec_ready
        ):
            return ("scatter", None)
        return ("parent", None)

    def _route_communities(self, state, plan: ComputePlan, communities):
        """Multi-community GPath scope: point-to-point iff one shard owns it.

        The extra guards keep the worker's evaluation literally identical
        to the parent's: no ``Expand`` (BFS could escape the shard), an
        explicit seed (both venues must take ``_induce``'s rebuild path),
        and a seed strictly smaller than the shard (so the worker cannot
        take the same-graph fast path the parent would not take).
        """
        if plan.kernel != "path":
            return ("parent", None)
        owner = state.plan.single_owner(communities)
        if owner is None:
            return ("parent", None)
        chain = _chain(plan.arg_dict.get("plan"))
        if any(isinstance(node, Expand) for node in chain):
            return ("parent", None)
        base = chain[-1] if chain else None
        if not isinstance(base, Seed) or base.vertices is None:
            return ("parent", None)
        if len(base.vertices) >= len(state.plan.shards[owner].members):
            return ("parent", None)
        return ("route", owner)

    @staticmethod
    def _merge_spec(operation: str) -> Optional[MergeSpec]:
        from ..api.ops import DEFAULT_REGISTRY

        spec = DEFAULT_REGISTRY.get(operation)
        return None if spec is None else spec.merge

    # ------------------------------------------------------------------ #
    # run
    # ------------------------------------------------------------------ #
    def run(self, spec, plan, local, deadline=None):
        self._admit(deadline)
        with self._datasets_lock:
            state = self._datasets.get(spec.fingerprint)
        kind, shard_id = self._route(state, plan)
        if kind == "route":
            return self._run_routed(state, shard_id, plan, local, deadline)
        if kind == "scatter":
            return self._run_scatter(state, plan, local, deadline)
        self._routes["parent"] += 1
        self._count(executed=1)
        value = local()
        self._finish(deadline)
        return value

    def _run_routed(self, state, shard_id, plan, local, deadline):
        """Point-to-point: the owning shard computes the whole answer."""
        if self.breaker is not None and not self.breaker.allow():
            self._routes["parent_fallback"] += 1
            self._count(executed=1, fallbacks=1)
            value = local()
            self._finish(deadline)
            return value
        deadline_at = deadline_wall_clock(deadline)
        for attempt in (0, 1):
            pool = self._pool(shard_id)
            try:
                # submit itself raises BrokenProcessPool once the pool's
                # management thread has noticed a dead worker — it must sit
                # under the same handler as result().
                future = pool.submit(
                    _shard_execute, state.fingerprint, shard_id, plan, deadline_at
                )
                if deadline is not None:
                    future.add_done_callback(self._note_worker_cancelled)
                value = future.result(
                    timeout=None if deadline is None
                    else max(0.0, deadline.remaining())
                )
            except FuturesTimeoutError:
                self._abandon(deadline)
            except WorkerDeadlineCancelled:
                if self.breaker is not None:
                    self.breaker.record_success()
                raise
            except ShardStateError:
                # Pool rebuilt since warm (or a raced generation): re-ship
                # this slice once, then give up to the parent.
                if attempt == 0:
                    try:
                        self._rewarm_shard(state, shard_id)
                        continue
                    except Exception:
                        logger.warning("shard %d re-warm failed", shard_id,
                                       exc_info=True)
                break
            except BrokenProcessPool:
                # Killed worker: quarantine-worthy venue failure.  Rebuild
                # lazily and serve this request from the parent — the
                # caller sees a correct answer, never a torn one.
                self._rebuild_pool(shard_id)
                if self.breaker is not None:
                    self.breaker.record_failure()
                break
            except BaseException:
                # The plan failed *in* the shard with a typed error — the
                # venue worked, the answer is the error (same contract as
                # the process backend).
                if self.breaker is not None:
                    self.breaker.record_success()
                self._routes["single_shard"] += 1
                self._shard_executed[shard_id] += 1
                self._count(executed=1, shipped=1, errors=1)
                raise
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                self._routes["single_shard"] += 1
                self._shard_executed[shard_id] += 1
                self._count(executed=1, shipped=1)
                self._finish(deadline)
                return value
        self._routes["parent_fallback"] += 1
        self._count(executed=1, fallbacks=1, errors=1)
        value = local()
        self._finish(deadline)
        return value

    def _run_scatter(self, state, plan, local, deadline):
        """Widest-scope RWR: parent drives, shards matvec their row blocks."""
        if self.breaker is not None and not self.breaker.allow():
            self._routes["parent_fallback"] += 1
            self._count(executed=1, fallbacks=1)
            value = local()
            self._finish(deadline)
            return value
        args = plan.arg_dict
        try:
            value = scatter_rwr(
                state.index,
                self._scatter_matvec(state, deadline),
                args["sources"],
                restart_probability=args["restart_probability"],
            )
        except DeadlineExceededError:
            raise
        except BrokenProcessPool:
            for shard in state.plan.shards:
                self._rebuild_pool(shard.shard_id)
            if self.breaker is not None:
                self.breaker.record_failure()
            self._routes["parent_fallback"] += 1
            self._count(executed=1, fallbacks=1, errors=1)
            value = local()
            self._finish(deadline)
            return value
        except _ScatterTransportError:
            # A shard failed mid-iteration (lost state, timeout, transport).
            # One whole local execution replaces the distributed one — the
            # caller never sees a partially merged vector.
            self._routes["parent_fallback"] += 1
            self._count(executed=1, fallbacks=1, errors=1)
            value = local()
            self._finish(deadline)
            return value
        # Typed kernel errors (ConvergenceError, bad sources) raise through:
        # they are the same answer the monolithic kernel would give.
        if self.breaker is not None:
            self.breaker.record_success()
        self._routes["scatter"] += 1
        for shard in state.plan.shards:
            self._shard_executed[shard.shard_id] += 1
        self._count(executed=1, shipped=1)
        self._finish(deadline)
        return value

    def _scatter_matvec(self, state: _ShardedDataset, deadline: Optional[Deadline]):
        """The per-round fan-out closure ``scatter_rwr`` iterates with."""

        def matvec(rank: np.ndarray) -> np.ndarray:
            if deadline is not None and deadline.expired:
                self._abandon(deadline)
            deadline_at = deadline_wall_clock(deadline)
            futures = {
                shard.shard_id: self._pool(shard.shard_id).submit(
                    _shard_matvec, state.fingerprint, shard.shard_id,
                    rank, deadline_at,
                )
                for shard in state.plan.shards
            }
            product = np.empty_like(rank)
            for shard_id, future in futures.items():
                try:
                    partial = future.result(
                        timeout=None if deadline is None
                        else max(0.0, deadline.remaining())
                    )
                except WorkerDeadlineCancelled:
                    self._count(deadline_worker_cancelled=1)
                    raise
                except (DeadlineExceededError, BrokenProcessPool):
                    raise
                except FuturesTimeoutError:
                    self._abandon(deadline)
                except BaseException as error:
                    raise _ScatterTransportError(str(error)) from error
                product[state.rows[shard_id]] = partial
            return product

        return matvec

    def _note_worker_cancelled(self, future) -> None:
        if future.cancelled():
            return
        try:
            error = future.exception()
        except BaseException:  # pragma: no cover - shutdown race
            return
        if isinstance(error, WorkerDeadlineCancelled):
            self._count(deadline_worker_cancelled=1)

    # ------------------------------------------------------------------ #
    # lifecycle + stats
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._datasets_lock:
            states = list(self._datasets.values())
            self._datasets.clear()
            self._generations.clear()
        for state in states:
            state.release()
        with self._pool_lock:
            pools, self._pools = dict(self._pools), {}
        for pool in pools.values():
            pool.shutdown(wait=True)

    def stats(self) -> Dict[str, Any]:
        payload = super().stats()
        payload["shards"] = self.shards
        with self._datasets_lock:
            payload["datasets"] = {
                state.name: dict(
                    state.plan.describe(),
                    matvec_ready=state.matvec_ready,
                    # Worker pid per warmed shard — lets an operator (or a
                    # chaos drill) target one shard worker and watch the
                    # parent_fallback/heal counters respond.
                    workers={
                        str(shard): report.get("pid")
                        for shard, report in sorted(state.reports.items())
                    },
                )
                for state in self._datasets.values()
            }
        with self._stats_lock:
            payload["routed"] = {
                key: self._routes.get(key, 0)
                for key in ("single_shard", "scatter", "parent", "parent_fallback")
            }
            payload["per_shard"] = {
                str(shard): count
                for shard, count in sorted(self._shard_executed.items())
            }
        if self.breaker is not None:
            payload["breaker"] = self.breaker.describe()
        return payload


class _ScatterTransportError(ServiceError):
    """Internal: a scatter round lost a shard; fall back to local, whole."""
