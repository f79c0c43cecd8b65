"""The traced run: per-layer metrics from outside the program.

Three sources, all spans recorded by this file around calls into public
functions:

* **replay** — a single-client replay of the workload's request list at
  successive entry depths (client → raw HTTP → ``ProtocolRouter.handle`` →
  ``GMineService.execute``), each replay starting from the same primed
  cache so the hit/miss sequence is identical and spans of one request id
  line up; then, for the requests that missed, ``backend.run`` →
  ``run_plan`` → scope materialisation → kernel, which never touch the
  cache.  A layer's self time is its span minus the span one depth below
  for the same request id.
* **probes** — direct timings of one layer's public functions on the
  workload's own dataset (partition, storage, matrix, kernels, GPath,
  wire, edits, shards).  They run on every workload, so every metric is
  defined everywhere.
* **counts** — ``stats()`` deltas and the workload-specific end-to-end
  numbers from a short untraced timed phase.

A metric a workload cannot exercise (``api.http.self_us`` in-process, the
replay on ``ingest_open``) is reported as 0.
"""

from __future__ import annotations

import http.client
import json
import pickle
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

import traces
from harness import InvalidRun, Tracer, median
from repro.api import (
    KERNELS,
    GMineAsyncHTTPServer,
    GMineClient,
    OpContext,
    ProtocolRouter,
    Request,
    Response,
    dumps,
    encode_result,
    run_plan,
)
from repro.core.editing import GraphEditor, apply_edit_script
from repro.graph.io import load_graph_auto, write_json
from repro.graph.matrix import PreparedGraph
from repro.graph.shm import SharedPreparedGraph
from repro.mining import (
    compute_subgraph_metrics,
    extract_connection_subgraph,
    steady_state_rwr,
)
from repro.query import compile_query, evaluate_path, parse
from repro.service import GMineService
from repro.shard.planner import ShardPlanner
from repro.storage import GTreeStore, save_gtree
from workloads import (
    WORKERS,
    Artifacts,
    Measured,
    Workload,
    build_dataset,
    edge_cut_ratio,
    query_call,
    session_args,
)

MISS_SAMPLE = 60
PROBE_REPEATS = 5

MS, US = 1e3, 1e6


# --------------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------------- #
class Replayer:
    """Replays one request list at each entry depth of a live service."""

    def __init__(self, workload: Workload, prime: List[dict],
                 requests: List[dict], tracer: Tracer) -> None:
        self.service: GMineService = workload.service
        self.tracer = tracer
        self.prime, self.requests = prime, requests
        self.local = GMineClient.in_process(self.service)
        self.session = None
        if any(r["op"] == "session.step" for r in prime + requests):
            self.session = self.local.create_session()["session_id"]
        self.url = None if workload.server is None else workload.server.url
        self.asyncio_front = isinstance(workload.server, GMineAsyncHTTPServer)

    def _reset(self) -> None:
        self.service.cache.clear()
        call = query_call(self.local, self.session)
        for request in self.prime:
            call(request)

    def _body(self, request: dict) -> dict:
        return Request(
            op=request["op"], args=session_args(request, self.session),
            page=request["page"], id=request["id"],
        ).to_dict()

    def depth(self, layer: str, parent: Optional[str],
              send: Callable[[dict], Any], record: bool = True):
        """Prime, then send every request through ``send`` under a span.

        Returns the replies and the seconds spent inside ``send``."""
        self._reset()
        replies, busy = [], 0.0
        for request in self.requests:
            start = time.perf_counter()
            replies.append(send(request))
            end = time.perf_counter()
            busy += end - start
            if record:
                self.tracer.record(layer, request["id"], start, end, parent)
        return replies, busy

    def _plannable(self, request: dict) -> bool:
        spec = self.service.registry.get(request["op"])
        return spec.planner is not None and spec.cost == "expensive"

    def run(self) -> Dict[str, float]:
        client = (GMineClient.in_process(self.service) if self.url is None
                  else GMineClient.http(self.url))
        send_client = query_call(client, self.session)
        # one throwaway pass (leaf page-in, worker-side factor caches), then
        # the same replay with recording off: what tracing itself costs
        self.depth("client", None, send_client, record=False)
        _, untraced = self.depth("client", None, send_client, record=False)
        _, traced = self.depth("client", None, send_client)
        outer = "client"
        if self.url is not None:
            outer = "http"
            self._raw_depth()
        router = ProtocolRouter(self.service)
        self.depth("router", outer, lambda r: router.handle(
            "POST", "/v1/query", self._body(r)))
        results, _ = self.depth("execute", "router", lambda r: self.service.execute({
            "op": r["op"], "args": session_args(r, self.session),
            "dataset": None, "deadline_ms": None,
        }))
        failed = [r["id"] for r, result in zip(self.requests, results)
                  if not result.ok]
        if failed:
            raise InvalidRun(f"replay: requests failed at execute: {failed[:5]}")
        hits = [r["id"] for r, result in zip(self.requests, results)
                if result.cached]
        computed = [r for r, result in zip(self.requests, results)
                    if not result.cached and self._plannable(r)]
        self._miss_path(computed[:MISS_SAMPLE])
        return self._metrics(hits, [r["id"] for r in computed],
                             100.0 * (traced - untraced) / untraced)

    def _raw_depth(self) -> None:
        """A bare POST of the same bodies: HTTP without the shipped client.

        One connection per request, closed by the server, as the shipped
        client does it.  (A keep-alive connection would not measure the
        same thing: the threaded front-end answers in two writes, and the
        second then waits ~40 ms for the client's delayed ACK.)
        """
        target = urlparse(self.url)
        headers = {"Content-Type": "application/json", "Connection": "close"}
        bodies = {r["id"]: json.dumps(self._body(r)) for r in self.requests}

        def send(request: dict) -> bytes:
            connection = http.client.HTTPConnection(
                target.hostname, target.port, timeout=30)
            try:
                connection.request("POST", "/v1/query", bodies[request["id"]],
                                   headers)
                return connection.getresponse().read()
            finally:
                connection.close()

        self.depth("http", "client", send)

    def _miss_path(self, misses: Sequence[dict]) -> None:
        """backend.run → run_plan → subgraph → kernel for plannable misses.

        None of these touch the result cache, so no priming is needed; the
        plan is compiled by the registry exactly as the service does it.
        """
        service, tracer = self.service, self.tracer
        handle = service.registry_of_datasets.get(None)
        for request in misses:
            spec = service.registry.get(request["op"])
            rid = request["id"]
            canonical = tracer.call(
                "canonicalize", rid, "execute",
                lambda: spec.canonicalize(dict(request["args"]), handle.context))
            plan = tracer.call("plan", rid, "execute",
                               lambda: spec.plan(canonical))
            ctx = OpContext(engine=handle.make_engine(),
                            prepared_provider=handle.prepared_provider)

            def local(spec=spec, ctx=ctx, canonical=canonical):
                return spec.handler(ctx, canonical)

            tracer.call("backend", rid, "execute", lambda: service.backend.run(
                handle.exec_spec(), plan, local))
            tracer.call("run_plan", rid, "backend", lambda: run_plan(
                plan, ctx.community_subgraph, ctx.prepared_for))
            subgraph = tracer.call("subgraph", rid, "run_plan",
                                   lambda: ctx.community_subgraph(plan.scope))
            prepared = ctx.prepared_for(plan.scope, subgraph)
            tracer.call("kernel", rid, "run_plan", lambda: KERNELS[plan.kernel](
                subgraph, plan.arg_dict, prepared))

    def _metrics(self, hits: List[str], misses: List[str],
                 overhead_pct: float) -> Dict[str, float]:
        tracer = self.tracer
        client = tracer.durations("client")
        execute = tracer.durations("execute")
        kernel = tracer.durations("kernel")
        subgraph = tracer.durations("subgraph")
        front_self = 0.0
        below_client = "router"
        if self.url is not None:
            front_self = median(tracer.self_times("http", "router")) * US
            below_client = "http"
        sampled = [rid for rid in misses if rid in kernel]
        kernel_s = sum(kernel[rid] + subgraph[rid] for rid in sampled)
        # kernel time is only measured on a sample of the misses: scale it
        # to all of them before taking its share of the replayed time
        scale = len(misses) / len(sampled) if sampled else 0.0
        hit_api = [1.0 - execute[rid] / client[rid] for rid in hits]
        return {
            "api.client.self_us":
                median(tracer.self_times("client", below_client)) * US,
            "api.http.self_us": 0.0 if self.asyncio_front else front_self,
            "api.aio.self_us": front_self if self.asyncio_front else 0.0,
            "api.router.self_us":
                median(tracer.self_times("router", "execute")) * US,
            "service.execute_hit_us":
                median([execute[rid] for rid in hits]) * US,
            "service.execute_miss_self_us":
                median(tracer.self_times("execute", "backend")) * US,
            "service.executors.dispatch_self_ms":
                median(tracer.self_times("backend", "run_plan")) * MS,
            "replay.hit_ratio": len(hits) / len(self.requests),
            "replay.kernel_share_pct":
                100.0 * kernel_s * scale / sum(client.values()),
            "replay.hit_api_share_pct": 100.0 * median(hit_api),
            "trace_overhead_pct": overhead_pct,
        }


REPLAY_METRICS = (
    "api.client.self_us", "api.http.self_us", "api.aio.self_us",
    "api.router.self_us", "service.execute_hit_us",
    "service.execute_miss_self_us", "service.executors.dispatch_self_ms",
    "replay.hit_ratio", "replay.kernel_share_pct", "replay.hit_api_share_pct",
    "trace_overhead_pct",
)


# --------------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------------- #
class Probes:
    """Direct timings of each layer's public functions on one dataset."""

    def __init__(self, art: Artifacts, seed: int, workdir: Path,
                 tracer: Tracer) -> None:
        self.art = art
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.values: Dict[str, float] = {}
        leaves = art.catalog.leaves
        self.leaf = leaves[0]
        self.mid = art.catalog.by_label(self.leaf.parent)
        self.sources = list(self.leaf.members[:2])

    def timed(self, layer: str, fn: Callable[[], Any],
              repeats: int = PROBE_REPEATS) -> Tuple[float, Any]:
        """Median seconds of ``repeats`` calls, each one a span."""
        taken, value = [], None
        for index in range(repeats):
            start = time.perf_counter()
            value = fn()
            end = time.perf_counter()
            self.tracer.record(layer, f"probe{index}", start, end)
            taken.append(end - start)
        return median(taken), value

    def run(self, live: GMineService) -> Dict[str, float]:
        self._persist()
        self._core()
        self._storage()
        self._graph()
        self._mining()
        self._query()
        self._api()
        self._service()
        self._shard(live)
        return self.values

    def _persist(self) -> None:
        art, values = self.art, self.values
        values["partition.edge_cut_ratio"] = edge_cut_ratio(art.tree, art.graph)
        if art.store_path is None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            art.store_path = self.workdir / "probe.gtree"
            art.graph_path = self.workdir / "probe.graph.json"
            art.parts["storage.save_s"], _ = self.timed(
                "storage.save", lambda: save_gtree(art.tree, art.store_path), 1)
            art.parts["graph.io.write_s"], _ = self.timed(
                "graph.io.write", lambda: write_json(art.graph, art.graph_path), 1)
        values.update(art.parts)

    def _edit(self, step: int) -> List[dict]:
        u, v = self.leaf.members[0], self.leaf.members[1]
        return [{"action": "add_edge", "u": u, "v": v, "weight": 3.0 + step}]

    def _core(self) -> None:
        art, values = self.art, self.values
        seconds, _ = self.timed("core.fingerprint", art.tree.fingerprint)
        values["core.fingerprint_ms"] = seconds * MS
        seconds, clone = self.timed("core.clone", art.tree.clone)
        values["core.clone_ms"] = seconds * MS
        editor = GraphEditor(art.graph.copy(), clone)
        steps = iter(range(PROBE_REPEATS))
        seconds, _ = self.timed(
            "core.editing.apply_script",
            lambda: apply_edit_script(editor, self._edit(next(steps))))
        values["core.editing.apply_script_ms"] = seconds * MS

    def _storage(self) -> None:
        art, values = self.art, self.values
        opened: List[GTreeStore] = []
        seconds, _ = self.timed(
            "storage.open", lambda: opened.append(GTreeStore(art.store_path)))
        values["storage.open_ms"] = seconds * MS
        for store in opened:
            store.close()
        leaf_ids = [node.node_id for node in art.tree.leaves()]
        # a pool smaller than the leaf count, scanned forward then back:
        # only the turn-around is still resident, the rest pages in again
        with GTreeStore(art.store_path, cache_capacity=max(2, len(leaf_ids) // 3)) as store:
            loads = []
            begin = time.perf_counter()
            for scan in (leaf_ids, leaf_ids[::-1]):
                for node_id in scan:
                    start = time.perf_counter()
                    store.load_leaf_subgraph(node_id)
                    end = time.perf_counter()
                    self.tracer.record("storage.load_leaf",
                                       f"probe{len(loads)}", start, end)
                    loads.append(end - start)
            elapsed = time.perf_counter() - begin
            stats = store.stats
            values["storage.load_leaf_ms"] = median(loads) * MS
            values["storage.scan_leaves_per_s"] = len(loads) / elapsed
            values["storage.buffer_pool.hit_ratio"] = stats.buffer_pool.hit_rate
            values["storage.pager.bytes_read_per_leaf"] = (
                stats.pager.bytes_read / max(1, stats.leaves_loaded))
        values["storage.bytes_per_edge"] = (
            art.store_path.stat().st_size / art.graph.num_edges)

    def _graph(self) -> None:
        art, values = self.art, self.values
        seconds, _ = self.timed("graph.io.read",
                                lambda: load_graph_auto(art.graph_path), 3)
        values["graph.io.read_ms"] = seconds * MS
        seconds, prepared = self.timed(
            "graph.matrix.prepare", lambda: _prepare(art.graph), 3)
        values["graph.matrix.prepare_ms"] = seconds * MS
        self.prepared = prepared
        seconds, _ = self.timed(
            "graph.subgraph", lambda: art.graph.subgraph(self.mid.members))
        values["graph.subgraph_ms"] = seconds * MS
        shared: List[SharedPreparedGraph] = []
        try:
            seconds, _ = self.timed(
                "graph.shm.publish",
                lambda: shared.append(SharedPreparedGraph.publish(prepared)), 3)
            values["graph.shm.publish_ms"] = seconds * MS
            attached: List[SharedPreparedGraph] = []
            seconds, _ = self.timed(
                "graph.shm.attach",
                lambda: attached.append(
                    SharedPreparedGraph.attach(shared[0].manifest)))
            values["graph.shm.attach_ms"] = seconds * MS
            for view in attached:
                view.release()
        finally:
            for view in shared:
                view.release()

    def _mining(self) -> None:
        art, values = self.art, self.values
        vertices = art.catalog.root.members
        picks = iter(range(0, 10 * PROBE_REPEATS, 2))

        def power():
            start = next(picks)
            return steady_state_rwr(art.graph, list(vertices[start:start + 2]),
                                    prepared=self.prepared)

        seconds, result = self.timed("mining.rwr_power", power)
        values["mining.rwr_power_ms"] = seconds * MS
        values["mining.rwr_power_iterations"] = result.iterations
        # one factorisation per prepared graph: time the steady state after it
        steady_state_rwr(art.graph, list(vertices[:1]), solver="exact",
                         prepared=self.prepared)
        seconds, _ = self.timed("mining.rwr_exact", lambda: steady_state_rwr(
            art.graph, list(vertices[2:4]), solver="exact",
            prepared=self.prepared))
        values["mining.rwr_exact_ms"] = seconds * MS
        seconds, _ = self.timed("mining.ceps", lambda: extract_connection_subgraph(
            art.graph, list(vertices[:3]), prepared=self.prepared))
        values["mining.ceps_ms"] = seconds * MS
        leaf_graph = art.tree.by_label(self.leaf.label).subgraph
        seconds, _ = self.timed("mining.metrics_suite",
                                lambda: compute_subgraph_metrics(leaf_graph))
        values["mining.metrics_suite_ms"] = seconds * MS

    def _query(self) -> None:
        art, values = self.art, self.values
        text = (f"community({self.leaf.label})/members/hops(1)/"
                f"rwr(sources=[{self.sources[0]!r}])/top(10)")
        seconds, ast = self.timed("query.parse", lambda: parse(text), 50)
        values["query.parse_us"] = seconds * US
        seconds, compiled = self.timed(
            "query.compile", lambda: compile_query(ast, art.tree), 50)
        values["query.compile_us"] = seconds * US
        scope = art.graph.subgraph(
            art.catalog.by_label(compiled.community).members
        ) if compiled.community is not None else art.graph
        seconds, _ = self.timed("query.evaluate",
                                lambda: evaluate_path(scope, compiled.plan))
        values["query.evaluate_ms"] = seconds * MS

    def _api(self) -> None:
        """Wire and plan costs of a cache-hit top-20 RWR answer."""
        art, values = self.art, self.values
        with GMineService(backend="inline") as service:
            service.register_tree(art.tree, graph=art.graph)
            spec = service.registry.get("rwr")
            handle = service.registry_of_datasets.get(None)
            value = service.call("rwr", sources=self.sources)
            args = {"sources": self.sources, "community": self.leaf.label}
            seconds, canonical = self.timed(
                "api.plans.compile",
                lambda: spec.canonicalize(dict(args), handle.context), 50)
            plan_s, plan = self.timed("api.plans.compile",
                                      lambda: spec.plan(canonical), 50)
            values["api.plans.compile_us"] = (seconds + plan_s) * US
            values["api.plans.pickle_bytes"] = len(pickle.dumps(plan))

            def encode() -> bytes:
                payload, page = encode_result(spec, value, {"top_k": 20})
                return dumps(Response(ok=True, op="rwr", result=payload,
                                      page=page).to_dict())

            seconds, raw = self.timed("api.wire.encode", encode, 50)
            values["api.wire.encode_us"] = seconds * US
            seconds, _ = self.timed(
                "api.wire.decode",
                lambda: Response.from_dict(json.loads(raw.decode("utf-8"))), 50)
            values["api.wire.decode_us"] = seconds * US

    def _service(self) -> None:
        """The write path on a mutable copy: apply, survival, sessions, feeds."""
        art, values = self.art, self.values
        working = traces.reader_working_set(art.catalog, self.seed)
        with GMineService(backend="inline") as service:
            # apply is copy-on-write, so the benchmark's tree is never edited
            service.register_tree(art.tree, graph=art.graph)
            client = GMineClient.in_process(service)
            call = query_call(client)
            for request in working:
                call(request)
            report = service.apply_dataset(None, self._edit(0))
            values["service.datasets.invalidated_fraction"] = (
                report["invalidated"] / len(working))
            cached = [client.query(r["op"], args=r["args"], page=r["page"]).cached
                      for r in working]
            values["service.cache.survival_ratio"] = sum(cached) / len(working)
            steps = iter(range(1, 1 + PROBE_REPEATS))
            seconds, _ = self.timed(
                "service.datasets.apply",
                lambda: service.apply_dataset(None, self._edit(next(steps))))
            values["service.datasets.apply_ms"] = seconds * MS

            session = client.create_session()["session_id"]
            labels = [leaf.label for leaf in art.catalog.leaves]
            turns = iter(range(50))
            seconds, _ = self.timed("service.sessions.step", lambda: service.execute({
                "op": "session.step",
                "args": {"session_id": session, "action": "focus",
                         "args": {"label": labels[next(turns) % len(labels)]}},
            }), 50)
            values["service.sessions.step_us"] = seconds * US
            values["service.feeds.publish_to_wake_ms"] = self._feed_wake(service)

    def _feed_wake(self, service: GMineService) -> float:
        """From ``apply`` returning to a blocked subscriber waking up."""
        wakes = []
        for step in range(10, 13):
            since = service.subscribe(None, since=0)["next_since"]
            woke: List[float] = []
            waiter = threading.Thread(target=lambda: (
                service.subscribe(None, since=since, timeout=5.0),
                woke.append(time.perf_counter())), daemon=True)
            waiter.start()
            time.sleep(0.02)  # let the subscriber block
            service.apply_dataset(None, self._edit(step))
            published = time.perf_counter()
            waiter.join()
            woken = max(published, woke[0])
            self.tracer.record("service.feeds.wake", f"probe{step}",
                               published, woken)
            wakes.append(woken - published)
        return median(wakes) * MS

    def _shard(self, live: Optional[GMineService]) -> None:
        """Shard planning, point-to-point routing against ``process:2`` on
        the same shard-owned plans, and one scatter-gather RWR."""
        art, values = self.art, self.values
        seconds, _ = self.timed("shard.planner.plan", lambda: ShardPlanner(
            WORKERS).plan(art.tree, art.graph, art.tree.fingerprint()), 3)
        values["shard.planner.plan_ms"] = seconds * MS
        members = self.leaf.members
        pairs = [[members[i], members[i + 1]] for i in range(len(members) - 1)]
        scoped = [{"sources": pair, "community": self.leaf.label}
                  for pair in pairs[:12]]
        vertices = art.catalog.root.members
        medians = {}
        for name in (f"process:{WORKERS}", f"sharded:{WORKERS}"):
            venue = name.partition(":")[0]
            own = live is None or live.backend.name != venue
            service = live
            if own:
                service = GMineService(backend=name, max_workers=WORKERS)
                service.register_store(art.store_path, graph_path=art.graph_path)
            try:
                service.call("rwr", **scoped[0])  # pool forked, slices attached
                service.cache.clear()
                requests = iter(scoped[1:])
                medians[name], _ = self.timed(
                    f"shard.route.{venue}",
                    lambda: service.call("rwr", **next(requests)),
                    len(scoped) - 1)
                if venue == "sharded":
                    starts = iter(range(10, 40, 2))
                    seconds, _ = self.timed(
                        "shard.scatter_rwr", lambda: service.call(
                            "rwr", sources=list(vertices[next(starts):][:2])), 4)
                    values["shard.scatter_rwr_ms"] = seconds * MS
            finally:
                if own:
                    service.close()
        values["shard.route_self_ms"] = (
            medians[f"sharded:{WORKERS}"] - medians[f"process:{WORKERS}"]) * MS


def _prepare(graph) -> PreparedGraph:
    """CSR plus the transition view every RWR kernel needs."""
    prepared = PreparedGraph.from_graph(graph)
    prepared.transition  # noqa: B018 — lazy view, built here on purpose
    return prepared


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def traced_run(workload: Workload, seconds: float,
               out_dir: Path) -> Tuple[Dict[str, float], Measured]:
    """Every per-layer metric for one workload, and the short timed phase
    the counts came from.  Writes ``out/trace-<workload>.json``."""
    tracer = Tracer()
    values = dict.fromkeys(COUNT_METRICS, 0.0)
    measured = workload.measure(seconds / 3.0)
    prime, requests = workload.replay_inputs()
    values.update(Replayer(workload, prime, requests, tracer).run() if requests
                  else dict.fromkeys(REPLAY_METRICS, 0.0))
    art = workload.art
    if art is None:  # ingest_open: probe a dataset of the size it ingests
        art = build_dataset(workload.seed, workload.sizes.ingest_authors,
                            workload.workdir / "probe")
    values.update(Probes(art, workload.seed, workload.workdir / "probe",
                         tracer).run(workload.service))
    # numbers from the real timed phase win over a probe of the same name
    values.update(measured.extras)
    tracer.write(out_dir / f"trace-{workload.name}.json", {
        "workload": workload.name, "seed": workload.seed,
        "spans": len(tracer.spans),
    })
    return values, measured


#: Counts and workload-specific numbers that only some workloads produce.
COUNT_METRICS = (
    "service.cache.hit_ratio", "service.cache.evictions",
    "service.cache.coalesced", "service.executors.shipped",
    "service.executors.fallbacks", "e2e.open_p95_ms", "e2e.max_rate_ok",
    "e2e.apply_p50_ms", "e2e.ingest_edges_per_s", "e2e.first_answer_ms",
    "e2e.ingest_s", "generator_lag_p95_ms",
)
