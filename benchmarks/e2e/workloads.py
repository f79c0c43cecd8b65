"""The four ``gmine-e2e`` workloads.

Each workload owns its set-up (dataset build, service boot, warm-up — all
charged to ``setup_s``), a correctness check against an in-process
``inline`` reference service, and a timed phase that only ever calls the
program's public surface.  Why each exists is recorded in ``BENCHMARK.json``
and in ``README.md``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import traces
from harness import (
    MAX_GENERATOR_LAG_MS,
    Call,
    InvalidRun,
    Phase,
    backlog_grows,
    closed_loop,
    median,
    open_loop,
    tail,
)
from repro.api import (
    GMineAsyncHTTPServer,
    GMineClient,
    GMineHTTPServer,
    dumps,
)
from repro.core.builder import GTreeBuilder, GTreeBuildOptions
from repro.core.editing import GraphEditor, apply_edit_script
from repro.graph.io import load_graph_auto, write_edge_list, write_json
from repro.partition import recursive_partition
from repro.partition.kway import KWayOptions
from repro.partition.metrics import cut_ratio
from repro.service import GMineService
from repro.storage import GTreeStore, load_gtree_fully, save_gtree

FANOUT = 5
LEVELS = 3  # root, 5 mid communities, 25 leaves
WORKERS = 2
PARITY_SAMPLE = 60
#: Requests the traced run replays at each entry depth.
REPLAY_REQUESTS = 200
#: Most requests per second of closed-loop time a trace is generated for;
#: a phase that exhausts its list ends early and says so.
TRACE_RATE = 800
LATENCY_LIMIT_MS = 100.0

@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``build_gtree`` is super-linear (1.1 s at 1000 authors,
    5.4 s at 2500, 21 s at 6000), and the driver allows ~37 s per run, three
    set-ups included — so the full size is what fits, not what is ideal."""

    shared_authors: int
    edit_authors: int
    ingest_authors: int
    warm_requests: int
    edge_lists: int
    opens_per_ingest: int


FULL = Sizes(shared_authors=1500, edit_authors=800, ingest_authors=600,
             warm_requests=800, edge_lists=8, opens_per_ingest=50)
QUICK = Sizes(shared_authors=400, edit_authors=400, ingest_authors=300,
              warm_requests=300, edge_lists=3, opens_per_ingest=50)


# --------------------------------------------------------------------------- #
# shared pieces
# --------------------------------------------------------------------------- #
@dataclass
class Artifacts:
    """One built dataset and how long each step of building it took."""

    graph: Any
    tree: Any
    catalog: traces.Catalog
    store_path: Optional[Path]
    graph_path: Optional[Path]
    parts: Dict[str, float]


def build_dataset(seed: int, authors: int, directory: Optional[Path]) -> Artifacts:
    """generate → partition → build → (save): the public pipeline, step by
    step so each layer's share of ``setup_s`` is known.  ``directory=None``
    keeps the dataset in memory."""
    parts: Dict[str, float] = {}

    def step(name: str, fn):
        start = time.perf_counter()
        value = fn()
        parts[name] = time.perf_counter() - start
        return value

    build_seed = traces.derive_seed(seed, "build") % 1000
    graph = step("data.generate_s", lambda: traces.dataset(
        traces.derive_seed(seed, "graph"), authors))
    hierarchy = step("partition.recursive_partition_s", lambda: recursive_partition(
        graph, fanout=FANOUT, levels=LEVELS,
        options=KWayOptions(seed=build_seed)))
    options = GTreeBuildOptions(fanout=FANOUT, levels=LEVELS, seed=build_seed)
    tree = step("core.build_gtree_s",
                lambda: GTreeBuilder(options).build(graph, hierarchy))
    store_path = graph_path = None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        store_path = directory / "shared.gtree"
        graph_path = directory / "shared.graph.json"
        step("storage.save_s", lambda: save_gtree(tree, store_path))
        step("graph.io.write_s", lambda: write_json(graph, graph_path))
    return Artifacts(graph, tree, traces.catalog_of(tree), store_path,
                     graph_path, parts)


def edge_cut_ratio(tree, graph) -> float:
    """Share of edges whose endpoints lie in different leaf communities."""
    assignment = {
        vertex: index
        for index, leaf in enumerate(tree.leaves())
        for vertex in leaf.members
    }
    return cut_ratio(graph, assignment)


def session_args(request: Dict[str, Any], session_id: Optional[str]) -> Dict[str, Any]:
    """The request's args, with the session placeholder filled in."""
    args = request["args"]
    if args.get("session_id") == traces.SESSION:
        return dict(args, session_id=session_id)
    return args


def query_call(client: GMineClient, session_id: Optional[str] = None) -> Call:
    """A :data:`harness.Call` sending trace requests through ``client``."""

    def call(request: Dict[str, Any]) -> bool:
        return client.query(
            request["op"], args=session_args(request, session_id),
            page=request["page"], request_id=request["id"],
        ).ok

    return call


def wire_bytes(client: GMineClient, request: Dict[str, Any]) -> bytes:
    """The response envelope's canonical bytes, minus the ``cached`` flag
    (the reference service is cold, the service under test is warm)."""
    raw = client.query_raw(request["op"], args=request["args"],
                           page=request["page"])
    payload = json.loads(raw.decode("utf-8"))
    payload.pop("cached", None)
    return dumps(payload)


def parity_problems(name: str, answers: Sequence[bytes], tree, graph,
                    sample: Sequence[Dict[str, Any]]) -> List[str]:
    """Compare ``answers`` with an in-process ``inline`` reference service."""
    problems = []
    with GMineService(backend="inline") as reference:
        reference.register_tree(tree, graph=graph)
        client = GMineClient.in_process(reference)
        for request, answer in zip(sample, answers):
            expected = wire_bytes(client, request)
            if b'"ok":true' not in expected:
                problems.append(f"{name}: reference failed {request['id']}")
            elif answer != expected:
                problems.append(
                    f"{name}: {request['id']} ({request['op']}) differs from "
                    "the inline reference"
                )
    return problems


def stateless(requests: Sequence[Dict[str, Any]], count: int) -> List[Dict[str, Any]]:
    """The first ``count`` requests that do not depend on session state."""
    picked = [r for r in requests if r["op"] != "session.step"]
    return picked[:count]


def cache_counters(service: GMineService) -> Dict[str, float]:
    return dict(service.stats()["cache"])


def hit_ratio(before: Dict[str, float], after: Dict[str, float]) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


@dataclass
class Measured:
    """The timed part of one run."""

    primary: Phase
    phases: List[Phase]
    #: workload-specific end-to-end numbers (the ``e2e.*`` per-layer metrics)
    extras: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class Workload:
    """Set-up, correctness and the timed phase of one workload."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path,
                 seconds: float) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        #: the longest timed phase this instance will be asked for; traces
        #: are generated long enough for it at ``TRACE_RATE``
        self.seconds = seconds
        self.art: Optional[Artifacts] = None
        self.service: Optional[GMineService] = None
        self.server: Any = None

    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None

    def verify(self) -> List[str]:
        """Correctness checks that can run before the timed phase."""
        return []

    def measure(self, seconds: float) -> Measured:
        raise NotImplementedError

    def verify_after(self) -> List[str]:
        """Correctness checks on what the timed phase produced."""
        return []

    def replay_inputs(self) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
        """``(prime, requests)`` for the traced run's replay: the cache is
        cleared, ``prime`` is sent untimed, then ``requests`` at one entry
        depth.  Nothing to replay by default."""
        return [], []

    # shared by the three serving workloads
    def _boot(self, service: GMineService, front_end=None) -> None:
        self.service = service
        if front_end is not None:
            self.server = front_end(service, port=0).start()

    def _warm(self, requests: Sequence[Dict[str, Any]], call: Call) -> None:
        for request in requests:
            if not call(request):
                raise InvalidRun(f"{self.name}: warm-up request "
                                 f"{request['id']} failed")


# --------------------------------------------------------------------------- #
# 1. explore_zipf
# --------------------------------------------------------------------------- #
class ExploreZipf(Workload):
    """Store-backed dataset, inline backend, default 512-entry cache,
    threaded HTTP, the shipped client (a new connection per request).

    Phase A: two closed-loop clients.  Phase B: an open loop at three fixed
    rates, latency from the due time.
    """

    name = "explore_zipf"
    RATES = (100.0, 200.0, 300.0)
    #: share of ``--seconds``: phase A, then each of the three rates
    SPLIT = (0.55, 0.15, 0.15, 0.15)

    def setup(self) -> Dict[str, float]:
        art = self.art = build_dataset(
            self.seed, self.sizes.shared_authors, self.workdir)
        service = GMineService(backend="inline", max_workers=WORKERS)
        self._boot(service, GMineHTTPServer)
        service.register_store(art.store_path, graph_path=art.graph_path)
        local = GMineClient.in_process(service)
        self.sessions = [
            local.create_session()["session_id"] for _ in range(WORKERS)
        ]
        warm = self.sizes.warm_requests
        self.trace = traces.explore_zipf(
            art.catalog, self.seed, warm + int(self.seconds * TRACE_RATE))
        self._warm(self.trace[:warm], query_call(local, self.sessions[0]))
        self.clients = [GMineClient.http(self.server.url) for _ in range(WORKERS)]
        self.calls = [
            query_call(client, session)
            for client, session in zip(self.clients, self.sessions)
        ]
        # the socket path too: listener threads, urllib openers
        for call in self.calls:
            self._warm(self.trace[:10], call)
        return art.parts

    def verify(self) -> List[str]:
        sample = stateless(self.trace, PARITY_SAMPLE)
        answers = [wire_bytes(self.clients[0], r) for r in sample]
        return parity_problems(self.name, answers, self.art.tree,
                               self.art.graph, sample)

    def replay_inputs(self):
        warm = min(600, self.sizes.warm_requests)
        return self.trace[:warm], self.trace[warm:warm + REPLAY_REQUESTS]

    def measure(self, seconds: float) -> Measured:
        body = self.trace[self.sizes.warm_requests:]
        a_seconds = seconds * self.SPLIT[0]
        cap = int(a_seconds * TRACE_RATE)
        before = cache_counters(self.service)
        phase_a = closed_loop(
            "A", self.calls, [body[0:cap:2], body[1:cap:2]], a_seconds)
        phases = [phase_a]
        offset = cap
        ok_rate = 0.0
        notes = []
        for rate, share in zip(self.RATES, self.SPLIT[1:]):
            count = int(rate * seconds * share)
            phase = open_loop(f"B@{rate:g}", self.calls,
                              body[offset:offset + count], rate, seconds * share)
            offset += count
            phases.append(phase)
            late = tail(phase.lags_ms) > MAX_GENERATOR_LAG_MS
            if late:
                notes.append(f"{phase.name}: invalid, generator lag p95 "
                             f"{tail(phase.lags_ms):.1f} ms")
            meets = (
                not late and phase.failed == 0 and not backlog_grows(phase)
                and tail(phase.latencies_ms) <= LATENCY_LIMIT_MS
            )
            if meets:
                ok_rate = max(ok_rate, rate)
        after = cache_counters(self.service)
        middle = phases[2]
        extras = {
            "e2e.open_p95_ms": tail(middle.latencies_ms),
            "e2e.max_rate_ok": ok_rate,
            "generator_lag_p95_ms": max(tail(p.lags_ms) for p in phases[1:]),
            "service.cache.hit_ratio": hit_ratio(before, after),
            "service.cache.evictions": after["evictions"] - before["evictions"],
            "service.cache.coalesced": after["coalesced"] - before["coalesced"],
        }
        return Measured(phase_a, phases, extras, notes)


# --------------------------------------------------------------------------- #
# 2. mine_cold
# --------------------------------------------------------------------------- #
class MineCold(Workload):
    """Same store, in-process transport, ``process:2`` backend with
    shared-memory prepared graphs; no request ever repeats."""

    name = "mine_cold"
    WARM = 24

    def setup(self) -> Dict[str, float]:
        art = self.art = build_dataset(
            self.seed, self.sizes.shared_authors, self.workdir)
        service = GMineService(backend=f"process:{WORKERS}", max_workers=WORKERS)
        self._boot(service)
        service.register_store(art.store_path, graph_path=art.graph_path)
        self.trace = traces.mine_cold(
            art.catalog, self.seed,
            self.WARM + PARITY_SAMPLE + int(self.seconds * TRACE_RATE))
        self.clients = [GMineClient.in_process(service) for _ in range(WORKERS)]
        self.calls = [query_call(client) for client in self.clients]
        # the first plans wait for the pool to fork and attach the segment
        self._warm(self.trace[:self.WARM], self.calls[0])
        return art.parts

    def verify(self) -> List[str]:
        sample = self.trace[-PARITY_SAMPLE:]
        answers = [wire_bytes(self.clients[0], r) for r in sample]
        return parity_problems(self.name, answers, self.art.tree,
                               self.art.graph, sample)

    def replay_inputs(self):
        # every request computes, so nothing to prime
        return [], self.trace[-REPLAY_REQUESTS // 2:]

    def measure(self, seconds: float) -> Measured:
        body = self.trace[self.WARM:-PARITY_SAMPLE]
        before = cache_counters(self.service)
        phase = closed_loop("mine", self.calls, [body[0::2], body[1::2]], seconds)
        after = cache_counters(self.service)
        backend = self.service.stats()["backend"]
        extras = {
            "service.cache.hit_ratio": hit_ratio(before, after),
            "service.executors.shipped": backend["shipped"],
            "service.executors.fallbacks": backend["fallbacks"],
        }
        notes = []
        if phase.attempted >= len(body):
            notes.append("mine: request list exhausted before the deadline")
        return Measured(phase, [phase], extras, notes)

    def verify_after(self) -> List[str]:
        backend = self.service.stats()["backend"]
        if backend["fallbacks"] or not backend["shipped"]:
            return [f"mine_cold: the process backend did not ship every plan "
                    f"(shipped {backend['shipped']}, fallbacks "
                    f"{backend['fallbacks']})"]
        return []


# --------------------------------------------------------------------------- #
# 3. edit_while_read
# --------------------------------------------------------------------------- #
class EditWhileRead(Workload):
    """A mutable in-memory dataset behind the asyncio front-end: one writer
    applies a one-edit script every ``APPLY_PERIOD`` seconds (timed from the
    due time), one closed-loop reader cycles a working set that fits the
    cache."""

    name = "edit_while_read"
    APPLY_PERIOD = 0.25

    def setup(self) -> Dict[str, float]:
        art = self.art = build_dataset(self.seed, self.sizes.edit_authors, None)
        service = GMineService(backend="inline", max_workers=WORKERS)
        self._boot(service, GMineAsyncHTTPServer)
        service.register_tree(art.tree, graph=art.graph)
        self.working = traces.reader_working_set(art.catalog, self.seed)
        self.scripts = traces.edit_scripts(
            art.catalog, self.seed, int(self.seconds / self.APPLY_PERIOD) + 8,
            has_edge=art.graph.has_edge)
        self.applied = 0
        self.reader = GMineClient.http(self.server.url)
        self.writer = GMineClient.http(self.server.url)
        self._warm(self.working, query_call(self.reader))
        return art.parts

    def verify(self) -> List[str]:
        sample = self.working[:PARITY_SAMPLE]
        answers = [wire_bytes(self.reader, r) for r in sample]
        return parity_problems(self.name, answers, self.art.tree,
                               self.art.graph, sample)

    def replay_inputs(self):
        # half the working set primed: the replay sees both hits and misses
        return self.working[::2], list(self.working)

    def _apply(self, script: List[Dict[str, Any]]) -> bool:
        report = self.writer.apply_dataset("default", script)
        self.invalidated.append(report["invalidated"])
        self.applied += 1
        return True

    def measure(self, seconds: float) -> Measured:
        self.invalidated: List[int] = []
        rate = 1.0 / self.APPLY_PERIOD
        scripts = self.scripts[self.applied:]
        writes: List[Phase] = []
        writer = threading.Thread(
            target=lambda: writes.append(open_loop(
                "writer", [self._apply], scripts, rate, seconds)),
            daemon=True,
        )
        before = cache_counters(self.service)
        writer.start()
        reads = closed_loop("reader", [query_call(self.reader)],
                            [itertools.cycle(self.working)], seconds)
        writer.join()
        after = cache_counters(self.service)
        if not writes:
            raise InvalidRun("edit_while_read: the writer thread died")
        write = writes[0]
        extras = {
            "e2e.apply_p50_ms": median(write.latencies_ms),
            "generator_lag_p95_ms": tail(write.lags_ms),
            "service.cache.hit_ratio": hit_ratio(before, after),
            "service.datasets.invalidated_fraction":
                median(self.invalidated) / len(self.working),
        }
        return Measured(reads, [reads, write], extras)

    def verify_after(self) -> List[str]:
        """The live dataset must equal an out-of-band replay of the scripts."""
        editor = GraphEditor(self.art.graph.copy(), self.art.tree.clone())
        for script in self.scripts[:self.applied]:
            apply_edit_script(editor, script)
        expected = editor.tree.fingerprint()
        live = self.service.fingerprint()
        if live != expected:
            return [f"edit_while_read: live fingerprint {live[:12]} differs "
                    f"from the replay of {self.applied} scripts {expected[:12]}"]
        return []


# --------------------------------------------------------------------------- #
# 4. ingest_open
# --------------------------------------------------------------------------- #
class IngestOpen(Workload):
    """The cold path: ``dataset.ingest(store=...)`` of a fresh edge list,
    then ``opens_per_ingest`` times [new service → ``register_store`` →
    one widest-scope RWR, top-20].  Set-up is edge-list generation only.
    The OS page cache is warm: these are the sandbox's numbers, not a
    device's."""

    name = "ingest_open"

    def setup(self) -> Dict[str, float]:
        start = time.perf_counter()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.lists = []
        for index, graph_seed in enumerate(
                traces.ingest_seeds(self.seed, self.sizes.edge_lists)):
            graph = traces.dataset(graph_seed, self.sizes.ingest_authors)
            path = self.workdir / f"ingest-{index}.edges"
            write_edge_list(graph, path)
            vertices = sorted(v for v in graph.nodes() if graph.degree(v) > 0)
            self.lists.append({
                "path": path, "edges": graph.num_edges,
                "queries": traces.open_queries(
                    vertices, graph_seed, self.sizes.opens_per_ingest),
                "build_seed": graph_seed % 1000,
            })
        self.first_answers: List[bytes] = []
        self.cycles = 0
        return {"data.generate_s": time.perf_counter() - start}

    def _store(self, cycle: int) -> Path:
        return self.workdir / f"ingest-{cycle}.gtree"

    def _ingest(self, cycle: int) -> float:
        entry = self.lists[cycle % len(self.lists)]
        start = time.perf_counter()
        with GMineService(backend="inline") as service:
            reply = GMineClient.in_process(service).query("dataset.ingest", args={
                "name": "ingested", "path": str(entry["path"]),
                "fanout": FANOUT, "levels": LEVELS,
                "seed": entry["build_seed"], "store": str(self._store(cycle)),
            })
            elapsed = time.perf_counter() - start
        if not reply.ok:
            raise InvalidRun(f"ingest_open: dataset.ingest failed: {reply.error}")
        return elapsed

    def _open(self, cycle: int, request: Dict[str, Any], keep: bool) -> float:
        entry = self.lists[cycle % len(self.lists)]
        start = time.perf_counter()
        service = GMineService(backend="inline")
        try:
            service.register_store(self._store(cycle), graph_path=entry["path"])
            client = GMineClient.in_process(service)
            if keep:
                self.first_answers.append(wire_bytes(client, request))
                ok = True
            else:
                ok = query_call(client)(request)
            elapsed = time.perf_counter() - start
        finally:
            service.close()
        if not ok:
            raise InvalidRun(f"ingest_open: first answer {request['id']} failed")
        return elapsed

    def measure(self, seconds: float) -> Measured:
        phase = Phase("cold", "closed x1")
        ingest_s, edges = [], 0
        begin = time.perf_counter()
        first = self.cycles
        while True:
            cycle = self.cycles
            entry = self.lists[cycle % len(self.lists)]
            started = time.perf_counter()
            ingest_s.append(self._ingest(cycle))
            edges += entry["edges"]
            for request in entry["queries"]:
                phase.latencies_ms.append(
                    self._open(cycle, request, keep=cycle == 0) * 1000.0)
            phase.slice_rates.append(
                (1 + len(entry["queries"])) / (time.perf_counter() - started))
            self.cycles += 1
            done = self.cycles - first
            if time.perf_counter() - begin >= seconds and done >= 1:
                break
        phase.elapsed_s = time.perf_counter() - begin
        phase.attempted = len(ingest_s) + len(phase.latencies_ms)
        extras = {
            "e2e.ingest_edges_per_s": edges / sum(ingest_s),
            "e2e.first_answer_ms": median(phase.latencies_ms),
            "e2e.ingest_s": median(ingest_s),
        }
        return Measured(phase, [phase], extras)

    def verify_after(self) -> List[str]:
        """Cycle 0: the stored tree is valid and hashes like the store, and
        the first answers served from the store equal an inline reference
        serving the same tree from memory.

        The ingested tree is *not* compared with a second build of the same
        edge list: the partitioner's spectral bisection starts ARPACK from
        fresh OS entropy, so two builds of one graph differ.
        """
        entry = self.lists[0]
        problems = []
        tree = load_gtree_fully(self._store(0))
        tree.assert_valid()
        with GTreeStore(self._store(0)) as store:
            stored = store.fingerprint
        if stored != tree.fingerprint():
            problems.append("ingest_open: store fingerprint != tree fingerprint")
        graph = load_graph_auto(entry["path"])
        if sorted(tree.root.members) != sorted(graph.nodes()):
            problems.append("ingest_open: the tree does not cover the graph")
        sample = entry["queries"][:len(self.first_answers)]
        if len(sample) < 50:
            problems.append(f"ingest_open: only {len(sample)} answers to check")
        return problems + parity_problems(
            self.name, self.first_answers, tree, graph, sample)


WORKLOADS = {
    cls.name: cls for cls in (ExploreZipf, MineCold, EditWhileRead, IngestOpen)
}
