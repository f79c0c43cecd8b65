"""The prepared-kernel layer as the service sees it.

Covers the plumbing the mining-level parity suite cannot: the
:class:`DatasetHandle` caches one ``PreparedGraph`` per fingerprint and
reuses it across queries, hot-reload swaps it out with the handle, process
workers prepare at warm time, every venue computes on a private
preparation (never on shared memory another thread may unmap), and — the
acceptance bar — response payloads are byte-identical across every
backend whether the prepared cache was cold or hot.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import GMineClient
from repro.graph.io import write_json
from repro.graph.matrix import PreparedGraph
from repro.graph.shm import SharedPreparedGraph
from repro.service import BACKEND_NAMES, GMineService
from repro.storage.gtree_store import save_gtree

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module")
def dataset_files(service_dataset, tmp_path_factory):
    """Store + graph persisted so process workers can reopen both by path."""
    dataset, tree = service_dataset
    root = tmp_path_factory.mktemp("prepared")
    store_file = root / "prepared.gtree"
    graph_file = root / "prepared.json"
    save_gtree(tree, store_file)
    write_json(dataset.graph, graph_file)
    return store_file, graph_file


@pytest.fixture(scope="module")
def widest_requests(service_dataset):
    """Widest-scope traffic — the scope the prepared layer accelerates."""
    _, tree = service_dataset
    leaf = max(tree.leaves(), key=lambda node: node.size)
    members = list(leaf.members[:8])
    return [
        ("rwr", {"sources": members}),
        ("rwr", {"sources": members[:2], "solver": "exact"}),
        ("metrics", {"hop_sample_size": 16}),
        ("connection_subgraph", {"sources": members[:3], "budget": 12}),
    ]


class TestHandlePreparedCache:
    def test_prepared_builds_once_and_only_on_demand(
        self, service_dataset, dataset_files, widest_requests
    ):
        dataset, _ = service_dataset
        store_file, _ = dataset_files
        with GMineService() as service:
            service.register_store(store_file, graph=dataset.graph, name="dblp")
            handle = service.registry_of_datasets.get("dblp")
            views = service.registry_of_datasets.prepared_views
            assert views.peek(handle.fingerprint) is None, "preparation must be lazy"
            assert handle.describe()["prepared"] is False
            op, args = widest_requests[0]
            service.call(op, **args)
            assert views.peek(handle.fingerprint) is not None
            first = handle.prepared_graph()
            service.call("metrics", hop_sample_size=16)
            assert handle.prepared_graph() is first, "one preparation per root"
            assert handle.describe()["prepared"] is True

    def test_community_scope_does_not_engage_prepared(
        self, service_dataset, dataset_files
    ):
        dataset, tree = service_dataset
        store_file, _ = dataset_files
        leaf = max(tree.leaves(), key=lambda node: node.size)
        with GMineService() as service:
            service.register_store(store_file, graph=dataset.graph, name="dblp")
            handle = service.registry_of_datasets.get("dblp")
            service.metrics(community=leaf.label)
            views = service.registry_of_datasets.prepared_views
            assert views.peek(handle.fingerprint) is None, (
                "community scope must not build the full-graph view"
            )

    def test_store_only_dataset_has_no_prepared_view(self, dataset_files):
        store_file, _ = dataset_files
        with GMineService() as service:
            service.register_store(store_file, name="dblp")
            handle = service.registry_of_datasets.get("dblp")
            assert handle.prepared_graph() is None
            assert handle.prepared_provider(None, object()) is None

    def test_reload_swaps_the_prepared_cache(self, tmp_path):
        """A content-changing reload retires the preparation with its handle;
        a no-op reload keeps both (no redundant O(E) conversion)."""
        import os

        from repro.core.builder import build_gtree
        from repro.data.dblp import DBLPConfig, generate_dblp

        store_file = tmp_path / "reload.gtree"
        graph_file = tmp_path / "reload.json"

        def build(seed: int):
            built = generate_dblp(DBLPConfig(num_authors=150, seed=seed))
            tree = build_gtree(built.graph, fanout=3, levels=2, seed=seed)
            for staging, writer in (
                (tmp_path / f"s{seed}.gtree", lambda p: save_gtree(tree, p)),
                (tmp_path / f"s{seed}.json", lambda p: write_json(built.graph, p)),
            ):
                writer(staging)
            os.replace(tmp_path / f"s{seed}.gtree", store_file)
            os.replace(tmp_path / f"s{seed}.json", graph_file)
            return built

        first = build(3)
        with GMineService() as service:
            service.register_store(
                store_file, name="dblp", graph_path=graph_file,
            )
            sources = sorted(first.graph.nodes(), key=repr)[:3]
            service.rwr(sources)
            before = service.registry_of_datasets.get("dblp").prepared_graph()
            assert before is not None

            report = service.reload_dataset("dblp")  # unchanged content
            assert not report["changed"]
            handle = service.registry_of_datasets.get("dblp")
            views = service.registry_of_datasets.prepared_views
            assert views.peek(handle.fingerprint) is not None, (
                "no-op reload must keep the view"
            )
            assert handle.prepared_graph() is before

            second = build(7)
            report = service.reload_dataset("dblp")
            assert report["changed"]
            handle = service.registry_of_datasets.get("dblp")
            assert views.peek(handle.fingerprint) is None, (
                "reload must drop the old view"
            )
            service.rwr(sorted(second.graph.nodes(), key=repr)[:3])
            after = handle.prepared_graph()
            assert after is not None and after is not before
            assert after.fingerprint == handle.fingerprint != before.fingerprint


class TestPreparedByteParity:
    def test_backends_agree_cold_and_warm(
        self, service_dataset, dataset_files, widest_requests
    ):
        """The acceptance bar: identical bytes across backends, cold or hot.

        Each backend serves the same widest-scope requests twice: the first
        pass builds the PreparedGraph mid-flight (cold prepare), the second
        runs fully warm after the result cache is cleared (prepared cache
        hit, recomputed kernel).  Every payload must match everywhere.
        """
        dataset, _ = service_dataset
        store_file, graph_file = dataset_files
        passes = {}
        for backend in BACKEND_NAMES:
            with GMineService(backend=f"{backend}:2") as service:
                service.register_store(
                    store_file, graph=dataset.graph, name="dblp",
                    graph_path=graph_file,
                )
                client = GMineClient.in_process(service)
                cold = [
                    client.query_raw(op, args=args) for op, args in widest_requests
                ]
                service.cache.clear()
                warm = [
                    client.query_raw(op, args=args) for op, args in widest_requests
                ]
                passes[backend] = (cold, warm)
        reference_cold, reference_warm = passes["inline"]
        assert reference_cold == reference_warm, "prepared cache hit changed bytes"
        for backend, (cold, warm) in passes.items():
            assert cold == reference_cold, f"{backend} cold pass diverged"
            assert warm == reference_warm, f"{backend} warm pass diverged"

    def test_process_workers_prepare_at_warm_time_and_plans_consume_it(
        self, service_dataset, dataset_files, widest_requests
    ):
        from repro.api.ops import DEFAULT_REGISTRY
        from repro.mining.rwr import steady_state_rwr
        from repro.service.executors import (
            _WORKER_DATASETS,
            _process_execute,
            _process_warm,
        )

        dataset, _ = service_dataset
        store_file, graph_file = dataset_files
        # Run the worker entry points in-process (they are plain
        # functions): after warming, the cached context must hold a built
        # PreparedGraph, and a widest-scope plan must actually consume it.
        with GMineService() as service:
            service.register_store(
                store_file, graph=dataset.graph, name="dblp",
                graph_path=graph_file,
            )
            spec = service.registry_of_datasets.get("dblp").exec_spec()
        assert spec.process_capable
        try:
            _process_warm(spec)
            key = (spec.store_path, spec.graph_path)
            fingerprint, context = _WORKER_DATASETS[key]
            assert fingerprint == spec.fingerprint
            provider = context.prepared_provider
            assert provider._prepared is not None, "warm task must prepare"
            assert type(provider._prepared) is PreparedGraph, (
                "a worker computes on its own preparation, not an attachment"
            )
            prepared = provider(None, context.engine.graph)
            assert prepared is provider._prepared
            assert provider("some-community", context.engine.graph) is None

            # Plans must *consume* the preparation, not merely build it:
            # drop the cached view, execute a widest-scope plan through
            # the worker path, and the provider must have rebuilt it —
            # with the kernel's result bit-identical to a cold solve.
            provider._prepared = None
            op, args = widest_requests[0]
            rwr_spec = DEFAULT_REGISTRY.get(op)
            plan = rwr_spec.plan(rwr_spec.canonicalize(args))
            result = _process_execute(spec, plan)
            assert provider._prepared is not None, (
                "worker plan execution bypassed the prepared provider"
            )
            cold = steady_state_rwr(dataset.graph, args["sources"])
            assert result.scores == cold.scores
        finally:
            cached = _WORKER_DATASETS.pop((spec.store_path, spec.graph_path), None)
            if cached is not None:
                cached[1].engine.store.close()


#: A reader thread loops widest-scope power RWR while the main thread
#: applies one-edge edits and reloads.  Run in a subprocess: when the
#: parent computed on shared-memory views, an edit unmapped the pages
#: under the running matvec and this died of SIGSEGV (or read torn bytes).
READER_VS_EDITS = """\
import threading
from repro.api import dumps, encode_result
from repro.core.builder import build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.service import GMineService
graph = generate_dblp(DBLPConfig(num_authors=400, seed=5)).graph
tree = build_gtree(graph, fanout=3, levels=2, seed=5)
u, v, w = next(iter(graph.edges()))
edits = [[{"action": "add_edge", "u": u, "v": v, "weight": w + d}] for d in (1.0, 0.0)]
sources = [sorted(graph.nodes(), key=repr)[i:i + 2] for i in (0, 2)]
def rwr(service, sources):
    return dumps(encode_result(service.registry.get("rwr"), service.call("rwr", sources=sources))[0])
def read(service, seen, stop):
    while not stop.is_set():
        seen.append(rwr(service, sources[len(seen) % 2]))
with GMineService(backend="inline") as reference:
    reference.register_tree(tree, graph=graph)
    expected = {rwr(reference, s) for s in sources}
    reference.apply_dataset(None, edits[0])
    expected |= {rwr(reference, s) for s in sources}
seen, stop = [], threading.Event()
with GMineService(backend="process:2", cache_capacity=1) as service:
    service.register_tree(tree, graph=graph)
    reader = threading.Thread(target=read, args=(service, seen, stop))
    reader.start()
    for step in range(40):  # one-edge edits and reloads under the running reader
        service.apply_dataset(None, edits[step % 2])
        service.reload_dataset(None)
    stop.set(), reader.join()
assert seen and set(seen) <= expected, "an answer matches neither content version"
"""


class TestPrivatePreparation:
    def test_process_backend_parent_keeps_a_plain_prepared_graph(
        self, service_dataset, dataset_files
    ):
        dataset, _ = service_dataset
        store_file, graph_file = dataset_files
        with GMineService(backend="process:2") as service:
            service.register_store(
                store_file, graph=dataset.graph, name="dblp",
                graph_path=graph_file,
            )
            prepared = service.registry_of_datasets.get("dblp").prepared_graph()
            assert type(prepared) is PreparedGraph
            assert not isinstance(prepared, SharedPreparedGraph)

    def test_edits_and_reloads_never_tear_a_running_kernel(self, tmp_path):
        assert len(READER_VS_EDITS.splitlines()) <= 30
        script = tmp_path / "reader_vs_edits.py"
        script.write_text(READER_VS_EDITS, encoding="utf-8")
        src = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, capture_output=True,
            text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src),
        )
        assert completed.returncode == 0, (
            f"reproducer exited {completed.returncode} (-11 is SIGSEGV):\n"
            f"{completed.stderr[-2000:]}"
        )
