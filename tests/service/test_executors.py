"""Execution backend tests: plans, venues, parity, fallbacks, cost classes.

The contract under test is the heart of execution engine v2: every backend
— inline, process, sharded — executes the *same* picklable
:class:`~repro.api.plans.ComputePlan` through the same kernels, so the
encoded protocol payloads are byte-identical whichever venue computed them.
"""

import pickle

import pytest

from repro.api import GMineClient, plan_for, run_plan
from repro.api.ops import DEFAULT_REGISTRY
from repro.errors import ServiceError
from repro.service import (
    BACKEND_NAMES,
    DatasetExecSpec,
    GMineService,
    InlineBackend,
    ProcessBackend,
    make_backend,
)

pytestmark = pytest.mark.tier1


# --------------------------------------------------------------------------- #
# plans
# --------------------------------------------------------------------------- #
class TestComputePlans:
    def test_every_expensive_dataset_op_is_plannable(self):
        # session-scoped variants delegate to their dataset twin's plan,
        # so plannability is a dataset-scope property
        for spec in DEFAULT_REGISTRY:
            if spec.scope != "dataset":
                assert not spec.plannable, f"{spec.name} delegates: no plan"
            elif spec.cost == "expensive":
                assert spec.plannable, f"{spec.name} must compile to a plan"
            else:
                assert not spec.plannable, f"{spec.name} is cheap: no plan"

    def test_plan_is_picklable_and_pure(self, hot_leaf):
        leaf, members = hot_leaf
        spec = DEFAULT_REGISTRY.get("rwr")
        canonical = spec.canonicalize(
            {"sources": list(members), "community": leaf.label}
        )
        plan = spec.plan(canonical)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.operation == "rwr" and clone.scope == leaf.label
        assert clone.arg_dict["sources"] == sorted(set(members), key=repr)

    def test_run_plan_rejects_unknown_kernel(self):
        plan = plan_for("bogus", "no-such-kernel", {"community": None})
        with pytest.raises(ServiceError):
            run_plan(plan, lambda scope: None)

    def test_registry_describe_reports_plannability(self):
        table = {row["name"]: row["plannable"] for row in DEFAULT_REGISTRY.describe()}
        assert table["rwr"] is True
        assert table["connectivity"] is False


# --------------------------------------------------------------------------- #
# backend construction
# --------------------------------------------------------------------------- #
class TestMakeBackend:
    def test_names_resolve(self):
        assert isinstance(make_backend("inline"), InlineBackend)
        assert isinstance(make_backend("process"), ProcessBackend)
        assert isinstance(make_backend(None), InlineBackend)
        from repro.shard import ShardedBackend

        sharded = make_backend("sharded:2")
        assert isinstance(sharded, ShardedBackend)
        sharded.close()
        assert BACKEND_NAMES == ("inline", "process", "sharded")

    def test_worker_count_suffix(self):
        backend = make_backend("process:7")
        assert backend.workers == 7
        backend = make_backend("process:2", workers=9)
        assert backend.workers == 2

    def test_instances_pass_through(self):
        backend = InlineBackend()
        assert make_backend(backend) is backend

    def test_bad_selectors_raise(self):
        for retired in ("gpu", "thread", "thread:2", "auto", "auto:2"):
            with pytest.raises(ServiceError):
                make_backend(retired)
        with pytest.raises(ServiceError):
            make_backend("process:lots")
        with pytest.raises(ServiceError):
            ProcessBackend(workers=0)


# --------------------------------------------------------------------------- #
# cross-backend byte parity
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def parity_payloads(service_dataset, store_path):
    """The canonical wire bytes of a mixed request set, per backend."""
    _, tree = service_dataset
    leaf = max(tree.leaves(), key=lambda node: node.size)
    members = list(leaf.members[:2])
    requests = [
        ("rwr", {"sources": members, "community": leaf.label}),
        ("metrics", {"community": leaf.label}),
        ("connection_subgraph",
         {"sources": members, "community": leaf.label, "budget": 10}),
        ("connectivity", {}),
    ]
    payloads = {}
    for backend in BACKEND_NAMES:
        with GMineService(backend=f"{backend}:2") as service:
            service.register_store(store_path, name="dblp")
            client = GMineClient.in_process(service)
            payloads[backend] = [
                client.query_raw(op, args=args) for op, args in requests
            ]
            payloads[f"{backend}__stats"] = service.backend.stats()
    return payloads


class TestBackendParity:
    def test_all_backends_byte_identical(self, parity_payloads):
        # sharded is left out: on this store-only dataset (no full graph)
        # its shard workers cannot materialise communities; the shard
        # parity suites cover it on datasets served with their graph.
        assert parity_payloads["inline"] == parity_payloads["process"]

    def test_process_backend_actually_shipped(self, parity_payloads):
        stats = parity_payloads["process__stats"]
        # three expensive ops shipped; the cheap connectivity op never is
        assert stats["shipped"] == 3
        assert stats["executed"] == 3
        assert stats["fallbacks"] == 0

    def test_cheap_ops_bypass_backends(self, parity_payloads):
        for backend in BACKEND_NAMES:
            assert parity_payloads[f"{backend}__stats"]["executed"] == 3


# --------------------------------------------------------------------------- #
# process-backend fallbacks and warm reload safety
# --------------------------------------------------------------------------- #
class TestProcessFallbacks:
    def test_tree_dataset_falls_back_to_parent(self, service_dataset):
        dataset, tree = service_dataset
        leaf = max(tree.leaves(), key=lambda node: node.size)
        with GMineService(backend="process:2") as service:
            service.register_tree(tree, graph=dataset.graph, name="dblp")
            value = service.rwr(list(leaf.members[:2]), community=leaf.label)
            assert value.converged
            stats = service.backend.stats()
            assert stats["fallbacks"] == 1 and stats["shipped"] == 0

    def test_live_graph_without_path_falls_back(self, service_dataset, store_path):
        dataset, tree = service_dataset
        leaf = max(tree.leaves(), key=lambda node: node.size)
        with GMineService(backend="process:2") as service:
            # graph attached but not reloadable by file -> not process capable
            service.register_store(store_path, graph=dataset.graph, name="dblp")
            service.rwr(list(leaf.members[:2]), community=leaf.label)
            stats = service.backend.stats()
            assert stats["fallbacks"] == 1 and stats["shipped"] == 0

    def test_exec_spec_capability_rules(self):
        assert DatasetExecSpec("d", "fp", store_path="/x.gtree").process_capable
        assert not DatasetExecSpec("d", "fp").process_capable
        assert not DatasetExecSpec(
            "d", "fp", store_path="/x.gtree", has_graph=True
        ).process_capable
        assert DatasetExecSpec(
            "d", "fp", store_path="/x.gtree", graph_path="/x.json", has_graph=True
        ).process_capable


class TestStaleDatasetFallback:
    """A hot-reload racing a dispatched request must not surface errors."""

    def test_worker_context_preserves_warm_state_on_stale_plan(self, store_path):
        from repro.service import StaleDatasetError
        from repro.service.executors import _WORKER_DATASETS, _worker_context
        from repro.storage.gtree_store import GTreeStore

        with GTreeStore(store_path) as probe:
            real_fingerprint = probe.fingerprint
        key = (str(store_path), None)
        good = DatasetExecSpec("dblp", real_fingerprint, store_path=str(store_path))
        try:
            warm = _worker_context(good)
            stale = DatasetExecSpec("dblp", "0" * 16, store_path=str(store_path))
            with pytest.raises(StaleDatasetError):
                _worker_context(stale)
            # the stale probe must not have evicted the warm context
            assert _worker_context(good) is warm
        finally:
            cached = _WORKER_DATASETS.pop(key, None)
            if cached is not None:
                cached[1].engine.store.close()

    def test_failed_graph_load_keeps_old_warm_context(self, tmp_path):
        import os

        from repro.core.builder import build_gtree
        from repro.graph.generators import connected_caveman
        from repro.graph.io import write_json
        from repro.service.executors import _WORKER_DATASETS, _worker_context
        from repro.storage.gtree_store import GTreeStore, save_gtree

        store_file = tmp_path / "w.gtree"
        graph_file = tmp_path / "w.json"
        graph_v1 = connected_caveman(3, 6, seed=1)
        save_gtree(build_gtree(graph_v1, fanout=3, levels=2, seed=1), store_file)
        write_json(graph_v1, graph_file)

        def spec_for(fingerprint):
            return DatasetExecSpec(
                "w", fingerprint, store_path=str(store_file),
                graph_path=str(graph_file), has_graph=True,
            )

        key = (str(store_file), str(graph_file))
        try:
            with GTreeStore(store_file) as probe:
                fp_v1 = probe.fingerprint
            warm = _worker_context(spec_for(fp_v1))
            # Rebuild the store (new fingerprint) and corrupt the graph
            # file, as a torn rebuild would.
            graph_v2 = connected_caveman(4, 5, seed=2)
            staging = tmp_path / "w2.gtree"
            save_gtree(build_gtree(graph_v2, fanout=3, levels=2, seed=2), staging)
            os.replace(staging, store_file)
            with GTreeStore(store_file) as probe:
                fp_v2 = probe.fingerprint
            graph_file.write_text("{not json", encoding="utf-8")
            with pytest.raises(Exception):
                _worker_context(spec_for(fp_v2))
            # The failed replacement must not have closed or evicted the
            # old context: stale-fingerprint plans still find it warm.
            again = _worker_context(spec_for(fp_v1))
            assert again is warm
            assert again.engine.store.fingerprint == fp_v1
        finally:
            cached = _WORKER_DATASETS.pop(key, None)
            if cached is not None:
                cached[1].engine.store.close()

    def test_stale_plan_falls_back_to_parent(self, store_path, hot_leaf):
        leaf, members = hot_leaf
        rwr_spec = DEFAULT_REGISTRY.get("rwr")
        plan = rwr_spec.plan(
            rwr_spec.canonicalize(
                {"sources": list(members), "community": leaf.label}
            )
        )
        stale = DatasetExecSpec("dblp", "not-the-real-fp", store_path=str(store_path))
        backend = ProcessBackend(workers=1)
        try:
            value = backend.run(stale, plan, lambda: "served-by-parent")
            assert value == "served-by-parent"
            stats = backend.stats()
            assert stats["fallbacks"] == 1 and stats["shipped"] == 0
            assert stats["errors"] == 0
        finally:
            backend.close()


class TestWorkerErrors:
    def test_worker_errors_surface_as_typed_envelopes(self, store_path, hot_leaf):
        leaf, _ = hot_leaf
        with GMineService(backend="process:2") as service:
            service.register_store(store_path, name="dblp")
            result = service.execute(
                {"op": "rwr",
                 "args": {"sources": ["no-such-vertex"],
                          "community": leaf.label}}
            )
            assert not result.ok
            assert result.code == "MINING_ERROR"
            # the failed plan still shipped and is counted as a worker error
            stats = service.backend.stats()
            assert stats["shipped"] == 1 and stats["errors"] == 1
