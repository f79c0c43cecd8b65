"""Byte parity: a sharded execution must be indistinguishable from unsharded.

Two layers:

* **Hypothesis suite (in-process)** — drives the exact code a shard
  worker runs (``_shard_warm`` + ``_shard_execute`` against a planner
  slice) for shard counts 1–4 and compares the *pickled bytes* of every
  result against the parent's own ``run_plan`` — rwr, metrics and
  ``query.path``, plus the scatter-gather RWR driver against the
  monolithic power kernel.  Pickle-equality is deliberately stricter
  than ``==``: it pins float bit patterns and dict iteration orders.
* **End-to-end (real pools)** — a sharded service and an inline service
  answer the same requests identically, across shard counts.
"""

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api.ops import OpContext, build_default_registry
from repro.api.plans import run_plan
from repro.core.builder import build_gtree
from repro.core.engine import GMineEngine
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.graph.matrix import PreparedGraph
from repro.mining.rwr import steady_state_rwr
from repro.service import GMineService
from repro.service.datasets import DatasetContext
from repro.shard import ShardPlanner, scatter_rwr
from repro.shard.worker import _shard_execute, _shard_warm

pytestmark = pytest.mark.tier1


def _bits(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.fixture(scope="module")
def world():
    data = generate_dblp(DBLPConfig(num_authors=240, seed=31))
    graph = data.graph
    tree = build_gtree(graph, fanout=3, levels=3, seed=31)
    prepared = PreparedGraph.from_graph(graph)
    plans = {
        n: ShardPlanner(n).plan(tree, graph, f"fp{n}", index=prepared.index)
        for n in (1, 2, 3, 4)
    }
    registry = build_default_registry()
    parent_ctx = OpContext(engine=GMineEngine(tree, graph=graph))
    canon_ctx = DatasetContext(tree)
    leaves = list(tree.leaves())
    # Warm every slice of every plan into this process's worker state
    # once; _shard_execute then runs the genuine worker code path.
    for n, plan in plans.items():
        for s in plan.shards:
            _shard_warm({
                "fingerprint": plan.fingerprint, "shard_id": s.shard_id,
                "tree": s.tree, "graph": s.graph,
            })
    return {
        "graph": graph, "tree": tree, "prepared": prepared,
        "plans": plans, "registry": registry, "parent_ctx": parent_ctx,
        "canon_ctx": canon_ctx, "leaves": leaves,
    }


def _roundtrip(world, operation, args, shard_count):
    """Parent run_plan vs in-process shard worker on the owning slice."""
    registry = world["registry"]
    parent_ctx = world["parent_ctx"]
    spec = registry.get(operation)
    canonical = spec.canonicalize(dict(args), world["canon_ctx"])
    plan = spec.plan(canonical)
    parent = run_plan(
        plan, parent_ctx.community_subgraph, parent_ctx.prepared_for
    )
    shard_plan = world["plans"][shard_count]
    if plan.scope is not None:
        owner = shard_plan.owner_of(plan.scope)
    else:
        owner = shard_plan.single_owner(plan.arg_dict.get("communities", ()))
    assert owner is not None, "test must pick a shard-owned scope"
    sharded = _shard_execute(shard_plan.fingerprint, owner, plan)
    return parent, sharded


class TestWorkerPathParity:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        shards=st.integers(1, 4),
        leaf=st.integers(0, 8),
        k=st.integers(1, 3),
    )
    def test_scoped_rwr_is_bitwise(self, world, shards, leaf, k):
        node = world["leaves"][leaf % len(world["leaves"])]
        sources = list(node.members[:k])
        parent, sharded = _roundtrip(
            world, "rwr",
            {"sources": sources, "community": node.label},
            shards,
        )
        assert _bits(parent) == _bits(sharded)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(shards=st.integers(1, 4), leaf=st.integers(0, 8))
    def test_scoped_metrics_is_bitwise(self, world, shards, leaf):
        node = world["leaves"][leaf % len(world["leaves"])]
        parent, sharded = _roundtrip(
            world, "metrics", {"community": node.label}, shards
        )
        assert _bits(parent) == _bits(sharded)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(shards=st.integers(1, 4), leaf=st.integers(0, 8))
    def test_scoped_path_query_is_bitwise(self, world, shards, leaf):
        node = world["leaves"][leaf % len(world["leaves"])]
        source = node.members[0]
        query = (
            f"community({node.label})/members/"
            f"rwr(sources=[{source!r}])/top(5)"
        )
        parent, sharded = _roundtrip(
            world, "query.path", {"path": query}, shards
        )
        assert _bits(parent) == _bits(sharded)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(shards=st.integers(2, 4), first=st.integers(0, 8), second=st.integers(0, 8))
    def test_multi_community_scope_is_bitwise(self, world, shards, first, second):
        leaves = world["leaves"]
        a = leaves[first % len(leaves)]
        b = leaves[second % len(leaves)]
        assume(a.label != b.label)
        shard_plan = world["plans"][shards]
        owner = shard_plan.single_owner([a.label, b.label])
        assume(owner is not None)
        union = len(set(a.members) | set(b.members))
        assume(union < len(shard_plan.shards[owner].members))
        query = f"community({a.label}, {b.label})/members/nodes"
        parent, sharded = _roundtrip(
            world, "query.path", {"path": query}, shards
        )
        assert _bits(parent) == _bits(sharded)


class TestScatterParity:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(shards=st.integers(1, 4), leaf=st.integers(0, 8), k=st.integers(1, 3))
    def test_scatter_rwr_matches_monolithic_power(self, world, shards, leaf, k):
        import numpy as np

        prepared = world["prepared"]
        node = world["leaves"][leaf % len(world["leaves"])]
        sources = list(node.members[:k])
        mono = steady_state_rwr(
            world["graph"], sources, solver="power", prepared=prepared
        )
        plan = world["plans"][shards]
        assume(plan.scatter_capable)
        W = prepared.transition
        slices = [
            (np.asarray(s.rows, dtype=np.int64),) for s in plan.shards
        ]
        mats = [(rows, W[rows, :]) for (rows,) in slices]

        def matvec(rank):
            product = np.empty_like(rank)
            for rows, mat in mats:
                product[rows] = mat @ rank
            return product

        result = scatter_rwr(prepared.index, matvec, sources)
        assert _bits(mono) == _bits(result)


class TestEndToEndParity:
    """Sharded and inline services must emit byte-identical wire envelopes.

    Results are compared through ``encode_result`` + the router's canonical
    ``dumps`` — the exact bytes ``/v1/compute`` would put on the wire.
    (Raw pickles can differ in memo structure: a result that crossed a
    worker boundary loses CPython string-interning identity without any
    value changing, so the wire form is the honest parity surface.)
    """

    @pytest.mark.parametrize("shards", [2, 3])
    def test_service_answers_are_byte_identical(self, shards):
        from repro.api.ops import encode_result
        from repro.api.router import dumps

        data = generate_dblp(DBLPConfig(num_authors=180, seed=7))
        tree = build_gtree(data.graph, fanout=3, levels=2, seed=7)
        answers = {}
        for backend in ("inline", f"sharded:{shards}"):
            with GMineService(backend=backend) as service:
                service.register_tree(tree, graph=data.graph, name="dblp")
                t = service.registry_of_datasets.get("dblp").tree
                node = max(t.leaves(), key=lambda n: len(n.members))
                sources = list(node.members[:2])
                calls = [
                    ("rwr", {"sources": sources}),  # widest -> scatter
                    ("rwr", {"sources": sources, "community": node.label}),
                    ("metrics", {"community": node.label}),
                    ("query.path", {"path": (
                        f"community({node.label})/members/"
                        f"rwr(sources=[{sources[0]!r}])/top(10)"
                    )}),
                ]
                answers[backend] = b"".join(
                    dumps(encode_result(
                        service.registry.get(op), service.call(op, **args)
                    )[0])
                    for op, args in calls
                )
                if backend.startswith("sharded"):
                    routed = service.stats()["backend"]["routed"]
                    assert routed["single_shard"] >= 3
                    assert routed["scatter"] == 1
        assert answers["inline"] == answers[f"sharded:{shards}"]
