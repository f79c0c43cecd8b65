"""ShardedBackend behaviour: routing, chaos recovery, deadlines, breaker.

The parity suite proves a sharded answer is the unsharded answer; this
file proves the *dispatch* claims — a single-community request touches
exactly one shard, a killed worker degrades to a correct parent answer
(never a torn merge) and the pool heals, overdue work cancelled inside a
worker is counted, and an open circuit breaker sends routing to the
parent.
"""

import os
import signal
import time

import pytest

from repro.api.ops import encode_result
from repro.api.router import dumps
from repro.core.builder import build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.errors import WorkerDeadlineCancelled
from repro.service import GMineService
from repro.shard import ShardedBackend

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module")
def data():
    dataset = generate_dblp(DBLPConfig(num_authors=180, seed=7))
    tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=7)
    return dataset.graph, tree


def _wire(service, operation, **args):
    value = service.call(operation, **args)
    return dumps(encode_result(service.registry.get(operation), value)[0])


def _routed(service):
    return service.stats()["backend"]["routed"]


class TestRouting:
    def test_single_community_touches_exactly_one_shard(self, data):
        graph, tree = data
        with GMineService(backend="sharded:2") as service:
            service.register_tree(tree, graph=graph, name="dblp")
            node = next(iter(tree.leaves()))
            service.rwr(node.members[:1], community=node.label)
            stats = service.stats()["backend"]
            assert stats["routed"] == {
                "single_shard": 1, "scatter": 0,
                "parent": 0, "parent_fallback": 0,
            }
            busy = [s for s, n in stats["per_shard"].items() if n]
            assert len(busy) == 1
            assert stats["per_shard"][busy[0]] == 1

    def test_multi_community_path_with_one_owner_routes_point_to_point(self, data):
        graph, tree = data
        with GMineService(backend="sharded:2") as service:
            service.register_tree(tree, graph=graph, name="dblp")
            state = next(iter(service.backend._datasets.values()))
            plan = state.plan
            pair = None
            for subtree in tree.children(tree.root.node_id):
                kids = tree.children(subtree.node_id)
                if len(kids) < 2:
                    continue
                a, b = kids[0], kids[1]
                owner = plan.single_owner([a.label, b.label])
                union = set(a.members) | set(b.members)
                if owner is not None and len(union) < len(plan.shards[owner].members):
                    pair = (a, b, owner)
                    break
            assert pair is not None, "levels-3 tree must offer same-subtree siblings"
            a, b, owner = pair
            service.call(
                "query.path", path=f"community({a.label}, {b.label})/members/nodes"
            )
            stats = service.stats()["backend"]
            assert stats["routed"]["single_shard"] == 1
            assert stats["per_shard"].get(str(owner)) == 1

    def test_cross_shard_communities_stay_on_the_parent(self, data):
        graph, tree = data
        with GMineService(backend="sharded:2") as service:
            service.register_tree(tree, graph=graph, name="dblp")
            state = next(iter(service.backend._datasets.values()))
            plan = state.plan
            by_owner = {}
            for leaf in tree.leaves():
                by_owner.setdefault(plan.owner_of(leaf.label), leaf)
            owners = [o for o in by_owner if o is not None]
            assert len(owners) >= 2
            a, b = by_owner[owners[0]], by_owner[owners[1]]
            service.call(
                "query.path", path=f"community({a.label}, {b.label})/members/nodes"
            )
            routed = _routed(service)
            assert routed["single_shard"] == 0
            assert routed["parent"] == 1


class TestChaos:
    def test_killed_worker_degrades_correctly_then_heals(self, data):
        graph, tree = data
        node = next(iter(tree.leaves()))
        m = node.members
        with GMineService(backend="inline") as reference:
            reference.register_tree(tree, graph=graph, name="dblp")
            expected = [
                _wire(reference, "rwr", sources=[m[i]], community=node.label)
                for i in range(3)
            ]
        with GMineService(backend="sharded:2") as service:
            service.register_tree(tree, graph=graph, name="dblp")
            state = next(iter(service.backend._datasets.values()))
            owner = state.plan.owner_of(node.label)
            assert owner is not None

            # Healthy: point-to-point.
            got = _wire(service, "rwr", sources=[m[0]], community=node.label)
            assert got == expected[0]
            assert _routed(service)["single_shard"] == 1

            # Kill the owning shard's worker out from under the pool.
            pid = state.reports[owner]["pid"]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)

            # Degraded: the answer comes from the parent, whole and
            # byte-identical — never a torn or failed response.
            got = _wire(service, "rwr", sources=[m[1]], community=node.label)
            assert got == expected[1]
            routed = _routed(service)
            assert routed["parent_fallback"] == 1
            assert routed["single_shard"] == 1

            # Healed: the pool was rebuilt lazily and the slice re-warmed,
            # so the next request routes point-to-point again.
            got = _wire(service, "rwr", sources=[m[2]], community=node.label)
            assert got == expected[2]
            routed = _routed(service)
            assert routed["single_shard"] == 2
            assert routed["parent_fallback"] == 1


class TestDeadlines:
    class _FakeFuture:
        def __init__(self, error=None, cancelled=False):
            self._error = error
            self._cancelled = cancelled

        def cancelled(self):
            return self._cancelled

        def exception(self):
            return self._error

    def test_worker_cancellations_are_counted(self):
        backend = ShardedBackend(shards=1)
        try:
            note = backend._note_worker_cancelled
            note(self._FakeFuture(error=WorkerDeadlineCancelled("late")))
            note(self._FakeFuture(error=None))
            note(self._FakeFuture(error=ValueError("not a deadline")))
            note(self._FakeFuture(cancelled=True))
            assert backend.stats()["deadline"]["worker_cancelled"] == 1
        finally:
            backend.close()


class TestBreakerFeedback:
    def test_sharded_backend_breaker_short_circuits_to_parent(self, data):
        graph, tree = data
        with GMineService(backend="sharded:2") as service:
            service.register_tree(tree, graph=graph, name="dblp")
            breaker = service.backend.breaker
            while breaker.state != "open":
                breaker.record_failure()
            node = next(iter(tree.leaves()))
            service.rwr(node.members[:1], community=node.label)
            routed = _routed(service)
            assert routed["parent_fallback"] == 1
            assert routed["single_shard"] == 0
