"""Shared-memory prepared graphs: publish, attach, parity, lifecycle.

The contract under test: ``publish`` moves a prepared graph's numeric
buffers into one shared segment without changing a single bit of them;
``attach`` maps the same bytes zero-copy; pickling round-trips through
the manifest alone; and the owner's ``release`` provably unlinks the
segment — no ``/dev/shm`` residue, ever.  The service no longer
publishes prepared graphs; :class:`PreparedViewCache` therefore only
drops its reference to a view and never releases it.
"""

import glob
import os
import pickle

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    SharedGraphManifest,
    SharedPreparedGraph,
    shared_memory_available,
    shm_stats,
)
from repro.graph.generators import barabasi_albert, connected_caveman
from repro.graph.matrix import PreparedGraph, PreparedViewCache
from repro.mining.rwr import rwr_power_iteration

pytestmark = [
    pytest.mark.tier1,
    pytest.mark.skipif(
        not shared_memory_available(), reason="platform lacks shared memory"
    ),
]


def _dev_shm_segments():
    """Names of POSIX shared segments currently visible (Linux only)."""
    if not os.path.isdir("/dev/shm"):
        return None
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture
def prepared():
    graph = barabasi_albert(60, 3, seed=11)
    view = PreparedGraph.from_graph(graph, fingerprint="f" * 16)
    view.degrees, view.transition  # materialise before publishing
    return graph, view


class TestPublishAttachParity:
    def test_publish_preserves_every_bit(self, prepared):
        graph, plain = prepared
        shared = SharedPreparedGraph.publish(plain)
        try:
            assert shared.owner and not shared.released
            assert shared.fingerprint == plain.fingerprint
            assert shared.index.nodes() == plain.index.nodes()
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(
                    getattr(shared.adjacency, name),
                    getattr(plain.adjacency, name),
                )
                assert np.array_equal(
                    getattr(shared.transition, name),
                    getattr(plain.transition, name),
                )
            assert np.array_equal(shared.degrees, plain.degrees)
        finally:
            shared.release()

    def test_attach_maps_identical_bytes(self, prepared):
        _, plain = prepared
        shared = SharedPreparedGraph.publish(plain)
        try:
            attached = SharedPreparedGraph.attach(shared.manifest)
            try:
                assert not attached.owner
                assert attached.index.nodes() == plain.index.nodes()
                assert np.array_equal(attached.adjacency.data, plain.adjacency.data)
                assert np.array_equal(attached.degrees, plain.degrees)
                assert np.array_equal(
                    attached.transition.data, plain.transition.data
                )
            finally:
                attached.release()
        finally:
            shared.release()

    def test_kernels_run_bitwise_identically_over_shared_views(self, prepared):
        graph, plain = prepared
        sources = sorted(graph.nodes(), key=repr)[:2]
        baseline = rwr_power_iteration(graph, sources, prepared=plain)
        shared = SharedPreparedGraph.publish(plain)
        try:
            attached = SharedPreparedGraph.attach(shared.manifest)
            try:
                for view in (shared, attached):
                    result = rwr_power_iteration(graph, sources, prepared=view)
                    assert result.scores == baseline.scores
                    assert result.iterations == baseline.iterations
            finally:
                attached.release()
        finally:
            shared.release()

    def test_shared_views_are_read_only(self, prepared):
        _, plain = prepared
        shared = SharedPreparedGraph.publish(plain)
        try:
            with pytest.raises(ValueError):
                shared.adjacency.data[0] = 123.0
            with pytest.raises(ValueError):
                shared.degrees[0] = 123.0
        finally:
            shared.release()


class TestManifestPickling:
    def test_pickle_ships_the_manifest_not_the_buffers(self, prepared):
        _, plain = prepared
        shared = SharedPreparedGraph.publish(plain)
        try:
            blob = pickle.dumps(shared)
            # a few hundred bytes of manifest vs tens of KB of matrices
            assert len(blob) < 2_000 < shared.segment_bytes
            clone = pickle.loads(blob)
            try:
                assert isinstance(clone, SharedPreparedGraph)
                assert not clone.owner
                assert np.array_equal(clone.adjacency.data, plain.adjacency.data)
            finally:
                clone.release()
        finally:
            shared.release()

    def test_manifest_round_trips_and_names_arrays(self, prepared):
        _, plain = prepared
        shared = SharedPreparedGraph.publish(plain)
        try:
            manifest = pickle.loads(pickle.dumps(shared.manifest))
            assert manifest == shared.manifest
            assert isinstance(manifest, SharedGraphManifest)
            assert manifest.spec("adj_data").key == "adj_data"
            with pytest.raises(GraphError):
                manifest.spec("no-such-array")
        finally:
            shared.release()


class TestLifecycle:
    def test_release_unlinks_and_is_idempotent(self, prepared):
        _, plain = prepared
        before = shm_stats()
        segments_before = _dev_shm_segments()
        shared = SharedPreparedGraph.publish(plain)
        manifest = shared.manifest
        assert shm_stats()["segment_bytes"] - before["segment_bytes"] > 0
        shared.release()
        shared.release()  # second call is a no-op
        assert shared.released
        after = shm_stats()
        assert after["prepares"] == before["prepares"] + 1
        assert after["unlinks"] == before["unlinks"] + 1
        assert after["segment_bytes"] == before["segment_bytes"]
        if segments_before is not None:
            assert _dev_shm_segments() == segments_before  # no /dev/shm residue
        with pytest.raises(GraphError):
            SharedPreparedGraph.attach(manifest)

    def test_unlink_does_not_tear_live_attachments(self, prepared):
        graph, plain = prepared
        sources = sorted(graph.nodes(), key=repr)[:2]
        shared = SharedPreparedGraph.publish(plain)
        attached = SharedPreparedGraph.attach(shared.manifest)
        baseline = rwr_power_iteration(graph, sources, prepared=plain)
        shared.release()  # owner unlinks while the attachment is live
        try:
            # POSIX keeps the memory mapped until the last close
            result = rwr_power_iteration(graph, sources, prepared=attached)
            assert result.scores == baseline.scores
        finally:
            attached.release()

    def test_finalizer_unlinks_dropped_owners(self, prepared):
        _, plain = prepared
        before = shm_stats()["unlinks"]
        shared = SharedPreparedGraph.publish(plain)
        finalizer = shared._finalizer
        del shared
        finalizer()  # what gc would run; deterministic here
        assert shm_stats()["unlinks"] == before + 1


class TestPreparedViewCacheNeverReleases:
    """Dropping a view from the cache must leave a kernel that still holds
    it computing on live memory — the cache owns references, not mappings."""

    def test_eviction_leaves_views_usable(self, prepared):
        graph, plain = prepared
        sources = sorted(graph.nodes(), key=repr)[:2]
        baseline = rwr_power_iteration(graph, sources, prepared=plain)
        cache = PreparedViewCache(capacity=1)
        shared = SharedPreparedGraph.publish(plain)
        try:
            held = cache.get("fp-one", lambda: shared)
            cache.get("fp-two", lambda: PreparedGraph.from_graph(
                connected_caveman(3, 4, seed=2)
            ))
            assert cache.describe()["evictions"] == 1
            assert not shared.released
            result = rwr_power_iteration(graph, sources, prepared=held)
            assert result.scores == baseline.scores
        finally:
            shared.release()

    def test_invalidate_and_clear_leave_views_usable(self, prepared):
        _, plain = prepared
        cache = PreparedViewCache(capacity=4)
        first = SharedPreparedGraph.publish(plain)
        second = SharedPreparedGraph.publish(plain)
        try:
            cache.get("fp-one", lambda: first)
            cache.get("fp-two", lambda: second)
            assert cache.invalidate("fp-one") and not first.released
            assert cache.clear() == 1 and not second.released
            assert len(cache) == 0
            assert np.array_equal(first.adjacency.data, plain.adjacency.data)
            assert np.array_equal(second.transition.data, plain.transition.data)
        finally:
            first.release()
            second.release()
