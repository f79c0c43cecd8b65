"""Blocked exact RWR: one factorization, k solves, bit-identical columns.

``rwr_exact_block`` shares the LU factorization of ``I - (1 - c) W``
across every source set and solves the restart vectors as one batched
``factor.solve(Q)``.  SuperLU solves a matrix right-hand side column by
column, so the contract here is *bitwise* equality with the per-set
``rwr_exact`` loop — not tolerance agreement.  The hypothesis sweeps are
the acceptance gate for that claim on random graphs.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.graph.generators import barabasi_albert, connected_caveman, erdos_renyi
from repro.graph.matrix import PreparedGraph
from repro.mining.rwr import per_source_rwr, rwr_exact, rwr_exact_block

pytestmark = pytest.mark.tier1


def _sample_source_sets(graph, seed, k, set_size=2):
    nodes = sorted(graph.nodes(), key=repr)
    rng = random.Random(seed)
    return [
        rng.sample(nodes, min(set_size, len(nodes))) for _ in range(k)
    ]


def _assert_bit_identical(blocked, looped):
    assert len(blocked) == len(looped)
    for one, other in zip(blocked, looped):
        assert one.scores == other.scores  # float ==, no tolerance
        assert one.converged and other.converged
        assert one.iterations == other.iterations == 0


# --------------------------------------------------------------------------- #
# bit parity: hypothesis-gated
# --------------------------------------------------------------------------- #
@given(
    n=st.integers(min_value=5, max_value=40),
    p=st.floats(min_value=0.08, max_value=0.35),
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=6),
    restart=st.floats(min_value=0.05, max_value=0.6),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_block_matches_per_set_loop_bitwise(n, p, seed, k, restart):
    graph = erdos_renyi(n, p, seed=seed)
    source_sets = _sample_source_sets(graph, seed, k)
    blocked = rwr_exact_block(graph, source_sets, restart_probability=restart)
    looped = [
        rwr_exact(graph, sources, restart_probability=restart)
        for sources in source_sets
    ]
    _assert_bit_identical(blocked, looped)


@given(
    n=st.integers(min_value=6, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_block_through_prepared_matches_cold_bitwise(n, seed, k):
    graph = barabasi_albert(n, 2, seed=seed)
    source_sets = _sample_source_sets(graph, seed, k)
    prepared = PreparedGraph.from_graph(graph)
    warm = rwr_exact_block(graph, source_sets, prepared=prepared)
    cold = rwr_exact_block(graph, source_sets)
    _assert_bit_identical(warm, cold)


def test_per_source_blocked_matches_loop_bitwise():
    graph = connected_caveman(4, 6, seed=3)
    sources = sorted(graph.nodes(), key=repr)[:8]
    prepared = PreparedGraph.from_graph(graph)
    blocked = per_source_rwr(graph, sources, solver="exact", prepared=prepared)
    looped = {
        source: rwr_exact(graph, [source], prepared=prepared)
        for source in sources
    }
    assert list(blocked) == list(looped) == list(sources)
    for source in sources:
        assert blocked[source].scores == looped[source].scores


# --------------------------------------------------------------------------- #
# validation and edge cases
# --------------------------------------------------------------------------- #
class TestBlockEdges:
    def test_empty_source_sets_return_empty(self):
        graph = erdos_renyi(8, 0.3, seed=1)
        assert rwr_exact_block(graph, []) == []

    def test_empty_source_set_rejected(self):
        graph = erdos_renyi(8, 0.3, seed=1)
        nodes = sorted(graph.nodes(), key=repr)
        with pytest.raises(MiningError):
            rwr_exact_block(graph, [[nodes[0]], []])

    def test_bad_restart_rejected(self):
        graph = erdos_renyi(8, 0.3, seed=1)
        nodes = sorted(graph.nodes(), key=repr)
        with pytest.raises(MiningError):
            rwr_exact_block(graph, [[nodes[0]]], restart_probability=1.5)


# --------------------------------------------------------------------------- #
# factor cache on the prepared view
# --------------------------------------------------------------------------- #
class TestExactFactorCache:
    def test_factor_is_memoised_per_restart_probability(self):
        prepared = PreparedGraph.from_graph(erdos_renyi(12, 0.3, seed=5))
        first = prepared.exact_factor(0.15)
        assert prepared.exact_factor(0.15) is first
        assert prepared.exact_factor(0.3) is not first

    def test_factor_cache_is_bounded(self):
        prepared = PreparedGraph.from_graph(erdos_renyi(12, 0.3, seed=5))
        capacity = PreparedGraph.EXACT_FACTOR_CAPACITY
        probed = [0.05 + 0.02 * i for i in range(capacity + 2)]
        for c in probed:
            prepared.exact_factor(c)
        assert len(prepared._exact_factors) == capacity
        # FIFO: the oldest probes were evicted, the newest survive
        assert float(probed[-1]) in prepared._exact_factors
        assert float(probed[0]) not in prepared._exact_factors

    def test_pickling_drops_factors_and_results_stay_bitwise(self):
        graph = erdos_renyi(14, 0.3, seed=9)
        sources = sorted(graph.nodes(), key=repr)[:2]
        prepared = PreparedGraph.from_graph(graph)
        before = rwr_exact(graph, sources, prepared=prepared)
        assert prepared._exact_factors  # the solve cached a factor
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone._exact_factors == {}  # SuperLU never crosses a pickle
        after = rwr_exact(graph, sources, prepared=clone)
        assert before.scores == after.scores
