"""Parity suite for the prepared-kernel layer.

The contract pinned here is **exact** (``==`` on floats, not
approximate): feeding any kernel a :class:`~repro.graph.matrix.PreparedGraph`
must change nothing but the cost.  The only tolerance-based check is
against :func:`rwr_exact`, which is a different algorithm (sparse LU) and
agrees to solver precision, exactly as the existing power-vs-exact
regression suite does.  The power loop's own bitwise oracle lives in
``test_power_loop_parity.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.matrix import PreparedGraph, VertexIndex, transition_matrix
from repro.mining.connection_subgraph import extract_connection_subgraph
from repro.mining.delivered_current import compute_voltages, extract_delivered_current
from repro.mining.metrics_suite import compute_subgraph_metrics
from repro.mining.pagerank import pagerank
from repro.mining.proximity import (
    pairwise_proximity_matrix,
    proximity,
    rank_candidates_by_proximity,
    top_k_related,
)
from repro.mining.rwr import (
    per_source_rwr,
    rwr_exact,
    rwr_power_iteration,
    steady_state_rwr,
)

pytestmark = pytest.mark.tier1

EXACT_AGREEMENT_TOL = 1e-7
POWER_TOL = 1e-12


def _sample_sources(graph, seed, count):
    nodes = sorted(graph.nodes(), key=repr)
    rng = random.Random(seed)
    return rng.sample(nodes, min(count, len(nodes)))


def _assert_identical_results(first, second):
    """Bit-level equality of two RWRResults, ordering included."""
    assert first.scores == second.scores
    assert first.iterations == second.iterations
    assert first.converged == second.converged
    assert first.top(len(first.scores)) == second.top(len(second.scores))


# --------------------------------------------------------------------------- #
# power RWR == rwr_exact (to solver precision)
# --------------------------------------------------------------------------- #
@given(
    n=st.integers(min_value=6, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    restart=st.floats(min_value=0.05, max_value=0.5),
    num_sources=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_blocked_rwr_agrees_with_exact_solver(n, seed, restart, num_sources):
    graph = barabasi_albert(n, 2, seed=seed)
    sources = _sample_sources(graph, seed, num_sources)
    solved = per_source_rwr(
        graph,
        sources,
        restart_probability=restart,
        tol=POWER_TOL,
        max_iter=5000,
    )
    for source, result in solved.items():
        exact = rwr_exact(graph, [source], restart_probability=restart)
        assert set(result.scores) == set(exact.scores)
        worst = max(
            abs(result.scores[node] - exact.scores[node]) for node in result.scores
        )
        assert worst < EXACT_AGREEMENT_TOL, f"solvers disagree by {worst:.3e}"


def test_steady_state_rwr_matches_power_iteration_bitwise():
    graph = barabasi_albert(150, 3, seed=7)
    sources = _sample_sources(graph, 7, 3)
    via_steady = steady_state_rwr(graph, sources)
    via_power = rwr_power_iteration(graph, sorted(set(sources), key=repr))
    _assert_identical_results(via_steady, via_power)


# --------------------------------------------------------------------------- #
# prepared == unprepared across every touched kernel
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=[3, 11, 29])
def graph_and_prepared(request):
    graph = barabasi_albert(120, 3, seed=request.param)
    return graph, PreparedGraph.from_graph(graph), request.param


def test_prepared_matches_cold_transition_matrix(graph_and_prepared):
    graph, prepared, _ = graph_and_prepared
    cold, index = transition_matrix(graph)
    assert index.nodes() == prepared.index.nodes()
    assert (cold != prepared.transition).nnz == 0
    assert cold.data.tobytes() == prepared.transition.data.tobytes()


def test_prepared_rwr_power_and_exact(graph_and_prepared):
    graph, prepared, seed = graph_and_prepared
    sources = _sample_sources(graph, seed, 3)
    _assert_identical_results(
        rwr_power_iteration(graph, sources),
        rwr_power_iteration(graph, sources, prepared=prepared),
    )
    _assert_identical_results(
        rwr_power_iteration(graph, sources),
        rwr_power_iteration(None, sources, prepared=prepared),
    )
    assert (
        rwr_exact(graph, sources).scores
        == rwr_exact(graph, sources, prepared=prepared).scores
    )
    for solver in ("power", "exact"):
        cold = steady_state_rwr(graph, sources, solver=solver)
        warm = steady_state_rwr(graph, sources, solver=solver, prepared=prepared)
        assert cold.scores == warm.scores


def test_prepared_pagerank_and_metrics(graph_and_prepared):
    graph, prepared, _ = graph_and_prepared
    assert pagerank(graph) == pagerank(graph, prepared=prepared)
    cold = compute_subgraph_metrics(graph, hop_sample_size=16)
    warm = compute_subgraph_metrics(graph, hop_sample_size=16, prepared=prepared)
    assert cold.as_dict() == warm.as_dict()
    assert cold.pagerank == warm.pagerank


def test_prepared_proximity_queries(graph_and_prepared):
    graph, prepared, seed = graph_and_prepared
    a, b, c, d = _sample_sources(graph, seed, 4)
    assert proximity(graph, a, b) == proximity(graph, a, b, prepared=prepared)
    assert proximity(graph, a, b, symmetric=False) == proximity(
        graph, a, b, symmetric=False, prepared=prepared
    )
    assert pairwise_proximity_matrix(graph, [a, b, c, d]) == (
        pairwise_proximity_matrix(graph, [a, b, c, d], prepared=prepared)
    )
    assert top_k_related(graph, a, k=12) == top_k_related(
        graph, a, k=12, prepared=prepared
    )
    assert rank_candidates_by_proximity(graph, a, [b, c, d]) == (
        rank_candidates_by_proximity(graph, a, [b, c, d], prepared=prepared)
    )


def test_prepared_delivered_current(graph_and_prepared):
    graph, prepared, seed = graph_and_prepared
    source, target = _sample_sources(graph, seed + 1, 2)
    assert compute_voltages(graph, source, target) == compute_voltages(
        graph, source, target, prepared=prepared
    )
    cold = extract_delivered_current(graph, source, target, budget=12)
    warm = extract_delivered_current(
        graph, source, target, budget=12, prepared=prepared
    )
    assert cold.voltages == warm.voltages
    assert cold.paths == warm.paths
    assert cold.delivered == warm.delivered
    assert sorted(cold.subgraph.nodes(), key=repr) == sorted(
        warm.subgraph.nodes(), key=repr
    )


def test_prepared_connection_subgraph(graph_and_prepared):
    graph, prepared, seed = graph_and_prepared
    sources = _sample_sources(graph, seed + 2, 3)
    cold = extract_connection_subgraph(graph, sources, budget=15)
    warm = extract_connection_subgraph(graph, sources, budget=15, prepared=prepared)
    assert cold.goodness == warm.goodness
    assert cold.paths == warm.paths
    assert sorted(cold.subgraph.nodes(), key=repr) == sorted(
        warm.subgraph.nodes(), key=repr
    )
    assert sorted(cold.subgraph.edges(), key=repr) == sorted(
        warm.subgraph.edges(), key=repr
    )


# --------------------------------------------------------------------------- #
# guard rails
# --------------------------------------------------------------------------- #
def test_prepared_rejects_foreign_index():
    graph = erdos_renyi(20, 0.3, seed=1)
    prepared = PreparedGraph.from_graph(graph)
    foreign = VertexIndex(sorted(graph.nodes(), key=repr))
    from repro.errors import MiningError

    source = next(iter(graph.nodes()))
    with pytest.raises(MiningError):
        rwr_power_iteration(graph, [source], index=foreign, prepared=prepared)
    with pytest.raises(MiningError):
        rwr_exact(graph, [source], index=foreign, prepared=prepared)


def test_missing_graph_without_prepared_raises():
    from repro.errors import MiningError

    with pytest.raises(MiningError):
        rwr_power_iteration(None, ["x"])
    with pytest.raises(MiningError):
        pagerank(None)


def test_prepared_reports_unknown_source_like_cold_path():
    from repro.errors import MiningError

    graph = erdos_renyi(10, 0.4, seed=2)
    prepared = PreparedGraph.from_graph(graph)
    with pytest.raises(MiningError, match="not in the graph"):
        rwr_power_iteration(None, ["missing"], prepared=prepared)
