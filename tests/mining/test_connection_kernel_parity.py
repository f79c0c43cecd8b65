"""Bitwise gate for the index-array connection-subgraph kernel.

:func:`extract_connection_subgraph` runs goodness, the hop-bounded best
path and the top-up over integer vertex positions.  The oracle below is
the same algorithm over the dict :class:`Graph` — the scalar goodness
loop, a Dijkstra over ``(vertex, hops)`` tuples and a top-up that rebuilds
its frontier for every vertex it adds.  The two must agree bit for bit:
node order, edge list, goodness items in order, paths and the encoded
``connection_subgraph`` bytes.

The same file pins the vectorised goodness formula against the scalar one
on 10^5 random probabilities, and the single-pass hop metrics against the
three-pass composition they replace.
"""

import gc
import heapq
import math
import pickle
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.ops import _encode_connection_subgraph
from repro.api.router import dumps
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.graph.graph import Graph
from repro.graph.matrix import PreparedGraph
from repro.mining.connection_subgraph import (
    ExtractionResult,
    GraphArrays,
    extract_connection_subgraph,
)
from repro.mining.hops import effective_diameter, exact_diameter, hop_plot
from repro.mining.metrics_suite import compute_subgraph_metrics
from repro.mining.rwr import degree_normaliser, goodness_vector, per_source_rwr


# --------------------------------------------------------------------------- #
# the oracle: the extraction over the dict Graph
# --------------------------------------------------------------------------- #
def oracle_goodness(graph, per_source, degree_normalized=True):
    nodes = list(graph.nodes())
    raw = {}
    num_sources = len(per_source)
    for node in nodes:
        log_sum = 0.0
        dead = False
        for result in per_source.values():
            probability = result.scores.get(node, 0.0)
            if probability <= 0.0:
                dead = True
                break
            log_sum += np.log(probability)
        if dead:
            raw[node] = 0.0
            continue
        value = float(np.exp(log_sum / num_sources))
        if degree_normalized:
            degree = graph.weighted_degree(node)
            if degree > 0:
                value /= degree ** ((num_sources - 1) / num_sources) if num_sources > 1 else 1.0
        raw[node] = value
    peak = max(raw.values()) if raw else 0.0
    if peak <= 0.0:
        return raw
    return {node: value / peak for node, value in raw.items()}


def oracle_best_path(graph, goodness, origin, target, max_path_length, prefer_new,
                     epsilon=1e-12):
    if origin == target:
        return [origin]

    def node_cost(node):
        if node in prefer_new or node in (origin, target):
            return 0.0
        return -math.log(max(goodness.get(node, 0.0), epsilon))

    start = (origin, 0)
    best_cost = {start: 0.0}
    parent = {start: None}
    counter = 0
    heap = [(0.0, counter, start)]
    best_target_state = None
    while heap:
        cost, _, state = heapq.heappop(heap)
        if cost > best_cost.get(state, float("inf")):
            continue
        node, hops = state
        if node == target:
            best_target_state = state
            break
        if hops >= max_path_length:
            continue
        for neighbor in graph.neighbors(node):
            next_state = (neighbor, hops + 1)
            next_cost = cost + (0.0 if neighbor == target else node_cost(neighbor))
            if next_cost < best_cost.get(next_state, float("inf")):
                best_cost[next_state] = next_cost
                parent[next_state] = state
                counter += 1
                heapq.heappush(heap, (next_cost, counter, next_state))
    if best_target_state is None:
        return None
    path = []
    state = best_target_state
    while state is not None:
        path.append(state[0])
        state = parent[state]
    path.reverse()
    return path


def oracle_top_up(graph, goodness, selected, selected_set, budget):
    while len(selected_set) < budget:
        frontier = {
            neighbor
            for node in selected_set
            for neighbor in graph.neighbors(node)
            if neighbor not in selected_set
        }
        if not frontier:
            break
        best = max(frontier, key=lambda node: (goodness.get(node, 0.0), repr(node)))
        selected_set.add(best)
        selected.append(best)


def oracle_extract(graph, sources, budget, restart_probability=0.15,
                   max_path_length=6, degree_normalized=True, prepared=None):
    sources = list(dict.fromkeys(sources))
    per_source = per_source_rwr(
        graph, sources, restart_probability=restart_probability, prepared=prepared,
    )
    goodness = oracle_goodness(graph, per_source, degree_normalized)
    selected = list(sources)
    selected_set = set(selected)
    paths = []
    progressed = True
    while progressed and len(selected_set) < budget:
        progressed = False
        for origin, target in combinations(sources, 2):
            if len(selected_set) >= budget:
                break
            path = oracle_best_path(graph, goodness, origin, target,
                                    max_path_length, selected_set)
            if path is None:
                continue
            new_nodes = [node for node in path if node not in selected_set]
            if not new_nodes or len(selected_set) + len(new_nodes) > budget:
                continue
            for node in new_nodes:
                selected_set.add(node)
                selected.append(node)
            paths.append(path)
            progressed = True
    if len(selected_set) < budget:
        oracle_top_up(graph, goodness, selected, selected_set, budget)
    return ExtractionResult(
        subgraph=graph.subgraph(selected, name=f"{graph.name}::extract"),
        sources=sources, goodness=goodness, paths=paths, budget=budget,
    )


def assert_same_extraction(got, want):
    assert list(got.subgraph.nodes()) == list(want.subgraph.nodes())
    assert list(got.subgraph.edges()) == list(want.subgraph.edges())
    assert [(node, score.hex()) for node, score in got.goodness.items()] == [
        (node, score.hex()) for node, score in want.goodness.items()
    ]
    assert got.paths == want.paths
    assert got.sources == want.sources
    for top_k in (5, len(want.goodness) + 1):
        page = {"top_k": top_k}
        assert dumps(_encode_connection_subgraph(got, page)[0]) == dumps(
            _encode_connection_subgraph(want, page)[0]
        )


# --------------------------------------------------------------------------- #
# random graphs: ties, mixed ids, isolated vertices, several components
# --------------------------------------------------------------------------- #
def _vertex_id(i, kinds):
    return i if kinds[i] else f"v{i}"


def _build(n, kinds, edges, order):
    graph = Graph(name="g")
    for i in order:
        graph.add_node(_vertex_id(i, kinds))
    for u, v, weight in edges:
        graph.add_edge(_vertex_id(u, kinds), _vertex_id(v, kinds), weight=weight,
                       accumulate=True)
    return graph


def _grid_edges(rows, cols):
    cell = lambda r, c: r * cols + c  # noqa: E731
    return [(cell(r, c), cell(r, c + 1)) for r in range(rows) for c in range(cols - 1)] + [
        (cell(r, c), cell(r + 1, c)) for r in range(rows - 1) for c in range(cols)
    ]


@st.composite
def extraction_cases(draw):
    """Random graphs, plus grids and complete bipartite graphs: the last two
    have many equal-length paths, so Dijkstra's push-order tie-break and the
    top-up's repr tie-break decide the answer.  An isolated vertex among the
    sources kills every goodness (each score is 0 in some walk), which
    makes every path cost a pure hop count."""
    family = draw(st.sampled_from(["random", "grid", "bipartite"]))
    if family == "grid":
        rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        pairs = _grid_edges(rows, cols)
        n = rows * cols + draw(st.integers(0, 2))
    elif family == "bipartite":
        left, right = draw(st.integers(2, 4)), draw(st.integers(2, 5))
        pairs = [(u, left + v) for u in range(left) for v in range(right)]
        n = left + right + draw(st.integers(0, 2))
    else:
        n = draw(st.integers(min_value=1, max_value=16))
        pairs = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda edge: edge[0] != edge[1]),
            max_size=3 * n,
        )) if n > 1 else []
    pairs = draw(st.permutations(pairs))
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    unit = draw(st.booleans())
    weights = st.just(1.0) if unit else st.sampled_from([0.3, 0.5, 1.25, 2.0, 3.7])
    edges = [(u, v, draw(weights)) for u, v in pairs]
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    distinct = len(set(sources))
    budget = draw(st.integers(min_value=distinct, max_value=n + 2))
    max_path_length = draw(st.integers(min_value=1, max_value=6))
    prepared_kind = draw(st.sampled_from(["none", "same", "equal", "reordered"]))
    degree_normalized = draw(st.booleans())
    return (n, kinds, edges, sources, budget, max_path_length, prepared_kind,
            degree_normalized)


def _check_case(case):
    n, kinds, edges, sources, budget, max_path_length, prepared_kind, normalized = case
    graph = _build(n, kinds, edges, range(n))
    prepared = None
    if prepared_kind == "same":
        prepared = PreparedGraph.from_graph(graph)
    elif prepared_kind == "equal":
        prepared = PreparedGraph.from_graph(_build(n, kinds, edges, range(n)))
    elif prepared_kind == "reordered":
        prepared = PreparedGraph.from_graph(_build(n, kinds, edges, reversed(range(n))))
    source_ids = [_vertex_id(i, kinds) for i in sources]
    kwargs = dict(budget=budget, max_path_length=max_path_length,
                  degree_normalized=normalized, prepared=prepared)
    want = oracle_extract(graph, source_ids, **kwargs)
    assert_same_extraction(extract_connection_subgraph(graph, source_ids, **kwargs), want)
    if prepared is not None:  # second call: the memoised view, if any
        assert_same_extraction(extract_connection_subgraph(graph, source_ids, **kwargs), want)


@pytest.mark.tier1
@given(extraction_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_kernel_is_bit_identical_to_dict_oracle(case):
    _check_case(case)


@pytest.mark.slow
@given(extraction_cases())
@settings(max_examples=1500, deadline=None)
def test_kernel_is_bit_identical_to_dict_oracle_long(case):
    _check_case(case)


@pytest.mark.tier1
def test_equal_cost_paths_follow_dict_neighbour_order():
    # A's neighbours are (y, x) in dict order but (x, y) in vertex order.
    # The isolated source C makes every goodness 0, so both two-hop paths
    # cost the same and the one pushed first wins.
    graph = Graph()
    for node in ["A", "x", "y", "B", "C"]:
        graph.add_node(node)
    for u, v in [("A", "y"), ("A", "x"), ("x", "B"), ("y", "B")]:
        graph.add_edge(u, v)
    got = extract_connection_subgraph(graph, ["A", "B", "C"], budget=4)
    assert got.paths == [["A", "y", "B"]]
    assert_same_extraction(got, oracle_extract(graph, ["A", "B", "C"], budget=4))


@pytest.mark.tier1
@pytest.mark.parametrize("seed", [1, 2])
def test_dblp_extractions_match_oracle(seed):
    graph = generate_dblp(DBLPConfig(num_authors=300, seed=seed)).graph
    prepared = PreparedGraph.from_graph(graph)
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for _ in range(6):
        sources = rng.sample(nodes, rng.randint(1, 4))
        for budget in (len(sources), 12, 40):
            want = oracle_extract(graph, sources, budget, prepared=prepared)
            got = extract_connection_subgraph(graph, sources, budget, prepared=prepared)
            assert_same_extraction(got, want)


# --------------------------------------------------------------------------- #
# the prepared memo: identity, not equality
# --------------------------------------------------------------------------- #
@pytest.mark.tier1
def test_graph_view_is_memoised_by_identity_and_dropped_on_pickle():
    graph = _build(6, [True] * 6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)], range(6))
    twin = _build(6, [True] * 6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)], range(6))
    prepared = PreparedGraph.from_graph(graph)
    first = prepared.graph_view(graph, GraphArrays)
    assert prepared.graph_view(graph, GraphArrays) is first
    assert prepared.graph_view(twin, GraphArrays) is not first
    assert prepared.graph_view(graph, GraphArrays) is not first  # one slot
    clone = pickle.loads(pickle.dumps(prepared))
    assert clone._graph_view is None


@pytest.mark.tier1
def test_graph_view_of_a_per_request_subgraph_is_not_pinned():
    # A community scope keeps one PreparedGraph per partition but
    # materialises a fresh subgraph for every request.
    graph = generate_dblp(DBLPConfig(num_authors=120, seed=3)).graph
    members = list(graph.nodes())[:60]
    prepared = PreparedGraph.from_graph(graph.subgraph(members))
    for _ in range(2):
        subgraph = graph.subgraph(members)
        sources = list(subgraph.nodes())[:2]
        want = oracle_extract(subgraph, sources, 10, prepared=prepared)
        got = extract_connection_subgraph(subgraph, sources, 10, prepared=prepared)
        assert_same_extraction(got, want)
        assert prepared._graph_view is not None
        del subgraph, got
        gc.collect()
        assert prepared._graph_view is None


# --------------------------------------------------------------------------- #
# vectorised goodness == scalar formula
# --------------------------------------------------------------------------- #
@pytest.mark.tier1
@pytest.mark.parametrize("num_sources", [1, 3])
def test_goodness_vector_equals_scalar_formula(num_sources):
    rng = np.random.default_rng(num_sources)
    n = 100_000
    columns = [rng.random(n) ** rng.uniform(1, 40) for _ in range(num_sources)]
    for column in columns:
        column[rng.integers(0, n, 500)] = 0.0
    spread = rng.random(n) * 50
    degrees = np.where(rng.random(n) < 0.5, np.floor(spread), spread).tolist()
    got = goodness_vector(columns, degree_normaliser(degrees, num_sources)).tolist()

    raw = []
    exponent = (num_sources - 1) / num_sources
    for i in range(n):
        log_sum = 0.0
        dead = False
        for column in columns:
            probability = float(column[i])
            if probability <= 0.0:
                dead = True
                break
            log_sum += np.log(probability)
        if dead:
            raw.append(0.0)
            continue
        value = float(np.exp(log_sum / num_sources))
        if degrees[i] > 0:
            value /= degrees[i] ** exponent if num_sources > 1 else 1.0
        raw.append(value)
    peak = max(raw)
    want = [value / peak for value in raw]
    assert [value.hex() for value in got] == [value.hex() for value in want]


# --------------------------------------------------------------------------- #
# one hop pass == hop_plot + exact_diameter + effective_diameter
# --------------------------------------------------------------------------- #
@pytest.mark.tier1
@given(
    n=st.integers(min_value=1, max_value=30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    sample_size=st.one_of(st.none(), st.integers(min_value=0, max_value=32)),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_single_pass_hop_metrics_equal_three_pass(n, edges, sample_size, seed):
    graph = Graph()
    for i in range(n):
        graph.add_node(i if i % 3 else f"s{i}")
    ids = list(graph.nodes())
    for u, v in edges:
        if u < n and v < n and u != v:
            graph.add_edge(ids[u], ids[v])
    metrics = compute_subgraph_metrics(graph, hop_sample_size=sample_size, seed=seed)
    plot = hop_plot(graph, sample_size=sample_size, seed=seed)
    diameter = plot.max_hop() if plot.sampled else exact_diameter(graph)
    assert metrics.diameter == diameter
    assert metrics.effective_diameter.hex() == effective_diameter(graph).hex()
