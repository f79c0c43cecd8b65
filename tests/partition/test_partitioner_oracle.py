"""Bitwise gate for the dict partitioner's hot loops.

FM refinement keeps each vertex's gain for the pass and forgets only the
moved vertex's neighbours; the weight reads come straight from
``Graph.neighbor_weights``; ``Graph.edges`` skips finished vertices
instead of hashing edge keys; ``Graph.subgraph`` and ``contract`` write
their adjacency directly.  None of that may change a single output.

The oracles below are the implementations those replaced, frozen
verbatim.  Every comparison is on ``repr`` of the full result, so dict
order, the sign of a zero and every float's last bit count.
"""

import heapq
import importlib
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.graph.graph import Graph
from repro.partition.coarsen import CoarseLevel, contract, heavy_edge_matching
from repro.partition.initial import greedy_graph_growing
from repro.partition.kway import KWayOptions, kway_partition
from repro.partition.metrics import edge_cut
from repro.partition.refine import fm_refine_bisection, greedy_kway_refine

# ``repro.partition`` re-exports a function named ``coarsen``, which hides
# the submodule of the same name from attribute access.
coarsen_module = importlib.import_module("repro.partition.coarsen")
initial_module = importlib.import_module("repro.partition.initial")
kway_module = importlib.import_module("repro.partition.kway")
multilevel_module = importlib.import_module("repro.partition.multilevel")


# --------------------------------------------------------------------------- #
# the oracles, as they were
# --------------------------------------------------------------------------- #
def oracle_edges(self):
    seen = set()
    for u, nbrs in self._adj.items():
        for v, w in nbrs.items():
            key = self._edge_key(u, v)
            if key in seen:
                continue
            seen.add(key)
            yield u, v, w


def oracle_subgraph(self, nodes, name=""):
    keep = {node for node in nodes if node in self._adj}
    sub = Graph(name=name or f"{self.name}::subgraph")
    for node in keep:
        sub.add_node(node, **self._node_attrs.get(node, {}))
    for node in keep:
        for neighbor, weight in self._adj[node].items():
            if neighbor in keep and not sub.has_edge(node, neighbor):
                sub.add_edge(node, neighbor, weight=weight)
                attrs = self._edge_attrs.get(self._edge_key(node, neighbor))
                if attrs:
                    sub.edge_attrs(node, neighbor).update(attrs)
    return sub


def oracle_gain(graph, assignment, node):
    own = assignment[node]
    external = 0.0
    internal = 0.0
    for neighbor in graph.neighbors(node):
        weight = graph.edge_weight(node, neighbor)
        if assignment[neighbor] == own:
            internal += weight
        else:
            external += weight
    return external - internal


def oracle_fm_refine_bisection(graph, assignment, vertex_weights, max_passes=8,
                               balance_tolerance=1.10, target_fraction=0.5,
                               max_negative_moves=50):
    assignment = dict(assignment)
    total_weight = sum(vertex_weights[node] for node in graph.nodes())
    target = {0: total_weight * target_fraction, 1: total_weight * (1.0 - target_fraction)}
    side_weight = {0: 0.0, 1: 0.0}
    for node in graph.nodes():
        side_weight[assignment[node]] += vertex_weights[node]

    def within_balance(side, delta):
        limit = target[side] * balance_tolerance
        return side_weight[side] + delta <= limit or target[side] == 0

    for _ in range(max_passes):
        improved = False
        locked = set()
        best_cut = edge_cut(graph, assignment)
        current_cut = best_cut
        move_log = []
        best_prefix = 0
        negative_streak = 0

        boundary = [
            node
            for node in graph.nodes()
            if any(assignment[nb] != assignment[node] for nb in graph.neighbors(node))
        ]
        while boundary:
            best_node = None
            best_gain = float("-inf")
            for node in boundary:
                if node in locked:
                    continue
                destination = 1 - assignment[node]
                if not within_balance(destination, vertex_weights[node]):
                    continue
                gain = oracle_gain(graph, assignment, node)
                if gain > best_gain:
                    best_gain = gain
                    best_node = node
            if best_node is None:
                break
            source = assignment[best_node]
            destination = 1 - source
            assignment[best_node] = destination
            side_weight[source] -= vertex_weights[best_node]
            side_weight[destination] += vertex_weights[best_node]
            locked.add(best_node)
            current_cut -= best_gain
            move_log.append((best_node, source))
            if current_cut < best_cut - 1e-12:
                best_cut = current_cut
                best_prefix = len(move_log)
                negative_streak = 0
                improved = True
            else:
                negative_streak += 1
                if negative_streak > max_negative_moves:
                    break
            for neighbor in graph.neighbors(best_node):
                if neighbor not in locked and neighbor not in boundary:
                    boundary.append(neighbor)

        for node, original_side in reversed(move_log[best_prefix:]):
            moved_side = assignment[node]
            assignment[node] = original_side
            side_weight[moved_side] -= vertex_weights[node]
            side_weight[original_side] += vertex_weights[node]
        if not improved:
            break
    return assignment


def oracle_greedy_kway_refine(graph, assignment, k, vertex_weights=None,
                              max_passes=4, balance_tolerance=1.10):
    assignment = dict(assignment)
    if vertex_weights is None:
        vertex_weights = {node: 1.0 for node in graph.nodes()}
    total_weight = sum(vertex_weights.values())
    limit = (total_weight / k) * balance_tolerance
    part_weight = [0.0] * k
    for node, part in assignment.items():
        part_weight[part] += vertex_weights[node]

    for _ in range(max_passes):
        moved = 0
        for node in graph.nodes():
            own = assignment[node]
            link = {}
            for neighbor in graph.neighbors(node):
                part = assignment[neighbor]
                link[part] = link.get(part, 0.0) + graph.edge_weight(node, neighbor)
            own_link = link.get(own, 0.0)
            best_part = own
            best_gain = 0.0
            for part, weight in link.items():
                if part == own:
                    continue
                if part_weight[part] + vertex_weights[node] > limit:
                    continue
                gain = weight - own_link
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_part = part
            if best_part != own:
                assignment[node] = best_part
                part_weight[own] -= vertex_weights[node]
                part_weight[best_part] += vertex_weights[node]
                moved += 1
        if moved == 0:
            break
    return assignment


def oracle_greedy_graph_growing(graph, vertex_weights, rng, target_fraction=0.5):
    nodes = list(graph.nodes())
    if not nodes:
        return {}
    total_weight = sum(vertex_weights[node] for node in nodes)
    target = total_weight * target_fraction
    assignment = {node: 1 for node in nodes}
    seed_node = rng.choice(nodes)
    grown_weight = 0.0
    counter = 0
    heap = []

    def push(node, gain):
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (-gain, counter, node))

    push(seed_node, 0.0)
    in_part0 = set()
    while heap and grown_weight < target:
        _, _, node = heapq.heappop(heap)
        if node in in_part0:
            continue
        in_part0.add(node)
        assignment[node] = 0
        grown_weight += vertex_weights[node]
        for neighbor in graph.neighbors(node):
            if neighbor in in_part0:
                continue
            gain = 0.0
            for nb2 in graph.neighbors(neighbor):
                w = graph.edge_weight(neighbor, nb2)
                gain += w if nb2 in in_part0 else -w
            push(neighbor, gain)
    if grown_weight < target:
        for node in nodes:
            if grown_weight >= target:
                break
            if node not in in_part0:
                in_part0.add(node)
                assignment[node] = 0
                grown_weight += vertex_weights[node]
    return assignment


def oracle_heavy_edge_matching(graph, vertex_weights, rng, max_vertex_weight=None):
    order = list(graph.nodes())
    rng.shuffle(order)
    matched = {}
    for node in order:
        if node in matched:
            continue
        best = None
        best_weight = -1.0
        for neighbor in graph.neighbors(node):
            if neighbor == node or neighbor in matched:
                continue
            if max_vertex_weight is not None:
                combined = vertex_weights[node] + vertex_weights[neighbor]
                if combined > max_vertex_weight:
                    continue
            weight = graph.edge_weight(node, neighbor)
            if weight > best_weight:
                best_weight = weight
                best = neighbor
        if best is not None:
            matched[node] = best
            matched[best] = node
    return matched


def oracle_contract(graph, vertex_weights, matching):
    projection = {}
    coarse = Graph(name=f"{graph.name}|coarse")
    coarse_weights = {}
    next_id = 0
    for node in graph.nodes():
        if node in projection:
            continue
        partner = matching.get(node)
        coarse_id = next_id
        next_id += 1
        projection[node] = coarse_id
        weight = vertex_weights[node]
        if partner is not None and partner != node and partner not in projection:
            projection[partner] = coarse_id
            weight += vertex_weights[partner]
        coarse.add_node(coarse_id)
        coarse_weights[coarse_id] = weight
    for u, v, w in graph.edges():
        cu, cv = projection[u], projection[v]
        if cu == cv:
            continue
        coarse.add_edge(cu, cv, weight=w, accumulate=coarse.has_edge(cu, cv))
    return CoarseLevel(graph=coarse, vertex_weights=coarse_weights, projection=projection)


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def graph_state(graph):
    """Everything a Graph holds, in iteration order, as one string."""
    return repr((
        graph.name,
        graph.num_edges,
        [(node, list(nbrs.items())) for node, nbrs in graph._adj.items()],
        list(graph._node_attrs.items()),
        list(graph._edge_attrs.items()),
    ))


def level_state(level):
    return repr((graph_state(level.graph), list(level.vertex_weights.items()),
                 list(level.projection.items())))


#: Weights with inexact binary sums, so a changed summation order shows.
WEIGHTS = st.sampled_from([1.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.5, 7.0, 1e-3, 3.7])


@st.composite
def graphs(draw):
    """Random graphs: self loops, isolated vertices, several components,
    accumulated weights, attributes, and mixed ``int``/``str`` ids."""
    n = draw(st.integers(min_value=2, max_value=36))
    mixed = draw(st.booleans())
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ids = [f"v{i}" if mixed and flag else i for i, flag in zip(range(n), flags)]
    components = draw(st.integers(1, 3))
    component_of = [i % components for i in range(n)]
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), WEIGHTS),
        max_size=4 * n,
    ))
    graph = Graph(name="g")
    insertion = draw(st.permutations(range(n)))
    for i in insertion:
        if draw(st.integers(0, 5)) == 0:
            graph.add_node(ids[i], label=f"n{i}")
        else:
            graph.add_node(ids[i])
    for a, b, w in pairs:
        if component_of[a] != component_of[b]:
            continue  # keep the components apart (isolated ones stay so)
        graph.add_edge(ids[a], ids[b], weight=w, accumulate=w < 1.0)
        if w == 2.5:
            graph.edge_attrs(ids[a], ids[b])["year"] = 1989 + a
    return graph


@st.composite
def bisection_cases(draw):
    graph = draw(graphs())
    nodes = list(graph.nodes())
    sides = draw(st.lists(st.integers(0, 1), min_size=len(nodes), max_size=len(nodes)))
    assignment = dict(zip(nodes, sides))
    unit = draw(st.booleans())
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 0.5, 3.0, 1.25]),
                            min_size=len(nodes), max_size=len(nodes)))
    vertex_weights = {node: 1.0 if unit else w for node, w in zip(nodes, weights)}
    options = dict(
        max_passes=draw(st.integers(1, 8)),
        balance_tolerance=draw(st.sampled_from([1.0, 1.02, 1.10, 1.5])),
        target_fraction=draw(st.sampled_from([0.5, 0.4, 1.0 / 3.0, 0.2, 0.75])),
        max_negative_moves=draw(st.sampled_from([0, 1, 3, 50])),
    )
    return graph, assignment, vertex_weights, options


# --------------------------------------------------------------------------- #
# one function at a time
# --------------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs())
def test_edges_match_the_edge_key_walk(graph):
    assert repr(list(graph.edges())) == repr(list(oracle_edges(graph)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs(), st.data())
def test_subgraph_matches_the_add_edge_replay(graph, data):
    nodes = list(graph.nodes())
    chosen = data.draw(st.lists(st.sampled_from(nodes), max_size=len(nodes)))
    chosen += data.draw(st.lists(st.sampled_from(["ghost", 10_000]), max_size=2))
    assert graph_state(graph.subgraph(chosen)) == graph_state(oracle_subgraph(graph, chosen))
    assert graph_state(graph.copy()) == graph_state(oracle_subgraph(graph, nodes, name="g"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bisection_cases())
def test_fm_refine_matches_the_recomputing_scan(case):
    graph, assignment, vertex_weights, options = case
    expected = oracle_fm_refine_bisection(graph, assignment, vertex_weights, **options)
    got = fm_refine_bisection(graph, assignment, vertex_weights, **options)
    assert repr(list(got.items())) == repr(list(expected.items()))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs(), st.data())
def test_greedy_kway_refine_matches(graph, data):
    nodes = list(graph.nodes())
    k = data.draw(st.integers(2, 5))
    parts = data.draw(st.lists(st.integers(0, k - 1), min_size=len(nodes), max_size=len(nodes)))
    assignment = dict(zip(nodes, parts))
    weights = data.draw(st.none() | st.just({node: 1.5 for node in nodes}))
    tolerance = data.draw(st.sampled_from([1.0, 1.05, 1.10, 2.0]))
    expected = oracle_greedy_kway_refine(graph, assignment, k, weights,
                                         balance_tolerance=tolerance)
    got = greedy_kway_refine(graph, assignment, k, weights, balance_tolerance=tolerance)
    assert repr(list(got.items())) == repr(list(expected.items()))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs(), st.integers(0, 2**16), st.sampled_from([0.5, 0.4, 1.0 / 3.0, 0.8]))
def test_greedy_graph_growing_matches(graph, seed, fraction):
    weights = {node: 1.0 + (i % 3) * 0.5 for i, node in enumerate(graph.nodes())}
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    expected = oracle_greedy_graph_growing(graph, weights, rng_a, fraction)
    got = greedy_graph_growing(graph, weights, rng_b, fraction)
    assert repr(list(got.items())) == repr(list(expected.items()))
    assert rng_a.random() == rng_b.random()  # same draws consumed


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs(), st.integers(0, 2**16), st.sampled_from([None, 1.0, 2.0, 3.5]))
def test_heavy_edge_matching_and_contract_match(graph, seed, cap):
    weights = {node: 1.0 + (i % 2) for i, node in enumerate(graph.nodes())}
    expected = oracle_heavy_edge_matching(graph, weights, random.Random(seed), cap)
    got = heavy_edge_matching(graph, weights, random.Random(seed), cap)
    assert repr(list(got.items())) == repr(list(expected.items()))
    assert level_state(contract(graph, weights, got)) == level_state(
        oracle_contract(graph, weights, expected))


# --------------------------------------------------------------------------- #
# the whole k-way driver, old pieces against new
# --------------------------------------------------------------------------- #
def run_with_oracles(fn):
    with mock.patch.object(Graph, "edges", oracle_edges), \
            mock.patch.object(Graph, "subgraph", oracle_subgraph), \
            mock.patch.object(multilevel_module, "fm_refine_bisection",
                              oracle_fm_refine_bisection), \
            mock.patch.object(initial_module, "greedy_graph_growing",
                              oracle_greedy_graph_growing), \
            mock.patch.object(coarsen_module, "heavy_edge_matching",
                              oracle_heavy_edge_matching), \
            mock.patch.object(coarsen_module, "contract", oracle_contract), \
            mock.patch.object(kway_module, "greedy_kway_refine",
                              oracle_greedy_kway_refine):
        return fn()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graphs(), st.integers(2, 5), st.integers(0, 999), st.integers(4, 12))
def test_kway_partition_matches_with_the_old_pieces(graph, k, seed, coarsen_target):
    if graph.num_nodes < k:
        return
    options = KWayOptions(seed=seed)
    options.bisection.coarsen_target = coarsen_target

    def run():
        return kway_partition(graph, k, options)

    expected = run_with_oracles(run)
    assert repr(list(run().items())) == repr(list(expected.items()))


def test_the_patches_reach_the_driver():
    """The driver test above compares something only if the oracles run."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return oracle_fm_refine_bisection(*args, **kwargs)

    graph = Graph()
    graph.add_edges_from([(i, (i + 1) % 12) for i in range(12)])
    with mock.patch.object(multilevel_module, "fm_refine_bisection", counting):
        kway_partition(graph, 2, KWayOptions(seed=1))
    assert calls


@pytest.mark.parametrize("authors, seed", [(300, 1), (300, 2)])
def test_kway_partition_on_dblp_matches_with_the_old_pieces(authors, seed):
    from repro.data.dblp import DBLPConfig, generate_dblp

    graph = generate_dblp(DBLPConfig(num_authors=authors, seed=seed)).graph
    options = KWayOptions(seed=seed)
    expected = run_with_oracles(lambda: kway_partition(graph, 5, options))
    got = kway_partition(graph, 5, options)
    assert repr(list(got.items())) == repr(list(expected.items()))
