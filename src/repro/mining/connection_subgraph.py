"""Multi-source connection subgraph extraction (the paper's second idea).

Given a set of *source* vertices and a node budget, extract a small subgraph
that "best captures the relationship" among the sources:

1. run one independent random walk with restart per source and combine the
   steady-state distributions into per-vertex **goodness scores**
   (:mod:`repro.mining.rwr`);
2. iteratively add **important paths** between pairs of sources by dynamic
   programming over the goodness scores (each path maximises the product of
   its interior vertices' goodness, i.e. the sum of log-goodness, subject to
   a maximum path length), until the node budget is exhausted;
3. if budget remains, top up with the highest-goodness vertices adjacent to
   the current subgraph so the display remains connected.

The output is the induced subgraph on the selected vertices plus extraction
metadata (scores, the paths chosen, budget accounting).

Everything after the RWR runs on integer vertex positions
(:class:`GraphArrays`): position ``i`` is the ``i``-th vertex of
``graph.nodes()``, ``neighbours[i]`` lists its neighbours' positions and
``degrees[i]`` its weighted degree.  The widest scope memoises the arrays
on its :class:`~repro.graph.matrix.PreparedGraph`, keyed by the graph
object's identity; a community scope is a fresh subgraph per request and
builds them per call.  The result is byte-identical to the same algorithm
over the dict :class:`Graph`, which takes these rules:

* neighbours are listed in ``graph.neighbors(v)`` order, not CSR column
  order — Dijkstra breaks equal-cost ties by push order, and selected
  vertices cost 0, so ties are common;
* path costs are ``-math.log(max(goodness, 1e-12))`` per vertex
  (``np.log`` rounds differently on some values);
* the degree divisor is Python's ``d ** ((k - 1) / k)`` over
  ``graph.weighted_degree`` (a dict-order sum), cached per source count;
* goodness logs and exps are vectorised over the per-source score
  columns, read into graph order by vertex id, whatever the RWR index
  order (:func:`repro.mining.rwr.goodness_vector`);
* the top-up keeps one frontier heap keyed by ``(goodness, repr rank)``,
  which pops the vertex ``max(frontier, key=(goodness, repr))`` would.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ExtractionError
from ..graph.graph import Graph, NodeId
from ..graph.matrix import PreparedGraph
from .rwr import RWRResult, degree_normaliser, goodness_vector, per_source_rwr

#: Goodness floor of a path cost: ``-log`` of 0 would be infinite.
_GOODNESS_FLOOR = 1e-12


class GraphArrays:
    """Integer-position view of one :class:`Graph` for the extraction kernel."""

    def __init__(self, graph: Graph) -> None:
        self.nodes: List[NodeId] = list(graph.nodes())
        self.position: Dict[NodeId, int] = {node: i for i, node in enumerate(self.nodes)}
        position = self.position
        #: ``neighbours[i]``: positions of vertex ``i``'s neighbours in
        #: ``graph.neighbors`` order.
        self.neighbours: List[tuple] = [
            tuple([position[neighbor] for neighbor in graph.neighbors(node)])
            for node in self.nodes
        ]
        self.degrees: List[float] = [graph.weighted_degree(node) for node in self.nodes]
        self._normalisers: Dict[int, Optional[np.ndarray]] = {}
        self._repr_rank: Optional[List[int]] = None

    def normaliser(self, num_sources: int) -> Optional[np.ndarray]:
        """Memoised :func:`~repro.mining.rwr.degree_normaliser` for ``k`` sources."""
        if num_sources not in self._normalisers:
            self._normalisers[num_sources] = degree_normaliser(self.degrees, num_sources)
        return self._normalisers[num_sources]

    @property
    def repr_rank(self) -> List[int]:
        """``repr_rank[i]``: rank of ``repr(nodes[i])`` among all vertices."""
        if self._repr_rank is None:
            reprs = [repr(node) for node in self.nodes]
            rank = [0] * len(reprs)
            for order, i in enumerate(sorted(range(len(reprs)), key=reprs.__getitem__)):
                rank[i] = order
            self._repr_rank = rank
        return self._repr_rank

    def score_columns(self, per_source: Dict[NodeId, RWRResult]) -> List[np.ndarray]:
        """Per-source scores in position order, looked up by vertex id."""
        n = len(self.nodes)
        return [
            np.fromiter(map(result.scores.get, self.nodes, [0.0] * n),
                        dtype=np.float64, count=n)
            for result in per_source.values()
        ]


@dataclass
class ExtractionResult:
    """Outcome of a connection-subgraph extraction."""

    subgraph: Graph
    sources: List[NodeId]
    goodness: Dict[NodeId, float]
    paths: List[List[NodeId]] = field(default_factory=list)
    budget: int = 0

    @property
    def num_nodes(self) -> int:
        """Number of vertices in the extracted subgraph."""
        return self.subgraph.num_nodes

    def reduction_factor(self, original: Graph) -> float:
        """How many times smaller the extract is than the original graph."""
        if self.num_nodes == 0:
            return float("inf")
        return original.num_nodes / self.num_nodes

    def contains_all_sources(self) -> bool:
        """Whether every query source made it into the extract (it always should)."""
        return all(self.subgraph.has_node(source) for source in self.sources)


def extract_connection_subgraph(
    graph: Graph,
    sources: Sequence[NodeId],
    budget: int = 30,
    restart_probability: float = 0.15,
    max_path_length: int = 6,
    solver: str = "power",
    degree_normalized: bool = True,
    prepared: Optional[PreparedGraph] = None,
) -> ExtractionResult:
    """Extract a connection subgraph of at most ``budget`` vertices.

    Parameters
    ----------
    sources:
        One or more query vertices (the paper supports multi-source queries,
        unlike the pairwise KDD'04 baseline).
    budget:
        Maximum number of vertices in the result (paper figure 5 uses 30,
        figure 6 uses 200).  Must be at least ``len(sources)``.
    max_path_length:
        Maximum number of edges in any single important path added by the
        dynamic program.
    prepared:
        A :class:`~repro.graph.matrix.PreparedGraph` for ``graph``; the
        per-source RWR then runs against the cached transition
        matrix, and the :class:`GraphArrays` of ``graph`` are memoised on
        it (for this graph object only).
    """
    sources = list(dict.fromkeys(sources))  # dedupe, keep order
    if not sources:
        raise ExtractionError("extraction requires at least one source node")
    for source in sources:
        if not graph.has_node(source):
            raise ExtractionError(f"source {source!r} is not in the graph")
    if budget < len(sources):
        raise ExtractionError(
            f"budget {budget} is smaller than the number of sources {len(sources)}"
        )

    per_source = per_source_rwr(
        graph, sources, restart_probability=restart_probability, solver=solver,
        prepared=prepared,
    )
    if prepared is not None:
        arrays = prepared.graph_view(graph, GraphArrays)
    else:
        arrays = GraphArrays(graph)
    normaliser = arrays.normaliser(len(sources)) if degree_normalized else None
    goodness_array = goodness_vector(arrays.score_columns(per_source), normaliser)
    scores = goodness_array.tolist()
    goodness = dict(zip(arrays.nodes, scores))

    selected: List[int] = [arrays.position[source] for source in sources]
    is_selected = [False] * len(scores)
    # Entering vertex v costs -log(max(goodness, floor)), kept as the log
    # and subtracted (``a - b`` is ``a + -b`` exactly).  A selected vertex
    # costs nothing extra, so the program prefers to reuse the display.
    log_goodness = list(map(math.log, np.maximum(goodness_array, _GOODNESS_FLOOR).tolist()))
    for node in selected:
        is_selected[node] = True
        log_goodness[node] = 0.0
    size = len(selected)  # distinct selected vertices
    paths: List[List[NodeId]] = []

    # Step 2: iterative important-path discovery between source pairs.
    pair_queue = list(combinations(selected, 2))
    progressed = True
    while progressed and size < budget:
        progressed = False
        for origin, target in pair_queue:
            if size >= budget:
                break
            path = _best_goodness_path(
                arrays.neighbours, log_goodness, origin, target, max_path_length
            )
            if path is None:
                continue
            new_nodes = [node for node in path if not is_selected[node]]
            if not new_nodes:
                continue
            # Respect the budget: only take the path if it fits entirely, so
            # the display never shows dangling half-paths.
            if size + len(new_nodes) > budget:
                continue
            size += len(set(new_nodes))  # a path may repeat a vertex
            for node in new_nodes:
                is_selected[node] = True
                log_goodness[node] = 0.0
                selected.append(node)
            paths.append([arrays.nodes[node] for node in path])
            progressed = True

    # Step 3: top up with high-goodness neighbours of the current selection.
    if size < budget:
        _top_up(arrays, scores, selected, is_selected, budget - size)

    subgraph = graph.subgraph(
        [arrays.nodes[node] for node in selected], name=f"{graph.name}::extract"
    )
    return ExtractionResult(
        subgraph=subgraph,
        sources=list(sources),
        goodness=goodness,
        paths=paths,
        budget=budget,
    )


def _best_goodness_path(
    neighbours: List[tuple],
    log_goodness: List[float],
    origin: int,
    target: int,
    max_path_length: int,
) -> Optional[List[int]]:
    """Return the path from ``origin`` to ``target`` maximising interior goodness.

    Dijkstra over the layered graph of ``(position, hops)`` states, encoded
    as ``position * (max_path_length + 1) + hops``: the cheapest state
    popped at ``target`` is the path maximising the sum of log-goodness
    over its interior vertices with at most ``max_path_length`` edges.
    Entering ``v`` costs ``-log_goodness[v]`` (non-negative; 0 for the
    sources).  Ties pop in push order.
    """
    if origin == target:
        return [origin]
    span = max_path_length + 1
    start = origin * span
    best_cost = [math.inf] * (len(neighbours) * span)
    best_cost[start] = 0.0
    parent: Dict[int, int] = {start: -1}
    counter = 0
    heap = [(0.0, 0, start)]
    pop, push = heapq.heappop, heapq.heappush
    found = -1
    while heap:
        state_cost, _, state = pop(heap)
        if state_cost > best_cost[state]:
            continue
        node = state // span
        if node == target:
            found = state
            break
        offset = state - node * span + 1
        if offset > max_path_length:
            continue
        for neighbor in neighbours[node]:
            next_state = neighbor * span + offset
            next_cost = state_cost - log_goodness[neighbor]
            if next_cost < best_cost[next_state]:
                best_cost[next_state] = next_cost
                parent[next_state] = state
                counter += 1
                push(heap, (next_cost, counter, next_state))
    if found < 0:
        return None
    path: List[int] = []
    while found >= 0:
        path.append(found // span)
        found = parent[found]
    path.reverse()
    return path


def _top_up(
    arrays: GraphArrays,
    scores: List[float],
    selected: List[int],
    is_selected: List[bool],
    room: int,
) -> None:
    """Add up to ``room`` best-scoring neighbours of the selection.

    One heap over the frontier (unselected neighbours of the selection),
    grown as vertices join; each pop is the frontier's maximum of
    ``(goodness, repr(node))``, vertex ids having distinct reprs.
    """
    neighbours = arrays.neighbours
    rank = arrays.repr_rank
    queued = list(is_selected)
    heap = []
    for node in selected:
        for neighbor in neighbours[node]:
            if not queued[neighbor]:
                queued[neighbor] = True
                heap.append((-scores[neighbor], -rank[neighbor], neighbor))
    heapq.heapify(heap)
    for _ in range(room):
        if not heap:
            break
        best = heapq.heappop(heap)[2]
        selected.append(best)
        for neighbor in neighbours[best]:
            if not queued[neighbor]:
                queued[neighbor] = True
                heapq.heappush(heap, (-scores[neighbor], -rank[neighbor], neighbor))


def extraction_summary(result: ExtractionResult, original: Graph) -> Dict[str, float]:
    """Return headline statistics about an extraction (used by benchmarks)."""
    return {
        "original_nodes": original.num_nodes,
        "original_edges": original.num_edges,
        "extracted_nodes": result.num_nodes,
        "extracted_edges": result.subgraph.num_edges,
        "budget": result.budget,
        "reduction_factor": result.reduction_factor(original),
        "num_paths": len(result.paths),
        "sources_present": float(result.contains_all_sources()),
    }
