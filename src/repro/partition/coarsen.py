"""Coarsening phase of the multilevel partitioner.

Following Karypis & Kumar's multilevel scheme, the input graph is repeatedly
collapsed by computing a matching and merging matched endpoints into
super-vertices.  Edge weights between super-vertices accumulate the weights
of the original edges they represent, and vertex weights accumulate the
number (or weight) of original vertices — so the balance constraint at the
coarsest level still reflects the original graph.

Two matching strategies are provided:

* **heavy-edge matching (HEM)** — visit vertices in random order and match
  each unmatched vertex to the unmatched neighbour connected by the heaviest
  edge.  This is METIS's default and shrinks the cut that later refinement
  has to repair.
* **random matching (RM)** — match to a random unmatched neighbour; used by
  the coarsening ablation benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph, NodeId


@dataclass
class CoarseLevel:
    """One level of the coarsening hierarchy.

    Attributes
    ----------
    graph:
        The coarse graph at this level.
    vertex_weights:
        Weight of each coarse vertex (number of original vertices it holds).
    projection:
        Maps each vertex of the *finer* graph to its coarse super-vertex.
    """

    graph: Graph
    vertex_weights: Dict[NodeId, float]
    projection: Dict[NodeId, NodeId] = field(default_factory=dict)


def initial_level(graph: Graph) -> CoarseLevel:
    """Wrap the input graph as level 0 with unit vertex weights."""
    return CoarseLevel(
        graph=graph,
        vertex_weights={node: 1.0 for node in graph.nodes()},
        projection={},
    )


def heavy_edge_matching(
    graph: Graph,
    vertex_weights: Dict[NodeId, float],
    rng: random.Random,
    max_vertex_weight: Optional[float] = None,
) -> Dict[NodeId, NodeId]:
    """Return a matching as a map vertex -> partner (both directions present).

    Unmatched vertices are absent from the map.  ``max_vertex_weight`` stops
    super-vertices from growing so large that balance becomes impossible.
    """
    order = list(graph.nodes())
    rng.shuffle(order)
    matched: Dict[NodeId, NodeId] = {}
    for node in order:
        if node in matched:
            continue
        best: Optional[NodeId] = None
        best_weight = -1.0
        for neighbor, weight in graph.neighbor_weights(node):
            if neighbor == node or neighbor in matched:
                continue
            if max_vertex_weight is not None:
                combined = vertex_weights[node] + vertex_weights[neighbor]
                if combined > max_vertex_weight:
                    continue
            if weight > best_weight:
                best_weight = weight
                best = neighbor
        if best is not None:
            matched[node] = best
            matched[best] = node
    return matched


def random_matching(
    graph: Graph,
    vertex_weights: Dict[NodeId, float],
    rng: random.Random,
    max_vertex_weight: Optional[float] = None,
) -> Dict[NodeId, NodeId]:
    """Return a random maximal matching (ablation alternative to HEM)."""
    order = list(graph.nodes())
    rng.shuffle(order)
    matched: Dict[NodeId, NodeId] = {}
    for node in order:
        if node in matched:
            continue
        candidates = [
            neighbor
            for neighbor in graph.neighbors(node)
            if neighbor != node
            and neighbor not in matched
            and (
                max_vertex_weight is None
                or vertex_weights[node] + vertex_weights[neighbor] <= max_vertex_weight
            )
        ]
        if candidates:
            partner = rng.choice(candidates)
            matched[node] = partner
            matched[partner] = node
    return matched


def contract(
    graph: Graph,
    vertex_weights: Dict[NodeId, float],
    matching: Dict[NodeId, NodeId],
) -> CoarseLevel:
    """Collapse matched pairs into super-vertices and return the coarser level.

    Coarse vertex ids are fresh consecutive integers, which keeps the coarse
    graphs compact regardless of the original id domain.
    """
    projection: Dict[NodeId, NodeId] = {}
    coarse = Graph(name=f"{graph.name}|coarse")
    coarse_weights: Dict[NodeId, float] = {}
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
            continue  # internal edge of a super-vertex disappears
        coarse.add_edge(cu, cv, weight=w, accumulate=True)
    return CoarseLevel(graph=coarse, vertex_weights=coarse_weights, projection=projection)


def coarsen(
    graph: Graph,
    target_size: int = 100,
    max_levels: int = 30,
    matching: str = "heavy_edge",
    seed: Optional[int] = None,
    balance_factor: float = 1.5,
) -> List[CoarseLevel]:
    """Build the coarsening hierarchy (finest first, coarsest last).

    Coarsening stops when the coarse graph has at most ``target_size``
    vertices, when ``max_levels`` is reached, or when a level fails to shrink
    the graph by at least ~10 % (which signals the matching has collapsed,
    e.g. on a star graph).
    """
    rng = random.Random(seed if seed is not None else 0)
    matcher = heavy_edge_matching if matching == "heavy_edge" else random_matching
    levels = [initial_level(graph)]
    total_weight = float(graph.num_nodes)
    while (
        levels[-1].graph.num_nodes > target_size
        and len(levels) <= max_levels
    ):
        current = levels[-1]
        # Cap super-vertex size so the coarsest graph stays partitionable.
        max_vertex_weight = balance_factor * total_weight / max(target_size, 1)
        match = matcher(
            current.graph, current.vertex_weights, rng, max_vertex_weight=max_vertex_weight
        )
        if not match:
            break
        coarser = contract(current.graph, current.vertex_weights, match)
        if coarser.graph.num_nodes >= current.graph.num_nodes * 0.95:
            break
        levels.append(coarser)
    return levels
