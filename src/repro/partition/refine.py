"""Refinement phase of the multilevel partitioner.

After a partition is projected from a coarse level to the next finer level
it is locally improved with a boundary Fiduccia–Mattheyses (FM) pass: cut-
boundary vertices are moved one at a time to the other side when that
reduces the cut without violating the balance constraint; a limited amount
of hill-climbing (negative-gain moves) is allowed and the best prefix of the
move sequence is kept, exactly as in the classic KL/FM formulation.

The implementation is dictionary-based (no bucket arrays).  A pass keeps
each vertex's gain once computed and drops only the moved vertex's
neighbours' entries after a move, because a gain depends on nothing else;
a recomputed gain runs the same loop in the same neighbour order, so every
float matches a from-scratch evaluation.  Selection is a linear scan for
the first strict maximum in boundary order, so ties break the same way
they always have.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph, NodeId
from .metrics import edge_cut


def _gain(graph: Graph, assignment: Dict[NodeId, int], node: NodeId) -> float:
    """Return the cut reduction obtained by moving ``node`` to the other part."""
    own = assignment[node]
    external = 0.0
    internal = 0.0
    for neighbor, weight in graph.neighbor_weights(node):
        if assignment[neighbor] == own:
            internal += weight
        else:
            external += weight
    return external - internal


def fm_refine_bisection(
    graph: Graph,
    assignment: Dict[NodeId, int],
    vertex_weights: Dict[NodeId, float],
    max_passes: int = 8,
    balance_tolerance: float = 1.10,
    target_fraction: float = 0.5,
    max_negative_moves: int = 50,
) -> Dict[NodeId, int]:
    """Return an improved 2-way assignment (the input dict is not mutated).

    Parameters
    ----------
    balance_tolerance:
        Maximum allowed ratio between a side's weight and its target weight.
    target_fraction:
        Fraction of total vertex weight that part 0 should hold (0.5 for an
        even bisection; other values support non-power-of-two k-way splits).
    max_negative_moves:
        How many consecutive non-improving moves a pass may explore before
        giving up (the FM hill-climbing window).
    """
    assignment = dict(assignment)
    total_weight = sum(vertex_weights[node] for node in graph.nodes())
    target = {0: total_weight * target_fraction, 1: total_weight * (1.0 - target_fraction)}
    side_weight = {0: 0.0, 1: 0.0}
    for node in graph.nodes():
        side_weight[assignment[node]] += vertex_weights[node]

    # The most weight a side may hold; an empty target bounds nothing.
    limit = {
        side: target[side] * balance_tolerance if target[side] != 0 else float("inf")
        for side in (0, 1)
    }

    for _ in range(max_passes):
        improved = False
        best_cut = edge_cut(graph, assignment)
        current_cut = best_cut
        move_log: List[Tuple[NodeId, int]] = []
        best_prefix = 0
        negative_streak = 0

        boundary = [
            node
            for node in graph.nodes()
            if any(assignment[nb] != assignment[node] for nb in graph.neighbors(node))
        ]
        # ``boundary`` holds the unlocked candidates in discovery order; a
        # moved vertex leaves it (locked) but stays in ``in_boundary`` so it
        # never returns this pass.
        in_boundary = set(boundary)
        # A vertex's gain depends only on its own side and its neighbours'
        # sides, so it is computed once per pass and forgotten only when a
        # neighbour moves.
        gains: Dict[NodeId, float] = {}
        # Repeatedly pick the best currently-movable boundary vertex (the
        # first strict maximum in boundary order).
        while boundary:
            best_node: Optional[NodeId] = None
            best_gain = float("-inf")
            for node in boundary:
                destination = 1 - assignment[node]
                if not side_weight[destination] + vertex_weights[node] <= limit[destination]:
                    continue
                gain = gains.get(node)
                if gain is None:
                    gain = gains[node] = _gain(graph, assignment, node)
                if gain > best_gain:
                    best_gain = gain
                    best_node = node
            if best_node is None:
                break
            boundary.remove(best_node)
            source = assignment[best_node]
            destination = 1 - source
            assignment[best_node] = destination
            side_weight[source] -= vertex_weights[best_node]
            side_weight[destination] += vertex_weights[best_node]
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
            # The boundary changes as vertices move; recompute lazily by
            # adding the moved vertex's neighbours.
            for neighbor in graph.neighbors(best_node):
                gains.pop(neighbor, None)
                if neighbor not in in_boundary:
                    boundary.append(neighbor)
                    in_boundary.add(neighbor)

        # Roll back the moves after the best prefix.
        for node, original_side in reversed(move_log[best_prefix:]):
            moved_side = assignment[node]
            assignment[node] = original_side
            side_weight[moved_side] -= vertex_weights[node]
            side_weight[original_side] += vertex_weights[node]
        if not improved:
            break
    return assignment


def greedy_kway_refine(
    graph: Graph,
    assignment: Dict[NodeId, int],
    k: int,
    vertex_weights: Optional[Dict[NodeId, float]] = None,
    max_passes: int = 4,
    balance_tolerance: float = 1.10,
) -> Dict[NodeId, int]:
    """Greedy k-way refinement: move boundary vertices to their best part.

    Used as a final polish after recursive bisection has produced the k-way
    assignment (and by the ablation benchmark to quantify its own benefit).
    """
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
            # Tally connection weight to each adjacent part.
            link: Dict[int, float] = {}
            for neighbor, weight in graph.neighbor_weights(node):
                part = assignment[neighbor]
                link[part] = link.get(part, 0.0) + weight
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
