"""Initial bisection of the coarsest graph.

At the bottom of the multilevel V-cycle the coarse graph is small (about a
hundred super-vertices), so we can afford several attempts with different
strategies and keep the best cut:

* **greedy graph growing (GGP)** — grow one side breadth-first from a random
  seed, preferring the frontier vertex whose move gains the most internal
  edge weight, until half the total vertex weight is absorbed.
* **spectral bisection** — sign (actually median) split of the Fiedler
  vector of the combinatorial Laplacian; robust when the graph is well
  connected.

Both return an assignment into parts {0, 1} respecting the balance target.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Optional

import numpy as np
from scipy.sparse.linalg import eigsh

from ..graph.graph import Graph, NodeId
from ..graph.matrix import combinatorial_laplacian
from .metrics import edge_cut


def greedy_graph_growing(
    graph: Graph,
    vertex_weights: Dict[NodeId, float],
    rng: random.Random,
    target_fraction: float = 0.5,
) -> Dict[NodeId, int]:
    """Return a 2-way assignment grown greedily from a random seed vertex."""
    nodes = list(graph.nodes())
    if not nodes:
        return {}
    total_weight = sum(vertex_weights[node] for node in nodes)
    target = total_weight * target_fraction
    assignment = {node: 1 for node in nodes}
    seed_node = rng.choice(nodes)
    grown_weight = 0.0
    # Max-heap keyed by gain: moving v to part 0 gains (edges to part 0) -
    # (edges to part 1); we lazily re-push with updated gains.
    counter = 0
    heap: list = []

    def push(node: NodeId, gain: float) -> None:
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
            for nb2, w in graph.neighbor_weights(neighbor):
                gain += w if nb2 in in_part0 else -w
            push(neighbor, gain)
    # If the graph is disconnected the frontier can dry up early; top up with
    # arbitrary vertices until the balance target is met.
    if grown_weight < target:
        for node in nodes:
            if grown_weight >= target:
                break
            if node not in in_part0:
                in_part0.add(node)
                assignment[node] = 0
                grown_weight += vertex_weights[node]
    return assignment


def spectral_bisection(
    graph: Graph,
    vertex_weights: Dict[NodeId, float],
) -> Optional[Dict[NodeId, int]]:
    """Return a 2-way assignment from the Fiedler vector, or None on failure.

    Vertices are sorted by their Fiedler-vector entry and the split point is
    chosen so each side holds half the total vertex weight — a weighted
    median split, which keeps the result balanced even with heavy
    super-vertices.

    The result is a pure function of the graph: the Lanczos start vector
    is fixed (left unset, ARPACK draws it from OS entropy and the same
    graph bisects differently from run to run) and the eigenvector's
    arbitrary sign is normalised.
    """
    n = graph.num_nodes
    if n < 4:
        return None
    try:
        laplacian, index = combinatorial_laplacian(graph)
        v0 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        # Smallest two eigenpairs; the second is the Fiedler vector.
        values, vectors = eigsh(
            laplacian.asfptype(), k=2, sigma=-1e-6, which="LM", v0=v0
        )
        order = np.argsort(values)
        fiedler = vectors[:, order[1]]
    except Exception:
        return None
    if fiedler[np.argmax(np.abs(fiedler))] < 0:
        fiedler = -fiedler
    ranked = sorted(range(n), key=lambda i: fiedler[i])
    total = sum(vertex_weights[index.node_at(i)] for i in ranked)
    assignment: Dict[NodeId, int] = {}
    running = 0.0
    for i in ranked:
        node = index.node_at(i)
        part = 0 if running < total / 2.0 else 1
        assignment[node] = part
        running += vertex_weights[node]
    return assignment


def best_initial_bisection(
    graph: Graph,
    vertex_weights: Dict[NodeId, float],
    seed: Optional[int] = None,
    attempts: int = 4,
    use_spectral: bool = True,
    target_fraction: float = 0.5,
) -> Dict[NodeId, int]:
    """Run several strategies and return the assignment with the smallest cut."""
    rng = random.Random(seed if seed is not None else 0)
    candidates = []
    for _ in range(max(1, attempts)):
        candidates.append(
            greedy_graph_growing(graph, vertex_weights, rng, target_fraction)
        )
    if use_spectral and abs(target_fraction - 0.5) < 1e-9:
        spectral = spectral_bisection(graph, vertex_weights)
        if spectral is not None:
            candidates.append(spectral)
    return min(candidates, key=lambda assignment: edge_cut(graph, assignment))
