"""Node-proximity queries on top of random walk with restart.

The connection-subgraph machinery already computes RWR distributions; this
module exposes them as user-facing queries that GMine-style exploration
needs constantly:

* :func:`top_k_related` — "who is most related to this author?" (the
  interaction behind figure 3(f), generalised beyond direct neighbours),
* :func:`proximity` — a single relevance score between two vertices,
* :func:`pairwise_proximity_matrix` — proximities among a small set of
  vertices (used to decide which pairs of query sources are worth detailed
  path extraction),
* :func:`common_neighbors`, :func:`jaccard_similarity`, :func:`adamic_adar`
  — cheap structural baselines the RWR scores can be compared against.

Every RWR-backed query accepts ``prepared=``, and the multi-walk queries
(:func:`proximity`'s bidirectional pair, :func:`pairwise_proximity_matrix`'s
all-pairs set) build **one** :class:`~repro.graph.matrix.PreparedGraph`
for all their walks through :func:`~repro.mining.rwr.per_source_rwr`,
instead of re-deriving the vertex index and transition matrix per walk.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MiningError
from ..graph.graph import Graph, NodeId
from ..graph.matrix import PreparedGraph
from .rwr import per_source_rwr, rwr_power_iteration


def _prepare(graph: Optional[Graph], prepared: Optional[PreparedGraph]) -> PreparedGraph:
    """Return the caller's prepared view, or build one for this query."""
    if prepared is not None:
        return prepared
    if graph is None:
        raise MiningError("proximity requires a graph when no prepared= is given")
    return PreparedGraph.from_graph(graph)


def top_k_related(
    graph: Graph,
    source: NodeId,
    k: int = 10,
    restart_probability: float = 0.15,
    exclude_neighbors: bool = False,
    prepared: Optional[PreparedGraph] = None,
) -> List[Tuple[NodeId, float]]:
    """Return the ``k`` vertices most related to ``source`` by RWR score.

    The source itself is always excluded; with ``exclude_neighbors`` its
    direct neighbours are excluded too, surfacing the strongest *indirect*
    relationships (co-authors of co-authors, in DBLP terms).
    """
    if k < 1:
        raise MiningError(f"k must be >= 1, got {k}")
    result = rwr_power_iteration(
        graph, [source], restart_probability=restart_probability, prepared=prepared
    )
    excluded = {source}
    if exclude_neighbors:
        excluded.update(graph.neighbors(source))
    ranked = sorted(
        ((node, score) for node, score in result.scores.items() if node not in excluded),
        key=lambda pair: (-pair[1], repr(pair[0])),
    )
    return ranked[:k]


def proximity(
    graph: Graph,
    source: NodeId,
    target: NodeId,
    restart_probability: float = 0.15,
    symmetric: bool = True,
    prepared: Optional[PreparedGraph] = None,
) -> float:
    """Return the RWR proximity between two vertices.

    With ``symmetric`` (default) the geometric mean of the two directed
    scores is returned, which is the usual symmetrisation for undirected
    relevance.  Both directed walks share one prepared transition matrix.
    """
    if not symmetric:
        forward = rwr_power_iteration(
            graph, [source], restart_probability=restart_probability,
            prepared=prepared,
        )
        return forward.scores.get(target, 0.0)
    walks = per_source_rwr(
        graph,
        [source, target],
        restart_probability=restart_probability,
        prepared=_prepare(graph, prepared),
    )
    score_forward = walks[source].scores.get(target, 0.0)
    score_backward = walks[target].scores.get(source, 0.0)
    return math.sqrt(max(score_forward, 0.0) * max(score_backward, 0.0))


def pairwise_proximity_matrix(
    graph: Graph,
    vertices: Sequence[NodeId],
    restart_probability: float = 0.15,
    prepared: Optional[PreparedGraph] = None,
) -> Dict[Tuple[NodeId, NodeId], float]:
    """Return symmetric RWR proximities for every pair of ``vertices``.

    Runs one RWR per vertex (not per pair), so the cost is linear in the
    number of query vertices — and all of them share one
    :class:`~repro.graph.matrix.PreparedGraph`, so the vertex index and
    transition matrix are derived exactly once.
    """
    vertices = list(dict.fromkeys(vertices))
    if len(vertices) < 2:
        raise MiningError("pairwise proximity needs at least two distinct vertices")
    distributions = per_source_rwr(
        graph,
        vertices,
        restart_probability=restart_probability,
        prepared=_prepare(graph, prepared),
    )
    matrix: Dict[Tuple[NodeId, NodeId], float] = {}
    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            forward = distributions[a].scores.get(b, 0.0)
            backward = distributions[b].scores.get(a, 0.0)
            matrix[(a, b)] = math.sqrt(max(forward, 0.0) * max(backward, 0.0))
    return matrix


# --------------------------------------------------------------------------- #
# structural baselines
# --------------------------------------------------------------------------- #
def common_neighbors(graph: Graph, u: NodeId, v: NodeId) -> List[NodeId]:
    """Return the vertices adjacent to both ``u`` and ``v``."""
    return [node for node in graph.neighbors(u) if graph.has_edge(node, v) and node not in (u, v)]


def jaccard_similarity(graph: Graph, u: NodeId, v: NodeId) -> float:
    """Return |N(u) ∩ N(v)| / |N(u) ∪ N(v)| (0 when both are isolated)."""
    neighbors_u = set(graph.neighbors(u)) - {u, v}
    neighbors_v = set(graph.neighbors(v)) - {u, v}
    union = neighbors_u | neighbors_v
    if not union:
        return 0.0
    return len(neighbors_u & neighbors_v) / len(union)


def adamic_adar(graph: Graph, u: NodeId, v: NodeId) -> float:
    """Return the Adamic–Adar index: sum over common neighbours of 1/log(degree)."""
    score = 0.0
    for node in common_neighbors(graph, u, v):
        degree = graph.degree(node)
        if degree > 1:
            score += 1.0 / math.log(degree)
    return score


def rank_candidates_by_proximity(
    graph: Graph,
    source: NodeId,
    candidates: Sequence[NodeId],
    restart_probability: float = 0.15,
    prepared: Optional[PreparedGraph] = None,
) -> List[Tuple[NodeId, float]]:
    """Rank ``candidates`` by their RWR score from ``source`` (descending)."""
    result = rwr_power_iteration(
        graph, [source], restart_probability=restart_probability, prepared=prepared
    )
    ranked = sorted(
        ((candidate, result.scores.get(candidate, 0.0)) for candidate in candidates),
        key=lambda pair: (-pair[1], repr(pair[0])),
    )
    return ranked
