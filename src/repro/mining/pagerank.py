"""PageRank (a GMine details-on-demand metric).

Power-iteration PageRank over either an undirected :class:`Graph` (edges are
treated as bidirectional, weights respected) or a :class:`DiGraph`.
Dangling vertices redistribute their mass uniformly, the standard fix.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from scipy import sparse

from ..errors import ConvergenceError, MiningError
from ..graph.graph import DiGraph, Graph, NodeId
from ..graph.matrix import (
    PreparedGraph,
    VertexIndex,
    adjacency_matrix,
    pagerank_operator,
)
from .rwr import top_scored


def pagerank(
    graph: Optional[Graph],
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    personalization: Optional[Dict[NodeId, float]] = None,
    prepared: Optional[PreparedGraph] = None,
) -> Dict[NodeId, float]:
    """Return PageRank scores for an undirected graph.

    Parameters
    ----------
    damping:
        Probability of following an edge (1 - restart probability).
    personalization:
        Optional restart distribution (vertex -> weight); uniform by default.
    prepared:
        A :class:`~repro.graph.matrix.PreparedGraph` for ``graph``; skips
        the adjacency rebuild *and* reuses the cached column-normalised
        operator (:meth:`PreparedGraph.pagerank_view`).  Bit-identical to
        the cold path.
    """
    if prepared is not None:
        transition, dangling = prepared.pagerank_view()
        return _pagerank_power(
            transition, dangling, prepared.index,
            damping, tol, max_iter, personalization,
        )
    if graph is None:
        raise MiningError("pagerank requires a graph when no prepared= is given")
    matrix, index = adjacency_matrix(graph)
    return _pagerank_from_matrix(matrix, index, damping, tol, max_iter, personalization)


def pagerank_digraph(
    digraph: DiGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    personalization: Optional[Dict[NodeId, float]] = None,
) -> Dict[NodeId, float]:
    """Return PageRank scores for a directed graph."""
    index = VertexIndex(list(digraph.nodes()))
    n = len(index)
    rows, cols, vals = [], [], []
    for u, v, w in digraph.edges():
        # Column j holds the out-distribution of vertex j.
        rows.append(index.index_of(v))
        cols.append(index.index_of(u))
        vals.append(w)
    matrix = sparse.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
    )
    return _pagerank_from_matrix(matrix, index, damping, tol, max_iter, personalization)


def _pagerank_from_matrix(
    matrix: sparse.spmatrix,
    index: VertexIndex,
    damping: float,
    tol: float,
    max_iter: int,
    personalization: Optional[Dict[NodeId, float]],
) -> Dict[NodeId, float]:
    """Shared power-iteration core; ``matrix[i, j]`` is weight of j -> i."""
    if len(index) == 0:
        return {}
    transition, dangling = pagerank_operator(matrix)
    return _pagerank_power(
        transition, dangling, index, damping, tol, max_iter, personalization
    )


def _pagerank_power(
    transition: sparse.spmatrix,
    dangling: np.ndarray,
    index: VertexIndex,
    damping: float,
    tol: float,
    max_iter: int,
    personalization: Optional[Dict[NodeId, float]],
) -> Dict[NodeId, float]:
    """Power iteration over an already-normalised operator."""
    n = len(index)
    if n == 0:
        return {}

    if personalization is None:
        restart = np.full(n, 1.0 / n)
    else:
        restart = np.zeros(n)
        for node, weight in personalization.items():
            restart[index.index_of(node)] = max(0.0, float(weight))
        total = restart.sum()
        if total == 0:
            restart = np.full(n, 1.0 / n)
        else:
            restart /= total

    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        dangling_mass = rank[dangling].sum()
        updated = damping * (transition @ rank + dangling_mass * restart)
        updated += (1.0 - damping) * restart
        updated /= updated.sum()
        if np.abs(updated - rank).sum() < tol:
            rank = updated
            break
        rank = updated
    else:
        raise ConvergenceError(
            f"PageRank did not converge within {max_iter} iterations (tol={tol})"
        )
    return {index.node_at(i): float(rank[i]) for i in range(n)}


def top_pagerank_nodes(
    scores: Dict[NodeId, float], count: int = 10
) -> list:
    """Return the ``count`` highest-scoring ``(node, score)`` pairs (ties by ``repr``)."""
    return top_scored(scores, count, repr)
