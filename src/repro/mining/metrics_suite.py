"""The details-on-demand metric suite GMine exposes for a focused subgraph.

Section III-B of the paper lists exactly five calculations the system
supports on the subgraph under inspection: degree distribution, number of
hops, number of weak components, number of strong components, and PageRank.
:func:`compute_subgraph_metrics` bundles them into one call so the engine,
the CLI and the benchmarks all report the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph.graph import DiGraph, Graph, NodeId
from ..graph.matrix import PreparedGraph
from .components import number_strong_components, number_weak_components
from .degree import DegreeSummary, degree_distribution, degree_summary
from .hops import hop_diameters
from .pagerank import pagerank, top_pagerank_nodes


@dataclass
class SubgraphMetrics:
    """All five paper metrics for one subgraph, plus headline summaries."""

    degree_histogram: Dict[int, int]
    degree_stats: DegreeSummary
    diameter: int
    effective_diameter: float
    num_weak_components: int
    num_strong_components: int
    pagerank: Dict[NodeId, float]
    top_pagerank: List

    def as_dict(self) -> Dict:
        """Flatten to JSON-friendly primitives (for the CLI and reports)."""
        return {
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "degree_stats": self.degree_stats.as_dict(),
            "diameter": self.diameter,
            "effective_diameter": self.effective_diameter,
            "num_weak_components": self.num_weak_components,
            "num_strong_components": self.num_strong_components,
            "top_pagerank": [[str(node), score] for node, score in self.top_pagerank],
        }


def metrics_signature(
    hop_sample_size: Optional[int] = None,
    pagerank_damping: float = 0.85,
    top_k: int = 10,
    seed: Optional[int] = 0,
) -> Tuple:
    """Canonical argument tuple for caching :func:`compute_subgraph_metrics`.

    The metric suite is a pure function of (graph, these arguments); the
    service layer combines this tuple with a tree fingerprint and a
    community label to key its result cache, so two calls that differ only
    in argument spelling (defaults vs explicit values) share one entry.
    """
    return (
        ("hop_sample_size", None if hop_sample_size is None else int(hop_sample_size)),
        ("pagerank_damping", float(pagerank_damping)),
        ("top_k", int(top_k)),
        ("seed", None if seed is None else int(seed)),
    )


def compute_subgraph_metrics(
    graph: Graph,
    hop_sample_size: Optional[int] = None,
    pagerank_damping: float = 0.85,
    top_k: int = 10,
    seed: Optional[int] = 0,
    prepared: Optional[PreparedGraph] = None,
) -> SubgraphMetrics:
    """Compute the full GMine metric suite for ``graph``.

    ``hop_sample_size`` bounds the number of BFS sources used for the hop
    metrics (None = exact), which is how the interactive system keeps the
    computation responsive on larger communities.  ``prepared`` routes the
    PageRank leg through a pre-built sparse operator (the other four
    metrics are pure graph traversals); results are bit-identical.
    """
    if graph.num_nodes == 0:
        empty_stats = degree_summary(graph)
        return SubgraphMetrics(
            degree_histogram={},
            degree_stats=empty_stats,
            diameter=0,
            effective_diameter=0.0,
            num_weak_components=0,
            num_strong_components=0,
            pagerank={},
            top_pagerank=[],
        )
    diameter, effective = hop_diameters(graph, sample_size=hop_sample_size, seed=seed)
    scores = pagerank(graph, damping=pagerank_damping, prepared=prepared)
    return SubgraphMetrics(
        degree_histogram=degree_distribution(graph),
        degree_stats=degree_summary(graph),
        diameter=diameter,
        effective_diameter=effective,
        num_weak_components=number_weak_components(graph),
        num_strong_components=number_strong_components(DiGraph.from_undirected(graph)),
        pagerank=scores,
        top_pagerank=top_pagerank_nodes(scores, count=top_k),
    )
