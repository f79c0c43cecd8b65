"""Hop-plot and diameter estimation ("number of hops" in the GMine UI).

For small subgraphs the exact all-pairs hop distribution is feasible; for
larger ones GMine-style systems estimate it by sampling BFS sources.  Both
are provided, along with effective-diameter computation (the 90th percentile
of the hop distribution, the convention from the hop-plot literature).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph, NodeId
from ..graph.traversal import bfs_distances


def hop_histogram(graph: Graph, sources: Optional[List[NodeId]] = None) -> Dict[int, int]:
    """Return a histogram hop-distance -> number of reachable ordered pairs.

    With ``sources`` given only pairs originating at those vertices are
    counted (the sampled variant); otherwise every vertex is a source.
    Distance 0 (self pairs) is excluded.
    """
    histogram: Dict[int, int] = {}
    for source in sources if sources is not None else graph.nodes():
        for distance in bfs_distances(graph, source).values():
            if distance == 0:
                continue
            histogram[distance] = histogram.get(distance, 0) + 1
    return histogram


def exact_diameter(graph: Graph) -> int:
    """Return the largest hop distance over reachable pairs (0 for empty/trivial)."""
    best = 0
    for source in graph.nodes():
        distances = bfs_distances(graph, source)
        if distances:
            best = max(best, max(distances.values()))
    return best


def effective_diameter(
    graph: Graph, percentile: float = 0.9, sources: Optional[List[NodeId]] = None
) -> float:
    """Return the hop count within which ``percentile`` of reachable pairs fall.

    Linear interpolation between integer hop counts follows the usual
    hop-plot convention so the value is comparable across graph sizes.
    """
    return _effective_diameter_of(hop_histogram(graph, sources), percentile)


def _effective_diameter_of(histogram: Dict[int, int], percentile: float) -> float:
    """:func:`effective_diameter` of an already accumulated hop histogram."""
    if not histogram:
        return 0.0
    total = sum(histogram.values())
    target = percentile * total
    cumulative = 0.0
    previous_cumulative = 0.0
    for hop in sorted(histogram):
        previous_cumulative = cumulative
        cumulative += histogram[hop]
        if cumulative >= target:
            if histogram[hop] == 0:
                return float(hop)
            # Interpolate within this hop bucket.
            fraction = (target - previous_cumulative) / histogram[hop]
            return (hop - 1) + fraction
    return float(max(histogram))


@dataclass
class HopPlot:
    """The sampled hop-plot of a graph: reachable-pairs count per hop distance."""

    histogram: Dict[int, int]
    num_sources: int
    sampled: bool

    def cumulative(self) -> Dict[int, int]:
        """Return cumulative reachable pairs by hop distance."""
        result: Dict[int, int] = {}
        running = 0
        for hop in sorted(self.histogram):
            running += self.histogram[hop]
            result[hop] = running
        return result

    def max_hop(self) -> int:
        """Return the largest observed hop distance."""
        return max(self.histogram) if self.histogram else 0


def hop_plot(
    graph: Graph,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
) -> HopPlot:
    """Compute the (possibly sampled) hop plot of ``graph``.

    ``sample_size`` limits the number of BFS sources; None means exact.
    """
    nodes = list(graph.nodes())
    sources = _sample_sources(nodes, sample_size, seed)
    return HopPlot(
        histogram=hop_histogram(graph, sources),
        num_sources=len(sources),
        sampled=sources is not nodes,
    )


def _sample_sources(
    nodes: List[NodeId], sample_size: Optional[int], seed: Optional[int]
) -> List[NodeId]:
    """The hop plot's BFS sources: ``nodes`` itself unless sampling applies."""
    if sample_size is not None and sample_size < len(nodes):
        rng = random.Random(seed if seed is not None else 0)
        return rng.sample(nodes, sample_size)
    return nodes


def hop_diameters(
    graph: Graph,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
    percentile: float = 0.9,
) -> Tuple[int, float]:
    """``(diameter, effective diameter)`` from one BFS per vertex.

    The diameter is the largest hop of :func:`hop_plot` (the sampled plot
    when ``sample_size`` samples, else :func:`exact_diameter`); the
    effective diameter is always exact, as :func:`effective_diameter`
    computes it.  Both come from one all-pairs pass (the sampled sources'
    rows give the sampled diameter) instead of up to three passes.
    """
    nodes = list(graph.nodes())
    sources = _sample_sources(nodes, sample_size, seed)
    sampled = set(sources) if sources is not nodes else None
    exact: Dict[int, int] = {}
    sampled_max = 0
    for source in nodes:
        in_sample = sampled is not None and source in sampled
        for distance in bfs_distances(graph, source).values():
            if distance == 0:
                continue
            exact[distance] = exact.get(distance, 0) + 1
            if in_sample and distance > sampled_max:
                sampled_max = distance
    diameter = sampled_max if sampled is not None else max(exact, default=0)
    return diameter, _effective_diameter_of(exact, percentile)


def average_shortest_path_length(graph: Graph) -> float:
    """Return the mean hop distance over reachable ordered pairs (0 if none)."""
    histogram = hop_histogram(graph)
    total_pairs = sum(histogram.values())
    if total_pairs == 0:
        return 0.0
    weighted = sum(hop * count for hop, count in histogram.items())
    return weighted / total_pairs
