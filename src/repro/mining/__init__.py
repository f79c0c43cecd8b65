"""Graph mining: RWR, connection-subgraph extraction, baselines, and metrics.

This package contains the paper's second headline idea (multi-source
connection subgraph extraction via random walk with restart and iterative
important-path discovery), the pairwise KDD'04 delivered-current baseline it
is contrasted with, and the five details-on-demand metrics the GMine UI
offers for a focused subgraph.
"""

from .components import (
    largest_component,
    number_strong_components,
    number_weak_components,
    strong_components,
    strong_components_of_undirected,
    weak_components,
)
from .connection_subgraph import (
    ExtractionResult,
    extract_connection_subgraph,
    extraction_summary,
)
from .degree import (
    DegreeSummary,
    degree_distribution,
    degree_distribution_normalized,
    degree_sequence,
    degree_summary,
    top_degree_nodes,
)
from .delivered_current import (
    DeliveredCurrentResult,
    compute_voltages,
    extract_delivered_current,
)
from .hops import (
    HopPlot,
    average_shortest_path_length,
    effective_diameter,
    exact_diameter,
    hop_histogram,
    hop_plot,
)
from .metrics_suite import SubgraphMetrics, compute_subgraph_metrics, metrics_signature
from .pagerank import pagerank, pagerank_digraph, top_pagerank_nodes
from .proximity import (
    adamic_adar,
    common_neighbors,
    jaccard_similarity,
    pairwise_proximity_matrix,
    proximity,
    rank_candidates_by_proximity,
    top_k_related,
)
from .rwr import (
    RWRResult,
    goodness_scores,
    meeting_probability,
    per_source_rwr,
    rwr_exact,
    rwr_exact_block,
    rwr_power_iteration,
    steady_state_rwr,
)

__all__ = [
    "DegreeSummary",
    "DeliveredCurrentResult",
    "ExtractionResult",
    "HopPlot",
    "RWRResult",
    "SubgraphMetrics",
    "adamic_adar",
    "average_shortest_path_length",
    "common_neighbors",
    "jaccard_similarity",
    "pairwise_proximity_matrix",
    "proximity",
    "rank_candidates_by_proximity",
    "top_k_related",
    "compute_subgraph_metrics",
    "compute_voltages",
    "degree_distribution",
    "degree_distribution_normalized",
    "degree_sequence",
    "degree_summary",
    "effective_diameter",
    "exact_diameter",
    "extract_connection_subgraph",
    "extract_delivered_current",
    "extraction_summary",
    "goodness_scores",
    "hop_histogram",
    "hop_plot",
    "largest_component",
    "meeting_probability",
    "metrics_signature",
    "number_strong_components",
    "number_weak_components",
    "pagerank",
    "pagerank_digraph",
    "per_source_rwr",
    "rwr_exact",
    "rwr_exact_block",
    "rwr_power_iteration",
    "steady_state_rwr",
    "strong_components",
    "strong_components_of_undirected",
    "top_degree_nodes",
    "top_pagerank_nodes",
    "weak_components",
]
