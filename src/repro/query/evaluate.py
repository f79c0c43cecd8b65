"""Evaluate compiled GPath plans over a (community) subgraph.

``evaluate_path`` is the body of the ``query.path`` kernel: a pure
function of ``(subgraph, plan)`` — the same contract every other plan
kernel honours — so results are byte-identical across inline, thread and
process backends.  ``prepared=`` is a pass-through optimisation: it is
only consulted when the plan's selection is the whole subgraph with no
edge predicates (the scope-folded fast path), where the scoring and
metric legs reuse the dataset's cached CSR operators.

The evaluator accepts both lowered and normalized chains: ``Filter``
nodes accumulate into the active predicate set, and node-embedded
predicates (the normalized form) are unioned with it, so the fusion pass
is a pure optimisation — tests pin lowered == normalized results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from ..errors import InvalidArgumentError
from ..graph.graph import Graph
from ..mining.metrics_suite import compute_subgraph_metrics
from ..mining.rwr import node_sort_key, steady_state_rwr
from .plan import (
    Collect,
    Const,
    EdgePredicate,
    Expand,
    Filter,
    Limit,
    Metrics,
    PlanNode,
    Score,
    Seed,
    chain,
)

#: Metric-suite arguments match the registry's ``dataset.metrics``
#: defaults, so a GPath ``metrics`` terminal over a whole community is
#: bit-identical to the direct op.
_METRICS_DEFAULTS = dict(
    hop_sample_size=None, pagerank_damping=0.85, top_k=10, seed=0,
)


@dataclass(frozen=True)
class PathResult:
    """The materialized answer of one GPath query (picklable, frozen)."""

    kind: str  # "nodes" | "count" | "scores" | "metrics"
    items: Tuple[Any, ...] = ()
    scores: Tuple[Tuple[Any, float], ...] = ()
    count: int = 0
    iterations: int = 0
    converged: bool = True
    restart_probability: float = 0.0
    metrics: Optional[Dict[str, Any]] = field(default=None, compare=False)

    @property
    def stream_total(self) -> int:
        """How many streamable entries the full (un-paged) result holds."""
        if self.kind == "nodes":
            return len(self.items)
        if self.kind == "scores":
            return len(self.scores)
        return 0


def _compare(actual: Any, op: str, expected: Any) -> bool:
    try:
        if op == "<":
            return actual < expected
        if op == "<=":
            return actual <= expected
        if op == ">":
            return actual > expected
        if op == ">=":
            return actual >= expected
        if op == "==":
            return actual == expected
        return actual != expected
    except TypeError:
        # Incomparable types (e.g. a string attribute vs a number): the
        # edge simply fails the predicate rather than failing the query.
        return False


def _edge_passes(
    graph: Graph, u: Any, v: Any, weight: float,
    predicates: Tuple[EdgePredicate, ...],
) -> bool:
    for predicate in predicates:
        if predicate.attr == "weight":
            actual = weight
        else:
            attrs = graph.edge_attrs(u, v)
            if predicate.attr not in attrs:
                return False
            actual = attrs[predicate.attr]
        if not _compare(actual, predicate.op, predicate.value):
            return False
    return True


def _merge(
    active: Tuple[EdgePredicate, ...], extra: Tuple[EdgePredicate, ...]
) -> Tuple[EdgePredicate, ...]:
    merged = list(active)
    for predicate in extra:
        if predicate not in merged:
            merged.append(predicate)
    return tuple(merged)


def _expand(
    graph: Graph, vertices: Set, hops: int,
    predicates: Tuple[EdgePredicate, ...],
) -> Set:
    """Multi-source BFS of up to ``hops`` hops over passing edges."""
    visited = set(vertices)
    frontier = visited
    for _ in range(hops):
        next_frontier = set()
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor in visited or neighbor in next_frontier:
                    continue
                weight = graph.edge_weight(node, neighbor)
                if _edge_passes(graph, node, neighbor, weight, predicates):
                    next_frontier.add(neighbor)
        if not next_frontier:
            break
        visited |= next_frontier
        frontier = next_frontier
    return visited


def _induce(
    subgraph: Graph, vertices: Set,
    predicates: Tuple[EdgePredicate, ...], prepared,
):
    """The induced graph of ``vertices`` with failing edges dropped.

    When the selection is the whole subgraph and no predicates apply,
    the subgraph itself (and its prepared view) pass straight through —
    the fast path scope folding arranges for community- and root-scoped
    queries.
    """
    if not predicates and len(vertices) == subgraph.num_nodes:
        return subgraph, prepared
    induced = Graph(name=subgraph.name)
    for node in sorted(vertices, key=node_sort_key):
        induced.add_node(node, **subgraph.node_attrs(node))
    for u, v, weight in subgraph.edges():
        if u in vertices and v in vertices and _edge_passes(
            subgraph, u, v, weight, predicates
        ):
            induced.add_edge(u, v, weight=weight, **subgraph.edge_attrs(u, v))
    return induced, None


def evaluate_path(
    subgraph: Graph, plan: PlanNode, prepared=None
) -> PathResult:
    """Run a compiled GPath plan against ``subgraph``."""
    nodes = chain(plan)
    base = nodes[0]
    if isinstance(base, Const):
        return PathResult(kind=base.kind, items=base.items, count=base.count)

    if not isinstance(base, Seed):
        raise InvalidArgumentError(
            f"malformed plan: expected Seed at the base, found "
            f"{type(base).__name__}"
        )
    if base.vertices is None:
        vertices: Set = set(subgraph.nodes())
    else:
        # Defensive intersection: a folded seed can outlive an edit that
        # removed a vertex between compile and execute.
        vertices = {v for v in base.vertices if subgraph.has_node(v)}
    active: Tuple[EdgePredicate, ...] = ()
    result: Optional[PathResult] = None

    for node in nodes[1:]:
        if isinstance(node, Filter):
            active = _merge(active, node.predicates)
        elif isinstance(node, Expand):
            merged = _merge(active, node.predicates)
            vertices = _expand(subgraph, vertices, node.hops, merged)
            active = merged
        elif isinstance(node, Score):
            merged = _merge(active, node.predicates)
            missing = [s for s in node.sources if s not in vertices]
            if missing:
                raise InvalidArgumentError(
                    f"rwr sources not in the selected vertex set: "
                    f"{sorted(missing, key=node_sort_key)[:5]!r}"
                )
            graph, prep = _induce(subgraph, vertices, merged, prepared)
            rwr = steady_state_rwr(
                graph, list(node.sources), restart_probability=node.restart,
                solver="power", prepared=prep,
            )
            total = len(rwr.scores)
            # A fused top(k) ranks only the rows at or above the k-th best
            # score; unlimited score listings sort the whole vector.
            ranked = rwr.top(total if node.limit is None else node.limit)
            result = PathResult(
                kind="scores",
                scores=tuple((n, float(s)) for n, s in ranked),
                count=total,
                iterations=rwr.iterations,
                converged=rwr.converged,
                restart_probability=rwr.restart_probability,
            )
        elif isinstance(node, Metrics):
            merged = _merge(active, node.predicates)
            graph, prep = _induce(subgraph, vertices, merged, prepared)
            suite = compute_subgraph_metrics(
                graph, prepared=prep, **_METRICS_DEFAULTS
            )
            result = PathResult(
                kind="metrics",
                count=graph.num_nodes,
                metrics=suite.as_dict(),
            )
        elif isinstance(node, Collect):
            if node.kind == "count":
                result = PathResult(kind="count", count=len(vertices))
            else:
                items = tuple(sorted(vertices, key=node_sort_key))
                total = len(items)
                if node.limit is not None:
                    items = items[: node.limit]
                result = PathResult(kind="nodes", items=items, count=total)
        elif isinstance(node, Limit):
            if result is None:
                raise InvalidArgumentError(
                    "malformed plan: Limit before any terminal"
                )
            if result.kind == "nodes":
                result = PathResult(
                    kind="nodes", items=result.items[: node.count],
                    count=result.count,
                )
            elif result.kind == "scores":
                result = PathResult(
                    kind="scores", scores=result.scores[: node.count],
                    count=result.count, iterations=result.iterations,
                    converged=result.converged,
                    restart_probability=result.restart_probability,
                )
        else:
            raise InvalidArgumentError(
                f"malformed plan: unknown node {type(node).__name__}"
            )

    if result is None:
        # A bare Seed chain (no terminal) materializes its vertices.
        items = tuple(sorted(vertices, key=node_sort_key))
        result = PathResult(kind="nodes", items=items, count=len(items))
    return result
