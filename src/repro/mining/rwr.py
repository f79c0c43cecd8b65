"""Random walk with restart (RWR) and the GMine goodness score.

The connection-subgraph extractor of the paper simulates one independent
random walk with restart per source node; the *goodness score* of a vertex
is the steady-state probability that the walkers "meet" there — operationally
the product (optionally normalised by degree) of the per-source steady-state
visit probabilities.

Two solvers are provided:

* power iteration — :func:`power_loop`, the one loop every power caller
  runs (:func:`rwr_power_iteration`, :func:`steady_state_rwr`,
  :func:`per_source_rwr`, the proximity queries and the sharded
  backend's scatter-gather), one restart vector at a time over a
  ``W @ r`` product callable; it scales to the full synthetic DBLP graph;
* :func:`rwr_exact` — direct solve of ``(I - (1 - c) W) r = c q``, used to
  validate the iterative solver and in the ablation benchmark;
  :func:`rwr_exact_block` solves k restart vectors against one LU factor.

Every solver accepts ``prepared=`` — a
:class:`~repro.graph.matrix.PreparedGraph` holding the CSR transition
matrix and vertex index built once per dataset — and skips the O(E)
graph-to-matrix conversion when it is given.  Multi-source callers build
the matrix once and run one column per source set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from scipy import sparse

from ..errors import ConvergenceError, MiningError
from ..graph.graph import Graph, NodeId
from ..graph.matrix import (
    PreparedGraph,
    VertexIndex,
    exact_rwr_factor,
    restart_vector,
    transition_matrix,
)


def node_sort_key(node: NodeId):
    """A total, type-stable order over heterogeneous vertex ids.

    Integer ids compare numerically (2 before 10 — not the lexicographic
    ``"10" < "2"`` a plain ``repr`` sort would give), string ids compare
    lexicographically, and distinct id types never compare against each
    other directly (they are grouped by type name).  Every ranked payload
    that breaks score ties does so through this key, so the same scores
    produce the same ordering wherever they were computed — calling
    thread, kernel thread, or worker process — and cached, recomputed and
    process-shipped top-k lists stay byte-identical.
    """
    if isinstance(node, int) and not isinstance(node, bool):
        return (type(node).__name__, node, "")
    return (type(node).__name__, 0, repr(node))


def top_scored(
    scores: Mapping[NodeId, float],
    count: int,
    tie_key: Callable[[NodeId], Any] = node_sort_key,
) -> List:
    """The ``count`` highest ``(node, score)`` pairs, ties broken by ``tie_key``.

    Exactly ``sorted(scores.items(), key=(-score, tie_key(node)))[:count]``,
    but only the pairs at or above the ``count``-th largest score are
    sorted: a page of 20 out of 1 500 scores sorts 20-odd rows (plus any
    ties at the floor), not 1 500.
    """
    items = scores.items()
    if 0 < count < len(scores):
        floor = heapq.nlargest(count, scores.values())[-1]
        items = [pair for pair in items if pair[1] >= floor]
    return sorted(items, key=lambda pair: (-pair[1], tie_key(pair[0])))[:count]


@dataclass
class RWRResult:
    """Steady-state RWR distribution for one source set."""

    scores: Dict[NodeId, float]
    iterations: int
    converged: bool
    restart_probability: float

    def top(self, count: int = 10) -> List:
        """The ``count`` highest-probability ``(node, score)`` pairs.

        Ordered by descending score with ties broken deterministically by
        :func:`node_sort_key` — independent of ``scores`` insertion order,
        and therefore of which backend produced the result.
        """
        return top_scored(self.scores, count)


def _resolve_operator(
    graph: Optional[Graph],
    index: Optional[VertexIndex],
    prepared: Optional[PreparedGraph],
) -> Tuple[sparse.csr_matrix, VertexIndex]:
    """Return ``(transition, index)``, converting the graph only when cold.

    A supplied :class:`PreparedGraph` wins: its cached transition matrix and
    index are used as-is (and an explicit ``index`` must be the prepared
    one, if given at all).  Otherwise the matrix is rebuilt from ``graph``
    exactly as before.
    """
    if prepared is not None:
        if index is not None and index is not prepared.index:
            raise MiningError(
                "rwr got both prepared= and a foreign index=; "
                "the prepared graph already fixes the vertex ordering"
            )
        return prepared.transition, prepared.index
    if graph is None:
        raise MiningError("rwr requires a graph when no prepared= is given")
    return transition_matrix(graph, index)


def _check_sources(
    graph: Optional[Graph],
    index: VertexIndex,
    sources: Sequence[NodeId],
) -> None:
    if not sources:
        raise MiningError("rwr requires at least one source node")
    for source in sources:
        known = graph.has_node(source) if graph is not None else source in index
        if not known:
            raise MiningError(f"rwr source {source!r} is not in the graph")


def rwr_power_iteration(
    graph: Optional[Graph],
    sources: Sequence[NodeId],
    restart_probability: float = 0.15,
    tol: float = 1e-10,
    max_iter: int = 500,
    index: Optional[VertexIndex] = None,
    strict: bool = True,
    prepared: Optional[PreparedGraph] = None,
) -> RWRResult:
    """Solve RWR by power iteration: ``r <- (1 - c) W r + c q``.

    Parameters
    ----------
    sources:
        Restart nodes (the walk teleports back to these with probability
        ``restart_probability`` each step).
    strict:
        When true a failure to converge raises :class:`ConvergenceError`;
        otherwise the last iterate is returned with ``converged=False``.
    prepared:
        A :class:`~repro.graph.matrix.PreparedGraph` for ``graph``; when
        given, the transition matrix is **not** rebuilt (``graph`` may even
        be ``None``).  Results are bit-identical either way.
    """
    _validate_restart(restart_probability)
    transition, index = _resolve_operator(graph, index, prepared)
    _check_sources(graph, index, sources)
    result = power_loop(
        transition.dot, index, sources, restart_probability, tol, max_iter
    )
    if strict and not result.converged:
        raise ConvergenceError(
            f"RWR did not converge within {max_iter} iterations (tol={tol})"
        )
    return result


def power_loop(
    product: Callable[[np.ndarray], np.ndarray],
    index: VertexIndex,
    sources: Sequence[NodeId],
    restart_probability: float,
    tol: float,
    max_iter: int,
) -> RWRResult:
    """Iterate ``r <- (1 - c) product(r) + c q`` for one restart vector.

    The package's one power loop.  ``product`` supplies ``W @ r``: a CSR
    matvec in process, or the sharded backend's scatter-gather over shard
    row blocks.  Two buffers are swapped and updated in place, so a step
    allocates only what ``product`` returns.  The loop stops after the
    first step whose L1 change is below ``tol``, or after ``max_iter``
    steps with ``converged=False``; callers decide whether that is an
    error.

    Columns of isolated/dangling vertices leak mass; a single final
    renormalisation (matching :func:`rwr_exact`) keeps the two solvers'
    fixed points identical.  Renormalising inside the loop would converge
    to a slightly different distribution whenever a source is dangling.
    """
    c = restart_probability
    rank = restart_vector(index, sources)
    restart = c * rank
    updated = np.empty_like(rank)
    change = np.empty_like(rank)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        np.multiply(product(rank), 1.0 - c, out=updated)
        np.add(updated, restart, out=updated)
        np.subtract(updated, rank, out=change)
        np.abs(change, out=change)
        rank, updated = updated, rank
        if change.sum() < tol:
            converged = True
            break
    total = rank.sum()
    if total > 0:
        rank /= total
    return RWRResult(
        scores=dict(zip(index.nodes(), rank.tolist())),
        iterations=iterations,
        converged=converged,
        restart_probability=c,
    )


def power_columns(
    product: Callable[[np.ndarray], np.ndarray],
    index: VertexIndex,
    source_sets: Sequence[Sequence[NodeId]],
    restart_probability: float,
    tol: float,
    max_iter: int,
    graph: Optional[Graph] = None,
) -> List[RWRResult]:
    """One :func:`power_loop` per source set, all required to converge.

    Every set's sources are checked (against ``graph`` when given, else
    ``index``) before any column iterates; a failure names how many of
    the sets did not converge.
    """
    for sources in source_sets:
        _check_sources(graph, index, sources)
    results = [
        power_loop(product, index, sources, restart_probability, tol, max_iter)
        for sources in source_sets
    ]
    stuck = sum(1 for result in results if not result.converged)
    if stuck:
        raise ConvergenceError(
            f"RWR did not converge within {max_iter} iterations (tol={tol}) "
            f"for {stuck} of {len(results)} source sets"
        )
    return results


def _power_solve(
    graph: Optional[Graph],
    source_sets: Sequence[Sequence[NodeId]],
    restart_probability: float,
    tol: float,
    max_iter: int,
    prepared: Optional[PreparedGraph],
) -> List[RWRResult]:
    """:func:`power_columns` over ``graph``'s (or ``prepared``'s) matrix."""
    _validate_restart(restart_probability)
    transition, index = _resolve_operator(graph, None, prepared)
    return power_columns(
        transition.dot, index, source_sets, restart_probability, tol,
        max_iter, graph=graph,
    )


def rwr_exact(
    graph: Optional[Graph],
    sources: Sequence[NodeId],
    restart_probability: float = 0.15,
    index: Optional[VertexIndex] = None,
    prepared: Optional[PreparedGraph] = None,
) -> RWRResult:
    """Solve RWR exactly: ``r = c (I - (1 - c) W)^{-1} q``.

    The system is LU-factorised once (:func:`~repro.graph.matrix.
    exact_rwr_factor`; a prepared graph memoises the factor per restart
    probability) and the restart vector solved against the factor — which
    is bit-identical to the historical ``spsolve`` call, SuperLU being
    the solver behind both.  Cubic-ish in the worst case, so intended for
    validation and subgraph-sized problems rather than the full graph;
    multi-set workloads should batch through :func:`rwr_exact_block`.
    """
    _validate_restart(restart_probability)
    if not sources:
        raise MiningError("rwr requires at least one source node")
    # _resolve_operator centralises the prepared/index/graph guards (the
    # foreign-index rejection included) for every solver alike.
    transition, index = _resolve_operator(graph, index, prepared)
    c = restart_probability
    if prepared is not None:
        factor = prepared.exact_factor(c)
    else:
        factor = exact_rwr_factor(transition.tocsc(), c)
    q = restart_vector(index, sources)
    solution = np.asarray(factor.solve(c * q)).ravel()
    return _exact_result(solution, index, c)


def _exact_result(
    solution: np.ndarray, index: VertexIndex, restart_probability: float
) -> RWRResult:
    """Normalise one exact solution column into an :class:`RWRResult`."""
    solution = np.ascontiguousarray(solution)
    total = solution.sum()
    if total > 0:
        solution = solution / total
    scores = dict(zip(index.nodes(), solution.tolist()))
    return RWRResult(scores=scores, iterations=0, converged=True,
                     restart_probability=restart_probability)


def rwr_exact_block(
    graph: Optional[Graph],
    source_sets: Sequence[Sequence[NodeId]],
    restart_probability: float = 0.15,
    index: Optional[VertexIndex] = None,
    prepared: Optional[PreparedGraph] = None,
) -> List[RWRResult]:
    """Solve k exact RWR systems with **one** factorization.

    All source sets share the system matrix ``I - (1 - c) W`` — only the
    right-hand side differs — so the LU factorization (the dominant cost
    by far) is paid once and each restart vector is a cheap pair of
    triangular solves against it.  The solves stay one-vector-at-a-time
    deliberately: SuperLU's multi-RHS path uses blocked triangular
    solves whose accumulation order drifts from the vector path at the
    ULP level on graphs past a few hundred vertices, while per-column
    solves through the shared factor are **bit-identical** to the
    per-set :func:`rwr_exact` loop this replaces (hypothesis-gated in
    ``tests/mining/test_exact_block.py`` and re-checked by the
    ``bench_kernels`` gate before its timings count).
    """
    _validate_restart(restart_probability)
    if not source_sets:
        return []
    for sources in source_sets:
        if not sources:
            raise MiningError("rwr requires at least one source node")
    transition, index = _resolve_operator(graph, index, prepared)
    c = restart_probability
    if prepared is not None:
        factor = prepared.exact_factor(c)
    else:
        factor = exact_rwr_factor(transition.tocsc(), c)
    results = []
    for sources in source_sets:
        q = restart_vector(index, sources)
        solution = np.asarray(factor.solve(c * q)).ravel()
        results.append(_exact_result(solution, index, c))
    return results


def steady_state_rwr(
    graph: Optional[Graph],
    sources: Sequence[NodeId],
    restart_probability: float = 0.15,
    solver: str = "power",
    tol: float = 1e-10,
    max_iter: int = 500,
    prepared: Optional[PreparedGraph] = None,
) -> RWRResult:
    """Canonical, cache-friendly entry point for one RWR steady state.

    A pure function of its arguments: the source set is deduplicated and
    order-normalised (the restart vector spreads mass uniformly over the
    set, so order never matters), and ``solver`` picks between the power
    loop (``"power"``, bit-identical to :func:`rwr_power_iteration`) and
    :func:`rwr_exact` (``"exact"``).  The service layer keys its result
    cache on exactly these arguments; ``prepared`` (never part of the
    key) only skips the matrix rebuild.
    """
    canonical_sources = sorted(set(sources), key=repr)
    if solver == "exact":
        return rwr_exact(
            graph, canonical_sources, restart_probability, prepared=prepared
        )
    if solver == "power":
        return _power_solve(
            graph, [canonical_sources], restart_probability, tol, max_iter,
            prepared,
        )[0]
    raise MiningError(f"unknown RWR solver {solver!r}; expected 'power' or 'exact'")


def per_source_rwr(
    graph: Optional[Graph],
    sources: Sequence[NodeId],
    restart_probability: float = 0.15,
    solver: str = "power",
    tol: float = 1e-10,
    max_iter: int = 500,
    prepared: Optional[PreparedGraph] = None,
) -> Dict[NodeId, RWRResult]:
    """Run one independent RWR per source node (as the paper prescribes).

    The matrix is built (or taken from ``prepared``) once for all sources.
    The power solver then runs one :func:`power_loop` per source, and the
    exact solver one :func:`rwr_exact_block`, which is one LU
    factorization for the whole set.
    """
    if prepared is None and graph is None:
        raise MiningError("rwr requires a graph when no prepared= is given")
    ordered = list(sources)
    if not ordered:
        return {}
    source_sets = [[source] for source in ordered]
    if solver == "exact":
        solved = rwr_exact_block(
            graph, source_sets, restart_probability, prepared=prepared
        )
    else:
        solved = _power_solve(
            graph, source_sets, restart_probability, tol, max_iter, prepared
        )
    return dict(zip(ordered, solved))


def goodness_scores(
    graph: Graph,
    per_source: Dict[NodeId, RWRResult],
    degree_normalized: bool = True,
) -> Dict[NodeId, float]:
    """Combine per-source RWR distributions into the GMine goodness score.

    The goodness of vertex ``v`` is the steady-state probability that the
    independent walkers meet at ``v``.  Because the walks are independent,
    the meeting probability is the product over sources of each walker's
    stationary probability of being at ``v``; dividing by degree (the
    stationary distribution of an unbiased walk) corrects for the fact that
    high-degree vertices are visited often by *any* walk, not specifically
    by walks from the sources.  Scores are returned in log-robust form:
    the geometric-mean product rescaled so the maximum is 1.0.
    """
    if not per_source:
        raise MiningError("goodness_scores requires at least one RWR result")
    nodes = list(graph.nodes())
    columns = [
        np.fromiter((result.scores.get(node, 0.0) for node in nodes),
                    dtype=np.float64, count=len(nodes))
        for result in per_source.values()
    ]
    normaliser = None
    if degree_normalized:
        normaliser = degree_normaliser(
            [graph.weighted_degree(node) for node in nodes], len(per_source)
        )
    return dict(zip(nodes, goodness_vector(columns, normaliser).tolist()))


def degree_normaliser(
    degrees: Sequence[float], num_sources: int
) -> Optional[np.ndarray]:
    """Per-vertex divisor ``d ** ((k - 1) / k)`` of the goodness score.

    Python's ``**`` per vertex, not ``np.power``: the two round differently
    on a few vertices in a thousand, and goodness bytes must not move.
    Vertices of degree 0 divide by 1.0; one source needs no divisor
    (``None``).
    """
    if num_sources <= 1:
        return None
    exponent = (num_sources - 1) / num_sources
    return np.array(
        [degree ** exponent if degree > 0 else 1.0 for degree in degrees],
        dtype=np.float64,
    )


def goodness_vector(
    columns: Sequence[np.ndarray], normaliser: Optional[np.ndarray] = None
) -> np.ndarray:
    """The goodness formula over aligned per-source score columns.

    Column ``j`` holds source ``j``'s stationary probabilities in one
    vertex order; the result is in that order.  Bit for bit the scalar
    formula: log-probabilities are summed column by column from 0.0, the
    geometric mean is ``exp(sum / k)``, a vertex with a probability <= 0
    in any source scores 0.0, and everything is divided by the peak.
    """
    num_sources = len(columns)
    log_sum = np.zeros(len(columns[0]))
    dead = np.zeros(log_sum.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for column in columns:
            dead |= column <= 0.0
            log_sum += np.log(column)
        raw = np.exp(log_sum / num_sources)
        if normaliser is not None:
            raw /= normaliser
    raw[dead] = 0.0
    peak = raw.max() if raw.size else 0.0
    if not peak <= 0.0:
        raw /= peak
    return raw


def meeting_probability(
    graph: Graph,
    sources: Sequence[NodeId],
    restart_probability: float = 0.15,
    solver: str = "power",
    degree_normalized: bool = True,
    prepared: Optional[PreparedGraph] = None,
) -> Dict[NodeId, float]:
    """Convenience wrapper: per-source RWR followed by goodness combination."""
    per_source = per_source_rwr(
        graph, sources, restart_probability=restart_probability, solver=solver,
        prepared=prepared,
    )
    return goodness_scores(graph, per_source, degree_normalized=degree_normalized)


def _validate_restart(restart_probability: float) -> None:
    """Restart probability must be a proper probability strictly inside (0, 1)."""
    if not 0.0 < restart_probability < 1.0:
        raise MiningError(
            f"restart probability must be in (0, 1), got {restart_probability}"
        )
