"""Random walk with restart (RWR) and the GMine goodness score.

The connection-subgraph extractor of the paper simulates one independent
random walk with restart per source node; the *goodness score* of a vertex
is the steady-state probability that the walkers "meet" there — operationally
the product (optionally normalised by degree) of the per-source steady-state
visit probabilities.

Two solvers are provided:

* :func:`rwr_power_iteration` — sparse power iteration, scales to the full
  synthetic DBLP graph;
* :func:`rwr_exact` — direct solve of ``(I - (1 - c) W) r = c q``, used to
  validate the iterative solver and in the ablation benchmark.

Every solver accepts ``prepared=`` — a
:class:`~repro.graph.matrix.PreparedGraph` holding the CSR transition
matrix and vertex index built once per dataset — and skips the O(E)
graph-to-matrix conversion when it is given.  Multi-source workloads go
through :func:`rwr_power_block`, which iterates an ``n x k`` dense block so
``k`` restart vectors cost one sparse matmul per step instead of ``k``
independent solves; per-column convergence freezing keeps the blocked
results **bit-identical** to the per-source loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
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
    q = restart_vector(index, sources)
    c = restart_probability
    rank = q.copy()
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        updated = (1.0 - c) * (transition @ rank) + c * q
        delta = np.abs(updated - rank).sum()
        rank = updated
        if delta < tol:
            converged = True
            break
    if not converged and strict:
        raise ConvergenceError(
            f"RWR did not converge within {max_iter} iterations (tol={tol})"
        )
    # Columns of isolated/dangling vertices leak mass; a single final
    # renormalisation (matching rwr_exact) keeps the two solvers' fixed
    # points identical — renormalising inside the loop would converge to a
    # slightly different distribution whenever a source is dangling.
    total = rank.sum()
    if total > 0:
        rank = rank / total
    scores = dict(zip(index.nodes(), rank.tolist()))
    return RWRResult(
        scores=scores,
        iterations=iterations,
        converged=converged,
        restart_probability=c,
    )


#: Maximum columns iterated as one dense block.  Bounds the transient
#: memory of :func:`rwr_power_block` at O(n * chunk) — a caller passing
#: hundreds of source sets on a large graph must not allocate an
#: n x k monster where the old per-source loop peaked at a few vectors.
#: Columns are independent, so chunking never changes a result.
BLOCK_COLUMN_CHUNK = 64


def rwr_power_block(
    graph: Optional[Graph],
    source_sets: Sequence[Sequence[NodeId]],
    restart_probability: float = 0.15,
    tol: float = 1e-10,
    max_iter: int = 500,
    index: Optional[VertexIndex] = None,
    strict: bool = True,
    prepared: Optional[PreparedGraph] = None,
    warm_starts: Optional[Sequence[Optional[Dict[NodeId, float]]]] = None,
) -> List[RWRResult]:
    """Blocked multi-source power iteration: k steady states, one matmul/step.

    Stacks one restart vector per entry of ``source_sets`` into an
    ``n x k`` dense block and iterates ``R <- (1 - c) W R + c Q``, so every
    step pays a single sparse matmul (one CSR traversal amortised over all
    columns) instead of ``k`` independent matvecs — and, on the cold path,
    instead of ``k`` O(E) matrix rebuilds.  More than
    :data:`BLOCK_COLUMN_CHUNK` source sets run as successive chunks, so
    peak memory stays O(n * chunk) regardless of ``k``.

    Bit-parity with the per-source loop is engineered, not approximate:

    * CSR multi-vector products accumulate each output element over the
      row's nonzeros in the same order as the single-vector product;
    * every order-sensitive float reduction (the per-column convergence
      delta, the final renormalisation sum) runs over a freshly
      materialised contiguous 1-D array, so numpy's pairwise summation
      applies with exactly the blocking :func:`rwr_power_iteration` sees;
    * a column that converges is **frozen** (never written again) rather
      than iterated further, so its returned iterate is the very vector
      the per-source loop would have stopped at.  The matmul still spans
      the full block — a C-contiguous operand reaches scipy without a
      copy, which beats slicing the active columns out every step — and
      frozen columns' products are simply discarded.

    ``warm_starts`` optionally supplies, per source set, the score dict of
    a previously computed steady state to seed the iteration from instead
    of the restart vector.  After a *small* graph delta the previous fixed
    point is already near the new one, so a warm-started column converges
    in a handful of steps.  The fixed point of the contraction is unique,
    so warm starting changes only the trajectory: the returned iterate
    agrees with the cold solve within the convergence tolerance (not
    bitwise — callers that need bit-parity with a cold solve, like the
    service's default query path, must not pass warm starts).  Entries may
    be ``None`` (that column starts cold); scores for vertices no longer
    in the graph are dropped and new vertices seed at zero.
    """
    _validate_restart(restart_probability)
    if not source_sets:
        raise MiningError("rwr block requires at least one source set")
    if warm_starts is not None and len(warm_starts) != len(source_sets):
        raise MiningError(
            f"rwr block got {len(warm_starts)} warm starts "
            f"for {len(source_sets)} source sets"
        )
    transition, index = _resolve_operator(graph, index, prepared)
    for sources in source_sets:
        _check_sources(graph, index, sources)
    if len(source_sets) > BLOCK_COLUMN_CHUNK:
        results: List[RWRResult] = []
        for start in range(0, len(source_sets), BLOCK_COLUMN_CHUNK):
            stop = start + BLOCK_COLUMN_CHUNK
            results.extend(
                _power_block_chunk(
                    transition, index, source_sets[start:stop],
                    restart_probability, tol, max_iter, strict,
                    warm_starts=None if warm_starts is None else warm_starts[start:stop],
                )
            )
        return results
    return _power_block_chunk(
        transition, index, source_sets, restart_probability, tol, max_iter, strict,
        warm_starts=warm_starts,
    )


def _power_block_chunk(
    transition,
    index: VertexIndex,
    source_sets: Sequence[Sequence[NodeId]],
    restart_probability: float,
    tol: float,
    max_iter: int,
    strict: bool,
    warm_starts: Optional[Sequence[Optional[Dict[NodeId, float]]]] = None,
) -> List[RWRResult]:
    """Iterate one bounded block of restart columns to their steady states."""
    n = len(index)
    k = len(source_sets)
    c = restart_probability
    q_block = np.zeros((n, k))
    for column, sources in enumerate(source_sets):
        q_block[:, column] = restart_vector(index, sources)
    rank = q_block.copy()
    if warm_starts is not None:
        for column, warm in enumerate(warm_starts):
            if not warm:
                continue
            seed = np.zeros(n)
            for position in range(n):
                seed[position] = warm.get(index.node_at(position), 0.0)
            total = seed.sum()
            # An all-zero or degenerate seed (every previous vertex edited
            # away) keeps the cold restart-vector start for that column.
            if total > 0:
                rank[:, column] = seed / total
    # Hoisted restart term: c * q is loop-invariant, and multiplying once
    # up front yields the same floats the per-source loop recomputes each
    # step — parity-safe, one fewer array op per column per iteration.
    restart_block = c * q_block
    iterations = [0] * k
    converged = [False] * k
    active = list(range(k))
    step = 0
    while active and step < max_iter:
        step += 1
        product = transition @ rank
        still_active = []
        for column in active:
            updated = (1.0 - c) * product[:, column] + restart_block[:, column]
            delta = np.abs(updated - rank[:, column]).sum()
            rank[:, column] = updated
            iterations[column] = step
            if delta < tol:
                converged[column] = True
            else:
                still_active.append(column)
        active = still_active
    if active and strict:
        raise ConvergenceError(
            f"RWR did not converge within {max_iter} iterations (tol={tol}) "
            f"for {len(active)} of {k} source sets"
        )
    results: List[RWRResult] = []
    for column in range(k):
        # Contiguous copy first: the renormalisation sum must reduce in
        # the same (pairwise, unit-stride) order as the per-source path.
        final = np.ascontiguousarray(rank[:, column])
        total = final.sum()
        if total > 0:
            final = final / total
        scores = dict(zip(index.nodes(), final.tolist()))
        results.append(
            RWRResult(
                scores=scores,
                iterations=iterations[column],
                converged=converged[column],
                restart_probability=c,
            )
        )
    return results


def refresh_rwr(
    graph: Optional[Graph],
    source_sets: Sequence[Sequence[NodeId]],
    previous: Sequence[Optional[RWRResult]],
    restart_probability: float = 0.15,
    tol: float = 1e-10,
    max_iter: int = 500,
    strict: bool = True,
    prepared: Optional[PreparedGraph] = None,
) -> Tuple[List[RWRResult], List[bool]]:
    """Incrementally refresh steady states after a small graph delta.

    Re-solves each source set's RWR on the (edited) ``graph``, seeding the
    power iteration from the matching entry of ``previous`` — the steady
    states computed before the edit.  For a delta touching a few edges the
    previous fixed point is close to the new one, so warm columns converge
    in a fraction of the cold iteration count; the unique fixed point of
    the contraction guarantees the refreshed state matches a full cold
    recompute within the convergence tolerance.

    The fallback is explicit, not best-effort: any warm-started column
    that fails to converge within ``max_iter`` is re-solved **cold from
    scratch** (the exact path a fresh query would take), so a pathological
    seed can degrade latency but never the answer.  A ``previous`` entry
    is only used when it converged under the same restart probability;
    anything else starts cold.

    Returns ``(results, refreshed)`` where ``refreshed[i]`` tells whether
    source set ``i`` was served by the warm path.
    """
    if len(previous) != len(source_sets):
        raise MiningError(
            f"refresh_rwr got {len(previous)} previous states "
            f"for {len(source_sets)} source sets"
        )
    warm: List[Optional[Dict[NodeId, float]]] = []
    for prior in previous:
        usable = (
            prior is not None
            and prior.converged
            and prior.restart_probability == restart_probability
        )
        warm.append(dict(prior.scores) if usable else None)
    results = rwr_power_block(
        graph, source_sets, restart_probability,
        tol=tol, max_iter=max_iter, strict=False, prepared=prepared,
        warm_starts=warm,
    )
    fallback = [
        column for column, result in enumerate(results)
        if warm[column] is not None and not result.converged
    ]
    if fallback:
        cold = rwr_power_block(
            graph, [source_sets[column] for column in fallback],
            restart_probability, tol=tol, max_iter=max_iter, strict=False,
            prepared=prepared,
        )
        for column, result in zip(fallback, cold):
            results[column] = result
    if strict:
        stuck = sum(1 for result in results if not result.converged)
        if stuck:
            raise ConvergenceError(
                f"RWR refresh did not converge within {max_iter} iterations "
                f"(tol={tol}) for {stuck} of {len(results)} source sets"
            )
    refreshed = [
        warm[column] is not None and column not in fallback
        for column in range(len(results))
    ]
    return results, refreshed


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
    set, so order never matters), and ``solver`` picks between
    :func:`rwr_power_iteration` (``"power"``) and :func:`rwr_exact`
    (``"exact"``).  The service layer keys its result cache on exactly
    these arguments; ``prepared`` (never part of the key) only skips the
    matrix rebuild.
    """
    canonical_sources = sorted(set(sources), key=repr)
    if solver == "exact":
        return rwr_exact(
            graph, canonical_sources, restart_probability, prepared=prepared
        )
    if solver == "power":
        # One source set is one column of the blocked solver — routing
        # through it keeps a single power-iteration code path for the
        # service's single- and multi-source traffic (bit-identical to
        # rwr_power_iteration by the block solver's parity contract).
        return rwr_power_block(
            graph, [canonical_sources], restart_probability,
            tol=tol, max_iter=max_iter, prepared=prepared,
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
    blocked: bool = True,
) -> Dict[NodeId, RWRResult]:
    """Run one independent RWR per source node (as the paper prescribes).

    The power solver runs all sources as one :func:`rwr_power_block` by
    default — one sparse matmul per step for the whole set instead of one
    solve per source — and the exact solver as one
    :func:`rwr_exact_block` — one LU factorization for the whole set.
    Both are bit-identical to the per-source loop (``blocked=False``
    keeps the loop available for parity testing).
    """
    if prepared is not None:
        index = prepared.index
    elif graph is not None:
        index = VertexIndex.from_graph(graph)
    else:
        raise MiningError("rwr requires a graph when no prepared= is given")
    results: Dict[NodeId, RWRResult] = {}
    if solver == "exact" and blocked and sources:
        # One factorization, k solves — bit-identical to the loop below.
        ordered = list(sources)
        block = rwr_exact_block(
            graph,
            [[source] for source in ordered],
            restart_probability,
            index=None if prepared is not None else index,
            prepared=prepared,
        )
        return dict(zip(ordered, block))
    if solver != "exact" and blocked and sources:
        ordered = list(sources)
        block = rwr_power_block(
            graph,
            [[source] for source in ordered],
            restart_probability,
            tol=tol,
            max_iter=max_iter,
            index=None if prepared is not None else index,
            prepared=prepared,
        )
        return dict(zip(ordered, block))
    for source in sources:
        if solver == "exact":
            results[source] = rwr_exact(
                graph, [source], restart_probability,
                index=None if prepared is not None else index,
                prepared=prepared,
            )
        else:
            results[source] = rwr_power_iteration(
                graph,
                [source],
                restart_probability,
                tol=tol,
                max_iter=max_iter,
                index=None if prepared is not None else index,
                prepared=prepared,
            )
    return results


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
