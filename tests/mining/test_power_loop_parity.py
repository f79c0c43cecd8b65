"""Bitwise gate for the one power-iteration loop.

Every power RWR runs :func:`repro.mining.rwr.power_loop`, one restart
vector at a time.  The oracle below is the column-freezing block solver
it replaced: all source sets stacked into an ``n x k`` block, one sparse
matmul per step, converged columns frozen.  The two must agree bit for
bit — ``iterations``, ``converged`` and every score's ``float.hex`` — and
a run that does not converge must raise the same message, because that
message is part of the ``NOT_CONVERGED`` wire envelope.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dblp import DBLPConfig, generate_dblp
from repro.errors import ConvergenceError
from repro.graph.graph import Graph
from repro.graph.matrix import PreparedGraph, restart_vector, transition_matrix
from repro.mining.rwr import (
    RWRResult,
    per_source_rwr,
    power_columns,
    power_loop,
    rwr_power_iteration,
    steady_state_rwr,
)


# --------------------------------------------------------------------------- #
# the oracle: the column-freezing block solver
# --------------------------------------------------------------------------- #
def oracle_block(transition, index, source_sets, restart_probability, tol,
                 max_iter, strict):
    n = len(index)
    k = len(source_sets)
    c = restart_probability
    q_block = np.zeros((n, k))
    for column, sources in enumerate(source_sets):
        q_block[:, column] = restart_vector(index, sources)
    rank = q_block.copy()
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
    results = []
    for column in range(k):
        final = np.ascontiguousarray(rank[:, column])
        total = final.sum()
        if total > 0:
            final = final / total
        results.append(RWRResult(
            scores={index.node_at(i): float(final[i]) for i in range(n)},
            iterations=iterations[column],
            converged=converged[column],
            restart_probability=c,
        ))
    return results


def _operator(graph, prepared):
    if prepared is not None:
        return prepared.transition, prepared.index
    return transition_matrix(graph)


def _bits(result):
    return (
        result.iterations,
        result.converged,
        [(node, score.hex()) for node, score in result.scores.items()],
    )


def _outcome(run):
    """``("ok", bits)`` or ``("error", message)`` — errors compare too."""
    try:
        value = run()
    except ConvergenceError as error:
        return "error", str(error)
    if isinstance(value, dict):
        return "ok", [(source, _bits(result)) for source, result in value.items()]
    if isinstance(value, list):
        return "ok", [_bits(result) for result in value]
    return "ok", _bits(value)


# --------------------------------------------------------------------------- #
# graphs: random, grid, disconnected with isolated and dangling vertices
# --------------------------------------------------------------------------- #
@st.composite
def power_cases(draw):
    family = draw(st.sampled_from(["random", "grid", "disconnected"]))
    if family == "grid":
        rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        cell = lambda r, c: r * cols + c  # noqa: E731
        pairs = [(cell(r, c), cell(r, c + 1))
                 for r in range(rows) for c in range(cols - 1)]
        pairs += [(cell(r, c), cell(r + 1, c))
                  for r in range(rows - 1) for c in range(cols)]
        n = rows * cols
    elif family == "disconnected":
        # Two blobs, a pendant chain (dangling leaves) and isolated vertices.
        a, b = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        pairs = [(u, v) for u in range(a) for v in range(u + 1, a)]
        pairs += [(a + u, a + (u + 1) % b) for u in range(b)]
        tail = draw(st.integers(1, 3))
        pairs += [(a + b + i - 1 if i else 0, a + b + i) for i in range(tail)]
        n = a + b + tail
    else:
        n = draw(st.integers(min_value=2, max_value=24))
        pairs = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda edge: edge[0] != edge[1]),
            max_size=3 * n,
        ))
    n += draw(st.integers(0, 2))  # isolated vertices: all-zero columns
    weights = st.sampled_from([1.0, 0.3, 1.25, 2.0, 3.7])
    graph = Graph(name="g")
    for node in range(n):
        graph.add_node(node)
    for u, v in draw(st.permutations(pairs)):
        graph.add_edge(u, v, weight=draw(weights), accumulate=True)
    vertex = st.integers(0, n - 1)
    source_sets = draw(st.lists(
        st.lists(vertex, min_size=1, max_size=3), min_size=1, max_size=5,
    ))
    singles = draw(st.lists(vertex, min_size=1, max_size=5))  # duplicates allowed
    restart = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6, 0.9]))
    tol = draw(st.sampled_from([1e-10, 1e-6]))
    max_iter = draw(st.sampled_from([0, 1, 3, 12, 500]))
    prepared = draw(st.booleans())
    return graph, source_sets, singles, restart, tol, max_iter, prepared


def _check_case(case):
    graph, source_sets, singles, restart, tol, max_iter, use_prepared = case
    prepared = PreparedGraph.from_graph(graph) if use_prepared else None
    transition, index = _operator(graph, prepared)

    def oracle(sets, strict=True):
        return oracle_block(transition, index, sets, restart, tol, max_iter, strict)

    # Every column alone, strict=False: unconverged runs return their iterate.
    for sources, want in zip(source_sets, oracle(source_sets, strict=False)):
        got = power_loop(transition.dot, index, sources, restart, tol, max_iter)
        assert _bits(got) == _bits(want)
        got = rwr_power_iteration(graph, sources, restart, tol=tol,
                                  max_iter=max_iter, strict=False,
                                  prepared=prepared)
        assert _bits(got) == _bits(want)

    # k source sets at once, strict: same results or the same message.
    assert _outcome(lambda: power_columns(
        transition.dot, index, source_sets, restart, tol, max_iter,
    )) == _outcome(lambda: oracle(source_sets))

    # One independent walk per source, duplicates included.
    assert _outcome(lambda: per_source_rwr(
        graph, singles, restart, tol=tol, max_iter=max_iter, prepared=prepared,
    )) == _outcome(lambda: dict(zip(singles, oracle([[s] for s in singles]))))

    # The service's entry point: one canonical source set.
    canonical = sorted(set(source_sets[0]), key=repr)
    assert _outcome(lambda: steady_state_rwr(
        graph, source_sets[0], restart, tol=tol, max_iter=max_iter,
        prepared=prepared,
    )) == _outcome(lambda: oracle([canonical])[0])


@pytest.mark.tier1
@given(power_cases())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_power_loop_is_bit_identical_to_block_oracle(case):
    _check_case(case)


@pytest.mark.slow
@given(power_cases())
@settings(max_examples=1000, deadline=None)
def test_power_loop_is_bit_identical_to_block_oracle_long(case):
    _check_case(case)


@pytest.mark.tier1
def test_dblp_columns_match_block_oracle():
    graph = generate_dblp(DBLPConfig(num_authors=300, seed=5)).graph
    prepared = PreparedGraph.from_graph(graph)
    nodes = list(graph.nodes())
    rng = random.Random(5)
    for k in (1, 2, 3):
        sources = rng.sample(nodes, k)
        want = oracle_block(prepared.transition, prepared.index,
                            [[s] for s in sources], 0.15, 1e-10, 500, True)
        for use in (prepared, None):
            got = per_source_rwr(graph, sources, prepared=use)
            assert [_bits(got[s]) for s in sources] == [_bits(w) for w in want]


@pytest.mark.tier1
def test_unconverged_message_counts_the_stuck_sets():
    # Source 0 sits in a triangle (aperiodic: converges); source 3 sits on
    # a 2-path (bipartite: with a tiny restart it oscillates past max_iter).
    graph = Graph(name="g")
    for u, v in [(0, 1), (1, 2), (2, 0), (3, 4)]:
        graph.add_edge(u, v)
    with pytest.raises(ConvergenceError) as stuck:
        per_source_rwr(graph, [0, 3, 4], restart_probability=1e-6, max_iter=200)
    transition, index = transition_matrix(graph)
    with pytest.raises(ConvergenceError) as oracle:
        oracle_block(transition, index, [[0], [3], [4]], 1e-6, 1e-10, 200, True)
    assert str(stuck.value) == str(oracle.value)
    assert str(stuck.value).endswith("for 2 of 3 source sets")


@pytest.mark.tier1
def test_scatter_rwr_raises_the_single_set_message():
    from repro.shard import scatter_rwr

    graph = Graph(name="g")
    graph.add_edge(0, 1)
    prepared = PreparedGraph.from_graph(graph)
    with pytest.raises(ConvergenceError) as stuck:
        scatter_rwr(prepared.index, prepared.transition.dot, [0],
                    restart_probability=1e-6, max_iter=50)
    assert str(stuck.value) == (
        "RWR did not converge within 50 iterations (tol=1e-10) "
        "for 1 of 1 source sets"
    )
