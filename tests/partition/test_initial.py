"""Unit tests for initial bisection strategies."""

import random

import pytest

from repro.graph.generators import connected_caveman, erdos_renyi, grid_2d
from repro.graph.graph import Graph
from repro.partition.initial import (
    best_initial_bisection,
    greedy_graph_growing,
    spectral_bisection,
)
from repro.partition.metrics import balance, edge_cut


def unit_weights(graph):
    return {node: 1.0 for node in graph.nodes()}


class TestGreedyGraphGrowing:
    def test_produces_two_parts(self, caveman_graph):
        assignment = greedy_graph_growing(caveman_graph, unit_weights(caveman_graph), random.Random(0))
        assert set(assignment.values()) == {0, 1}
        assert len(assignment) == caveman_graph.num_nodes

    def test_roughly_balanced(self, random_graph):
        assignment = greedy_graph_growing(random_graph, unit_weights(random_graph), random.Random(1))
        assert balance(assignment, 2) <= 1.2

    def test_respects_target_fraction(self, random_graph):
        assignment = greedy_graph_growing(
            random_graph, unit_weights(random_graph), random.Random(2), target_fraction=0.25
        )
        sizes = [list(assignment.values()).count(part) for part in (0, 1)]
        assert sizes[0] < sizes[1]

    def test_handles_disconnected_graph(self):
        graph = Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        graph.add_edge(4, 5)
        assignment = greedy_graph_growing(graph, unit_weights(graph), random.Random(0))
        assert set(assignment.values()) == {0, 1}

    def test_empty_graph(self):
        assert greedy_graph_growing(Graph(), {}, random.Random(0)) == {}


class TestSpectralBisection:
    def test_splits_grid_in_half(self):
        graph = grid_2d(6, 6)
        assignment = spectral_bisection(graph, unit_weights(graph))
        assert assignment is not None
        assert balance(assignment, 2) == pytest.approx(1.0, abs=0.1)
        # The spectral cut of a grid should be near the optimal 6 edges.
        assert edge_cut(graph, assignment) <= 12

    def test_tiny_graph_returns_none(self):
        graph = Graph()
        graph.add_edge(0, 1)
        assert spectral_bisection(graph, unit_weights(graph)) is None

    def test_same_graph_same_assignment(self):
        # regression: eigsh without v0 starts from OS entropy, so the
        # Fiedler vector's sign (hence which side is part 0) flipped from
        # call to call — eight agreeing calls had odds of 1 in 128
        graph = connected_caveman(4, 10, seed=3)
        weights = unit_weights(graph)
        first = spectral_bisection(graph, weights)
        assert all(
            spectral_bisection(graph, weights) == first for _ in range(7)
        )


class TestBestInitialBisection:
    def test_recovers_caveman_split(self):
        graph = connected_caveman(2, 12, seed=0)
        assignment = best_initial_bisection(graph, unit_weights(graph), seed=1)
        # The two cliques should separate with a cut of exactly the 2 ring edges.
        assert edge_cut(graph, assignment) <= 2.0

    def test_beats_or_matches_single_attempt(self):
        graph = erdos_renyi(150, 0.05, seed=8)
        weights = unit_weights(graph)
        single = greedy_graph_growing(graph, weights, random.Random(0))
        best = best_initial_bisection(graph, weights, seed=0, attempts=6)
        assert edge_cut(graph, best) <= edge_cut(graph, single) + 1e-9

    def test_deterministic_given_seed(self, random_graph):
        weights = unit_weights(random_graph)
        a = best_initial_bisection(random_graph, weights, seed=3)
        b = best_initial_bisection(random_graph, weights, seed=3)
        assert a == b
