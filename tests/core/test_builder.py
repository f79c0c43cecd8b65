"""Unit tests for the G-Tree builder."""

import pytest

from repro.core.builder import GTreeBuildOptions, GTreeBuilder, build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.graph.generators import connected_caveman, erdos_renyi
from repro.partition.hierarchy import recursive_partition
from repro.partition.kway import KWayOptions


class TestBuildGTree:
    def test_tree_validates(self, dblp_gtree):
        assert dblp_gtree.validate() == []

    def test_every_vertex_in_exactly_one_leaf(self, dblp_dataset, dblp_gtree):
        graph = dblp_dataset.graph
        leaf_members = [node for leaf in dblp_gtree.leaves() for node in leaf.members]
        assert len(leaf_members) == graph.num_nodes
        assert set(leaf_members) == set(graph.nodes())

    def test_leaf_subgraphs_attached_and_induced(self, dblp_dataset, dblp_gtree):
        graph = dblp_dataset.graph
        for leaf in dblp_gtree.leaves():
            assert leaf.subgraph is not None
            assert set(leaf.subgraph.nodes()) == set(leaf.members)
            for u, v, w in leaf.subgraph.edges():
                assert graph.edge_weight(u, v) == w

    def test_labels_follow_paper_convention(self, dblp_gtree):
        assert dblp_gtree.root.label == "s0"
        for child in dblp_gtree.children(dblp_gtree.root.node_id):
            assert child.label.startswith("s0") and len(child.label) == 3

    def test_fanout_respected(self, dblp_gtree):
        for node in dblp_gtree.nodes():
            assert len(node.children) <= 3

    def test_connectivity_edges_reference_children(self, dblp_gtree):
        for node in dblp_gtree.nodes():
            child_set = set(node.children)
            for edge in node.connectivity:
                assert edge.source in child_set and edge.target in child_set
                assert edge.edge_count >= 1
                assert edge.total_weight > 0

    def test_caveman_tree_structure(self):
        graph = connected_caveman(4, 8, seed=0)
        tree = build_gtree(graph, fanout=4, levels=2, seed=0)
        assert tree.num_leaves == 4
        assert tree.depth() == 1
        # Each leaf should essentially be one clique.
        sizes = sorted(leaf.size for leaf in tree.leaves())
        assert sizes == [8, 8, 8, 8]

    def test_options_disable_subgraph_attachment(self):
        graph = erdos_renyi(80, 0.08, seed=50)
        options = GTreeBuildOptions(fanout=2, levels=2, seed=1, attach_leaf_subgraphs=False)
        tree = GTreeBuilder(options).build(graph)
        assert all(leaf.subgraph is None for leaf in tree.leaves())

    def test_options_disable_connectivity(self):
        graph = erdos_renyi(80, 0.08, seed=51)
        options = GTreeBuildOptions(fanout=2, levels=2, seed=1, compute_connectivity=False)
        tree = GTreeBuilder(options).build(graph)
        assert all(not node.connectivity for node in tree.nodes())

    def test_build_from_precomputed_hierarchy(self):
        graph = erdos_renyi(100, 0.06, seed=52)
        hierarchy = recursive_partition(graph, fanout=2, levels=3, options=KWayOptions(seed=2))
        tree = GTreeBuilder(GTreeBuildOptions(fanout=2, levels=3)).build(graph, hierarchy)
        assert tree.num_leaves == len(hierarchy.leaf_communities())

    def test_deterministic_given_seed(self):
        graph = erdos_renyi(100, 0.06, seed=53)
        a = build_gtree(graph, fanout=3, levels=3, seed=9)
        b = build_gtree(graph, fanout=3, levels=3, seed=9)
        assert [node.label for node in a.nodes()] == [node.label for node in b.nodes()]
        assert [sorted(node.members, key=repr) for node in a.nodes()] == [
            sorted(node.members, key=repr) for node in b.nodes()
        ]

    def test_same_seed_same_fingerprint(self):
        # regression: the spectral bisection's eigsh start vector came from
        # OS entropy, so at this size five of six builds disagreed
        graph = generate_dblp(DBLPConfig(num_authors=500, seed=7)).graph
        fingerprints = {
            build_gtree(graph, fanout=4, levels=3, seed=7).fingerprint()
            for _ in range(3)
        }
        assert len(fingerprints) == 1

    def test_small_graph_single_level(self):
        graph = erdos_renyi(8, 0.5, seed=54)
        tree = build_gtree(graph, fanout=5, levels=3, seed=0, min_community_size=10)
        # Too small to split: the root is the only (leaf) community.
        assert tree.num_tree_nodes == 1
        assert tree.root.is_leaf
