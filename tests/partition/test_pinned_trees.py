"""Same seed, same tree: G-Tree fingerprints pinned to recorded values.

The partitioner's speed-ups must not move a single vertex.  These
fingerprints were recorded before the FM gain memo, the direct weight
reads and the one-pass ``Graph.edges`` went in; the tree fingerprint
hashes every community's members in order, its connectivity and every
leaf subgraph's content, so any change to an assignment shows here.

Shapes follow the benchmark's datasets: fanout 5, 3 levels, synthetic
DBLP graphs of 600 and 1 500 authors, and one ``dataset.ingest`` of a
written edge list.
"""

import pytest

from repro.core.builder import GTreeBuildOptions, GTreeBuilder
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.graph.io import write_edge_list
from repro.partition import recursive_partition
from repro.partition.kway import KWayOptions
from repro.service import GMineService

FANOUT = 5
LEVELS = 3

PINNED = {
    (600, 1): "b6928798245c01733df026fc2b05430cd3243cc52db71e2c31143c3a26ca6d9e",
    (600, 2): "f7d01326d3f4bd0cb6675dfa9bcd97b6976589b59890e01408994505b0f4c039",
    (600, 3): "f355f19fcaecc9f0ab00d2bb5d1501a35d9d3a7300981f6c8f49cc30034c560c",
    (1500, 1): "36154221fed91a53894e6679230ad950c1dd500df50fb23a873746341ec4170f",
    (1500, 2): "4742780208c6ea386ec1566dc9632f108b50e5e2bcbb2ab6c0aa006702c0841d",
    (1500, 3): "1f88f2c76ab589f38205b13819510ba61f349bdb15301dcdbdeb6b2d526ed156",
}

INGESTED = "279f7c736c7b5a0de114e7d8bfea4d125000741fe65c7ffc5c9cfd7c03cda540"


@pytest.mark.parametrize("authors, seed", sorted(PINNED))
def test_recursive_partition_tree_is_pinned(authors, seed):
    graph = generate_dblp(DBLPConfig(num_authors=authors, seed=seed)).graph
    build_seed = 100 + seed
    hierarchy = recursive_partition(
        graph, fanout=FANOUT, levels=LEVELS, options=KWayOptions(seed=build_seed)
    )
    options = GTreeBuildOptions(fanout=FANOUT, levels=LEVELS, seed=build_seed)
    tree = GTreeBuilder(options).build(graph, hierarchy)
    assert tree.fingerprint() == PINNED[(authors, seed)]


def test_ingested_edge_list_tree_is_pinned(tmp_path):
    graph = generate_dblp(DBLPConfig(num_authors=600, seed=4)).graph
    path = tmp_path / "g.edges"
    write_edge_list(graph, path)
    with GMineService(backend="inline") as service:
        report = service.ingest_dataset("g", path, fanout=FANOUT, levels=LEVELS, seed=4)
    assert report["fingerprint"] == INGESTED
