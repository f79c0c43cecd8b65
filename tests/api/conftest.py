"""Shared fixtures for the GMine Protocol v2 test suite.

One small DBLP dataset and G-Tree are built once per session; each test
gets a fresh service over them.  ``http_server`` binds port 0 so parallel
test runs never collide; ``all_clients`` hands back an in-process and an
HTTP client over the *same* service, the precondition for byte-identical
parity checks.
"""

from __future__ import annotations

import pytest

from repro.api import GMineClient, GMineHTTPServer
from repro.core.builder import build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.service import GMineService


@pytest.fixture(scope="session")
def api_dataset():
    """A small DBLP dataset + G-Tree shared by the protocol tests."""
    dataset = generate_dblp(DBLPConfig(num_authors=400, seed=31))
    tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=31)
    return dataset, tree


@pytest.fixture
def service(api_dataset):
    """A fresh service sharing the session dataset (full graph attached)."""
    dataset, tree = api_dataset
    with GMineService(max_workers=4) as svc:
        svc.register_tree(tree, graph=dataset.graph, name="dblp")
        yield svc


@pytest.fixture
def http_server(service):
    """The HTTP server on an ephemeral port."""
    with GMineHTTPServer(service, port=0) as server:
        yield server


@pytest.fixture
def all_clients(service, http_server):
    """(in-process client, HTTP client) over one shared service."""
    return (
        GMineClient.in_process(service),
        GMineClient.http(http_server.url),
    )


@pytest.fixture
def hot_leaf(api_dataset):
    """The largest leaf community and two of its members."""
    _, tree = api_dataset
    leaf = max(tree.leaves(), key=lambda node: node.size)
    return leaf, list(leaf.members[:2])


@pytest.fixture
def sibling_pair(api_dataset):
    """Two sibling communities under the root (for inspect_edge)."""
    _, tree = api_dataset
    children = [tree.node(child) for child in tree.root.children[:2]]
    return children[0].label, children[1].label
