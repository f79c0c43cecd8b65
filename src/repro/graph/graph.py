"""Core undirected weighted graph structure.

GMine operates on large, sparse, undirected graphs (the DBLP co-authorship
network in the paper).  This module provides the in-memory substrate that
every other subsystem builds on: an adjacency-dictionary graph with

* integer-or-hashable vertex ids,
* optional per-node attribute dictionaries (author names, years, ...),
* weighted edges (collaboration counts),
* O(1) neighbour lookup and O(deg) neighbourhood iteration,
* cheap induced-subgraph construction (used for every G-Tree leaf).

The class intentionally mirrors a small subset of the :mod:`networkx` API
(``add_edge``, ``neighbors``, ``degree`` ...) so tests can cross-validate
against networkx, but it stores only what GMine needs and is considerably
lighter weight.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..errors import EdgeNotFoundError, GraphError, NodeNotFoundError

NodeId = Hashable
EdgeTuple = Tuple[NodeId, NodeId]


class Graph:
    """An undirected, weighted graph stored as adjacency dictionaries.

    Parameters
    ----------
    name:
        Optional human-readable name carried through subgraphs and stores.

    Notes
    -----
    Self loops are allowed but rarely produced by the generators; parallel
    edges are not supported — adding an existing edge accumulates weight
    when ``accumulate=True`` (the DBLP convention: one co-authorship per
    shared paper) or overwrites the weight otherwise.
    """

    directed = False

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._adj: Dict[NodeId, Dict[NodeId, float]] = {}
        self._node_attrs: Dict[NodeId, Dict[str, Any]] = {}
        self._edge_attrs: Dict[EdgeTuple, Dict[str, Any]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeId, **attrs: Any) -> None:
        """Add ``node`` to the graph, merging ``attrs`` into its attributes."""
        if node not in self._adj:
            self._adj[node] = {}
        if attrs:
            self._node_attrs.setdefault(node, {}).update(attrs)

    def add_nodes_from(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        weight: float = 1.0,
        accumulate: bool = False,
        **attrs: Any,
    ) -> None:
        """Add the undirected edge ``(u, v)``.

        Missing endpoints are created.  If the edge already exists the weight
        is replaced, or added to when ``accumulate`` is true.
        """
        self.add_node(u)
        self.add_node(v)
        existed = v in self._adj[u]
        if existed and accumulate:
            new_weight = self._adj[u][v] + weight
        else:
            new_weight = weight
        self._adj[u][v] = new_weight
        self._adj[v][u] = new_weight
        if not existed:
            self._num_edges += 1
        if attrs:
            self._edge_attrs.setdefault(self._edge_key(u, v), {}).update(attrs)

    def add_edges_from(
        self, edges: Iterable[Tuple], accumulate: bool = False
    ) -> None:
        """Add edges given as ``(u, v)`` or ``(u, v, weight)`` tuples."""
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                self.add_edge(u, v, accumulate=accumulate)
            elif len(edge) == 3:
                u, v, w = edge
                self.add_edge(u, v, weight=float(w), accumulate=accumulate)
            else:
                raise GraphError(f"edge tuple must have 2 or 3 items, got {edge!r}")

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge ``(u, v)``; raise :class:`EdgeNotFoundError` if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        if u != v:
            del self._adj[v][u]
        self._edge_attrs.pop(self._edge_key(u, v), None)
        self._num_edges -= 1

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adj[node]):
            self.remove_edge(node, neighbor)
        del self._adj[node]
        self._node_attrs.pop(node, None)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def has_node(self, node: NodeId) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._adj

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return whether the undirected edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over the neighbours of ``node``."""
        try:
            return iter(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbor_weights(self, node: NodeId) -> Iterable[Tuple[NodeId, float]]:
        """Iterate over ``(neighbour, weight)`` pairs of ``node``, in
        :meth:`neighbors` order (one dict read per edge, no ``has_edge``)."""
        try:
            return self._adj[node].items()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: NodeId) -> int:
        """Return the number of neighbours of ``node`` (self loops count once)."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def weighted_degree(self, node: NodeId) -> float:
        """Return the sum of incident edge weights of ``node``."""
        try:
            return float(sum(self._adj[node].values()))
        except KeyError:
            raise NodeNotFoundError(node) from None

    def edge_weight(self, u: NodeId, v: NodeId) -> float:
        """Return the weight of edge ``(u, v)``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._adj[u][v]

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over the vertex ids."""
        return iter(self._adj)

    def content_digest(self) -> str:
        """Deterministic content hash of the graph: nodes, attrs, edges.

        Two graphs with the same vertex set, vertex/edge attributes and
        weighted edge multiset produce the same digest regardless of
        insertion order.  Used by the G-Tree fingerprint so the service
        result cache distinguishes trees whose hierarchy is identical but
        whose leaf subgraphs differ (e.g. an edge weight changed inside a
        community).
        """
        digest = hashlib.sha256()
        for node in sorted(self._adj, key=repr):
            attrs = self._node_attrs.get(node, {})
            digest.update(
                repr((node, sorted(attrs.items(), key=lambda kv: str(kv[0])))).encode("utf-8")
            )
        # Each undirected edge is hashed in a canonical orientation: edges()
        # yields whichever endpoint adjacency iteration reached first, and
        # that order is an artifact of insertion history — a copy of this
        # graph may yield (v, u) where this one yields (u, v).
        canonical = (
            (u, v, w) if repr(u) <= repr(v) else (v, u, w)
            for u, v, w in self.edges()
        )
        for u, v, w in sorted(canonical, key=lambda edge: (repr(edge[0]), repr(edge[1]))):
            attrs = self._edge_attrs.get(self._edge_key(u, v), {})
            digest.update(
                repr((u, v, float(w), sorted(attrs.items(), key=lambda kv: str(kv[0])))).encode("utf-8")
            )
        return digest.hexdigest()

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, float]]:
        """Iterate over edges as ``(u, v, weight)``, each undirected edge once.

        An edge is yielded at whichever endpoint adjacency iteration reaches
        first: ``v`` is skipped once it has itself been finished.  A self
        loop is yielded once, at its vertex.
        """
        finished = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in finished:
                    yield u, v, w
            finished.add(u)

    def node_attrs(self, node: NodeId) -> Dict[str, Any]:
        """Return the (mutable) attribute dict of ``node``."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return self._node_attrs.setdefault(node, {})

    def edge_attrs(self, u: NodeId, v: NodeId) -> Dict[str, Any]:
        """Return the (mutable) attribute dict of edge ``(u, v)``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._edge_attrs.setdefault(self._edge_key(u, v), {})

    def get_node_attr(self, node: NodeId, key: str, default: Any = None) -> Any:
        """Return attribute ``key`` of ``node`` or ``default`` when missing."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return self._node_attrs.get(node, {}).get(key, default)

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def total_edge_weight(self) -> float:
        """Return the sum of all edge weights."""
        return float(sum(w for _, _, w in self.edges()))

    def density(self) -> float:
        """Return the edge density ``2m / (n (n - 1))`` (0 for n < 2)."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    # ------------------------------------------------------------------ #
    # derived structures
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Iterable[NodeId], name: str = "") -> "Graph":
        """Return the induced subgraph on ``nodes`` as a new :class:`Graph`.

        Node and edge attributes of retained elements are shallow-copied.
        Unknown node ids are ignored, which lets callers pass community
        membership lists that may contain stale entries.
        """
        keep = {node for node in nodes if node in self._adj}
        sub = Graph(name=name or f"{self.name}::subgraph")
        adj = sub._adj
        for node in keep:
            adj[node] = {}
            attrs = self._node_attrs.get(node)
            if attrs:
                sub._node_attrs[node] = dict(attrs)
        # Each kept edge is added when its first endpoint in ``keep`` order
        # is visited, appending to both endpoints' neighbour dicts.
        for node in keep:
            row = adj[node]
            for neighbor, weight in self._adj[node].items():
                if neighbor in keep and neighbor not in row:
                    row[neighbor] = weight
                    adj[neighbor][node] = weight
                    sub._num_edges += 1
                    key = self._edge_key(node, neighbor)
                    attrs = self._edge_attrs.get(key)
                    if attrs:
                        sub._edge_attrs[key] = dict(attrs)
        return sub

    def induced_ordered(self, nodes: Iterable[NodeId], name: str = "") -> "Graph":
        """Induced subgraph whose iteration orders mirror *this* graph's.

        :meth:`subgraph` rebuilds adjacency through ``add_edge``, so the
        result's per-node neighbour order is an artifact of the replay.
        Shard slices need something stronger: a slice whose ``nodes()``,
        ``neighbors()`` and ``edges()`` sequences are exactly this graph's
        own sequences filtered to the kept set.  With that property, any
        order-sensitive construction performed on the slice — a
        ``subgraph`` over community members, an ``edges()`` re-induction —
        reproduces what the same construction yields on the parent, which
        is what makes sharded execution byte-identical to unsharded.
        """
        keep = {node for node in nodes if node in self._adj}
        sub = Graph(name=name or f"{self.name}::induced")
        for node, nbrs in self._adj.items():
            if node not in keep:
                continue
            sub._adj[node] = {v: w for v, w in nbrs.items() if v in keep}
            attrs = self._node_attrs.get(node)
            if attrs:
                sub._node_attrs[node] = dict(attrs)
        seen = set()
        for node, nbrs in sub._adj.items():
            for neighbor in nbrs:
                key = self._edge_key(node, neighbor)
                if key not in seen:
                    seen.add(key)
                    sub._num_edges += 1
                    attrs = self._edge_attrs.get(key)
                    if attrs:
                        sub._edge_attrs[key] = dict(attrs)
        return sub

    def copy(self) -> "Graph":
        """Return a deep-enough copy (adjacency rebuilt, attrs shallow-copied)."""
        clone = self.subgraph(self.nodes(), name=self.name)
        return clone

    def relabeled(self) -> Tuple["Graph", Dict[NodeId, int], List[NodeId]]:
        """Return ``(graph, mapping, inverse)`` with vertices relabelled 0..n-1.

        Many numeric kernels (partitioning, RWR) want contiguous integer ids;
        this helper produces them deterministically in insertion order.
        """
        inverse = list(self._adj)
        mapping = {node: index for index, node in enumerate(inverse)}
        relabeled = Graph(name=self.name)
        for node in inverse:
            relabeled.add_node(mapping[node], **self._node_attrs.get(node, {}))
        for u, v, w in self.edges():
            relabeled.add_edge(mapping[u], mapping[v], weight=w)
        return relabeled, mapping, inverse

    def adjacency_dict(self) -> Dict[NodeId, Dict[NodeId, float]]:
        """Return a copy of the adjacency structure (node -> neighbour -> weight)."""
        return {node: dict(nbrs) for node, nbrs in self._adj.items()}

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adj)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<{type(self).__name__}{label} with {self.num_nodes} nodes "
            f"and {self.num_edges} edges>"
        )

    @staticmethod
    def _edge_key(u: NodeId, v: NodeId) -> EdgeTuple:
        """Return a canonical (order-independent) key for an undirected edge."""
        try:
            return (u, v) if u <= v else (v, u)  # type: ignore[operator]
        except TypeError:
            # Mixed/unorderable id types: fall back to repr ordering.
            return (u, v) if repr(u) <= repr(v) else (v, u)


class DiGraph:
    """A directed, weighted graph used for PageRank and strong components.

    The GMine paper computes strongly connected components and PageRank on
    demand for the subgraph under inspection; both need edge direction.  The
    co-authorship network itself is undirected, so :class:`DiGraph` is a thin
    companion — conversions in both directions are provided.
    """

    directed = True

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._succ: Dict[NodeId, Dict[NodeId, float]] = {}
        self._pred: Dict[NodeId, Dict[NodeId, float]] = {}
        self._num_edges = 0

    def add_node(self, node: NodeId) -> None:
        """Add ``node`` (no-op if already present)."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, u: NodeId, v: NodeId, weight: float = 1.0) -> None:
        """Add (or re-weight) the directed edge ``u -> v``."""
        self.add_node(u)
        self.add_node(v)
        if v not in self._succ[u]:
            self._num_edges += 1
        self._succ[u][v] = weight
        self._pred[v][u] = weight

    def has_node(self, node: NodeId) -> bool:
        """Return whether ``node`` is present."""
        return node in self._succ

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return whether the directed edge ``u -> v`` exists."""
        return u in self._succ and v in self._succ[u]

    def successors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over out-neighbours of ``node``."""
        try:
            return iter(self._succ[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def predecessors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over in-neighbours of ``node``."""
        try:
            return iter(self._pred[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def out_degree(self, node: NodeId) -> int:
        """Return the number of out-neighbours of ``node``."""
        try:
            return len(self._succ[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def in_degree(self, node: NodeId) -> int:
        """Return the number of in-neighbours of ``node``."""
        try:
            return len(self._pred[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over vertex ids."""
        return iter(self._succ)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, float]]:
        """Iterate over directed edges as ``(u, v, weight)``."""
        for u, nbrs in self._succ.items():
            for v, w in nbrs.items():
                yield u, v, w

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self._num_edges

    def to_undirected(self) -> Graph:
        """Collapse direction; anti-parallel edges keep the larger weight."""
        graph = Graph(name=self.name)
        for node in self.nodes():
            graph.add_node(node)
        for u, v, w in self.edges():
            if graph.has_edge(u, v):
                graph.add_edge(u, v, weight=max(w, graph.edge_weight(u, v)))
            else:
                graph.add_edge(u, v, weight=w)
        return graph

    @classmethod
    def from_undirected(cls, graph: Graph) -> "DiGraph":
        """Return a digraph with both orientations of every undirected edge."""
        digraph = cls(name=graph.name)
        for node in graph.nodes():
            digraph.add_node(node)
        for u, v, w in graph.edges():
            digraph.add_edge(u, v, weight=w)
            digraph.add_edge(v, u, weight=w)
        return digraph

    def __contains__(self, node: NodeId) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._succ)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<DiGraph{label} with {self.num_nodes} nodes "
            f"and {self.num_edges} edges>"
        )


def graph_from_adjacency(
    adjacency: Mapping[NodeId, Mapping[NodeId, float]], name: str = ""
) -> Graph:
    """Build a :class:`Graph` from a node -> neighbour -> weight mapping."""
    graph = Graph(name=name)
    for node, nbrs in adjacency.items():
        graph.add_node(node)
        for neighbor, weight in nbrs.items():
            if not graph.has_edge(node, neighbor):
                graph.add_edge(node, neighbor, weight=weight)
    return graph


def union(graphs: Iterable[Graph], name: str = "union") -> Graph:
    """Return the union of several graphs (weights accumulate on shared edges)."""
    merged = Graph(name=name)
    for graph in graphs:
        for node in graph.nodes():
            merged.add_node(node, **graph.node_attrs(node))
        for u, v, w in graph.edges():
            merged.add_edge(u, v, weight=w, accumulate=merged.has_edge(u, v))
    return merged
