"""Bridges between :class:`~repro.graph.graph.Graph` and sparse matrices.

Numeric kernels — random walk with restart, spectral partitioning, PageRank —
operate on ``scipy.sparse`` matrices.  This module centralises the (graph,
matrix, index) conversions so every kernel shares one deterministic vertex
ordering and one normalisation convention.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..errors import GraphError
from .graph import Graph, NodeId


class VertexIndex:
    """A bidirectional mapping between vertex ids and contiguous indices.

    The ordering is the graph's insertion order, which makes every matrix
    built from the same graph use the same rows and keeps results
    reproducible across runs.
    """

    def __init__(self, nodes: Sequence[NodeId]) -> None:
        self._order: List[NodeId] = list(nodes)
        self._index: Dict[NodeId, int] = {
            node: position for position, node in enumerate(self._order)
        }
        if len(self._index) != len(self._order):
            raise GraphError("duplicate vertex ids passed to VertexIndex")

    @classmethod
    def from_graph(cls, graph: Graph) -> "VertexIndex":
        """Build the index from a graph's insertion order."""
        return cls(list(graph.nodes()))

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def index_of(self, node: NodeId) -> int:
        """Return the matrix row/column of ``node``."""
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"vertex {node!r} is not in the index") from None

    def node_at(self, position: int) -> NodeId:
        """Return the vertex id stored at matrix position ``position``."""
        return self._order[position]

    def nodes(self) -> List[NodeId]:
        """Return the vertex ids in matrix order (a copy)."""
        return list(self._order)

    def to_indices(self, nodes: Sequence[NodeId]) -> List[int]:
        """Map a sequence of vertex ids to matrix positions."""
        return [self.index_of(node) for node in nodes]

    def to_nodes(self, indices: Sequence[int]) -> List[NodeId]:
        """Map a sequence of matrix positions back to vertex ids."""
        return [self._order[i] for i in indices]


def adjacency_matrix(
    graph: Graph, index: VertexIndex | None = None, dtype=np.float64
) -> Tuple[sparse.csr_matrix, VertexIndex]:
    """Return ``(A, index)`` where ``A`` is the symmetric weighted adjacency.

    Self loops appear once on the diagonal.
    """
    if index is None:
        index = VertexIndex.from_graph(graph)
    n = len(index)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for u, v, w in graph.edges():
        i, j = index.index_of(u), index.index_of(v)
        rows.append(i)
        cols.append(j)
        vals.append(w)
        if i != j:
            rows.append(j)
            cols.append(i)
            vals.append(w)
    matrix = sparse.csr_matrix(
        (np.asarray(vals, dtype=dtype), (rows, cols)), shape=(n, n)
    )
    return matrix, index


def degree_vector(adjacency: sparse.spmatrix) -> np.ndarray:
    """Return the weighted degree (row-sum) vector of an adjacency matrix."""
    return np.asarray(adjacency.sum(axis=1)).ravel()


def _column_stochastic(
    adjacency: sparse.spmatrix, degrees: np.ndarray
) -> sparse.csr_matrix:
    """Column-normalise an adjacency matrix into the RWR transition ``W``.

    Shared by :func:`transition_matrix` (cold path) and
    :class:`PreparedGraph` (warm path) so both produce bit-identical
    matrices — the service's byte-parity guarantees depend on it.
    """
    with np.errstate(divide="ignore"):
        inverse = np.where(degrees > 0, 1.0 / degrees, 0.0)
    # Column-normalise: divide column j by degree(j).
    scaling = sparse.diags(inverse)
    return (adjacency @ scaling).tocsr()


def pagerank_operator(
    matrix: sparse.spmatrix,
) -> Tuple[sparse.spmatrix, np.ndarray]:
    """``(transition, dangling mask)`` exactly as PageRank derives them.

    PageRank normalises by *column* sums of its matrix (out-weight) —
    which for a symmetric adjacency equals the degree vector only up to
    float summation order, so this derivation is its own helper rather
    than reusing :func:`_column_stochastic`.  Shared by the cold path
    (:func:`repro.mining.pagerank._pagerank_from_matrix`) and the warm
    one (:meth:`PreparedGraph.pagerank_view`) so the two can never drift
    off bit-parity.
    """
    out_weight = np.asarray(matrix.sum(axis=0)).ravel()
    with np.errstate(divide="ignore"):
        inv_out = np.where(out_weight > 0, 1.0 / out_weight, 0.0)
    return matrix @ sparse.diags(inv_out), out_weight == 0


def transition_matrix(
    graph: Graph, index: VertexIndex | None = None
) -> Tuple[sparse.csr_matrix, VertexIndex]:
    """Return the column-stochastic transition matrix ``W`` and its index.

    ``W[i, j]`` is the probability of stepping to vertex ``i`` from vertex
    ``j`` (column-normalised), the convention used by random walk with
    restart: ``p' = (1 - c) W p + c q``.  Columns of isolated vertices are
    left all-zero; RWR treats them as absorbing into the restart vector.
    """
    adjacency, index = adjacency_matrix(graph, index)
    degrees = degree_vector(adjacency)
    return _column_stochastic(adjacency, degrees), index


def normalized_laplacian(
    graph: Graph, index: VertexIndex | None = None
) -> Tuple[sparse.csr_matrix, VertexIndex]:
    """Return the symmetric normalised Laplacian ``I - D^-1/2 A D^-1/2``."""
    adjacency, index = adjacency_matrix(graph, index)
    degrees = degree_vector(adjacency)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    half = sparse.diags(inv_sqrt)
    n = adjacency.shape[0]
    laplacian = sparse.identity(n, format="csr") - (half @ adjacency @ half)
    return laplacian.tocsr(), index


def combinatorial_laplacian(
    graph: Graph, index: VertexIndex | None = None
) -> Tuple[sparse.csr_matrix, VertexIndex]:
    """Return the combinatorial Laplacian ``D - A``."""
    adjacency, index = adjacency_matrix(graph, index)
    degrees = degree_vector(adjacency)
    laplacian = sparse.diags(degrees) - adjacency
    return laplacian.tocsr(), index


def restart_vector(
    index: VertexIndex, sources: Sequence[NodeId], dtype=np.float64
) -> np.ndarray:
    """Return a probability vector uniform over ``sources`` and zero elsewhere."""
    if not sources:
        raise GraphError("restart_vector requires at least one source node")
    vector = np.zeros(len(index), dtype=dtype)
    positions = np.fromiter(
        (index.index_of(node) for node in sources), dtype=np.intp,
        count=len(sources),
    )
    # Unbuffered accumulation: repeated sources add once per occurrence,
    # exactly like the per-source loop this replaces.
    np.add.at(vector, positions, 1.0)
    vector /= vector.sum()
    return vector


def exact_rwr_factor(transition_csc: sparse.csc_matrix, restart_probability: float):
    """Factorize the exact-RWR system ``I - (1 - c) W`` once (SuperLU).

    The factorization is the expensive part of :func:`repro.mining.rwr.
    rwr_exact`; with it in hand, each restart vector is one cheap
    triangular solve, and k vectors solve in a single batched call.
    ``splu`` is deterministic and ``factor.solve(b)`` is bit-identical to
    ``spsolve(system, b)`` column by column, so routing the exact solver
    through a cached factor changes cost only, never bytes.
    """
    from scipy.sparse.linalg import splu

    n = transition_csc.shape[0]
    system = (
        sparse.identity(n, format="csc", dtype=transition_csc.dtype)
        - (1.0 - restart_probability) * transition_csc
    )
    return splu(system.tocsc())


class PreparedGraph:
    """An immutable, kernel-ready sparse view of one :class:`Graph`.

    Every numeric kernel needs the same things rebuilt from the Python
    adjacency dicts on every call today: a :class:`VertexIndex`, the CSR
    adjacency, the degree vector, and (for walks) the column-stochastic
    transition matrix.  A ``PreparedGraph`` pays that O(E) conversion
    **once** and hands the kernels cheap derived views; the service layer
    caches one instance per dataset fingerprint, so every warm query skips
    the conversion entirely.

    Correctness bar: every view is produced by exactly the same code path
    the cold conversions use (:func:`adjacency_matrix`,
    :func:`degree_vector`, :func:`_column_stochastic`,
    :func:`restart_vector`), so a kernel fed a ``PreparedGraph`` returns
    **bit-identical** results to one fed the raw graph.

    Derived views are built lazily and memoised.  The benign race two
    kernel threads can hit (both build the same deterministic view; one
    assignment wins) is accepted on purpose — it keeps the instance free
    of locks and therefore picklable.
    """

    def __init__(
        self,
        index: VertexIndex,
        adjacency: sparse.csr_matrix,
        fingerprint: str | None = None,
    ) -> None:
        self.index = index
        self.adjacency = adjacency
        #: Dataset fingerprint this preparation belongs to (cache key tag);
        #: ``None`` for ad-hoc preparations outside the service layer.
        self.fingerprint = fingerprint
        self._degrees: np.ndarray | None = None
        self._transition: sparse.csr_matrix | None = None
        self._transition_csc: sparse.csc_matrix | None = None
        self._reverse_transition: sparse.csr_matrix | None = None
        self._pagerank_view: Tuple[sparse.csr_matrix, np.ndarray] | None = None
        #: restart probability -> SuperLU factor of ``I - (1 - c) W``.
        #: Bounded (services use one or two restart probabilities; ad-hoc
        #: sweeps should not pin O(n) factors).  SuperLU objects are not
        #: picklable, so :meth:`__getstate__` drops this cache.
        self._exact_factors: "OrderedDict[float, Any]" = OrderedDict()
        #: ``(weakref to graph, build, build(graph))`` of :meth:`graph_view`.
        self._graph_view: Tuple[Any, Callable, Any] | None = None

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        index: VertexIndex | None = None,
        fingerprint: str | None = None,
    ) -> "PreparedGraph":
        """Prepare ``graph`` once: build the index and CSR adjacency."""
        adjacency, index = adjacency_matrix(graph, index)
        return cls(index=index, adjacency=adjacency, fingerprint=fingerprint)

    # ------------------------------------------------------------------ #
    # cheap derived views (lazy, memoised)
    # ------------------------------------------------------------------ #
    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree vector (adjacency row sums)."""
        if self._degrees is None:
            self._degrees = degree_vector(self.adjacency)
        return self._degrees

    @property
    def transition(self) -> sparse.csr_matrix:
        """Column-stochastic RWR transition ``W`` (``W[i, j]``: j -> i)."""
        if self._transition is None:
            self._transition = _column_stochastic(self.adjacency, self.degrees)
        return self._transition

    @property
    def transition_csc(self) -> sparse.csc_matrix:
        """CSC view of :attr:`transition` (what the exact solver factorises)."""
        if self._transition_csc is None:
            self._transition_csc = self.transition.tocsc()
        return self._transition_csc

    @property
    def reverse_transition(self) -> sparse.csr_matrix:
        """Row-stochastic reverse-edge view ``W^T`` (CSR).

        For the undirected graphs GMine mines, ``W^T = D^{-1} A`` is the
        row-normalised walk operator — the matrix a *reverse* (incoming)
        walk steps by, which directed proximity queries iterate.
        """
        if self._reverse_transition is None:
            self._reverse_transition = self.transition.transpose().tocsr()
        return self._reverse_transition

    def pagerank_view(self) -> Tuple[sparse.csr_matrix, np.ndarray]:
        """Memoised :func:`pagerank_operator` over this adjacency."""
        if self._pagerank_view is None:
            self._pagerank_view = pagerank_operator(self.adjacency)
        return self._pagerank_view

    def restart_vector(self, sources: Sequence[NodeId]) -> np.ndarray:
        """Probability vector uniform over ``sources`` (see :func:`restart_vector`)."""
        return restart_vector(self.index, sources)

    #: How many exact-solver factorizations one preparation memoises.
    EXACT_FACTOR_CAPACITY = 4

    def exact_factor(self, restart_probability: float):
        """Memoised :func:`exact_rwr_factor` for this restart probability.

        The same benign-race policy as the other lazy views: two threads
        may both factorize (the result is deterministic, one assignment
        wins), keeping the instance lock-free.
        """
        key = float(restart_probability)
        factor = self._exact_factors.get(key)
        if factor is None:
            factor = exact_rwr_factor(self.transition_csc, key)
            while len(self._exact_factors) >= self.EXACT_FACTOR_CAPACITY:
                self._exact_factors.popitem(last=False)
            self._exact_factors[key] = factor
        return factor

    def graph_view(self, graph: Graph, build: Callable[[Graph], Any]) -> Any:
        """``build(graph)``, memoised for that very ``graph`` object.

        For views a kernel derives from the dict :class:`Graph` rather than
        from the matrix (neighbour lists in ``graph.neighbors`` order,
        dict-order degree sums).  The memo is keyed by identity through a
        weak reference, never by equality: an equal graph built elsewhere,
        or a fresh subgraph per request, misses and is built per call.
        The slot empties when its graph is collected, so a view built for
        a per-request subgraph is not pinned after the request.  One slot,
        same benign-race policy as the other lazy views.
        """
        memo = self._graph_view
        if memo is not None and memo[0]() is graph and memo[1] is build:
            return memo[2]
        view = build(graph)
        owner = weakref.ref(self)

        def drop(key: weakref.ref) -> None:
            prepared = owner()
            if prepared is not None:
                held = prepared._graph_view
                if held is not None and held[0] is key:
                    prepared._graph_view = None

        self._graph_view = (weakref.ref(graph, drop), build, view)
        return view

    def __getstate__(self) -> Dict[str, Any]:
        # SuperLU factors hold C pointers and cannot pickle; workers
        # refactorize on first exact solve instead.  A graph view is tied
        # to an in-process graph object by weak reference.
        state = self.__dict__.copy()
        state["_exact_factors"] = OrderedDict()
        state["_graph_view"] = None
        return state

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.index

    def __repr__(self) -> str:
        tag = f" fingerprint={self.fingerprint[:12]}…" if self.fingerprint else ""
        return (
            f"<PreparedGraph with {len(self.index)} vertices, "
            f"{self.adjacency.nnz} stored entries{tag}>"
        )


class PreparedViewCache:
    """A bounded LRU of :class:`PreparedGraph` views keyed by fingerprint.

    The mutable-dataset write path swaps a fresh :class:`DatasetHandle`
    into the registry on every edit; preparations owned by the superseded
    handle would die with it even when the content they describe did not
    change.  Keying views by *content fingerprint* instead — the dataset's
    Merkle root for the widest scope, a community's sub-fingerprint for a
    partition view — makes survival automatic: a handle swapped in after
    an edit finds every untouched partition's preparation already warm,
    and the edited partitions simply miss (their sub-fingerprints changed)
    and rebuild on first use.

    ``get`` builds-on-miss under a per-cache lock, so two requests racing
    on the same cold fingerprint produce one preparation.  Hit/build
    counters feed ``/v1/stats`` — they are how the acceptance test for
    prepared-view survival observes reuse across an edit.

    Dropping a view (eviction, invalidation, :meth:`clear`) only drops
    the cache's reference: views are plain in-process arrays, so a kernel
    still running on one keeps it alive until it returns.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise GraphError(
                f"prepared view cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._views: "OrderedDict[str, PreparedGraph]" = OrderedDict()
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self.invalidated = 0

    def get(
        self, fingerprint: str, build: Callable[[], PreparedGraph]
    ) -> PreparedGraph:
        """Return the view for ``fingerprint``, building it at most once."""
        with self._lock:
            view = self._views.get(fingerprint)
            if view is not None:
                self.hits += 1
                self._views.move_to_end(fingerprint)
                return view
            view = build()
            self.builds += 1
            while len(self._views) >= self.capacity:
                self._views.popitem(last=False)
                self.evictions += 1
            self._views[fingerprint] = view
            return view

    def peek(self, fingerprint: str) -> "PreparedGraph | None":
        """Return the cached view without building or touching recency."""
        with self._lock:
            return self._views.get(fingerprint)

    def invalidate(self, fingerprint: str) -> bool:
        """Drop the view for ``fingerprint``; ``True`` when one was held."""
        with self._lock:
            dropped = self._views.pop(fingerprint, None) is not None
            if dropped:
                self.invalidated += 1
        return dropped

    def clear(self) -> int:
        """Drop every view; returns how many were held (registry drain)."""
        with self._lock:
            held = len(self._views)
            self._views.clear()
        return held

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly counters (surfaced through ``/v1/stats``)."""
        with self._lock:
            return {
                "views": len(self._views),
                "capacity": self.capacity,
                "hits": self.hits,
                "builds": self.builds,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
            }
