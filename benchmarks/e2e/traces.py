"""Seeded, deterministic input generators for the ``gmine-e2e`` benchmark.

Everything the program under test receives is generated here from one
integer seed: the graphs (``dataset``), the four request mixes, the edit
scripts.  The same seed gives byte-identical serialized traces
(:func:`serialize`); the self-test at the bottom pins the SHA-256 of the
default-seed traces over a synthetic catalog (so the pin does not move when
the partitioner changes) and checks that a second seed differs.

The generators never touch the service: they read a :class:`Catalog` — the
labels, members and connectivity links of a built G-Tree — and emit plain
request dicts ``{"id", "op", "args", "page"}``.  Session steps carry the
placeholder :data:`SESSION` for the session id, which each client replaces
with its own session.

Importing this module runs nothing; the process backend's forkserver
re-imports ``__main__`` and everything it imports.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

Request = Dict[str, Any]

DEFAULT_SEED = 2006
ZIPF_S = 1.0
#: Source-set pool per community on ``explore_zipf``: 31 communities x 64
#: sets x 3 keyed op kinds is ~6k distinct cache keys against a 512-entry
#: cache, so the cache is always evicting.
POOL_SIZE = 64
SESSION = "$SESSION"

#: SHA-256 of the default-seed traces over :func:`synthetic_catalog`.
PINNED_SHA256 = {
    "explore_zipf": "164a5ea0559c4c47fd8ed8beca9a4061bf4a92b95183256fe47aa5599d22bc3b",
    "mine_cold": "8bb6487d67663519578810844d09a22300011c12d2f14195f771d1903b8706eb",
    "edit_while_read": "6360f6c0e35a9d63f928c6997f2e42c47d6aaa101eb5c2f2f1685fe65d6c6bcd",
    "ingest_open": "f04fe2abadd1668be8828dd0e8f7001f20ad04ea8887e0aeb9e5aa48f76413a3",
}


# --------------------------------------------------------------------------- #
# sampling
# --------------------------------------------------------------------------- #
class Zipf:
    """Zipf(s) over ranks ``0..n-1``; rank 0 is the most popular."""

    def __init__(self, n: int, s: float = ZIPF_S) -> None:
        if n < 1:
            raise ValueError(f"Zipf needs at least one rank, got {n}")
        total = 0.0
        self._cdf: List[float] = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            self._cdf.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        point = rng.random() * self._total
        return min(bisect.bisect_left(self._cdf, point), len(self._cdf) - 1)


def derive_seed(seed: int, stream: str) -> int:
    """An independent sub-seed per input stream, stable across runs."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


# --------------------------------------------------------------------------- #
# catalog: what a generator may know about a built dataset
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Community:
    label: str
    level: int
    members: Tuple[Any, ...]
    parent: Optional[str]
    children: Tuple[str, ...]
    #: child-label pairs joined by a connectivity edge (``inspect_edge``
    #: is only asked about pairs that have one, so it never fails)
    links: Tuple[Tuple[str, str], ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Catalog:
    """Communities of one G-Tree: leaves first (by label), root last."""

    communities: Tuple[Community, ...]

    @property
    def leaves(self) -> List[Community]:
        return [c for c in self.communities if c.is_leaf]

    @property
    def root(self) -> Community:
        return self.communities[-1]

    def by_label(self, label: str) -> Community:
        return next(c for c in self.communities if c.label == label)


def catalog_of(tree) -> Catalog:
    """Read the catalog off a built :class:`repro.core.gtree.GTree`."""
    rows = []
    for node in tree.nodes():
        parent = tree.parent(node.node_id)
        rows.append(Community(
            label=node.label,
            level=node.level,
            members=tuple(sorted(node.members)),
            parent=None if parent is None else parent.label,
            children=tuple(tree.node(child).label for child in node.children),
            links=tuple(
                (tree.node(edge.source).label, tree.node(edge.target).label)
                for edge in node.connectivity
            ),
        ))
    rows.sort(key=lambda c: (-c.level, c.label))
    return Catalog(tuple(rows))


def synthetic_catalog(fanout: int = 5, leaf_size: int = 12) -> Catalog:
    """A fixed two-level catalog for the determinism self-test."""
    rows, vertex = [], 0
    root_members: List[int] = []
    mids = []
    for i in range(fanout):
        mid_members: List[int] = []
        leaves = []
        for j in range(fanout):
            members = tuple(range(vertex, vertex + leaf_size))
            vertex += leaf_size
            mid_members.extend(members)
            leaves.append(Community(f"s0{i}{j}", 2, members, f"s0{i}", (), ()))
        rows.extend(leaves)
        labels = tuple(leaf.label for leaf in leaves)
        mids.append(Community(
            f"s0{i}", 1, tuple(mid_members), "s0", labels,
            tuple(zip(labels, labels[1:])),
        ))
        root_members.extend(mid_members)
    labels = tuple(mid.label for mid in mids)
    root = Community("s0", 0, tuple(root_members), None, labels,
                     tuple(zip(labels, labels[1:])))
    rows = sorted(rows + mids + [root], key=lambda c: (-c.level, c.label))
    return Catalog(tuple(rows))


# --------------------------------------------------------------------------- #
# request helpers
# --------------------------------------------------------------------------- #
def _request(prefix: str, index: int, op: str, args: Dict[str, Any],
             page: Optional[Dict[str, Any]] = None) -> Request:
    return {"id": f"{prefix}{index:06d}", "op": op, "args": args, "page": page}


def _path_rwr(label: str, sources: Sequence[Any], hops: bool = False) -> str:
    listed = ", ".join(repr(source) for source in sources)
    step = "members/hops(1)" if hops else "members"
    return f"community({label})/{step}/rwr(sources=[{listed}])/top(10)"


def _source_set(rng: random.Random, members: Sequence[Any], low: int, high: int):
    size = min(len(members), rng.randint(low, high))
    return sorted(rng.sample(list(members), size))


# --------------------------------------------------------------------------- #
# workload 1: explore_zipf
# --------------------------------------------------------------------------- #
def explore_zipf(catalog: Catalog, seed: int, count: int) -> List[Request]:
    """Zipf-skewed interactive exploration: shared keys, a cache too small.

    Communities are ranked leaves-first (users mostly look at leaves; the
    root is the coldest), source sets by position in a per-community pool.
    Mix: 30% cheap tree ops and session steps, 30% community RWR (top-20
    page), 15% connection subgraph, 15% GPath RWR/top(10), 10% leaf metrics.
    """
    rng = random.Random(derive_seed(seed, "explore_zipf"))
    ranked = list(catalog.communities)
    leaves = catalog.leaves
    pick_community = Zipf(len(ranked))
    pick_leaf = Zipf(len(leaves))
    pick_pool = Zipf(POOL_SIZE)
    pools = {
        c.label: [_source_set(rng, c.members, 2, 3) for _ in range(POOL_SIZE)]
        for c in ranked
    }
    requests = []
    for index in range(count):
        community = ranked[pick_community.sample(rng)]
        sources = pools[community.label][pick_pool.sample(rng)]
        draw = rng.random()
        if draw < 0.30:
            requests.append(_cheap(catalog, community, rng, index))
        elif draw < 0.60:
            requests.append(_request(
                "x", index, "rwr",
                {"sources": sources, "community": community.label},
                {"top_k": 20},
            ))
        elif draw < 0.75:
            requests.append(_request(
                "x", index, "connection_subgraph",
                {"sources": sources, "community": community.label},
            ))
        elif draw < 0.90:
            requests.append(_request(
                "x", index, "query.path",
                {"path": _path_rwr(community.label, sources)},
            ))
        else:
            leaf = leaves[pick_leaf.sample(rng)]
            requests.append(_request(
                "x", index, "metrics", {"community": leaf.label}
            ))
    return requests


def _cheap(catalog: Catalog, community: Community, rng: random.Random,
           index: int) -> Request:
    """connectivity / inspect_edge / session.step, one third each."""
    inner = community
    if community.is_leaf:
        inner = catalog.by_label(community.parent)
    kind = rng.randrange(3)
    if kind == 0 or (kind == 1 and not inner.links):
        return _request("x", index, "connectivity", {"community": inner.label})
    if kind == 1:
        a, b = inner.links[rng.randrange(len(inner.links))]
        return _request(
            "x", index, "inspect_edge",
            {"community_a": a, "community_b": b}, {"top_k": 20},
        )
    return _request(
        "x", index, "session.step",
        {"session_id": SESSION, "action": "focus",
         "args": {"label": community.label}},
    )


# --------------------------------------------------------------------------- #
# workload 2: mine_cold
# --------------------------------------------------------------------------- #
def mine_cold(catalog: Catalog, seed: int, count: int) -> List[Request]:
    """Never-repeated mining requests: every one computes.

    Mix: 40% widest-scope power RWR, 15% exact RWR, 20% widest-scope
    connection subgraph, 15% leaf metrics with a distinct
    ``hop_sample_size``, 10% GPath ``hops(1)/rwr/top(10)`` from the root.
    """
    rng = random.Random(derive_seed(seed, "mine_cold"))
    vertices = catalog.root.members
    leaves = catalog.leaves
    seen = set()
    requests = []

    def fresh(kind: str, low: int, high: int):
        while True:
            sources = tuple(_source_set(rng, vertices, low, high))
            if (kind, sources) not in seen:
                seen.add((kind, sources))
                return list(sources)

    metric_keys = 0
    for index in range(count):
        draw = rng.random()
        if draw < 0.40:
            requests.append(_request(
                "m", index, "rwr", {"sources": fresh("power", 1, 3)},
                {"top_k": 20},
            ))
        elif draw < 0.55:
            requests.append(_request(
                "m", index, "rwr",
                {"sources": fresh("exact", 1, 3), "solver": "exact"},
                {"top_k": 20},
            ))
        elif draw < 0.75:
            requests.append(_request(
                "m", index, "connection_subgraph",
                {"sources": fresh("ceps", 2, 3)},
            ))
        elif draw < 0.90:
            # (leaf, hop_sample_size) walks a grid, so no pair repeats
            leaf = leaves[metric_keys % len(leaves)]
            hop_sample_size = 8 + metric_keys // len(leaves)
            metric_keys += 1
            requests.append(_request(
                "m", index, "metrics",
                {"community": leaf.label, "hop_sample_size": hop_sample_size},
            ))
        else:
            requests.append(_request(
                "m", index, "query.path",
                {"path": _path_rwr(catalog.root.label, fresh("path", 2, 2),
                                   hops=True)},
            ))
    return requests


# --------------------------------------------------------------------------- #
# workload 3: edit_while_read
# --------------------------------------------------------------------------- #
def reader_working_set(catalog: Catalog, seed: int) -> List[Request]:
    """~100 community-scoped keys that fit the cache: per leaf one
    ``metrics``, one ``rwr``, one GPath query, and a second ``rwr``; plus
    the root ``connectivity``.  The reader cycles this list."""
    rng = random.Random(derive_seed(seed, "reader"))
    requests: List[Request] = []
    for leaf in catalog.leaves:
        first = _source_set(rng, leaf.members, 2, 2)
        second = _source_set(rng, leaf.members, 1, 1)
        index = len(requests)
        requests += [
            _request("r", index, "metrics", {"community": leaf.label}),
            _request("r", index + 1, "rwr",
                     {"sources": first, "community": leaf.label}, {"top_k": 20}),
            _request("r", index + 2, "query.path",
                     {"path": _path_rwr(leaf.label, second)}),
            _request("r", index + 3, "rwr",
                     {"sources": second, "community": leaf.label}, {"top_k": 20}),
        ]
    requests.append(_request("r", len(requests), "connectivity", {}))
    return requests


def edit_scripts(catalog: Catalog, seed: int, count: int,
                 has_edge=None) -> List[List[Dict[str, Any]]]:
    """One-edit scripts that always apply: 80% inside a Zipf-chosen leaf
    (re-weight or add an edge, remove an edge this trace added earlier,
    update a vertex attribute), 20% a cross-community ``add_edge``.

    ``has_edge(u, v)`` tells new edges from re-weights, so only edges the
    trace itself added are ever removed and the graph never loses an
    original edge.
    """
    rng = random.Random(derive_seed(seed, "edits"))
    leaves = catalog.leaves
    pick_leaf = Zipf(len(leaves))
    added: List[Tuple[Any, Any]] = []
    present = set()
    scripts = []
    for index in range(count):
        leaf = leaves[pick_leaf.sample(rng)]
        draw = rng.random()
        if draw < 0.20:
            others = [c for c in leaves if c.parent != leaf.parent]
            other = others[rng.randrange(len(others))]
            u = leaf.members[rng.randrange(len(leaf.members))]
            v = other.members[rng.randrange(len(other.members))]
            edit = {"action": "add_edge", "u": u, "v": v,
                    "weight": 1.0 + index % 7}
        elif draw < 0.35 and added:
            u, v = added.pop(rng.randrange(len(added)))
            present.discard((u, v))
            edit = {"action": "remove_edge", "u": u, "v": v}
        elif draw < 0.50:
            node = leaf.members[rng.randrange(len(leaf.members))]
            edit = {"action": "update_node_attrs", "node": node,
                    "attrs": {"visits": index}}
        else:
            u, v = sorted(rng.sample(list(leaf.members), 2))
            edit = {"action": "add_edge", "u": u, "v": v,
                    "weight": 2.0 + index % 5}
            original = has_edge is not None and has_edge(u, v)
            if (u, v) not in present and not original:
                added.append((u, v))
                present.add((u, v))
        scripts.append([edit])
    return scripts


# --------------------------------------------------------------------------- #
# workload 4: ingest_open
# --------------------------------------------------------------------------- #
def ingest_seeds(seed: int, count: int) -> List[int]:
    """Distinct graph seeds, one per edge list to ingest."""
    return [derive_seed(seed, f"ingest:{index}") for index in range(count)]


def open_queries(vertices: Sequence[Any], seed: int, count: int) -> List[Request]:
    """The first question after a cold open: widest-scope RWR, top-20 page."""
    rng = random.Random(derive_seed(seed, "open"))
    return [
        _request("o", index, "rwr",
                 {"sources": _source_set(rng, vertices, 1, 2)}, {"top_k": 20})
        for index in range(count)
    ]


# --------------------------------------------------------------------------- #
# graphs
# --------------------------------------------------------------------------- #
def dataset(seed: int, authors: int):
    """The synthetic DBLP co-authorship graph for ``seed`` (a repro Graph)."""
    from repro.data.dblp import DBLPConfig, generate_dblp

    return generate_dblp(DBLPConfig(num_authors=authors, seed=seed)).graph


# --------------------------------------------------------------------------- #
# serialization + self-test
# --------------------------------------------------------------------------- #
def serialize(trace: Any) -> bytes:
    """Canonical bytes of a trace: same seed, same bytes."""
    return json.dumps(trace, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest(trace: Any) -> str:
    return hashlib.sha256(serialize(trace)).hexdigest()


def synthetic_traces(seed: int) -> Dict[str, Any]:
    """Every generator's output over the synthetic catalog, by workload."""
    catalog = synthetic_catalog()
    return {
        "explore_zipf": explore_zipf(catalog, seed, 500),
        "mine_cold": mine_cold(catalog, seed, 500),
        "edit_while_read": [reader_working_set(catalog, seed),
                            edit_scripts(catalog, seed, 100)],
        "ingest_open": [ingest_seeds(seed, 5),
                        open_queries(catalog.root.members, seed, 100)],
    }


def self_test() -> List[str]:
    """Problems found; empty when the generators are deterministic."""
    problems = []
    first = {k: digest(v) for k, v in synthetic_traces(DEFAULT_SEED).items()}
    again = {k: digest(v) for k, v in synthetic_traces(DEFAULT_SEED).items()}
    other = {k: digest(v) for k, v in synthetic_traces(DEFAULT_SEED + 1).items()}
    for name, sha in first.items():
        if again[name] != sha:
            problems.append(f"{name}: two generations with one seed differ")
        if other[name] == sha:
            problems.append(f"{name}: a second seed gave the same trace")
        if PINNED_SHA256[name] != sha:
            problems.append(
                f"{name}: sha256 {sha} differs from the pinned "
                f"{PINNED_SHA256[name]}"
            )
    return problems


if __name__ == "__main__":
    found = self_test()
    for problem in found:
        print(problem)
    print("traces self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
