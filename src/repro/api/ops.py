"""The default GMine Protocol v2 operation table.

This module binds every operation the service exposes to its
:class:`~repro.api.registry.OpSpec`: the argument schema (types, defaults,
validators, normalizers), the compute handler, and the wire encoder.  The
handlers close over nothing — dataset-scoped handlers receive an
:class:`OpContext` built by the service per computation, session-scoped
handlers a :class:`ServiceOpContext` carrying the owning service — so the
table itself stays importable from anywhere (CLI, docs generation, tests)
without touching an engine.

Protocol v2 folds the **session surface into the registry**: the
lifecycle (``session.create``/``resume``/``describe``/``step``/
``restore``/``close``/``list``) and session-context variants of the
mining ops (``session.metrics``/``session.rwr``/
``session.connection_subgraph`` — the same kernels, defaulting their
scope to the session's focused community) are ordinary :class:`OpSpec`
rows with ``scope="session"``.  Validation, canonicalization, error
taxonomy and docs therefore derive from the table for session traffic
exactly as they do for dataset traffic; the HTTP session routes are thin
compatibility aliases over these ops.

Wire encoders flatten rich result objects (``SubgraphMetrics``,
``RWRResult``, ``ExtractionResult``, connectivity/inspection structures)
into JSON-safe payloads, applying top-k / offset+limit pagination for the
payloads that can grow with the dataset (RWR score vectors, connectivity
edge lists, cross-edge inspections).  Ops whose payloads carry a large
deterministic vector additionally declare a
:class:`~repro.api.registry.StreamSpec`, which lets the ``/v1/stream``
route chunk them into resumable cursor pages.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import functools

from ..core.editing import validate_edit_script
from ..errors import GMineError, InvalidArgumentError
from ..mining.metrics_suite import metrics_signature
from ..mining.rwr import top_scored
from ..query import compile_query, evaluate_path, parse, unparse
from ..query.plan import Const
from .plans import plan_for, run_plan
from .registry import (
    ArgSpec,
    CanonicalizationContext,
    MergeSpec,
    OperationRegistry,
    OpSpec,
    StreamSpec,
)

#: Default number of entries returned for score-vector payloads when the
#: request carries no explicit page; keeps full-graph RWR responses small.
DEFAULT_TOP_K = 50

#: Default page size for list payloads (connectivity edges, cross edges).
DEFAULT_LIMIT = 100


@dataclass
class OpContext:
    """Everything a handler may touch, built by the service per compute."""

    engine: Any  # GMineEngine (kept untyped: the api layer never imports core)
    #: Optional ``(scope, subgraph) -> PreparedGraph | None`` hook supplying
    #: the venue's cached prepared view (parent: the DatasetHandle's cell;
    #: process worker: its warm context).  ``None`` = always convert cold.
    prepared_provider: Optional[Callable[[Any, Any], Any]] = None

    def community_subgraph(self, community):
        """Materialise a community's subgraph; ``None`` means widest scope."""
        engine = self.engine
        if community is None:
            if engine.graph is not None:
                return engine.graph
            return engine.community_subgraph(engine.tree.root.node_id)
        return engine.community_subgraph(community)

    def prepared_for(self, scope, subgraph):
        """The cached prepared view for a materialised scope, if any."""
        if self.prepared_provider is None:
            return None
        return self.prepared_provider(scope, subgraph)

    def target(self, community):
        """Resolve ``None`` to the tree root for tree-addressed operations."""
        return self.engine.tree.root.node_id if community is None else community


@dataclass
class ServiceOpContext:
    """What session-scoped handlers may touch: the owning service.

    Session ops operate on service-level state (the session table, the
    dataset registry, the shared cache), not on one materialised engine —
    so they get the service itself, duck-typed to avoid any import of the
    service package from the api layer.
    """

    service: Any


@dataclass
class DelegatedResult:
    """A session handler's way to forward a dataset dispatch outcome.

    Session-context mining variants delegate the heavy work back into the
    service's dataset dispatch (same backend, same shared cache).  The
    wrapper carries the honest ``cached`` flag across the delegation so
    the wire envelope reports cache hits exactly like a direct call, and
    the scope fingerprint of the dataset snapshot the delegated dispatch
    ran against so stream cursors pin the content that produced them.
    """

    value: Any
    cached: bool = False
    fingerprint: Optional[str] = None
    #: Whether the delegated dispatch served an expired cache entry in
    #: degraded mode (backend failure + stale value still resident).
    degraded: bool = False


# --------------------------------------------------------------------------- #
# shared argument pieces
# --------------------------------------------------------------------------- #
def _resolve_community(value, ctx: CanonicalizationContext):
    return ctx.resolve_community(value)


def _normalize_sources(value, ctx: CanonicalizationContext):
    # The restart vector spreads mass uniformly over the *set* of sources,
    # so order and duplicates never matter; canonicalize them away.
    return sorted(set(value), key=repr)


def _check_sources(value) -> Optional[str]:
    if isinstance(value, (str, bytes)):
        return "must be a list of vertex ids, not a single string"
    if len(value) == 0:
        return "requires at least one source vertex"
    return None


def _check_probability(value) -> Optional[str]:
    if not (0.0 < float(value) < 1.0):
        return f"must be in (0, 1), got {value!r}"
    return None


def _check_positive(value) -> Optional[str]:
    if int(value) < 1:
        return f"must be >= 1, got {value!r}"
    return None


def _check_edit_script(value) -> Optional[str]:
    if isinstance(value, (str, bytes)):
        return "must be a list of edit records, not a string"
    try:
        validate_edit_script(list(value))
    except GMineError as error:
        return str(error)
    return None


def _check_non_negative(value) -> Optional[str]:
    if float(value) < 0:
        return f"must be >= 0, got {value!r}"
    return None


def _community_arg(doc: str) -> ArgSpec:
    return ArgSpec(
        name="community",
        types=(int, str),
        default=None,
        doc=doc,
        normalize=_resolve_community,
    )


def _sources_arg() -> ArgSpec:
    return ArgSpec(
        name="sources",
        types=(list, tuple, set, frozenset),
        doc="query vertices (order and duplicates are canonicalized away)",
        validate=_check_sources,
        normalize=_normalize_sources,
    )


def _restart_arg() -> ArgSpec:
    return ArgSpec(
        name="restart_probability",
        types=(int, float),
        default=0.15,
        doc="probability of teleporting back to the sources each step",
        validate=_check_probability,
        normalize=lambda value, ctx: float(value),
    )


# --------------------------------------------------------------------------- #
# finalizers (op-level canonical restructuring)
# --------------------------------------------------------------------------- #
def _finalize_metrics(canonical: Dict[str, Any], ctx) -> Dict[str, Any]:
    # Collapse every tuning knob into the canonical metrics signature so
    # defaulted and explicit spellings share one cache entry; the session
    # engine's metrics seam builds the very same shape.
    return {
        "community": canonical["community"],
        "metrics": metrics_signature(
            hop_sample_size=canonical["hop_sample_size"],
            pagerank_damping=canonical["pagerank_damping"],
            top_k=canonical["top_k"],
            seed=canonical["seed"],
        ),
    }


def _finalize_inspect_edge(canonical: Dict[str, Any], ctx) -> Dict[str, Any]:
    # The underlying edge set is symmetric; order the pair.
    a, b = canonical["community_a"], canonical["community_b"]
    if a is not None and b is not None and repr(b) < repr(a):
        canonical["community_a"], canonical["community_b"] = b, a
    return canonical


def _check_path(value) -> Optional[str]:
    if not value.strip():
        return "must be a non-empty GPath query"
    return None


def _normalize_path(value, ctx: CanonicalizationContext):
    # Parse + unparse: one canonical spelling per query, so every way of
    # writing the same traversal shares one cache entry.  A QueryParseError
    # raised here propagates unwrapped, carrying its source span.
    return unparse(parse(value))


def _finalize_path(canonical: Dict[str, Any], ctx) -> Dict[str, Any]:
    # Compile against the dataset's tree: tree navigation is folded into
    # the plan, and queries that stay inside one community's subtree get
    # their ``community`` constant-folded out — which keys the cache entry
    # by that partition's Merkle sub-fingerprint, exactly like any other
    # community-scoped op.
    compiled = compile_query(parse(canonical["path"]), ctx.tree)
    finalized = {
        "path": canonical["path"],
        "community": compiled.community,
        "plan": compiled.plan,
    }
    # Multi-community scopes (``community(a, b)/...``) record the touched
    # partition labels so a sharded backend can route the plan point-to-point
    # when one shard owns them all.  Added only when present, so cache keys
    # for every single-community query are unchanged.
    if compiled.communities:
        finalized["communities"] = compiled.communities
    return finalized


# --------------------------------------------------------------------------- #
# planners + handlers (canonical args -> rich result)
# --------------------------------------------------------------------------- #
def _make_planner(operation: str, kernel: str):
    """``canonical args -> ComputePlan`` for one kernel-backed op."""
    return functools.partial(plan_for, operation, kernel)


def _run_planned(operation: str, ctx: OpContext, args: Mapping[str, Any]):
    """In-parent execution of a plannable op (kernel name == op name here).

    Handlers and process workers run the *same* plan through
    :func:`~repro.api.plans.run_plan`; only the scope resolver differs
    (live engine here, pre-loaded store there), so every backend produces
    identical results by construction.
    """
    plan = plan_for(operation, operation, args)
    return run_plan(plan, ctx.community_subgraph, ctx.prepared_for)


def _run_metrics(ctx: OpContext, args: Mapping[str, Any]):
    return _run_planned("metrics", ctx, args)


def _run_rwr(ctx: OpContext, args: Mapping[str, Any]):
    return _run_planned("rwr", ctx, args)


def _run_connection_subgraph(ctx: OpContext, args: Mapping[str, Any]):
    return _run_planned("connection_subgraph", ctx, args)


def _run_path(ctx: OpContext, args: Mapping[str, Any]):
    plan = args["plan"]
    if isinstance(plan, Const):
        # Tree-level queries fold to a constant at compile time; they can
        # be answered without materialising any scope subgraph, so a
        # store-only dataset (no graph attached) still serves them.
        return evaluate_path(None, plan)
    return _run_planned_kernel("query.path", "path", ctx, args)


def _run_planned_kernel(operation: str, kernel: str, ctx: OpContext,
                        args: Mapping[str, Any]):
    plan = plan_for(operation, kernel, args)
    return run_plan(plan, ctx.community_subgraph, ctx.prepared_for)


def _run_connectivity(ctx: OpContext, args: Mapping[str, Any]):
    return ctx.engine.connectivity_edges(ctx.target(args["community"]))


def _run_inspect_edge(ctx: OpContext, args: Mapping[str, Any]):
    return ctx.engine.inspect_connectivity_edge(
        args["community_a"], args["community_b"]
    )


# --------------------------------------------------------------------------- #
# session-scoped handlers (Protocol v2)
# --------------------------------------------------------------------------- #
def encode_step_value(value: Any) -> Any:
    """Flatten one session-step result to JSON-safe primitives."""
    if value is None:
        return None
    if hasattr(value, "visible_nodes"):  # TomahawkContext
        return {
            "focus": value.focus.label,
            "children": [node.label for node in value.children],
            "siblings": [node.label for node in value.siblings],
            "ancestors": [node.label for node in value.ancestors],
            "size": value.size,
        }
    if hasattr(value, "as_dict"):  # SubgraphMetrics
        return value.as_dict()
    if hasattr(value, "leaf_label"):  # LabelQueryResult
        return {
            "vertex": value.vertex,
            "leaf": value.leaf_label,
            "path": value.path_labels,
        }
    if hasattr(value, "edges") and hasattr(value, "community_a"):
        return {
            "community_a": value.community_a,
            "community_b": value.community_b,
            "num_edges": len(value.edges),
            "edges": sorted(([u, v, w] for u, v, w in value.edges), key=repr),
        }
    if hasattr(value, "community_label"):  # Bookmark
        return {"name": value.name, "community": value.community_label}
    return str(value)


def _run_session_create(ctx: ServiceOpContext, args: Mapping[str, Any]):
    session = ctx.service.open_session(
        dataset=args["dataset"],
        ttl=args["ttl"],
        focus=args["focus"],
        name=args["name"],
    )
    return {"session": session.info()}


def _run_session_restore(ctx: ServiceOpContext, args: Mapping[str, Any]):
    session = ctx.service.restore_session(
        dict(args["state"]), dataset=args["dataset"]
    )
    return {"session": session.info()}


def _run_session_resume(ctx: ServiceOpContext, args: Mapping[str, Any]):
    return {"session": ctx.service.resume_session(args["session_id"]).info()}


def _run_session_describe(ctx: ServiceOpContext, args: Mapping[str, Any]):
    # Peek, don't resume: describing a session is read-only and must not
    # refresh its TTL or touch counter — that idempotence is also what
    # makes the payload byte-identical across repeated calls/transports.
    session = ctx.service.peek_session(args["session_id"])
    return {"session": session.info(), "state": session.state_dict()}


def _run_session_step(ctx: ServiceOpContext, args: Mapping[str, Any]):
    session = ctx.service.resume_session(args["session_id"])
    value = session.recording.apply_step(args["action"], dict(args["args"]))
    return {
        "session": session.info(),
        "action": args["action"],
        "result": encode_step_value(value),
    }


def _run_session_close(ctx: ServiceOpContext, args: Mapping[str, Any]):
    ctx.service.close_session(args["session_id"])
    return {"closed": args["session_id"]}


def _run_session_list(ctx: ServiceOpContext, args: Mapping[str, Any]):
    return {"sessions": ctx.service.sessions.active_ids()}


# --------------------------------------------------------------------------- #
# service-scoped handlers: the dataset write path + change feeds
# --------------------------------------------------------------------------- #
def _run_dataset_apply(ctx: ServiceOpContext, args: Mapping[str, Any]):
    return ctx.service.apply_dataset(
        args["dataset"],
        [dict(edit) for edit in args["script"]],
        refresh_rwr=args["refresh_rwr"],
    )


def _run_dataset_ingest(ctx: ServiceOpContext, args: Mapping[str, Any]):
    return ctx.service.ingest_dataset(
        name=args["name"],
        path=args["path"],
        fanout=args["fanout"],
        levels=args["levels"],
        seed=args["seed"],
        store=args["store"],
    )


def _run_dataset_subscribe(ctx: ServiceOpContext, args: Mapping[str, Any]):
    return ctx.service.subscribe(
        dataset=args["dataset"],
        since=args["since"],
        timeout=args["timeout"],
        community=args["community"],
    )


def _session_mining_handler(target_op: str):
    """Delegate a session-context variant to its dataset op.

    The session supplies the dataset and — when the caller does not name a
    ``community`` explicitly — the scope: its currently focused community.
    The delegation runs through the service's ordinary dataset dispatch,
    so the kernel executes on the configured backend and shares cache
    entries with direct calls for the same community by construction.
    """

    def run(ctx: ServiceOpContext, args: Mapping[str, Any]):
        args = dict(args)
        session = ctx.service.resume_session(args.pop("session_id"))
        if args.get("community") is None:
            args["community"] = session.engine.focus.label
        value, cached, degraded, fingerprint = ctx.service.dispatch_in_session(
            session, target_op, args
        )
        return DelegatedResult(value, cached, fingerprint, degraded)

    return run


# --------------------------------------------------------------------------- #
# pagination + encoders (rich result -> JSON payload)
# --------------------------------------------------------------------------- #
def validate_page(page: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Check a request's ``page`` block; returns a plain dict (may be empty)."""
    if page is None:
        return {}
    if not isinstance(page, Mapping):
        raise InvalidArgumentError(f"page must be an object, got {page!r}")
    allowed = {"top_k", "offset", "limit"}
    unknown = sorted(set(page) - allowed)
    if unknown:
        raise InvalidArgumentError(
            f"page got unknown key(s) {unknown}; accepts {sorted(allowed)}"
        )
    out: Dict[str, Any] = {}
    for key in allowed:
        if key in page:
            value = page[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidArgumentError(
                    f"page.{key} must be a non-negative integer, got {value!r}"
                )
            out[key] = value
    return out


def _slice(items: List, page: Mapping[str, Any], default_limit: int):
    """offset+limit pagination over a fully-ordered list."""
    offset = page.get("offset", 0)
    limit = page.get("limit", default_limit)
    window = items[offset : offset + limit]
    meta = {"offset": offset, "limit": limit, "total": len(items)}
    return window, meta


def _encode_metrics(value, page: Mapping[str, Any]):
    return value.as_dict(), None


def _encode_rwr(value, page: Mapping[str, Any]):
    top_k = page.get("top_k", page.get("limit", DEFAULT_TOP_K))
    payload = {
        "iterations": value.iterations,
        "converged": value.converged,
        "restart_probability": value.restart_probability,
        "num_scores": len(value.scores),
        "scores": [[node, score] for node, score in value.top(top_k)],
    }
    return payload, {"top_k": top_k, "total": len(value.scores)}


def _encode_connection_subgraph(value, page: Mapping[str, Any]):
    top_k = page.get("top_k", DEFAULT_TOP_K)
    subgraph = value.subgraph
    payload = {
        "nodes": sorted(subgraph.nodes(), key=repr),
        "edges": sorted(
            ([u, v, w] for u, v, w in subgraph.edges()), key=repr
        ),
        "sources": list(value.sources),
        "budget": value.budget,
        "num_nodes": value.num_nodes,
        "num_paths": len(value.paths),
        "goodness": [
            [node, score] for node, score in top_scored(value.goodness, top_k, repr)
        ],
    }
    return payload, None


def _encode_path(value, page: Mapping[str, Any]):
    """Flatten a :class:`~repro.query.evaluate.PathResult` by kind.

    ``items`` is always present (the stream field), even for count/metrics
    results where it stays empty.
    """
    payload: Dict[str, Any] = {
        "kind": value.kind,
        "count": value.count,
        "items": [],
    }
    meta = None
    if value.kind == "nodes":
        window, meta = _slice(list(value.items), page, DEFAULT_LIMIT)
        payload["items"] = window
    elif value.kind == "scores":
        rows = [[node, score] for node, score in value.scores]
        window, meta = _slice(rows, page, DEFAULT_LIMIT)
        payload["items"] = window
        payload["rwr"] = {
            "iterations": value.iterations,
            "converged": value.converged,
            "restart_probability": value.restart_probability,
        }
    elif value.kind == "metrics":
        payload["metrics"] = value.metrics
    return payload, meta


def _encode_connectivity(value, page: Mapping[str, Any]):
    rows = sorted(
        (
            {
                "source": edge.source,
                "target": edge.target,
                "edge_count": edge.edge_count,
                "total_weight": edge.total_weight,
            }
            for edge in value
        ),
        key=lambda row: (row["source"], row["target"]),
    )
    window, meta = _slice(rows, page, DEFAULT_LIMIT)
    return {"edges": window}, meta


def _encode_inspect_edge(value, page: Mapping[str, Any]):
    edges = sorted(([u, v, w] for u, v, w in value.edges), key=repr)
    window, meta = _slice(edges, page, DEFAULT_LIMIT)
    payload = {
        "community_a": value.community_a,
        "community_b": value.community_b,
        "num_edges": len(value.edges),
        "edges": window,
    }
    return payload, meta


def encode_result(spec: OpSpec, value: Any, page: Optional[Mapping[str, Any]] = None):
    """Flatten one rich result via its op's encoder.

    Returns ``(payload, page_meta)`` where ``page_meta`` is ``None`` for
    unpaginated payloads.
    """
    checked = validate_page(page)
    if spec.encoder is None:
        return value, None
    return spec.encoder(value, checked)


# --------------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------------- #
def _build_dataset_specs() -> List[OpSpec]:
    """Every dataset-scoped operation, fully declared."""
    return [
            OpSpec(
                name="metrics",
                doc="the paper's five-metric suite for one community subgraph",
                cost="expensive",
                args=(
                    _community_arg("community to measure (None = whole scope)"),
                    ArgSpec(
                        "hop_sample_size", (int,), default=None,
                        doc="BFS sources sampled for hop metrics (None = exact)",
                        validate=_check_positive,
                    ),
                    ArgSpec(
                        "pagerank_damping", (int, float), default=0.85,
                        doc="PageRank damping factor",
                        validate=_check_probability,
                        normalize=lambda value, ctx: float(value),
                    ),
                    ArgSpec(
                        "top_k", (int,), default=10,
                        doc="how many top-PageRank vertices to report",
                        validate=_check_positive,
                    ),
                    ArgSpec(
                        "seed", (int,), default=0, allow_none=True,
                        doc="hop-sampling RNG seed (None = nondeterministic)",
                    ),
                ),
                finalize=_finalize_metrics,
                handler=_run_metrics,
                encoder=_encode_metrics,
                planner=_make_planner("metrics", "metrics"),
                # Pure function of the community's induced subgraph.
                partition_arg="community",
                merge=MergeSpec(
                    "route",
                    doc="community-scoped metrics route whole to the owning "
                        "shard; cross-shard scopes run at the parent",
                ),
            ),
            OpSpec(
                name="rwr",
                doc="random-walk-with-restart steady state over a community",
                cost="expensive",
                args=(
                    _sources_arg(),
                    _community_arg("community scope (None = full graph)"),
                    _restart_arg(),
                    ArgSpec(
                        "solver", (str,), default="power",
                        doc="RWR solver",
                        choices=("power", "exact"),
                    ),
                ),
                handler=_run_rwr,
                encoder=_encode_rwr,
                planner=_make_planner("rwr", "rwr"),
                stream=StreamSpec(
                    field="scores",
                    page_key="top_k",
                    total=lambda value: len(value.scores),
                ),
                # The walk never leaves the community's induced subgraph.
                partition_arg="community",
                merge=MergeSpec(
                    "scatter",
                    doc="scoped walks route to the owning shard; whole-graph "
                        "power iteration scatters the transition matvec "
                        "across shard row slices and gathers bit-identically "
                        "at the parent",
                ),
            ),
            OpSpec(
                name="connection_subgraph",
                doc="multi-source connection-subgraph extraction (CePS)",
                cost="expensive",
                args=(
                    _sources_arg(),
                    _community_arg("community scope (None = full graph)"),
                    ArgSpec(
                        "budget", (int,), default=30,
                        doc="maximum vertices in the extract",
                        validate=_check_positive,
                    ),
                    _restart_arg(),
                ),
                handler=_run_connection_subgraph,
                encoder=_encode_connection_subgraph,
                planner=_make_planner(
                    "connection_subgraph", "connection_subgraph"
                ),
                stream=StreamSpec(
                    field="goodness",
                    page_key="top_k",
                    total=lambda value: len(value.goodness),
                ),
                # CePS extracts within the community's induced subgraph.
                partition_arg="community",
                merge=MergeSpec(
                    "route",
                    doc="community-scoped extraction routes whole to the "
                        "owning shard",
                ),
            ),
            OpSpec(
                name="query.path",
                doc="run a GPath traversal (axes over the G-Tree composed "
                    "with hops/edge filters and rwr/metrics terminals), "
                    "compiled to a fused compute plan",
                cost="expensive",
                args=(
                    ArgSpec(
                        "path", (str,),
                        doc="the GPath query text, e.g. "
                            "community(s0)/members/hops(2)/"
                            "rwr(sources=[3])/top(10)",
                        validate=_check_path,
                        normalize=_normalize_path,
                    ),
                ),
                finalize=_finalize_path,
                handler=_run_path,
                encoder=_encode_path,
                planner=_make_planner("query.path", "path"),
                stream=StreamSpec(
                    field="items",
                    page_key="limit",
                    total=lambda value: value.stream_total,
                ),
                # The compiler constant-folds queries that stay inside one
                # community's subtree to that community, so their cache
                # entries ride the partition Merkle sub-fingerprints.
                partition_arg="community",
                merge=MergeSpec(
                    "route",
                    doc="single-community plans (including multi-community "
                        "scopes one shard owns) route point-to-point; "
                        "everything else runs at the parent",
                ),
            ),
            OpSpec(
                name="connectivity",
                doc="connectivity edges among a community's children",
                cost="cheap",
                args=(
                    _community_arg("parent community (None = tree root)"),
                ),
                handler=_run_connectivity,
                encoder=_encode_connectivity,
                stream=StreamSpec(
                    field="edges",
                    page_key="limit",
                    total=lambda value: len(value),
                ),
                # connectivity_among_children is hashed into the parent
                # community's own Merkle sub-fingerprint.
                partition_arg="community",
            ),
            OpSpec(
                name="inspect_edge",
                doc="original graph edges behind one connectivity edge",
                cost="cheap",
                args=(
                    ArgSpec(
                        "community_a", (int, str),
                        doc="first community (id or label)",
                        normalize=_resolve_community,
                    ),
                    ArgSpec(
                        "community_b", (int, str),
                        doc="second community (id or label)",
                        normalize=_resolve_community,
                    ),
                ),
                finalize=_finalize_inspect_edge,
                handler=_run_inspect_edge,
                encoder=_encode_inspect_edge,
                stream=StreamSpec(
                    field="edges",
                    page_key="limit",
                    total=lambda value: len(value.edges),
                ),
            ),
    ]


def _session_id_arg() -> ArgSpec:
    return ArgSpec(
        name="session_id", types=(str,),
        doc="id of a live session (create one with session.create)",
    )


def _session_variant(spec: OpSpec) -> OpSpec:
    """The session-context twin of one dataset-scoped mining op.

    Same argument schema plus a leading ``session_id``; the ``community``
    argument defaults to the session's focused community instead of the
    widest scope.  Not cacheable at the envelope level — the result
    depends on live session state — but the delegated dataset dispatch
    underneath still serves and feeds the shared result cache.
    """
    args = tuple(
        dataclasses.replace(
            arg, doc="community scope (None = the session's focused community)"
        )
        if arg.name == "community"
        else arg
        for arg in spec.args
    )
    return OpSpec(
        name=f"session.{spec.name}",
        doc=f"{spec.doc}, in a session's context (focus = default scope)",
        cacheable=False,
        cost=spec.cost,
        scope="session",
        args=(_session_id_arg(),) + args,
        handler=_session_mining_handler(spec.name),
        encoder=spec.encoder,
        # Delegated results stream exactly like their dataset-scoped twins:
        # same stream field, and cursors keyed by the same partition
        # sub-fingerprint (the session's focus fills a defaulted community).
        stream=spec.stream,
        partition_arg=spec.partition_arg,
    )


def _build_session_specs(dataset_specs: List[OpSpec]) -> List[OpSpec]:
    """The session surface: lifecycle ops + session-context mining variants."""
    by_name = {spec.name: spec for spec in dataset_specs}
    lifecycle = [
        OpSpec(
            name="session.create",
            doc="open a fresh exploration session over a dataset",
            cacheable=False,
            cost="cheap",
            scope="session",
            args=(
                ArgSpec("dataset", (str,), default=None,
                        doc="dataset to explore (None = the only/default one)"),
                ArgSpec("ttl", (int, float), default=None,
                        doc="inactivity expiry in seconds (None = server default)"),
                ArgSpec("focus", (int, str), default=None,
                        doc="community to focus first (id or label)"),
                ArgSpec("name", (str,), default="session",
                        doc="human-readable session name"),
            ),
            handler=_run_session_create,
        ),
        OpSpec(
            name="session.restore",
            doc="recreate a session from a serialised state payload",
            cacheable=False,
            cost="cheap",
            scope="session",
            args=(
                ArgSpec("state", (dict,),
                        doc="a session state_dict payload (session.describe)"),
                ArgSpec("dataset", (str,), default=None,
                        doc="dataset override (None = the state's dataset)"),
            ),
            handler=_run_session_restore,
        ),
        OpSpec(
            name="session.resume",
            doc="touch a live session, refreshing its TTL",
            cacheable=False,
            cost="cheap",
            scope="session",
            args=(_session_id_arg(),),
            handler=_run_session_resume,
        ),
        OpSpec(
            name="session.describe",
            doc="a session's summary and serialisable state (read-only peek)",
            cacheable=False,
            cost="cheap",
            scope="session",
            args=(_session_id_arg(),),
            handler=_run_session_describe,
        ),
        OpSpec(
            name="session.step",
            doc="apply one exploration step (focus, drill, query, bookmark)",
            cacheable=False,
            cost="cheap",
            scope="session",
            args=(
                _session_id_arg(),
                ArgSpec("action", (str,),
                        doc="step action name (see ExplorationSession.step_actions)"),
                ArgSpec("args", (dict,), default=None,
                        doc="arguments of the step action",
                        normalize=lambda value, ctx: {} if value is None else dict(value)),
            ),
            handler=_run_session_step,
        ),
        OpSpec(
            name="session.close",
            doc="end a session explicitly (idempotent)",
            cacheable=False,
            cost="cheap",
            scope="session",
            args=(_session_id_arg(),),
            handler=_run_session_close,
        ),
        OpSpec(
            name="session.list",
            doc="ids of every live session",
            cacheable=False,
            cost="cheap",
            scope="session",
            args=(),
            handler=_run_session_list,
        ),
    ]
    variants = [
        _session_variant(by_name[name])
        for name in ("metrics", "rwr", "connection_subgraph")
    ]
    return lifecycle + variants


def _build_service_specs() -> List[OpSpec]:
    """The mutable-dataset surface: the write path and its change feed."""
    return [
        OpSpec(
            name="dataset.apply",
            doc="apply a batched edit script to a mutable dataset "
                "(copy-on-write; partition-scoped cache invalidation)",
            cacheable=False,
            cost="expensive",
            scope="service",
            args=(
                ArgSpec("dataset", (str,), default=None,
                        doc="dataset to edit (None = the only/default one)"),
                ArgSpec(
                    "script", (list, tuple),
                    doc="edit records: {'action': add_node|remove_node|"
                        "add_edge|remove_edge|update_node_attrs, ...}",
                    validate=_check_edit_script,
                    normalize=lambda value, ctx: [dict(edit) for edit in value],
                ),
                ArgSpec(
                    "refresh_rwr", (bool,), default=False,
                    doc="warm-refresh remembered RWR steady states onto the "
                        "edited graph (within-tolerance; cold solve is the "
                        "default and stays byte-exact)",
                ),
            ),
            handler=_run_dataset_apply,
        ),
        OpSpec(
            name="dataset.ingest",
            doc="load a user edge-list/CSV/JSON graph, build its G-Tree "
                "partition hierarchy, and register it as a live dataset",
            cacheable=False,
            cost="expensive",
            scope="service",
            args=(
                ArgSpec("path", (str,),
                        doc="graph file to load (.csv, .json, or "
                            "whitespace edge list)"),
                ArgSpec("name", (str,),
                        doc="dataset name to register (must be unused)"),
                ArgSpec(
                    "fanout", (int,), default=5,
                    doc="G-Tree fanout (communities per level)",
                    validate=lambda value: "must be >= 2"
                    if int(value) < 2 else None,
                ),
                ArgSpec(
                    "levels", (int,), default=5,
                    doc="maximum G-Tree depth",
                    validate=_check_positive,
                ),
                ArgSpec("seed", (int,), default=0,
                        doc="partitioner RNG seed (fixed = reproducible tree)"),
                ArgSpec("store", (str,), default=None,
                        doc="persist the built G-Tree to this store file and "
                            "serve from it (None = keep in memory)"),
            ),
            handler=_run_dataset_ingest,
        ),
        OpSpec(
            name="dataset.subscribe",
            doc="long-poll a dataset's change feed for push invalidations "
                "(new root + changed partition sub-fingerprints)",
            cacheable=False,
            cost="cheap",
            scope="service",
            args=(
                ArgSpec("dataset", (str,), default=None,
                        doc="dataset to watch (None = the only/default one)"),
                ArgSpec(
                    "since", (int,), default=0,
                    doc="last event sequence number already seen "
                        "(0 = only future events)",
                    validate=_check_non_negative,
                ),
                ArgSpec(
                    "timeout", (int, float), default=0.0,
                    doc="seconds to long-poll when no event is pending "
                        "(0 = return immediately; server-capped)",
                    validate=_check_non_negative,
                    normalize=lambda value, ctx: float(value),
                ),
                ArgSpec(
                    "community", (int, str), default=None,
                    doc="only deliver events touching this community "
                        "(None = any change)",
                    normalize=_resolve_community,
                ),
            ),
            handler=_run_dataset_subscribe,
        ),
    ]


def build_default_registry() -> OperationRegistry:
    """Every operation of GMine Protocol v2: dataset, session + service scope."""
    dataset_specs = _build_dataset_specs()
    return OperationRegistry(
        dataset_specs
        + _build_session_specs(dataset_specs)
        + _build_service_specs()
    )


#: The shared default table; services copy nothing — specs are frozen.
DEFAULT_REGISTRY = build_default_registry()
