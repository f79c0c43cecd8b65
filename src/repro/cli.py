"""Command-line interface for the GMine reproduction.

Subcommands mirror the workflow of the original demo:

* ``gmine generate`` — create a synthetic DBLP-like dataset and save it,
* ``gmine build`` — build a G-Tree from a graph file and persist it,
* ``gmine stats`` — summarise a graph or a stored G-Tree,
* ``gmine query`` — label query against a stored G-Tree, **or** a one-shot
  GMine Protocol call: ``gmine query <store|dataset> <op> --args '{...}'``
  runs any registered operation through :class:`~repro.api.client.GMineClient`
  (in-process over a store, or remote with ``--url``),
* ``gmine ops`` — list the protocol's operation registry, dataset and
  session scopes alike (``--describe`` dumps the full schema table),
* ``gmine extract`` — run connection-subgraph extraction,
* ``gmine render`` — render a Tomahawk view or a subgraph to SVG,
* ``gmine serve`` — execute a batch of query requests through the
  multi-session service, or with ``--http PORT`` expose the service as the
  GMine Protocol HTTP server (``--auth-token``/``--rate-limit``/
  ``--max-inflight`` for transport guard rails;
  ``--backend inline|process[:N]|sharded[:N]`` for the execution venue),
* ``gmine session`` — create/resume serialisable exploration sessions
  (``gmine session create``, ``gmine session resume``).

Every subcommand works on files so the pieces can be chained in shell
scripts; see ``examples/`` for the Python-API equivalents.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .api import (
    DEFAULT_REGISTRY,
    FrontendPolicy,
    GMineClient,
    serve_http,
)
from .core.builder import GTreeBuildOptions, GTreeBuilder
from .core.engine import GMineEngine
from .data.dblp import DBLPConfig, generate_dblp
from .errors import CLIError, GMineError
from .graph.io import load_graph_auto, write_edge_list, write_json
from .mining.connection_subgraph import ExtractionResult, extract_connection_subgraph, extraction_summary
from .mining.metrics_suite import SubgraphMetrics, compute_subgraph_metrics
from .mining.rwr import RWRResult
from .service import GMineService, QueryResult
from .storage.gtree_store import GTreeStore, save_gtree
from .viz.render import render_subgraph, render_tomahawk_view
from .viz.svg import write_svg


def _load_graph(path: str):
    """Load a graph from ``.json`` or edge-list format based on the suffix."""
    file_path = Path(path)
    if not file_path.exists():
        raise CLIError(f"graph file does not exist: {path}")
    return load_graph_auto(file_path)


def _print_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #
def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a synthetic DBLP-like dataset and write it to disk."""
    config = DBLPConfig(
        num_authors=args.authors,
        num_communities=args.communities,
        sub_communities_per_community=args.sub_communities,
        seed=args.seed,
    )
    dataset = generate_dblp(config)
    output = Path(args.output)
    if output.suffix == ".json":
        write_json(dataset.graph, output)
    else:
        write_edge_list(dataset.graph, output)
    _print_json(
        {
            "authors": dataset.num_authors,
            "collaborations": dataset.num_collaborations,
            "output": str(output),
        }
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    """Build a G-Tree from a graph file and save it to a single-file store."""
    graph = _load_graph(args.graph)
    options = GTreeBuildOptions(fanout=args.fanout, levels=args.levels, seed=args.seed)
    tree = GTreeBuilder(options).build(graph)
    save_gtree(tree, args.output)
    summary = tree.summary()
    summary["store"] = str(args.output)
    _print_json(summary)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Summarise a graph file or a G-Tree store."""
    path = Path(args.path)
    if path.suffix == ".gtree":
        with GTreeStore(path) as store:
            _print_json(store.tree.summary())
        return 0
    graph = _load_graph(args.path)
    metrics = compute_subgraph_metrics(graph, hop_sample_size=args.hop_sample)
    _print_json(metrics.as_dict())
    return 0


def _parse_page(args: argparse.Namespace):
    """Collect --top-k/--offset/--limit into one protocol page block."""
    page = {}
    if getattr(args, "top_k", None) is not None:
        page["top_k"] = args.top_k
    if getattr(args, "offset", None) is not None:
        page["offset"] = args.offset
    if getattr(args, "limit", None) is not None:
        page["limit"] = args.limit
    return page or None


def cmd_query(args: argparse.Namespace) -> int:
    """Label query against a store, or a one-shot protocol operation.

    ``gmine query <store.gtree> <op> --args '{...}'`` runs any registered
    operation in-process over the store; ``gmine query <dataset> <op>
    --url http://host:port`` runs it against a live ``gmine serve --http``
    front-end.  Without an ``<op>`` positional this is the original label
    query (``--store``/``--value``).
    """
    if getattr(args, "op", None):
        return _cmd_query_protocol(args)
    if not args.store or args.value is None:
        raise CLIError(
            "label-query mode needs --store and --value "
            "(or pass <store> <op> positionals for a protocol call)"
        )
    with GTreeStore(args.store) as store:
        engine = GMineEngine.from_store(store)
        attribute = None if args.by_id else args.attribute
        value = int(args.value) if args.by_id and args.value.isdigit() else args.value
        result = engine.label_query(value, attribute=attribute)
        _print_json(
            {
                "vertex": result.vertex,
                "leaf": result.leaf_label,
                "path": result.path_labels,
            }
        )
    return 0


def _cmd_query_protocol(args: argparse.Namespace) -> int:
    """One-shot protocol call: any registered op without writing python."""
    try:
        op_args = json.loads(args.op_args)
    except json.JSONDecodeError as error:
        raise CLIError(f"--args is not valid JSON: {error}")
    if not isinstance(op_args, dict):
        raise CLIError(f"--args must be a JSON object, got: {args.op_args!r}")
    page = _parse_page(args)

    if args.url:
        # remote mode: the target positional names the server-side dataset
        dataset = None if args.target in (None, "-") else args.target
        with GMineClient.http(args.url, auth_token=args.auth_token) as client:
            response = client.query(
                args.op, dataset=dataset, args=op_args, page=page
            )
        _print_json(response.to_dict())
        return 0 if response.ok else 3

    if not args.target:
        raise CLIError("protocol mode needs a <store> positional or --url")
    store_path = Path(args.target)
    if not store_path.exists():
        raise CLIError(
            f"store does not exist: {args.target} (use --url for a remote dataset)"
        )
    service = GMineService(
        cache_capacity=getattr(args, "cache_capacity", 512),
        max_workers=getattr(args, "workers", 4),
    )
    graph = _load_graph(args.graph) if getattr(args, "graph", None) else None
    with service:
        service.register_store(store_path, graph=graph)
        client = GMineClient.in_process(service)
        response = client.query(args.op, args=op_args, page=page)
        _print_json(response.to_dict())
    return 0 if response.ok else 3


def cmd_path(args: argparse.Namespace) -> int:
    """Run a GPath traversal query (the ``query.path`` op).

    ``gmine path <store.gtree> 'community(s0)/members/nodes'`` runs the
    query in-process over a store; ``gmine path <dataset> '...' --url
    http://host:port`` sends it to a running server.  ``--parse-only``
    checks and canonicalizes the query without needing any dataset.
    """
    from .query import parse, unparse

    if args.parse_only:
        # In parse-only mode the single positional is the query itself.
        text = args.path_query or args.target
        if not text:
            raise CLIError("--parse-only needs a query text")
        query = parse(text)
        _print_json({
            "path": text,
            "canonical": unparse(query),
            "steps": len(query.steps),
        })
        return 0
    if not args.path_query:
        raise CLIError("path mode needs <target> and <query> positionals")
    page = _parse_page(args)
    op_args = {"path": args.path_query}
    if args.url:
        dataset = None if args.target in (None, "-") else args.target
        with GMineClient.http(args.url, auth_token=args.auth_token) as client:
            response = client.query(
                "query.path", dataset=dataset, args=op_args, page=page
            )
        _print_json(response.to_dict())
        return 0 if response.ok else 3
    if not args.target:
        raise CLIError("path mode needs a <store> positional or --url")
    store_path = Path(args.target)
    if not store_path.exists():
        raise CLIError(
            f"store does not exist: {args.target} (use --url for a remote dataset)"
        )
    graph = _load_graph(args.graph) if args.graph else None
    with GMineService() as service:
        service.register_store(store_path, graph=graph)
        client = GMineClient.in_process(service)
        response = client.query("query.path", args=op_args, page=page)
        _print_json(response.to_dict())
    return 0 if response.ok else 3


def cmd_ingest(args: argparse.Namespace) -> int:
    """Load a user graph file into a service via ``dataset.ingest``.

    With ``--url`` the file path is sent to a running server (which must
    be able to read it); otherwise an in-process service ingests it and
    reports the registered dataset — pair with ``--store`` to persist
    the built G-Tree for later ``gmine serve``/``gmine path`` runs.
    """
    op_args = {
        "path": args.graph,
        "name": args.name,
        "fanout": args.fanout,
        "levels": args.levels,
        "seed": args.seed,
        "store": args.store,
    }
    if args.url:
        with GMineClient.http(args.url, auth_token=args.auth_token) as client:
            response = client.query("dataset.ingest", args=op_args)
        _print_json(response.to_dict())
        return 0 if response.ok else 3
    if not Path(args.graph).exists():
        raise CLIError(f"graph file does not exist: {args.graph}")
    with GMineService() as service:
        client = GMineClient.in_process(service)
        response = client.query("dataset.ingest", args=op_args)
        _print_json(response.to_dict())
    return 0 if response.ok else 3


def cmd_ops(args: argparse.Namespace) -> int:
    """Dump the Protocol v2 operation registry (names or full schemas)."""
    if args.url:
        with GMineClient.http(args.url, auth_token=args.auth_token) as client:
            table = client.ops()
    else:
        table = DEFAULT_REGISTRY.describe()
    if args.describe:
        _print_json({"protocol": "gmine/1", "ops": table})
    else:
        _print_json(
            {
                "protocol": "gmine/1",
                "ops": [
                    {
                        "name": op["name"],
                        "scope": op["scope"],
                        "cost": op["cost"],
                        "streamable": op.get("streamable", False),
                        "doc": op["doc"],
                    }
                    for op in table
                ],
            }
        )
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    """Apply an edit script to a mutable dataset on a running server."""
    if args.script_file:
        try:
            script = json.loads(Path(args.script_file).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise CLIError(f"cannot read edit script {args.script_file}: {error}")
    else:
        try:
            script = json.loads(args.script)
        except json.JSONDecodeError as error:
            raise CLIError(f"--script is not valid JSON: {error}")
    if isinstance(script, dict):
        script = [script]
    if not isinstance(script, list):
        raise CLIError("edit script must be a JSON list of edit records")
    with GMineClient.http(args.url, auth_token=args.auth_token) as client:
        report = client.apply_dataset(
            args.dataset, script, refresh_rwr=args.refresh_rwr
        )
    _print_json(report)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Long-poll a dataset's change feed, printing each event as JSON."""
    with GMineClient.http(args.url, auth_token=args.auth_token) as client:
        return _watch(client, args)


def _watch(client: GMineClient, args: argparse.Namespace) -> int:
    since = args.since
    polls = 0
    while True:
        reply = client.subscribe(
            dataset=args.dataset,
            since=since,
            timeout=args.timeout,
            community=args.community,
        )
        for event in reply["events"]:
            _print_json(event)
        since = reply["next_since"]
        polls += 1
        if not args.follow:
            if not reply["events"]:
                _print_json(
                    {
                        "dataset": reply["dataset"],
                        "fingerprint": reply["fingerprint"],
                        "next_since": since,
                        "events": 0,
                        "lagged": reply["lagged"],
                    }
                )
            return 0
        if args.max_polls is not None and polls >= args.max_polls:
            return 0


def cmd_extract(args: argparse.Namespace) -> int:
    """Run multi-source connection-subgraph extraction on a graph file."""
    graph = _load_graph(args.graph)
    sources: List = []
    for token in args.sources:
        sources.append(int(token) if token.isdigit() else token)
    result = extract_connection_subgraph(
        graph,
        sources,
        budget=args.budget,
        restart_probability=args.restart,
    )
    summary = extraction_summary(result, graph)
    if args.output:
        write_json(result.subgraph, args.output)
        summary["output"] = args.output
    if args.svg:
        scene = render_subgraph(
            result.subgraph,
            highlight=result.sources,
            node_scores=result.goodness,
            title="connection subgraph",
        )
        write_svg(scene, args.svg)
        summary["svg"] = args.svg
    _print_json(summary)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    """Render a stored G-Tree focus view (or a raw graph) to SVG."""
    path = Path(args.path)
    if path.suffix == ".gtree":
        with GTreeStore(path) as store:
            engine = GMineEngine.from_store(store)
            context = (
                engine.focus_community(args.focus) if args.focus else engine.focus_root()
            )
            scene = render_tomahawk_view(store.tree, context)
            output = write_svg(scene, args.output)
    else:
        graph = _load_graph(args.path)
        scene = render_subgraph(graph, title=path.stem)
        output = write_svg(scene, args.output)
    _print_json({"svg": str(output), "items": scene.visual_item_count()})
    return 0


def _summarise_result(result: QueryResult) -> dict:
    """Flatten one service result to JSON-friendly primitives."""
    summary = {
        "operation": result.request.operation,
        "args": result.request.args,
        "ok": result.ok,
        "cached": result.cached,
    }
    if not result.ok:
        summary["error"] = f"{result.error_type}: {result.error}"
        summary["code"] = result.code
        return summary
    value = result.value
    if isinstance(value, SubgraphMetrics):
        summary["value"] = value.as_dict()
    elif isinstance(value, RWRResult):
        summary["value"] = {
            "iterations": value.iterations,
            "converged": value.converged,
            "top": [[str(node), round(score, 6)] for node, score in value.top(5)],
        }
    elif isinstance(value, ExtractionResult):
        summary["value"] = {
            "nodes": value.num_nodes,
            "sources": [str(source) for source in value.sources],
        }
    elif isinstance(value, list):
        summary["value"] = {"count": len(value)}
    else:
        summary["value"] = str(value)
    return summary


def _open_service(args: argparse.Namespace) -> GMineService:
    """Build a service over the store (and optional graph) named in ``args``."""
    service = GMineService(
        cache_capacity=getattr(args, "cache_capacity", 512),
        cache_ttl=getattr(args, "cache_ttl", None),
        max_workers=getattr(args, "workers", 4),
        backend=getattr(args, "backend", None) or "inline",
        cache_path=getattr(args, "cache_path", None),
    )
    graph_path = getattr(args, "graph", None)
    graph = _load_graph(graph_path) if graph_path else None
    if getattr(args, "mutable", False):
        # Serve the store's content as an in-memory tree with the full
        # graph attached — the combination dataset.apply requires (the
        # store pager itself is read-only).
        if graph is None:
            service.close()
            raise CLIError("--mutable needs --graph (edits repair connectivity)")
        from .storage.gtree_store import load_gtree_fully

        service.register_tree(load_gtree_fully(args.store), graph=graph)
    else:
        service.register_store(args.store, graph=graph, graph_path=graph_path)
    return service


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a batch of requests through the service, or serve it over HTTP."""
    if args.http is not None:
        policy = None
        if (
            args.auth_token is not None
            or args.rate_limit is not None
            or args.max_inflight is not None
        ):
            policy = FrontendPolicy(
                auth_token=args.auth_token,
                rate_limit=args.rate_limit,
                max_inflight=args.max_inflight,
            )
        # Route SIGTERM (docker stop, systemd) through the same graceful
        # path as Ctrl-C: the service close below shuts worker pools down
        # and unlinks the sharded backend's segments, neither of which
        # happens on an abrupt exit.
        import signal

        def _terminate(signum, frame):
            raise KeyboardInterrupt

        with _open_service(args) as service:

            def banner(server) -> None:
                host, port = server.address
                guards = (
                    "" if policy is None
                    else f", policy={dict(policy.describe())}"
                )
                print(
                    f"gmine/1 serving {service.datasets()} on "
                    f"http://{host}:{port} "
                    f"(backend={service.backend.name}{guards}; "
                    f"POST /v1/query, /v1/stream, /v1/batch; GET /v1/ops)",
                    file=sys.stderr,
                )

            previous_sigterm = signal.signal(signal.SIGTERM, _terminate)
            try:
                serve_http(
                    service, host=args.host, port=args.http,
                    policy=policy, ready=banner,
                )
            except KeyboardInterrupt:
                pass  # SIGTERM landed outside serve_http's own handler
            finally:
                signal.signal(signal.SIGTERM, previous_sigterm)
        return 0
    if not args.requests:
        raise CLIError("serve needs --requests FILE (batch mode) or --http PORT")
    requests_path = Path(args.requests)
    if not requests_path.exists():
        raise CLIError(f"requests file does not exist: {args.requests}")
    payload = json.loads(requests_path.read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise CLIError("requests file must hold a JSON list of request objects")
    with _open_service(args) as service:
        results = service.batch(payload)
        _print_json(
            {
                "results": [_summarise_result(result) for result in results],
                "stats": service.stats(),
            }
        )
    return 0 if all(result.ok for result in results) else 3


def cmd_session_create(args: argparse.Namespace) -> int:
    """Create a service session over a store and persist its state to JSON."""
    with _open_service(args) as service:
        session = service.open_session(focus=args.focus, name=args.name)
        state = session.state_dict()
        Path(args.state).write_text(
            json.dumps(state, indent=2, default=str), encoding="utf-8"
        )
        _print_json(
            {
                "session_id": session.session_id,
                "focus": session.engine.focus.label,
                "state": str(args.state),
            }
        )
    return 0


def cmd_session_resume(args: argparse.Namespace) -> int:
    """Restore a persisted session, apply optional actions, re-save its state."""
    state_path = Path(args.state)
    if not state_path.exists():
        raise CLIError(f"session state file does not exist: {args.state}")
    payload = json.loads(state_path.read_text(encoding="utf-8"))
    with _open_service(args) as service:
        session = service.restore_session(payload, dataset=service.datasets()[0])
        output = {
            "session_id": session.session_id,
            "resumed_focus": session.engine.focus.label,
        }
        if args.focus:
            session.recording.focus(args.focus)
        if args.drill_down is not None:
            session.recording.drill_down(args.drill_down)
        if args.drill_up:
            session.recording.drill_up()
        if args.metrics:
            metrics = session.recording.community_metrics()
            output["metrics"] = metrics.as_dict()
            output["cache"] = service.cache.stats.as_dict()
        output["focus"] = session.engine.focus.label
        output["steps"] = len(session.recording.steps)
        state_path.write_text(
            json.dumps(session.state_dict(), indent=2, default=str),
            encoding="utf-8",
        )
        _print_json(output)
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="gmine",
        description="GMine reproduction: scalable, interactive graph visualization and mining",
    )
    subparsers = parser.add_subparsers(dest="command")

    generate = subparsers.add_parser("generate", help="generate a synthetic DBLP-like dataset")
    generate.add_argument("--authors", type=int, default=3000)
    generate.add_argument("--communities", type=int, default=5)
    generate.add_argument("--sub-communities", type=int, default=5)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help=".json or edge-list output path")
    generate.set_defaults(func=cmd_generate)

    build = subparsers.add_parser("build", help="build and store a G-Tree")
    build.add_argument("--graph", required=True, help="input graph (.json or edge list)")
    build.add_argument("--fanout", type=int, default=5)
    build.add_argument("--levels", type=int, default=5)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--output", required=True, help="output .gtree store path")
    build.set_defaults(func=cmd_build)

    stats = subparsers.add_parser("stats", help="summarise a graph or G-Tree store")
    stats.add_argument("path", help="graph file or .gtree store")
    stats.add_argument("--hop-sample", type=int, default=64)
    stats.set_defaults(func=cmd_stats)

    query = subparsers.add_parser(
        "query",
        help="label query against a store, or a one-shot protocol operation",
        description=(
            "Label-query mode: gmine query --store S --value V.  Protocol "
            "mode: gmine query <store.gtree> <op> --args '{...}', or "
            "gmine query <dataset> <op> --url http://host:port for a "
            "running gmine serve --http front-end."
        ),
    )
    query.add_argument(
        "target", nargs="?",
        help="protocol mode: .gtree store path (or dataset name with --url)",
    )
    query.add_argument(
        "op", nargs="?",
        help="protocol mode: registered operation name (see gmine ops)",
    )
    query.add_argument(
        "--args", dest="op_args", default="{}",
        help='protocol mode: operation arguments as a JSON object',
    )
    query.add_argument("--url", help="protocol mode: remote gmine/1 server URL")
    query.add_argument("--auth-token", default=None, dest="auth_token",
                       help="protocol mode: bearer token for a server "
                            "started with --auth-token")
    query.add_argument("--graph", help="protocol mode: optional full graph file")
    query.add_argument("--top-k", type=int, default=None, dest="top_k",
                       help="protocol mode: top-k pagination for score payloads")
    query.add_argument("--offset", type=int, default=None,
                       help="protocol mode: pagination offset for list payloads")
    query.add_argument("--limit", type=int, default=None,
                       help="protocol mode: pagination limit for list payloads")
    query.add_argument("--store", help="label-query mode: .gtree store")
    query.add_argument("--value", help="label-query mode: attribute value")
    query.add_argument("--attribute", default="name")
    query.add_argument("--by-id", action="store_true", help="treat value as a vertex id")
    query.set_defaults(func=cmd_query)

    path_cmd = subparsers.add_parser(
        "path",
        help="run a GPath traversal query (query.path)",
        description=(
            "gmine path <store.gtree> 'community(s0)/members/"
            "rwr(sources=[3])/top(10)' runs a declarative traversal over "
            "the G-Tree; --url targets a running server, --parse-only "
            "checks the query offline."
        ),
    )
    path_cmd.add_argument(
        "target", nargs="?",
        help=".gtree store path (or dataset name with --url)",
    )
    path_cmd.add_argument(
        "path_query", nargs="?",
        help="the GPath query text (see the README grammar table)",
    )
    path_cmd.add_argument("--url", help="remote gmine/1 server URL")
    path_cmd.add_argument("--auth-token", default=None, dest="auth_token",
                          help="bearer token for a server started with "
                               "--auth-token")
    path_cmd.add_argument("--graph", help="optional full graph file")
    path_cmd.add_argument("--offset", type=int, default=None,
                          help="pagination offset for node/score payloads")
    path_cmd.add_argument("--limit", type=int, default=None,
                          help="pagination limit for node/score payloads")
    path_cmd.add_argument(
        "--parse-only", action="store_true", dest="parse_only",
        help="parse + canonicalize the query without executing it",
    )
    path_cmd.set_defaults(func=cmd_path)

    ingest = subparsers.add_parser(
        "ingest",
        help="load a CSV/edge-list/JSON graph as a live dataset",
        description=(
            "gmine ingest --graph edges.csv --name mygraph builds the "
            "G-Tree partition hierarchy through dataset.ingest and "
            "registers the dataset; --url targets a running server, "
            "--store persists the built tree."
        ),
    )
    ingest.add_argument("--graph", required=True,
                        help="graph file (.csv, .json, or edge list)")
    ingest.add_argument("--name", required=True, help="dataset name to register")
    ingest.add_argument("--fanout", type=int, default=5)
    ingest.add_argument("--levels", type=int, default=5)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--store", default=None,
                        help="persist the built G-Tree to this .gtree file")
    ingest.add_argument("--url", help="remote gmine/1 server URL")
    ingest.add_argument("--auth-token", default=None, dest="auth_token",
                        help="bearer token for a server started with "
                             "--auth-token")
    ingest.set_defaults(func=cmd_ingest)

    ops = subparsers.add_parser(
        "ops", help="list the gmine/1 operation registry"
    )
    ops.add_argument(
        "--describe", action="store_true",
        help="dump the full schema table (args, types, defaults, cost classes, "
             "scopes, streaming markers)",
    )
    ops.add_argument("--url", help="read the table from a remote gmine/1 server")
    ops.add_argument("--auth-token", default=None, dest="auth_token",
                     help="bearer token for a remote server started with --auth-token")
    ops.set_defaults(func=cmd_ops)

    apply_cmd = subparsers.add_parser(
        "apply",
        help="apply an edit script to a mutable dataset on a running server",
        description=(
            "gmine apply <dataset> --url http://host:port --script "
            "'[{\"action\": \"remove_edge\", \"u\": 1, \"v\": 2}]' routes "
            "the script through dataset.apply; partition-scoped cache "
            "entries for untouched communities survive the edit."
        ),
    )
    apply_cmd.add_argument("dataset", help="server-side dataset name")
    apply_cmd.add_argument("--url", required=True, help="remote gmine/1 server URL")
    apply_cmd.add_argument("--script", default=None,
                           help="edit script as inline JSON (list of records)")
    apply_cmd.add_argument("--script-file", default=None, dest="script_file",
                           help="read the edit script from a JSON file instead")
    apply_cmd.add_argument("--refresh-rwr", action="store_true", dest="refresh_rwr",
                           help="warm-refresh remembered RWR steady states whose "
                                "community the edit touched")
    apply_cmd.add_argument("--auth-token", default=None, dest="auth_token",
                           help="bearer token for a server started with --auth-token")
    apply_cmd.set_defaults(func=cmd_apply)

    watch = subparsers.add_parser(
        "watch",
        help="long-poll a dataset's change feed on a running server",
        description=(
            "gmine watch <dataset> --url http://host:port prints change "
            "events (new root fingerprint, changed partitions) as JSON; "
            "--follow keeps polling from each reply's next_since."
        ),
    )
    watch.add_argument("dataset", help="server-side dataset name")
    watch.add_argument("--url", required=True, help="remote gmine/1 server URL")
    watch.add_argument("--since", type=int, default=0,
                       help="only events after this sequence number")
    watch.add_argument("--timeout", type=float, default=0.0,
                       help="seconds to wait for an event per poll")
    watch.add_argument("--community", default=None,
                       help="only events touching this community label")
    watch.add_argument("--follow", action="store_true",
                       help="keep polling after each reply")
    watch.add_argument("--max-polls", type=int, default=None, dest="max_polls",
                       help="with --follow: stop after this many polls")
    watch.add_argument("--auth-token", default=None, dest="auth_token",
                       help="bearer token for a server started with --auth-token")
    watch.set_defaults(func=cmd_watch)

    extract = subparsers.add_parser("extract", help="connection subgraph extraction")
    extract.add_argument("--graph", required=True)
    extract.add_argument("--sources", nargs="+", required=True)
    extract.add_argument("--budget", type=int, default=30)
    extract.add_argument("--restart", type=float, default=0.15)
    extract.add_argument("--output", help="write the extracted subgraph as JSON")
    extract.add_argument("--svg", help="render the extracted subgraph to SVG")
    extract.set_defaults(func=cmd_extract)

    render = subparsers.add_parser("render", help="render a view to SVG")
    render.add_argument("path", help="graph file or .gtree store")
    render.add_argument("--focus", help="community label to focus (stores only)")
    render.add_argument("--output", required=True, help="output .svg path")
    render.set_defaults(func=cmd_render)

    serve = subparsers.add_parser(
        "serve",
        help="run a request batch through the service, or serve it over HTTP",
    )
    serve.add_argument("--store", required=True, help=".gtree store to serve")
    serve.add_argument("--graph", help="optional full graph (enables inspect_edge)")
    serve.add_argument(
        "--mutable", action="store_true",
        help="load the store into memory with the full graph attached so "
             "dataset.apply can edit it in place (requires --graph)",
    )
    serve.add_argument(
        "--requests",
        help='JSON list of requests: [{"op": "metrics", "args": {...}}, ...]',
    )
    serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve gmine/1 over HTTP on PORT instead of running a batch file "
             "(one event-loop server: compute runs in its thread pool, "
             "dataset.subscribe long-polls park on the loop)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    serve.add_argument(
        "--auth-token", default=None, dest="auth_token", metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' on every HTTP request "
             "(401 AUTH_REQUIRED otherwise)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, dest="rate_limit", metavar="N",
        help="cap the HTTP request rate at N requests/s via a token bucket "
             "(429 RATE_LIMITED beyond it)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, dest="max_inflight", metavar="N",
        help="shed load beyond N concurrently served HTTP requests "
             "(503 OVERLOADED with Retry-After; /healthz and /readyz are exempt)",
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--backend", default="inline",
        metavar="{inline,process,sharded}[:N]",
        help="execution backend for expensive mining kernels "
             "(inline = the request thread; process = warm multi-core "
             "worker pool; sharded = split each dataset along its G-Tree "
             "communities over N single-shard worker processes; "
             "N overrides --workers)",
    )
    serve.add_argument(
        "--cache-path", default=None, dest="cache_path", metavar="FILE",
        help="persist the result cache to a SQLite file shared across "
             "processes and restarts (default: in-memory LRU)",
    )
    serve.add_argument("--cache-capacity", type=int, default=512, dest="cache_capacity")
    serve.add_argument("--cache-ttl", type=float, default=None, dest="cache_ttl")
    serve.set_defaults(func=cmd_serve)

    session = subparsers.add_parser(
        "session", help="create/resume serialisable exploration sessions"
    )
    session_commands = session.add_subparsers(dest="session_command")

    session_create = session_commands.add_parser(
        "create", help="open a session over a store and save its state"
    )
    session_create.add_argument("--store", required=True)
    session_create.add_argument("--graph", help="optional full graph file")
    session_create.add_argument("--state", required=True, help="output state .json")
    session_create.add_argument("--focus", help="community label to focus first")
    session_create.add_argument("--name", default="cli-session")
    session_create.set_defaults(func=cmd_session_create)

    session_resume = session_commands.add_parser(
        "resume", help="restore a saved session, apply actions, re-save"
    )
    session_resume.add_argument("--store", required=True)
    session_resume.add_argument("--graph", help="optional full graph file")
    session_resume.add_argument("--state", required=True, help="state .json to resume")
    session_resume.add_argument("--focus", help="focus a community after resuming")
    session_resume.add_argument("--drill-down", type=int, default=None, dest="drill_down")
    session_resume.add_argument("--drill-up", action="store_true", dest="drill_up")
    session_resume.add_argument(
        "--metrics", action="store_true",
        help="compute (cached) metrics for the final focus",
    )
    session_resume.set_defaults(func=cmd_session_resume)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None) or not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except GMineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
