"""Serve GMine over HTTP on every execution backend and prove parity.

This is the ``make serve-smoke`` gate.  It builds a small DBLP dataset,
persists it (store + graph file, so process workers can reopen it by
path), then **once per execution backend** — inline, process —
starts the GMine Protocol HTTP server on an ephemeral port, fires a
batch of mixed queries twice (cold, then warm), and asserts

* every response is a structured ``gmine/1`` envelope,
* the warm pass is answered entirely from the shared result cache
  (cache-hit accounting via ``/v1/stats``),
* the in-process transport returns byte-identical payloads to HTTP,
* session navigation works end to end over the wire,
* failures (expired sessions, bad arguments) surface as typed,
  machine-readable error codes — never raw tracebacks, and
* **every backend produces byte-identical response payloads** — the
  execution-engine-v2 guarantee that *where* a kernel runs (calling
  thread or warm worker process) never changes *what* the caller sees.

After the per-backend loop it smokes the **Protocol v2 surface**: a
streamed cursor query whose reassembly is byte-identical to the one-shot
payload (and resumes from a second client), session ops dispatched purely
through the registry, and a bearer-token + rate-limited server returning
structured ``AUTH_REQUIRED``/``RATE_LIMITED`` envelopes.

It then smokes the **mutable-dataset surface** end to end over the
wire with two clients of one server: a watcher parks a ``POST
/v1/subscribe`` long-poll, an editor applies an edit script, the watcher
wakes with the change event, whose fingerprint matches both the apply
report and ``GET /v1/datasets``; a watcher filtered to an untouched
community sees no events at all.

Finally it smokes the **GPath surface**: a fused ``rwr(...)/top(5)``
path query byte-identical across the HTTP and in-process transports and
equal to the direct ``rwr`` slice, parse errors as structured
``QUERY_PARSE_ERROR`` envelopes with source spans, and a CSV ingested
through ``dataset.ingest`` by one client immediately answering another
client's path queries.

Run it:  ``PYTHONPATH=src python examples/http_service.py [backend ...]``
(default: inline and process).
"""

import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api import FrontendPolicy, GMineClient, GMineHTTPServer, dumps
from repro.core.builder import build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.errors import (
    AuthRequiredError,
    InvalidArgumentError,
    RateLimitedError,
    SessionNotFoundError,
)
from repro.graph.io import write_json
from repro.service import GMineService
from repro.storage.gtree_store import save_gtree

#: Execution backends the per-backend smoke loop covers.
SMOKE_BACKENDS = ("inline", "process")


def build_dataset(workdir: Path):
    """Generate the smoke dataset and persist store + graph files."""
    dataset = generate_dblp(DBLPConfig(num_authors=600, seed=11))
    tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=11)
    store_path = workdir / "smoke.gtree"
    graph_path = workdir / "smoke.json"
    save_gtree(tree, store_path)
    write_json(dataset.graph, graph_path)
    return tree, store_path, graph_path


def smoke_one_backend(backend, tree, store_path, graph_path):
    """Run the full HTTP smoke on one backend; returns the parity bytes."""
    leaves = sorted(tree.leaves(), key=lambda node: -node.size)[:4]
    hot = leaves[0]

    with GMineService(max_workers=4, backend=backend) as service:
        service.register_store(
            store_path, name="dblp", graph_path=graph_path
        )
        with GMineHTTPServer(service, port=0) as server:
            print(f"[{backend}] serving gmine/1 on {server.url}")
            remote = GMineClient.http(server.url)
            local = GMineClient.in_process(service)

            # ---------------------------------------------------------- #
            # a mixed batch: metrics, RWR, extraction, connectivity
            # ---------------------------------------------------------- #
            requests = (
                [{"op": "metrics", "args": {"community": leaf.label}}
                 for leaf in leaves]
                + [{"op": "rwr",
                    "args": {"sources": list(hot.members[:2]),
                             "community": hot.label}}]
                + [{"op": "connection_subgraph",
                    "args": {"sources": list(hot.members[:2]),
                             "community": hot.label, "budget": 12}}]
                + [{"op": "connectivity", "args": {}}]
            )

            cold = remote.batch(requests)
            assert all(reply.ok for reply in cold), "cold batch must succeed"
            assert not any(reply.cached for reply in cold), "cold = all computed"

            warm = remote.batch(requests)
            assert all(reply.ok and reply.cached for reply in warm), (
                "warm batch must be answered from the shared cache"
            )

            stats = remote.stats()
            computed = stats["computed"]
            assert computed.get("metrics") == len(leaves), computed
            assert computed.get("rwr") == 1, computed
            assert stats["backend"]["name"] == backend, stats["backend"]
            if backend == "process":
                assert stats["backend"]["shipped"] >= 6, (
                    "process backend must ship the expensive kernels",
                    stats["backend"],
                )
            print(f"[{backend}] cache accounting ok: {stats['cache']}")
            print(f"[{backend}] backend accounting ok: {stats['backend']}")

            # ---------------------------------------------------------- #
            # transport parity: same bytes in-process and over the socket
            # ---------------------------------------------------------- #
            args = {"sources": list(hot.members[:2]), "community": hot.label}
            assert local.query_raw("rwr", args=args) == remote.query_raw(
                "rwr", args=args
            ), "transports must be byte-identical"
            print(f"[{backend}] transport parity ok (in-process == HTTP)")

            # ---------------------------------------------------------- #
            # sessions over the wire
            # ---------------------------------------------------------- #
            info = remote.create_session(name="walker", focus=hot.label)
            step = remote.session_step(info["session_id"], "community_metrics")
            assert step["result"]["num_weak_components"] >= 1
            state = remote.session_state(info["session_id"])
            remote.close_session(info["session_id"])
            revived = remote.restore_session(state)
            assert revived["focus"] == hot.label
            print(f"[{backend}] session round-trip ok: {info['session_id']} "
                  f"-> {revived['session_id']}")

            # ---------------------------------------------------------- #
            # structured failures: typed errors, never tracebacks
            # ---------------------------------------------------------- #
            try:
                remote.resume_session("never-issued")
                raise AssertionError("unknown session must raise")
            except SessionNotFoundError as error:
                print(f"[{backend}] unknown session -> "
                      f"SessionNotFoundError: {error}")
            try:
                remote.call("rwr", sources=[])
                raise AssertionError("empty sources must raise")
            except InvalidArgumentError as error:
                print(f"[{backend}] bad arguments -> "
                      f"InvalidArgumentError: {error}")

            # the parity probe: canonical bytes for the whole request set
            return [
                remote.query_raw(item["op"], args=item["args"])
                for item in requests
            ]


def smoke_protocol_v2(tree, store_path, graph_path):
    """Streamed cursors, registry sessions, transport guard rails."""
    hot = max(tree.leaves(), key=lambda node: node.size)
    args = {"sources": list(hot.members[:2]), "community": hot.label}

    with GMineService(max_workers=4) as service:
        service.register_store(store_path, name="dblp", graph_path=graph_path)
        with GMineHTTPServer(service, port=0) as server:
            client = GMineClient.http(server.url)
            second = GMineClient.http(server.url)
            print(f"[v2] serving on {server.url}")

            # ------------------------------------------------------------ #
            # one streamed query: chunked cursors reassemble
            # byte-identically to the one-shot payload
            # ------------------------------------------------------------ #
            client.query("rwr", args=args).unwrap()  # warm: stable cached flags
            chunks = list(client.stream("rwr", args=args, chunk_size=64))
            assert all(chunk.ok for chunk in chunks), "stream must succeed"
            assert len(chunks) > 1, "the full vector must actually chunk"
            assert chunks[-1].next_cursor is None
            merged = client.stream_result("rwr", args=args, chunk_size=64)
            total = chunks[0].page["total"]
            one_shot = second.query(
                "rwr", args=args, page={"top_k": total}
            ).unwrap()
            assert dumps(merged) == dumps(one_shot), (
                "streamed reassembly must equal the one-shot payload"
            )
            print(f"[v2] streamed {total} scores in {len(chunks)} cursor "
                  f"chunks; reassembly byte-identical to one-shot")

            # resume mid-stream from a *different* client
            resumed = list(second.stream(
                "rwr", args=args, cursor=chunks[0].next_cursor
            ))
            assert [r.to_dict() for r in resumed] == [
                c.to_dict() for c in chunks[1:]
            ], "a cursor resumes seamlessly from another client"
            print("[v2] cursor resumption from a second client ok")

            # ------------------------------------------------------------ #
            # session ops are registry citizens (no bespoke endpoints)
            # ------------------------------------------------------------ #
            ops = {op["name"]: op for op in client.ops()}
            session_ops = [name for name in ops if name.startswith("session.")]
            assert session_ops, "registry must declare the session surface"
            assert all(ops[name]["scope"] == "session" for name in session_ops)
            created = client.call("session.create", name="v2", focus=hot.label)
            sid = created["session"]["session_id"]
            via_session = client.call("session.rwr", session_id=sid,
                                      sources=args["sources"])
            direct = second.query("rwr", args=args)
            assert direct.cached, "session variant must feed the shared cache"
            assert via_session == direct.unwrap()
            client.call("session.close", session_id=sid)
            print(f"[v2] {len(session_ops)} session ops in the registry; "
                  f"session.rwr == rwr (shared cache hit)")

        # ---------------------------------------------------------------- #
        # authed + rate-limited server: structured 401/429 envelopes
        # ---------------------------------------------------------------- #
        policy = FrontendPolicy(auth_token="smoke-token", rate_limit=50.0)
        with GMineHTTPServer(service, port=0, policy=policy) as guarded:
            try:
                GMineClient.http(guarded.url).ops()
                raise AssertionError("missing bearer token must raise")
            except AuthRequiredError as error:
                print(f"[v2] unauthenticated -> AuthRequiredError: {error}")
            authed = GMineClient.http(guarded.url, auth_token="smoke-token")
            assert authed.call("connectivity", dataset="dblp")["edges"]
            rejections = 0
            for _ in range(120):  # well past the 50-token burst
                try:
                    authed.ops()
                except RateLimitedError:
                    rejections += 1
            assert rejections > 0, "the token bucket must eventually reject"
            print(f"[v2] rate limit enforced: {rejections} RATE_LIMITED "
                  f"rejections past the burst")


def _parked_subscribe(service, watcher, dataset, since):
    """Start a long-poll in a thread; return (thread, reply box) once parked."""
    box = {}
    feed, _ = service.subscribe_feed(dataset, 0)
    thread = threading.Thread(
        target=lambda: box.update(
            watcher.subscribe(dataset=dataset, since=since, timeout=5.0)
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 5.0
    while feed.waiters == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert feed.waiters == 1, "the long-poll must park on the server"
    return thread, box


def smoke_mutations():
    """Edit + subscribe round-trip between two clients of one server.

    One mutable dataset: a watcher parks a long-poll on the change feed,
    an editor applies an edit script through its own connection, and the
    watcher must wake with a change event carrying exactly the
    fingerprint the apply reported.
    """
    mutable = generate_dblp(DBLPConfig(num_authors=200, seed=23))
    tree = build_gtree(mutable.graph, fanout=3, levels=2, seed=23)

    with GMineService(max_workers=4) as service:
        service.register_tree(tree, graph=mutable.graph, name="live")
        with GMineHTTPServer(service, port=0) as server:
            editor = GMineClient.http(server.url)
            watcher = GMineClient.http(server.url)

            leaves = sorted(tree.leaves(), key=lambda node: -node.size)
            edited_leaf, quiet_leaf = leaves[0], leaves[-1]
            members = set(edited_leaf.members)
            u, v, w = next(
                (u, v, w) for u, v, w in mutable.graph.edges()
                if u in members and v in members
            )

            # Warm one partition-scoped and one root-scoped entry so the
            # edit has cache state to invalidate selectively.
            editor.call("metrics", community=edited_leaf.label)
            editor.call("connectivity")
            watermark = watcher.stats()["feeds"].get("live", 0)

            # The watcher parks first; the edit wakes it.
            thread, feed = _parked_subscribe(service, watcher, "live", watermark)
            report = editor.apply_dataset(
                "live",
                [{"action": "add_edge", "u": u, "v": v, "weight": w + 1.0}],
            )
            thread.join(timeout=5.0)
            assert report["changed"], report
            assert edited_leaf.label in report["changed_partitions"], report
            assert [event["fingerprint"] for event in feed["events"]] == [
                report["fingerprint"]
            ], "the parked watcher must wake with the edit"
            rows = {row["name"]: row for row in watcher.datasets()}
            assert rows["live"]["fingerprint"] == report["fingerprint"]
            print("[mutate] edit -> parked subscriber woke ok "
                  f"(seq {feed['next_since']}, "
                  f"{report['invalidated']} entries invalidated)")

            # Restoring the original weight returns the original content,
            # so the next event carries the pre-edit fingerprint again; a
            # poll issued *after* the edit answers at once.
            restored = editor.apply_dataset(
                "live",
                [{"action": "add_edge", "u": u, "v": v, "weight": w}],
            )
            assert restored["changed"]
            assert restored["fingerprint"] == report["previous_fingerprint"]
            mirror = watcher.subscribe(
                dataset="live", since=feed["next_since"], timeout=5.0
            )
            assert [event["fingerprint"] for event in mirror["events"]] == [
                restored["fingerprint"]
            ], "a late poll must still see the second edit"
            print("[mutate] second edit -> late poll ok "
                  "(restored the original fingerprint)")

            # A watcher filtered to a community neither edit touched is
            # advanced past both events without being woken for them.
            filtered = watcher.subscribe(
                dataset="live", since=watermark,
                community=quiet_leaf.label,
            )
            assert filtered["events"] == [], filtered
            assert filtered["next_since"] == mirror["next_since"]
            print("[mutate] community-filtered watcher skipped "
                  "both foreign edits ok")


def smoke_gpath(tree, store_path, graph_path, workdir: Path):
    """GPath over the wire plus the ingest loading pipeline.

    ``query.path`` must return byte-identical envelopes over HTTP and
    the in-process transport; the fused ``rwr(...)/top(5)`` plan must
    agree exactly with the direct ``rwr`` slice; parse errors must
    surface as structured ``QUERY_PARSE_ERROR`` envelopes with source
    spans; and a CSV ingested by one client must immediately answer
    another client's path queries.
    """
    hot = sorted(tree.leaves(), key=lambda node: -node.size)[0]
    sources = list(hot.members[:2])

    with GMineService(max_workers=4) as service:
        service.register_store(store_path, name="dblp", graph_path=graph_path)
        with GMineHTTPServer(service, port=0) as server:
            remote = GMineClient.http(server.url)
            other = GMineClient.http(server.url)
            local = GMineClient.in_process(service)

            src = ", ".join(str(s) for s in sources)
            fused = (
                f"community({hot.label})/members/"
                f"rwr(sources=[{src}])/top(5)"
            )
            args = {"path": fused}
            fused_payload = remote.call("query.path", path=fused)
            # warm above, so the cached flag agrees across the probes below
            raw = remote.query_raw("query.path", args=args)
            assert raw == local.query_raw("query.path", args=args), (
                "in-process and HTTP transports must serve identical bytes"
            )
            direct = remote.call(
                "rwr", page={"top_k": 5},
                sources=sources, community=hot.label,
            )
            assert fused_payload["items"] == direct["scores"], (
                "fused top(5) must equal the direct rwr slice"
            )
            listing = other.call("query.path", path="leaves/nodes")
            assert listing["count"] == len(tree.leaves())
            print("[gpath] fused rwr/top(5) == direct rwr slice; "
                  "transport parity ok")

            bad = "community(s0)/teleport"
            reply = remote.query("query.path", args={"path": bad})
            assert not reply.ok, "a parse error must not succeed"
            assert reply.error.code == "QUERY_PARSE_ERROR", reply.error
            span = reply.error.details["span"]
            source = reply.error.details["source"]
            assert source[span[0]:span[1]] == "teleport", reply.error
            print(f"[gpath] parse error -> QUERY_PARSE_ERROR "
                  f"with span {span} ok")

            # ingest round-trip: CSV in via one client, queried by another
            csv_path = workdir / "ring.csv"
            csv_path.write_text(
                "source,target,weight\n" + "".join(
                    f"{i},{(i + 1) % 30},1.0\n" for i in range(30)
                ),
                encoding="utf-8",
            )
            report = other.call(
                "dataset.ingest", path=str(csv_path), name="ring",
                fanout=2, levels=2,
            )
            assert report["dataset"] == "ring" and report["nodes"] == 30
            count = remote.call(
                "query.path", dataset="ring", path="members/count"
            )
            assert count["count"] == report["nodes"]
            print(f"[gpath] ingest round-trip ok: {report['nodes']} nodes, "
                  f"{report['tree']['leaves']} leaves, queried by a second client")


def main() -> None:
    backends = sys.argv[1:] or list(SMOKE_BACKENDS)
    with tempfile.TemporaryDirectory(prefix="gmine-smoke-") as workdir:
        tree, store_path, graph_path = build_dataset(Path(workdir))
        payloads = {
            backend: smoke_one_backend(backend, tree, store_path, graph_path)
            for backend in backends
        }
        smoke_protocol_v2(tree, store_path, graph_path)
        smoke_mutations()
        smoke_gpath(tree, store_path, graph_path, Path(workdir))
    if len(payloads) > 1:
        reference_name = next(iter(payloads))
        reference = payloads[reference_name]
        for backend, observed in payloads.items():
            assert observed == reference, (
                f"backend {backend} diverged from {reference_name}"
            )
        print(f"backend parity ok: {', '.join(payloads)} are byte-identical")
    print("serve-smoke: all assertions passed")


if __name__ == "__main__":
    main()
