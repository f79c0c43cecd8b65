"""The acceptance criterion: byte-identical payloads across transports.

For **every** dataset-scoped operation in the registry, the in-process
client and the HTTP client must return exactly the same canonical bytes
for the same request.  The cache is
warmed first so every transport observes the same service state (the
``cached`` flag is part of the payload, honestly).  Failures must be
byte-identical too — a structured error envelope is part of the protocol,
not an accident of the transport.

Protocol v2 extends the bar to the session scope and to streaming:
session-scoped results (idempotent reads, delegated mining variants, and
step sequences modulo the session id) and streamed cursor chunks must be
byte-identical across both transports, and reassembled streams must
reproduce the one-shot payload exactly.
"""

import json

import pytest

from repro.api import DEFAULT_REGISTRY, Request, dumps

pytestmark = pytest.mark.tier1

DATASET_OPS = [spec.name for spec in DEFAULT_REGISTRY if spec.scope == "dataset"]
SESSION_OPS = [spec.name for spec in DEFAULT_REGISTRY if spec.scope == "session"]
STREAMABLE_OPS = [spec.name for spec in DEFAULT_REGISTRY if spec.stream is not None]


def _request_for(op, hot_leaf, sibling_pair):
    """A representative valid request for each dataset-scoped operation."""
    leaf, members = hot_leaf
    community_a, community_b = sibling_pair
    table = {
        "metrics": {"community": leaf.label},
        "rwr": {"sources": members, "community": leaf.label},
        "connection_subgraph": {
            "sources": members, "community": leaf.label, "budget": 12,
        },
        "connectivity": {},
        "inspect_edge": {"community_a": community_a, "community_b": community_b},
        "query.path": {
            "path": f"community({leaf.label})/members/"
                    f"rwr(sources=[{members[0]}, {members[1]}])/top(5)"
        },
    }
    if op.startswith("session."):
        # Session-context variants take their dataset twin's args (plus a
        # session_id, attached per test via _session_scoped).
        return dict(table[op.split(".", 1)[1]])
    return table[op]


def _session_scoped(client, args, op):
    """Attach a fresh session id for session-context variant requests."""
    if not op.startswith("session."):
        return args
    info = client.call("session.create", name="stream-parity")["session"]
    return {"session_id": info["session_id"], **args}


class TestTransportParity:
    @pytest.mark.parametrize("op", DATASET_OPS)
    def test_every_op_is_byte_identical_across_transports(
        self, all_clients, hot_leaf, sibling_pair, op
    ):
        local, remote = all_clients
        args = _request_for(op, hot_leaf, sibling_pair)
        local.query(op, args=args).unwrap()  # warm: every transport hits cache
        raws = {
            client.query_raw(op, args=args) for client in (local, remote)
        }
        assert len(raws) == 1, f"{op}: transports disagree"
        payload = json.loads(next(iter(raws)).decode("utf-8"))
        assert payload["ok"] is True
        assert payload["cached"] is True
        assert payload["protocol"] == "gmine/1"

    @pytest.mark.parametrize("op", DATASET_OPS)
    def test_parity_with_pagination(self, all_clients, hot_leaf, sibling_pair, op):
        local, remote = all_clients
        args = _request_for(op, hot_leaf, sibling_pair)
        page = {"top_k": 3, "offset": 0, "limit": 2}
        local.query(op, args=args, page=page).unwrap()
        raws = {
            client.query_raw(op, args=args, page=page)
            for client in (local, remote)
        }
        assert len(raws) == 1

    def test_failure_envelopes_are_byte_identical(self, all_clients):
        for bad in (
            {"op": "teleport", "args": {}},
            {"op": "metrics", "args": {"community": "missing"}},
            {"op": "rwr", "args": {"sources": []}},
            {"op": "session.metrics", "args": {"session_id": "never-issued"}},
        ):
            request = Request.from_dict(bad)
            raws = {
                client.query_raw(request.op, args=request.args)
                for client in all_clients
            }
            assert len(raws) == 1

    def test_equivalent_spellings_share_payloads_across_transports(
        self, all_clients, hot_leaf
    ):
        # permuted kwargs + permuted sources + id-vs-label all canonicalize
        # onto one cache entry, so every spelling returns the same bytes
        local = all_clients[0]
        leaf, members = hot_leaf
        spellings = [
            {"sources": members, "community": leaf.label},
            {"community": leaf.label, "sources": list(reversed(members))},
        ]
        local.query("rwr", args=spellings[0]).unwrap()  # warm
        raws = {
            client.query_raw("rwr", args=spelling)
            for client in all_clients
            for spelling in spellings
        }
        assert len(raws) == 1

    def test_set_sources_survive_both_transports(self, all_clients, hot_leaf):
        # regression: HTTP request bodies used to stringify sets silently,
        # making the same call succeed in-process but fail over the wire
        local = all_clients[0]
        leaf, members = hot_leaf
        args_set = {"sources": set(members), "community": leaf.label}
        args_list = {"sources": list(members), "community": leaf.label}
        local.query("rwr", args=args_list).unwrap()  # warm
        raws = {
            client.query_raw("rwr", args=args)
            for client in all_clients
            for args in (args_set, args_list)
        }
        assert len(raws) == 1  # every spelling, every transport: same bytes

    def test_batch_parity(self, all_clients, hot_leaf):
        local = all_clients[0]
        leaf, members = hot_leaf
        requests = [
            {"op": "metrics", "args": {"community": leaf.label}},
            {"op": "rwr", "args": {"sources": members, "community": leaf.label}},
            {"op": "metrics", "args": {"community": "missing"}},
        ]
        local.batch(requests)  # warm
        replies = [
            [r.to_dict() for r in client.batch(requests)] for client in all_clients
        ]
        assert replies[0] == replies[1]

    def test_ops_and_stats_parity(self, all_clients):
        local, remote = all_clients
        assert local.ops() == remote.ops()
        # stats change between calls (the remote call itself may not touch
        # the cache, but sessions/compute counters must agree in shape)
        assert set(local.stats()) == set(remote.stats())


class TestSessionScopedParity:
    """Acceptance: session results byte-identical across transports."""

    def test_registry_lists_every_session_op_with_scope(self, all_clients):
        # `gmine ops --describe` derives from the same describe() table
        for client in all_clients:
            rows = {op["name"]: op for op in client.ops()}
            for name in SESSION_OPS:
                assert rows[name]["scope"] == "session", name

    def test_session_reads_are_byte_identical(self, all_clients, hot_leaf):
        local, remote = all_clients
        leaf, _ = hot_leaf
        info = local.call("session.create", name="parity", focus=leaf.label)
        sid = info["session"]["session_id"]
        for op, args in (
            ("session.describe", {"session_id": sid}),
            ("session.list", {}),
        ):
            raws = {
                client.query_raw(op, args=args) for client in (local, remote)
            }
            assert len(raws) == 1, f"{op}: transports disagree"

    @pytest.mark.parametrize("op", ["session.metrics", "session.rwr"])
    def test_session_mining_is_byte_identical_and_shares_cache(
        self, all_clients, hot_leaf, op
    ):
        local, remote = all_clients
        leaf, members = hot_leaf
        info = local.call("session.create", name="miner", focus=leaf.label)
        sid = info["session"]["session_id"]
        args = {"session_id": sid}
        if op == "session.rwr":
            args["sources"] = members
        local.query(op, args=args).unwrap()  # warm the delegated cache entry
        raws = {client.query_raw(op, args=args) for client in (local, remote)}
        assert len(raws) == 1
        # the variant fed the *shared* cache: the direct dataset op for the
        # focused community is a hit on its first call
        direct_op = op.split(".", 1)[1]
        direct_args = {"community": leaf.label}
        if direct_op == "rwr":
            direct_args["sources"] = members
        assert local.query(direct_op, args=direct_args).cached is True

    def test_step_sequences_agree_modulo_session_id(self, all_clients, hot_leaf):
        # step mutates state, so each transport drives its own fresh
        # session through the same sequence; everything but the session id
        # must match byte for byte
        leaf, _ = hot_leaf
        flattened = []
        for client in all_clients:
            info = client.call("session.create", name="stepper")
            sid = info["session"]["session_id"]
            payloads = [
                client.call(
                    "session.step",
                    session_id=sid,
                    action="focus",
                    args={"label": leaf.label},
                ),
                client.call("session.step", session_id=sid, action="community_metrics"),
                client.call("session.step", session_id=sid, action="drill_up"),
            ]
            for payload in payloads:
                payload["session"].pop("session_id")
            flattened.append(dumps({"steps": payloads}))
            client.call("session.close", session_id=sid)
        assert flattened[0] == flattened[1]


class TestStreamedParity:
    """Acceptance: streamed results byte-identical across transports."""

    @pytest.mark.parametrize("op", STREAMABLE_OPS)
    def test_chunks_are_byte_identical_across_transports(
        self, all_clients, hot_leaf, sibling_pair, op
    ):
        local, remote = all_clients
        args = _session_scoped(local, _request_for(op, hot_leaf, sibling_pair), op)
        local.query(op, args=args).unwrap()  # warm
        chunk_lists = [
            client.stream_raw(op, args=args, chunk_size=3)
            for client in (local, remote)
        ]
        assert chunk_lists[0] == chunk_lists[1]
        first = json.loads(chunk_lists[0][0].decode("utf-8"))
        total = first["page"]["total"]
        expected_chunks = max(1, -(-total // 3))
        assert len(chunk_lists[0]) == expected_chunks, (
            f"{op}: {total} items must stream as {expected_chunks} chunks"
        )

    @pytest.mark.parametrize("op", STREAMABLE_OPS)
    def test_reassembly_equals_one_shot_payload(
        self, all_clients, hot_leaf, sibling_pair, op
    ):
        local, remote = all_clients
        spec = DEFAULT_REGISTRY.get(op)
        args = _session_scoped(local, _request_for(op, hot_leaf, sibling_pair), op)
        merged = remote.stream_result(op, args=args, chunk_size=7)
        total = len(merged[spec.stream.field])
        one_shot = local.query(
            op, args=args, page={spec.stream.page_key: total}
        ).unwrap()
        assert dumps(merged) == dumps(one_shot)
