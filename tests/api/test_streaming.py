"""Streaming result cursors: parity, resumability, and hot-reload safety.

The satellite acceptance for Protocol v2 streaming:

* a hypothesis sweep proving cursor pages reassemble **byte-identically**
  to the one-shot payload for arbitrary chunk sizes and page specs;
* the same guarantee across the in-process and HTTP transports on the
  inline and process backends (the store is served with ``graph_path``
  so the process pool genuinely ships plans);
* mid-stream hot-reload behaviour: chunks already flowing on a connection
  stay consistent (they slice one precomputed payload), while *resuming*
  a cursor after a content-changing reload fails with the structured
  ``CURSOR_EXPIRED`` envelope — and keeps working after a no-op reload.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    DEFAULT_REGISTRY,
    GMineClient,
    GMineHTTPServer,
    dumps,
)
from repro.core.builder import build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.errors import (
    InvalidArgumentError,
    ProtocolError,
    StaleCursorError,
)
from repro.graph.io import write_json
from repro.service import GMineService
from repro.storage.gtree_store import save_gtree

pytestmark = pytest.mark.tier1

#: Execution backends the streaming parity bar covers.
STREAM_BACKENDS = ("inline", "process:2")


@pytest.fixture(scope="module")
def stream_dataset(tmp_path_factory):
    """A store+graph persisted so every backend (incl. process) can serve it."""
    workdir = tmp_path_factory.mktemp("streaming")
    dataset = generate_dblp(DBLPConfig(num_authors=350, seed=41))
    tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=41)
    store_path = workdir / "stream.gtree"
    graph_path = workdir / "stream.json"
    save_gtree(tree, store_path)
    write_json(dataset.graph, graph_path)
    leaf = max(tree.leaves(), key=lambda node: node.size)
    return {
        "dataset": dataset,
        "tree": tree,
        "store_path": store_path,
        "graph_path": graph_path,
        "leaf": leaf,
        "members": list(leaf.members[:2]),
    }


def _open_service(stream_dataset, backend="inline"):
    service = GMineService(max_workers=4, backend=backend)
    service.register_store(
        stream_dataset["store_path"],
        name="dblp",
        graph_path=stream_dataset["graph_path"],
    )
    return service


@pytest.fixture
def stream_service(stream_dataset):
    with _open_service(stream_dataset) as service:
        yield service


@pytest.fixture
def stream_client(stream_service):
    return GMineClient.in_process(stream_service)


class TestStreamSemantics:
    def test_chunks_partition_the_field_with_cursors(
        self, stream_client, stream_dataset
    ):
        args = {"sources": stream_dataset["members"]}
        chunks = list(stream_client.stream("rwr", args=args, chunk_size=10))
        assert all(chunk.ok for chunk in chunks)
        total = chunks[0].page["total"]
        assert total == stream_dataset["dataset"].graph.num_nodes
        assert sum(chunk.page["count"] for chunk in chunks) == total
        offsets = [chunk.page["offset"] for chunk in chunks]
        assert offsets == list(range(0, total, 10))
        assert all(chunk.cursor for chunk in chunks)
        assert all(chunk.next_cursor for chunk in chunks[:-1])
        assert chunks[-1].next_cursor is None

    def test_resume_from_any_next_cursor(self, stream_client, stream_dataset):
        args = {"sources": stream_dataset["members"]}
        stream_client.query("rwr", args=args).unwrap()  # warm: stable cached flag
        chunks = list(stream_client.stream("rwr", args=args, chunk_size=9))
        for index in (0, len(chunks) // 2, len(chunks) - 2):
            resumed = list(
                stream_client.stream(
                    "rwr", args=args, cursor=chunks[index].next_cursor
                )
            )
            assert [r.to_dict() for r in resumed] == [
                c.to_dict() for c in chunks[index + 1 :]
            ]

    def test_request_page_caps_the_streamed_vector(
        self, stream_client, stream_dataset
    ):
        args = {"sources": stream_dataset["members"]}
        chunks = list(
            stream_client.stream("rwr", args=args, page={"top_k": 10}, chunk_size=4)
        )
        assert [chunk.page["count"] for chunk in chunks] == [4, 4, 2]
        merged = stream_client.stream_result(
            "rwr", args=args, page={"top_k": 10}, chunk_size=4
        )
        one_shot = stream_client.query("rwr", args=args, page={"top_k": 10}).unwrap()
        assert dumps(merged) == dumps(one_shot)

    def test_cursor_must_match_the_request(self, stream_client, stream_dataset):
        args = {"sources": stream_dataset["members"]}
        first = next(iter(stream_client.stream("rwr", args=args, chunk_size=5)))
        other_args = {"sources": stream_dataset["members"][:1]}
        with pytest.raises(ProtocolError, match="does not belong"):
            list(
                stream_client.stream(
                    "rwr", args=other_args, cursor=first.next_cursor
                )
            )[0].unwrap()

    def test_malformed_cursor_is_structured(self, stream_client, stream_dataset):
        args = {"sources": stream_dataset["members"]}
        [response] = list(
            stream_client.stream("rwr", args=args, cursor="garbage-token")
        )
        assert response.ok is False
        assert response.error.code == "PROTOCOL_ERROR"

    def test_non_streamable_op_is_rejected(self, stream_client):
        [response] = list(stream_client.stream("metrics"))
        assert response.ok is False
        assert response.error.code == "PROTOCOL_ERROR"
        assert "streamable operations" in response.error.message

    def test_session_variants_stream_like_their_twin(self, stream_client):
        # session mining variants inherit their dataset twin's StreamSpec;
        # the cursor fingerprint resolves through the live session focus
        info = stream_client.call("session.create", name="streamer")["session"]
        sid = info["session_id"]
        args = {"session_id": sid, "sources": [0, 1]}
        chunks = list(
            stream_client.stream("session.rwr", args=args, chunk_size=50)
        )
        assert all(chunk.ok for chunk in chunks)
        total = chunks[0].page["total"]
        assert sum(chunk.page["count"] for chunk in chunks) == total
        stream_client.call("session.close", session_id=sid)

    def test_session_stream_unknown_session_is_structured(self, stream_client):
        [response] = list(
            stream_client.stream(
                "session.rwr", args={"session_id": "x", "sources": [1]}
            )
        )
        assert response.ok is False
        assert response.error.code == "SESSION_NOT_FOUND"

    def test_failed_dispatch_streams_one_error_envelope(self, stream_client):
        [response] = list(stream_client.stream("rwr", args={"sources": []}))
        assert response.ok is False
        assert response.error.code == "INVALID_ARGUMENT"

    def test_empty_window_resume_at_end(self, stream_client, stream_dataset):
        args = {"sources": stream_dataset["members"]}
        chunks = list(stream_client.stream("rwr", args=args, chunk_size=10_000))
        assert len(chunks) == 1 and chunks[0].next_cursor is None


class TestStreamingHypothesis:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chunk_size=st.integers(min_value=1, max_value=600))
    def test_reassembly_is_byte_identical_for_any_chunk_size(
        self, stream_client, stream_dataset, chunk_size
    ):
        args = {"sources": stream_dataset["members"]}
        merged = stream_client.stream_result(
            "rwr", args=args, chunk_size=chunk_size
        )
        total = len(merged["scores"])
        one_shot = stream_client.query(
            "rwr", args=args, page={"top_k": total}
        ).unwrap()
        assert dumps(merged) == dumps(one_shot)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        chunk_size=st.integers(min_value=1, max_value=120),
        top_k=st.integers(min_value=1, max_value=80),
    )
    def test_reassembly_honours_page_caps(
        self, stream_client, stream_dataset, chunk_size, top_k
    ):
        args = {"sources": stream_dataset["members"]}
        merged = stream_client.stream_result(
            "rwr", args=args, page={"top_k": top_k}, chunk_size=chunk_size
        )
        one_shot = stream_client.query(
            "rwr", args=args, page={"top_k": top_k}
        ).unwrap()
        assert dumps(merged) == dumps(one_shot)
        assert len(merged["scores"]) == min(
            top_k, merged["num_scores"]
        )


class TestStreamingTransportBackendMatrix:
    @pytest.mark.parametrize("backend", STREAM_BACKENDS)
    def test_both_transports_stream_identical_bytes(
        self, stream_dataset, backend
    ):
        args = {"sources": stream_dataset["members"]}
        with _open_service(stream_dataset, backend=backend) as service:
            with GMineHTTPServer(service, port=0) as server:
                clients = (
                    GMineClient.in_process(service),
                    GMineClient.http(server.url),
                )
                clients[0].query("rwr", args=args).unwrap()  # warm
                per_transport = [
                    client.stream_raw("rwr", args=args, chunk_size=37)
                    for client in clients
                ]
                assert per_transport[0] == per_transport[1]
                assert len(per_transport[0]) > 1
                # resuming over a *different* transport continues seamlessly
                first = next(iter(clients[0].stream("rwr", args=args,
                                                    chunk_size=37)))
                resumed = list(clients[1].stream("rwr", args=args,
                                                 cursor=first.next_cursor))
                tail = [json.loads(raw.decode("utf-8"))
                        for raw in per_transport[0][1:]]
                assert [r.to_dict() for r in resumed] == tail

    def test_backends_stream_identical_bytes(self, stream_dataset):
        args = {"sources": stream_dataset["members"]}
        per_backend = {}
        for backend in STREAM_BACKENDS:
            with _open_service(stream_dataset, backend=backend) as service:
                client = GMineClient.in_process(service)
                per_backend[backend] = client.stream_raw(
                    "rwr", args=args, chunk_size=41
                )
        reference = per_backend[STREAM_BACKENDS[0]]
        for backend, observed in per_backend.items():
            assert observed == reference, f"{backend} diverged"


def _rebuild_store(stream_dataset, seed):
    """Atomically replace the store file with a tree built under ``seed``."""
    rebuilt = build_gtree(
        stream_dataset["dataset"].graph, fanout=3, levels=3, seed=seed
    )
    tmp = stream_dataset["store_path"].with_suffix(".tmp")
    save_gtree(rebuilt, tmp)
    os.replace(tmp, stream_dataset["store_path"])


class TestMidStreamHotReload:
    def test_open_connection_stays_consistent_across_reload(self, stream_dataset):
        args = {"sources": stream_dataset["members"]}
        with _open_service(stream_dataset) as service:
            with GMineHTTPServer(service, port=0) as server:
                client = GMineClient.http(server.url)
                client.query("rwr", args=args).unwrap()  # warm: stable flags
                reference = client.stream_raw("rwr", args=args, chunk_size=23)
                iterator = client.stream("rwr", args=args, chunk_size=23)
                received = [next(iterator)]
                try:
                    # a no-op reload mid-stream (same file content)
                    client.reload_dataset("dblp")
                    received.extend(iterator)
                finally:
                    iterator.close()
                assert [dumps(r.to_dict()) for r in received] == reference

    def test_resume_after_noop_reload_succeeds(self, stream_dataset):
        args = {"sources": stream_dataset["members"]}
        with _open_service(stream_dataset) as service:
            client = GMineClient.in_process(service)
            client.query("rwr", args=args).unwrap()  # warm: stable cached flag
            chunks = list(client.stream("rwr", args=args, chunk_size=29))
            report = client.reload_dataset("dblp")
            assert report["changed"] is False
            resumed = list(
                client.stream("rwr", args=args, cursor=chunks[0].next_cursor)
            )
            assert [r.to_dict() for r in resumed] == [
                c.to_dict() for c in chunks[1:]
            ]

    def test_resume_after_content_reload_is_cursor_expired(self, stream_dataset):
        args = {"sources": stream_dataset["members"]}
        with _open_service(stream_dataset) as service:
            with GMineHTTPServer(service, port=0) as server:
                client = GMineClient.http(server.url)
                first = next(iter(client.stream("rwr", args=args, chunk_size=17)))
                assert first.ok and first.next_cursor
                try:
                    _rebuild_store(stream_dataset, seed=99)
                    report = client.reload_dataset("dblp")
                    assert report["changed"] is True
                    [stale] = list(
                        client.stream("rwr", args=args, cursor=first.next_cursor)
                    )
                    assert stale.ok is False
                    assert stale.error.code == "CURSOR_EXPIRED"
                    with pytest.raises(StaleCursorError):
                        stale.unwrap()
                    # a fresh stream over the reloaded content works
                    merged = client.stream_result("rwr", args=args, chunk_size=17)
                    assert merged["num_scores"] == first.result["num_scores"]
                finally:
                    # restore the module-scoped store for later tests
                    _rebuild_store(stream_dataset, seed=41)

    def test_offset_past_the_end_is_invalid_argument(
        self, stream_service, stream_client, stream_dataset
    ):
        # a forged (but well-formed, digest- and fingerprint-matching)
        # token pointing past the vector must fail loudly, not slice air
        from repro.api import Request, ResultCursor, request_digest

        args = {"sources": stream_dataset["members"]}
        request = Request(op="rwr", args=dict(args))
        token = ResultCursor(
            op="rwr",
            fingerprint=stream_service.fingerprint(None),
            request_digest=request_digest(request),
            offset=10**6,
            chunk_size=5,
        ).to_token()
        [response] = list(stream_client.stream("rwr", args=args, cursor=token))
        assert response.ok is False
        assert response.error.code == "INVALID_ARGUMENT"
        with pytest.raises(InvalidArgumentError):
            response.unwrap()
