"""The HTTP transport's connection handling: keep-alive, resends, teardown.

``GMineClient.http`` keeps one persistent connection per calling thread.
These tests pin the rules that make that safe: connections are reused
(counted at the server), shared across threads without mixing bytes,
replaced when the server closed them while idle, resent only when a
request is idempotent, dropped when a stream is abandoned, and all
closed by ``close()``.  Raw-socket servers stand in for a server that
misbehaves in exactly one way; they answer through the same
:class:`~repro.api.router.ProtocolRouter` as the real front-end, so
their bytes are the protocol's bytes.

Every test fails on an unclosed socket (``ResourceWarning``).
"""

from __future__ import annotations

import gc
import http.client
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import GMineClient, GMineHTTPServer
from repro.api.router import ProtocolRouter, dumps
from repro.errors import ProtocolError

pytestmark = [
    pytest.mark.tier1,
    pytest.mark.filterwarnings("error::ResourceWarning"),
]


def _wait_until(predicate, timeout=5.0):
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _closed(client):
    client.close()
    gc.collect()


@pytest.fixture
def counted_server(service):
    """The real server, recording every connection it accepts."""
    server = GMineHTTPServer(service, port=0)
    server.accepted = []
    handle = server._handle_connection

    async def counting(reader, writer):
        server.accepted.append(writer.get_extra_info("peername"))
        await handle(reader, writer)

    server._handle_connection = counting
    with server:
        yield server


def _rwr_args(hot_leaf, offset=0):
    leaf, _ = hot_leaf
    members = list(leaf.members)
    return {"sources": members[offset:offset + 2], "community": leaf.label}


class _RawServer:
    """A one-connection-at-a-time HTTP/1.1 server on a raw socket.

    Each connection answers ``answers`` requests through the router, then:
    ``drop`` reads (and logs) one more request and closes without a
    reply; ``hang_up`` closes the connection right after its last answer,
    as an idle timeout would; ``silent`` reads one more request and never
    answers.  ``log`` holds ``(target, op)`` for every request read, so a
    resent request shows up twice.
    """

    def __init__(self, service, mode, answers=1):
        self.router = ProtocolRouter(service)
        self.mode = mode
        self.answers = answers
        self.log = []
        self.hung_up = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._stopping = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self):
        return "http://127.0.0.1:%d" % self._listener.getsockname()[1]

    def close(self):
        self._stopping = True
        socket.create_connection(self._listener.getsockname()).close()
        self._thread.join(5.0)
        self._listener.close()

    def _serve(self):
        while True:
            connection, _ = self._listener.accept()
            with connection, connection.makefile("rb") as reader:
                if self._stopping:
                    return
                self._converse(connection, reader)

    def _read(self, reader):
        head = reader.readline()
        if not head:
            return None
        method, target, _ = head.decode("ascii").split()
        length = 0
        for line in iter(reader.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = json.loads(reader.read(length)) if length else None
        self.log.append((target, (body or {}).get("op")))
        return method, target, body

    def _converse(self, connection, reader):
        for _ in range(self.answers):
            request = self._read(reader)
            if request is None:
                return
            method, target, body = request
            status, payload = self.router.handle(
                method, target.replace("/prefix", "", 1), body)
            raw = dumps(payload)
            connection.sendall(
                b"HTTP/1.1 %d OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
                % (status, len(raw), raw))
        if self.mode == "hang_up":
            connection.shutdown(socket.SHUT_RDWR)
            self.hung_up.set()
            return
        if self._read(reader) is not None and self.mode == "silent":
            reader.read()  # until the client gives up and closes


@pytest.fixture
def raw_server(service):
    servers = []

    def start(mode, answers=1):
        servers.append(_RawServer(service, mode, answers))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


class TestConnectionReuse:
    def test_sequential_queries_share_one_server_connection(
        self, service, counted_server, hot_leaf
    ):
        local = GMineClient.in_process(service)
        requests = [_rwr_args(hot_leaf, offset % 10) for offset in range(50)]
        for args in requests:  # warm: both transports answer from cache
            local.query("rwr", args=args).unwrap()
        client = GMineClient.http(counted_server.url)
        for args in requests:
            assert client.query_raw("rwr", args=args) == local.query_raw(
                "rwr", args=args)
        assert len(counted_server.accepted) == 1
        _closed(client)

    def test_four_threads_use_at_most_four_connections_and_same_bytes(
        self, service, counted_server, hot_leaf
    ):
        local = GMineClient.in_process(service)
        requests = [_rwr_args(hot_leaf, offset) for offset in range(8)] * 5
        for args in requests:  # warm: both transports answer from cache
            local.query("rwr", args=args).unwrap()
        client = GMineClient.http(counted_server.url)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches inside each call
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                remote = list(pool.map(
                    lambda args: client.query_raw("rwr", args=args), requests))
        finally:
            sys.setswitchinterval(interval)
        assert remote == [local.query_raw("rwr", args=args) for args in requests]
        assert 1 <= len(counted_server.accepted) <= 4
        _closed(client)

    def test_base_url_path_prefix_is_kept(self, service, raw_server, hot_leaf):
        server = raw_server("hang_up", answers=5)
        client = GMineClient.http(server.url + "/prefix/")
        assert client.query("rwr", args=_rwr_args(hot_leaf)).ok
        assert client.ops()
        assert [target for target, _ in server.log] == [
            "/prefix/v1/query", "/prefix/v1/ops"]
        _closed(client)


class TestResend:
    def test_torn_reused_connection_resends_only_idempotent_requests(
        self, service, raw_server, hot_leaf
    ):
        leaf, _ = hot_leaf
        sid = GMineClient.in_process(service).call(
            "session.create", focus=leaf.label)["session"]["session_id"]
        server = raw_server("drop")
        client = GMineClient.http(server.url)
        args = _rwr_args(hot_leaf)
        assert client.query("rwr", args=args).ok  # answered; connection kept

        # reused connection torn after the request: rwr is resent once
        assert client.query_raw("rwr", args=args) == GMineClient.in_process(
            service).query_raw("rwr", args=args)
        assert [op for _, op in server.log] == ["rwr", "rwr", "rwr"]

        # the same tear under session.step: never sent twice
        with pytest.raises(ProtocolError, match="closed the connection"):
            client.call("session.step", session_id=sid,
                        action="community_metrics")
        assert [op for _, op in server.log].count("session.step") == 1
        _closed(client)

    def test_a_fresh_connection_is_never_resent(self, service, raw_server, hot_leaf):
        server = raw_server("drop", answers=0)
        client = GMineClient.http(server.url)
        with pytest.raises(ProtocolError, match="closed the connection"):
            client.query("rwr", args=_rwr_args(hot_leaf))
        assert len(server.log) == 1
        _closed(client)

    def test_connection_closed_while_idle_is_replaced_before_sending(
        self, service, raw_server, hot_leaf
    ):
        leaf, _ = hot_leaf
        server = raw_server("hang_up")
        client = GMineClient.http(server.url)

        def settled(call):
            # the server hung up after answering; give the FIN a moment
            server.hung_up.clear()
            result = call()
            assert server.hung_up.wait(5.0)
            time.sleep(0.05)
            return result

        sid = settled(lambda: client.create_session(focus=leaf.label))["session_id"]
        calls = [
            lambda: client.query("rwr", args=_rwr_args(hot_leaf)).unwrap(),
            lambda: client.call("session.step", session_id=sid,
                                action="community_metrics"),
            lambda: client.session_step(sid, "community_metrics"),
            lambda: client.batch([{"op": "connectivity", "args": {}}]),
            client.ops,
            client.stats,
        ]
        for call in calls:
            assert settled(call)
        # one request per connection, none resent
        assert len(server.log) == len(calls) + 1
        session = GMineClient.in_process(service).resume_session(sid)
        assert session["steps"] == 3  # focus + two steps, each run once
        _closed(client)

    def test_per_call_timeout_bounds_a_reused_connection(
        self, service, raw_server, hot_leaf
    ):
        server = raw_server("silent")
        client = GMineClient.http(server.url)
        assert client.ops()
        started = time.perf_counter()
        with pytest.raises(ProtocolError, match="timed out"):
            client.transport.call("GET", "/v1/stats", None, timeout=0.2)
        assert time.perf_counter() - started < 2.0
        _closed(client)


class TestStreamsAndTeardown:
    def test_abandoned_stream_leaves_the_thread_working(
        self, service, counted_server, hot_leaf
    ):
        local = GMineClient.in_process(service)
        args = _rwr_args(hot_leaf)
        local.query("rwr", args=args).unwrap()  # warm: every answer cached
        local.query("connectivity").unwrap()
        client = GMineClient.http(counted_server.url)

        chunks = client.stream("rwr", args=args, chunk_size=5)
        assert next(chunks).ok
        chunks.close()
        # unread chunks would corrupt the next exchange: the connection goes
        assert _wait_until(lambda: not counted_server._connections)
        assert client.query_raw("rwr", args=args) == local.query_raw(
            "rwr", args=args)
        assert len(counted_server.accepted) == 2

        # a query while a stream is open gets a connection of its own
        chunks = client.stream("rwr", args=args, chunk_size=5)
        assert next(chunks).ok
        assert client.query_raw("connectivity") == local.query_raw("connectivity")
        chunks.close()

        # a stream read to the end keeps its connection
        full = client.stream_raw("rwr", args=args, chunk_size=50)
        assert full == local.stream_raw("rwr", args=args, chunk_size=50)
        assert client.query_raw("rwr", args=args) == local.query_raw(
            "rwr", args=args)
        assert len(counted_server.accepted) == 3
        _closed(client)

    def test_close_leaves_the_server_without_open_connections(
        self, counted_server, hot_leaf
    ):
        client = GMineClient.http(counted_server.url)
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(lambda _: client.stats(), range(30)))
            assert client.ops()
            assert len(counted_server._connections) >= 2
            client.close()
            gc.collect()
            assert _wait_until(lambda: not counted_server._connections)

    def test_a_finished_thread_closes_its_connection(self, counted_server):
        client = GMineClient.http(counted_server.url)
        worker = threading.Thread(target=client.stats)
        worker.start()
        worker.join(5.0)
        assert not worker.is_alive()
        assert _wait_until(lambda: not counted_server._connections)
        assert len(counted_server.accepted) == 1
        _closed(client)

    def test_https_url_builds_an_https_connection(self, monkeypatch):
        made = []

        class Refused:
            def __init__(self, host, port, timeout):
                made.append((host, port, timeout))
                self.sock = None

            def connect(self):
                raise ConnectionRefusedError("nothing listens here")

            def close(self):
                pass

        monkeypatch.setattr(http.client, "HTTPSConnection", Refused)
        client = GMineClient.http("https://gmine.example:8443/base/")
        with pytest.raises(ProtocolError, match="cannot reach"):
            client.ops()
        assert made == [("gmine.example", 8443, 30.0)]
        _closed(client)
