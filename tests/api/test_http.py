"""HTTP server tests: the real server, its loop in a background thread.

Covers the full route surface — query, batch, ops, stats, and the session
lifecycle — plus the structured error statuses: an unknown session id is
a 404 ``SESSION_NOT_FOUND`` envelope and an expired one is a 410
``SESSION_EXPIRED`` envelope, never a raw traceback.  Then the transport
itself: connection handling (keep-alive cost, HTTP/1.0 vs 1.1 framing,
malformed heads), the :class:`FrontendPolicy` guard rails and the order
they apply in, long-polls parked on the event loop, and a clean ``stop()``.
"""

import gc
import http.client
import json
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import FrontendPolicy, GMineClient, GMineHTTPServer, TokenBucket, dumps
from repro.errors import (
    AuthRequiredError,
    InvalidArgumentError,
    NavigationError,
    RateLimitedError,
    SessionExpiredError,
    SessionNotFoundError,
    UnknownOperationError,
)
from repro.service import GMineService

pytestmark = pytest.mark.tier1


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestQueryRoute:
    def test_query_round_trip(self, http_server, hot_leaf):
        leaf, _ = hot_leaf
        status, payload = _post(
            http_server.url + "/v1/query",
            {"protocol": "gmine/1", "op": "metrics",
             "args": {"community": leaf.label}},
        )
        assert status == 200
        assert payload["ok"] is True
        assert payload["protocol"] == "gmine/1"
        assert payload["result"]["num_weak_components"] >= 1

    def test_query_error_carries_structured_code(self, http_server):
        status, payload = _post(
            http_server.url + "/v1/query",
            {"op": "metrics", "args": {"community": "no-such-community"}},
        )
        assert status == 404
        assert payload["ok"] is False
        assert payload["error"]["code"] == "NAVIGATION_ERROR"
        assert "no-such-community" in payload["error"]["message"]

    def test_unknown_operation_is_404(self, http_server):
        status, payload = _post(
            http_server.url + "/v1/query", {"op": "teleport", "args": {}}
        )
        assert status == 404
        assert payload["error"]["code"] == "UNKNOWN_OPERATION"

    def test_invalid_argument_is_400(self, http_server):
        status, payload = _post(
            http_server.url + "/v1/query",
            {"op": "rwr", "args": {"sources": [1], "budget": 9}},
        )
        assert status == 400
        assert payload["error"]["code"] == "INVALID_ARGUMENT"

    def test_non_json_body_is_400_protocol_error(self, http_server):
        request = urllib.request.Request(
            http_server.url + "/v1/query",
            data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["error"]["code"] == "PROTOCOL_ERROR"

    def test_unknown_route_is_404(self, http_server):
        status, payload = _post(http_server.url + "/v1/nothing", {})
        assert status == 404
        assert payload["error"]["code"] == "PROTOCOL_ERROR"

    def test_pagination_is_honoured(self, http_server, hot_leaf):
        leaf, members = hot_leaf
        status, payload = _post(
            http_server.url + "/v1/query",
            {"op": "rwr", "args": {"sources": members, "community": leaf.label},
             "page": {"top_k": 3}},
        )
        assert status == 200
        assert len(payload["result"]["scores"]) == 3
        assert payload["page"]["total"] == payload["result"]["num_scores"]


class TestBatchRoute:
    def test_batch_isolates_failures(self, http_server, hot_leaf):
        leaf, members = hot_leaf
        status, payload = _post(
            http_server.url + "/v1/batch",
            {"requests": [
                {"op": "metrics", "args": {"community": leaf.label}},
                {"op": "metrics", "args": {"community": "missing"}},
                {"op": "rwr", "args": {"sources": members,
                                       "community": leaf.label}},
            ]},
        )
        assert status == 200
        oks = [entry["ok"] for entry in payload["responses"]]
        assert oks == [True, False, True]
        assert payload["responses"][1]["error"]["code"] == "NAVIGATION_ERROR"

    def test_batch_requires_requests_list(self, http_server):
        status, payload = _post(http_server.url + "/v1/batch", {"ops": []})
        assert status == 400
        assert payload["error"]["code"] == "PROTOCOL_ERROR"

    def test_batch_dedups_through_shared_cache(self, http_server, hot_leaf):
        leaf, _ = hot_leaf
        request = {"op": "metrics", "args": {"community": leaf.label}}
        _post(http_server.url + "/v1/batch", {"requests": [request, request]})
        _, stats = _get(http_server.url + "/v1/stats")
        assert stats["stats"]["computed"].get("metrics") == 1

    def test_batch_isolates_malformed_envelopes(self, http_server, hot_leaf):
        leaf, _ = hot_leaf
        status, payload = _post(
            http_server.url + "/v1/batch",
            {"requests": [
                {"op": "metrics", "args": {"community": leaf.label}},
                {"args": {}},  # no op at all
                {"op": "metrics", "args": {"community": leaf.label}},
            ]},
        )
        assert status == 200
        oks = [entry["ok"] for entry in payload["responses"]]
        assert oks == [True, False, True]
        assert payload["responses"][1]["error"]["code"] == "PROTOCOL_ERROR"


class TestDiscoveryRoutes:
    def test_ops_table_over_http(self, http_server):
        status, payload = _get(http_server.url + "/v1/ops")
        assert status == 200
        names = [op["name"] for op in payload["ops"]]
        assert names[:6] == [
            "metrics", "rwr", "connection_subgraph", "query.path",
            "connectivity", "inspect_edge",
        ]
        # every session op is a first-class registry row with its scope
        session_rows = [op for op in payload["ops"] if op["name"].startswith("session.")]
        assert {op["name"] for op in session_rows} == {
            "session.create", "session.restore", "session.resume",
            "session.describe", "session.step", "session.close", "session.list",
            "session.metrics", "session.rwr", "session.connection_subgraph",
        }
        assert all(op["scope"] == "session" for op in session_rows)
        assert all("args" in op for op in payload["ops"])

    def test_stats_over_http(self, http_server):
        status, payload = _get(http_server.url + "/v1/stats")
        assert status == 200
        assert set(payload["stats"]) >= {"cache", "computed", "sessions", "datasets"}


class TestSessionRoutes:
    def test_session_lifecycle_over_http(self, http_server, hot_leaf):
        leaf, _ = hot_leaf
        client = GMineClient.http(http_server.url)
        info = client.create_session(name="walker", focus=leaf.label)
        assert info["focus"] == leaf.label
        assert info["session_id"] in client.sessions()

        step = client.session_step(info["session_id"], "community_metrics")
        assert step["result"]["num_weak_components"] >= 1
        assert step["session"]["steps"] == 2  # focus + metrics

        state = client.session_state(info["session_id"])
        assert state["focus"] == leaf.label

        client.close_session(info["session_id"])
        assert info["session_id"] not in client.sessions()

    def test_unknown_session_is_404_with_code(self, http_server):
        status, payload = _post(
            http_server.url + "/v1/sessions/ghost-9999/resume", None
        )
        assert status == 404
        assert payload["error"]["code"] == "SESSION_NOT_FOUND"
        assert payload["error"]["type"] == "SessionNotFoundError"

    def test_expired_session_is_410_with_code(self, api_dataset):
        # a dedicated service with an instantly-expiring TTL
        dataset, tree = api_dataset
        with GMineService(session_ttl=0.0) as service:
            service.register_tree(tree, graph=dataset.graph, name="dblp")
            with GMineHTTPServer(service, port=0) as server:
                client = GMineClient.http(server.url)
                info = client.create_session(name="brief")
                time.sleep(0.01)
                status, payload = _post(
                    server.url + f"/v1/sessions/{info['session_id']}/resume", None
                )
                assert status == 410
                assert payload["error"]["code"] == "SESSION_EXPIRED"
                with pytest.raises(SessionExpiredError):
                    client.resume_session(info["session_id"])

    def test_session_restore_over_http(self, http_server, hot_leaf):
        leaf, _ = hot_leaf
        client = GMineClient.http(http_server.url)
        info = client.create_session(name="saved", focus=leaf.label)
        state = client.session_state(info["session_id"])
        client.close_session(info["session_id"])

        revived = client.restore_session(state)
        assert revived["focus"] == leaf.label
        assert revived["session_id"] != info["session_id"]

    def test_bad_step_action_is_structured_error(self, http_server):
        client = GMineClient.http(http_server.url)
        info = client.create_session(name="stepper")
        with pytest.raises(NavigationError, match="unknown session action"):
            client.session_step(info["session_id"], "teleport")
        with pytest.raises(NavigationError, match="missing argument"):
            client.session_step(info["session_id"], "focus")

    def test_non_taxonomy_exception_still_returns_an_envelope(self, all_clients):
        # regression: a ValueError inside a session route used to escape the
        # router — the HTTP server dropped the connection and the in-process
        # client saw a raw traceback; both must get a structured envelope
        for client in all_clients:
            info = client.create_session(name="typo")
            with pytest.raises(InvalidArgumentError):
                client.session_step(
                    info["session_id"], "drill_down", child_index="abc"
                )
            client.close_session(info["session_id"])


class TestClientTypedErrors:
    def test_client_raises_taxonomy_exceptions(self, all_clients):
        for client in all_clients:
            with pytest.raises(UnknownOperationError):
                client.call("teleport")
            with pytest.raises(InvalidArgumentError):
                client.call("rwr", sources=[1], bogus=2)
            with pytest.raises(SessionNotFoundError):
                client.resume_session("never-issued")


def _query_body(leaf):
    return json.dumps({"op": "metrics", "args": {"community": leaf.label}})


def _raw_exchange(address, request: bytes, timeout=5.0):
    """Send raw bytes; return (response bytes, whether the server closed).

    Reads until the server closes the socket or ``timeout`` passes with
    the connection still open (the keep-alive outcome).
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        data = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except TimeoutError:
                return data, False
            if not chunk:
                return data, True
            data += chunk
            sock.settimeout(0.5)  # answered: now only watching for the close


class TestConnectionHandling:
    def test_lifecycle_and_reuse(self, service):
        server = GMineHTTPServer(service, port=0)
        with server:
            assert GMineClient.http(server.url).ops()
        # stopped: a fresh start binds a new port and serves again
        with server:
            assert GMineClient.http(server.url).ops()

    def test_keep_alive_requests_are_cheap(self, http_server, hot_leaf):
        # 50 sequential POSTs on ONE connection.  A server that writes head
        # and body separately stalls ~40 ms per request on the peer's
        # delayed ACK (the removed threaded server measured 44 ms).
        leaf, _ = hot_leaf
        connection = http.client.HTTPConnection(*http_server.address, timeout=10)
        latencies = []
        try:
            for _ in range(50):
                started = time.perf_counter()
                connection.request(
                    "POST", "/v1/query", body=_query_body(leaf),
                    headers={"Content-Type": "application/json"},
                )
                reply = connection.getresponse()
                payload = json.loads(reply.read())
                latencies.append(time.perf_counter() - started)
                assert reply.status == 200 and payload["ok"] is True
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.010

    @pytest.mark.parametrize("version, connection, closes", [
        ("HTTP/1.0", None, True),
        ("HTTP/1.0", "keep-alive", False),
        ("HTTP/1.1", None, False),
        ("HTTP/1.1", "close", True),
    ])
    def test_http_version_and_connection_header_decide_the_close(
        self, http_server, version, connection, closes
    ):
        # regression: the version was discarded, so a bare HTTP/1.0 request
        # was answered and then never closed — its reader hung
        head = f"GET /healthz {version}\r\nHost: x\r\n"
        if connection is not None:
            head += f"Connection: {connection}\r\n"
        data, closed = _raw_exchange(
            http_server.address, (head + "\r\n").encode("ascii"), timeout=3.0
        )
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body)["ok"] is True
        assert closed is closes
        expected = b"Connection: close" if closes else b"Connection: keep-alive"
        assert expected in head

    def test_malformed_http_gets_a_protocol_envelope(self, http_server):
        data, closed = _raw_exchange(http_server.address, b"GARBAGE\r\n\r\n")
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n", 1)[0]
        assert json.loads(body)["error"]["code"] == "PROTOCOL_ERROR"
        assert closed  # framing cannot be trusted any further

    def test_oversized_request_line_gets_a_400_envelope(self, http_server):
        # regression: a request line past the StreamReader limit used to
        # kill the connection task with an unhandled ValueError
        data, _ = _raw_exchange(
            http_server.address,
            b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
        )
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n", 1)[0]
        assert json.loads(body)["error"]["code"] == "PROTOCOL_ERROR"

    def test_unknown_routes_match_in_process_bytes(self, all_clients):
        local, remote = all_clients
        for method, path in (("GET", "/v1/nothing"), ("POST", "/v2/query")):
            outcomes = {
                (status, raw)
                for status, _, raw in (
                    client.transport.call(method, path, None)
                    for client in (local, remote)
                )
            }
            assert len(outcomes) == 1


def _authed_server(service, **extra):
    return GMineHTTPServer(
        service, port=0, policy=FrontendPolicy(auth_token="secret-7", **extra)
    )


class TestAuthToken:
    def test_missing_and_wrong_tokens_are_401(self, service):
        with _authed_server(service) as server:
            with pytest.raises(AuthRequiredError):
                GMineClient.http(server.url).ops()
            with pytest.raises(AuthRequiredError):
                GMineClient.http(server.url, auth_token="guess").ops()

    def test_right_token_passes_everywhere(self, service, hot_leaf):
        leaf, _ = hot_leaf
        with _authed_server(service) as server:
            client = GMineClient.http(server.url, auth_token="secret-7")
            assert client.ops()
            assert client.call("metrics", community=leaf.label)
            assert "edges" in client.stream_result("connectivity", chunk_size=2)

    def test_401_is_a_canonical_envelope(self, service):
        with _authed_server(service) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/v1/ops", timeout=10)
            assert excinfo.value.code == 401
            raw = excinfo.value.read()
        payload = json.loads(raw)
        assert payload["error"]["code"] == "AUTH_REQUIRED"
        assert raw == dumps(payload)

    def test_auth_guards_the_stream_route_too(self, service):
        with _authed_server(service) as server:
            [response] = list(GMineClient.http(server.url).stream("connectivity"))
            assert response.ok is False
            assert response.error.code == "AUTH_REQUIRED"


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestRateLimit:
    def test_token_bucket_semantics(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()  # burst (= rate) exhausted
        clock.advance(0.5)  # refills one token at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(10.0)  # refill clamps at capacity
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_429_beyond_the_bucket(self, service):
        clock = ManualClock()
        policy = FrontendPolicy(rate_limit=2.0, clock=clock)
        with GMineHTTPServer(service, port=0, policy=policy) as server:
            client = GMineClient.http(server.url)
            assert client.ops() and client.ops()
            with pytest.raises(RateLimitedError):
                client.ops()
            clock.advance(1.0)  # two tokens back
            assert client.ops()

    def test_rate_limited_envelope_carries_the_code(self, service):
        policy = FrontendPolicy(rate_limit=1.0, clock=ManualClock())
        with GMineHTTPServer(service, port=0, policy=policy) as server:
            client = GMineClient.http(server.url)
            client.ops()
            status, payload, _ = client.transport.call("GET", "/v1/ops", None)
            assert status == 429
            assert payload["error"]["code"] == "RATE_LIMITED"
            assert payload["error"]["type"] == "RateLimitedError"


class TestPolicyOrder:
    """Drain body → auth → rate limit → parse JSON → admission, pinned."""

    def test_auth_is_checked_before_rate(self, service):
        policy = FrontendPolicy(
            auth_token="secret", rate_limit=1.0, clock=ManualClock()
        )
        with GMineHTTPServer(service, port=0, policy=policy) as server:
            with pytest.raises(AuthRequiredError):
                GMineClient.http(server.url).ops()
            # the rejected request did not drain the bucket
            assert GMineClient.http(server.url, auth_token="secret").ops()

    def test_unauthenticated_malformed_body_is_401_not_400(self, service):
        # a stranger learns nothing about body validation before auth
        with _authed_server(service) as server:
            request = urllib.request.Request(
                server.url + "/v1/query", data=b"this is not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 401
            payload = json.loads(excinfo.value.read())
            assert payload["error"]["code"] == "AUTH_REQUIRED"

    def test_malformed_body_is_parsed_before_admission(self, service):
        policy = FrontendPolicy(max_inflight=1)
        with GMineHTTPServer(service, port=0, policy=policy) as server:
            request = urllib.request.Request(
                server.url + "/v1/query", data=b"{nope", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            assert policy.describe()["inflight"] == 0 and policy.shed == 0

    def test_rejected_post_does_not_corrupt_keep_alive_framing(
        self, service, hot_leaf
    ):
        # regression: replying 401 before draining the POST body used to
        # leave the body in the socket, garbling the next request on a
        # keep-alive connection — the follow-up authenticated request must
        # succeed on the same connection
        leaf, _ = hot_leaf
        with _authed_server(service) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                connection.request(
                    "POST", "/v1/query", body=_query_body(leaf),
                    headers={"Content-Type": "application/json"},
                )
                reply = connection.getresponse()
                rejected = json.loads(reply.read())
                assert reply.status == 401
                assert rejected["error"]["code"] == "AUTH_REQUIRED"
                connection.request(
                    "POST", "/v1/query", body=_query_body(leaf),
                    headers={
                        "Content-Type": "application/json",
                        "Authorization": "Bearer secret-7",
                    },
                )
                reply = connection.getresponse()
                payload = json.loads(reply.read())
                assert reply.status == 200 and payload["ok"] is True
            finally:
                connection.close()

    def test_health_probes_bypass_auth_rate_limit_and_admission(self, service):
        policy = FrontendPolicy(
            auth_token="secret-7", rate_limit=1.0, max_inflight=1,
            clock=ManualClock(),
        )
        with GMineHTTPServer(service, port=0, policy=policy) as server:
            assert policy.try_enter()  # the only admission slot is taken
            try:
                for _ in range(3):  # past the 1-token bucket, no bearer token
                    for probe in ("/healthz", "/readyz"):
                        with urllib.request.urlopen(
                            server.url + probe, timeout=10
                        ) as reply:
                            assert reply.status == 200
                            assert json.loads(reply.read())["ok"] is True
            finally:
                policy.leave()
            assert policy.shed == 0


def _wait_until(predicate, timeout=5.0):
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _edit_for(leaf):
    return [{"action": "add_edge", "u": leaf.members[0],
             "v": leaf.members[-1], "weight": 2.5}]


class _Subscribers:
    """``count`` HTTP clients long-polling one dataset from threads."""

    def __init__(self, url, count, timeout, since=0, via_query=False):
        self.replies = []  # (seconds waited, reply) per finished poll
        self.errors = []
        self._threads = [
            threading.Thread(
                target=self._poll, args=(url, timeout, since, via_query),
                daemon=True,
            )
            for _ in range(count)
        ]
        for thread in self._threads:
            thread.start()

    def _poll(self, url, timeout, since, via_query):
        client = GMineClient.http(url)
        started = time.perf_counter()
        try:
            if via_query:
                reply = client.query(
                    "dataset.subscribe",
                    args={"dataset": "dblp", "since": since,
                          "timeout": timeout},
                ).unwrap()
            else:
                reply = client.subscribe(
                    dataset="dblp", since=since, timeout=timeout
                )
        except Exception as error:  # noqa: BLE001 - reported by the test
            self.errors.append(error)
        else:
            self.replies.append((time.perf_counter() - started, reply))

    def join(self, timeout):
        limit = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, limit - time.monotonic()))
        return not any(thread.is_alive() for thread in self._threads)


class TestParkedLongPolls:
    """Long-polls wait as loop futures, never on executor threads."""

    def test_64_parked_subscribers_do_not_starve_the_server(
        self, api_dataset, hot_leaf
    ):
        # regression: every long-poll used to hold one of the executor's
        # min(32, cpu + 4) threads, so a handful of subscribers made an
        # unrelated GET /v1/stats wait out their timeout (2.7 s with 8)
        dataset, tree = api_dataset
        leaf, _ = hot_leaf
        with GMineService() as service:
            service.register_tree(tree.clone(), graph=dataset.graph, name="dblp")
            server = GMineHTTPServer(service, port=0).start()
            feed, _ = service.subscribe_feed("dblp", 0)
            subscribers = _Subscribers(server.url, 64, timeout=3.0)
            assert _wait_until(lambda: feed.waiters == 64)

            probes = []
            for _ in range(20):
                started = time.perf_counter()
                assert GMineClient.http(server.url).stats()
                probes.append(time.perf_counter() - started)
            assert sorted(probes)[18] < 0.100  # p95 of 20

            applied = time.perf_counter()
            service.apply_dataset("dblp", _edit_for(leaf))
            assert subscribers.join(timeout=5.0)
            woke_within = time.perf_counter() - applied
            assert not subscribers.errors
            assert woke_within < 0.250
            events = {dumps({"e": reply["events"]}) for _, reply in subscribers.replies}
            assert len(subscribers.replies) == 64 and len(events) == 1
            [event] = subscribers.replies[0][1]["events"]
            assert event["kind"] == "apply" and event["seq"] == 1
            assert feed.waiters == 0

            # stop() while a second wave is parked returns promptly
            parked = _Subscribers(server.url, 64, timeout=3.0, since=1)
            assert _wait_until(lambda: feed.waiters == 64)
            started = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started < 2.0
            assert feed.waiters == 0
            parked.join(timeout=5.0)

    def test_parked_reply_matches_the_blocking_in_process_bytes(
        self, api_dataset, hot_leaf
    ):
        # both spellings — the /v1/subscribe alias and the op via
        # /v1/query — wake with exactly what an in-process poll returns
        dataset, tree = api_dataset
        leaf, _ = hot_leaf
        with GMineService() as service:
            service.register_tree(tree.clone(), graph=dataset.graph, name="dblp")
            with GMineHTTPServer(service, port=0) as server:
                feed, _ = service.subscribe_feed("dblp", 0)
                alias = _Subscribers(server.url, 1, timeout=5.0)
                op = _Subscribers(server.url, 1, timeout=5.0, via_query=True)
                assert _wait_until(lambda: feed.waiters == 2)
                service.apply_dataset("dblp", _edit_for(leaf))
                assert alias.join(5.0) and op.join(5.0)
                local = GMineClient.in_process(service)
                expected = local.subscribe(dataset="dblp", timeout=5.0)
                assert alias.replies[0][1] == expected
                assert op.replies[0][1] == expected
                assert local.query(
                    "dataset.subscribe", args={"dataset": "dblp", "timeout": 5.0}
                ).unwrap() == expected

    def test_quiet_poll_times_out_with_an_empty_reply(self, http_server):
        client = GMineClient.http(http_server.url)
        started = time.perf_counter()
        reply = client.subscribe(dataset="dblp", timeout=0.3)
        assert 0.25 < time.perf_counter() - started < 2.0
        assert reply["events"] == [] and reply["lagged"] is False
        assert reply["next_since"] == 0

    def test_invalid_subscribes_keep_their_ordinary_envelopes(self, all_clients):
        # nothing to park: the hand-off declines and handle() answers
        for body in (
            {"dataset": "no-such-dataset", "timeout": 5},
            {"dataset": "dblp", "timeout": "soon"},
            {"dataset": "dblp", "timeout": -1},
        ):
            outcomes = {
                (status, raw)
                for status, _, raw in (
                    client.transport.call("POST", "/v1/subscribe", body)
                    for client in all_clients
                )
            }
            assert len(outcomes) == 1
            [(status, _)] = outcomes
            assert status in (400, 404)


class TestStop:
    def test_stop_with_open_connections_is_clean_and_prompt(
        self, service, caplog, monkeypatch
    ):
        # regression: an idle keep-alive connection (or a waiting
        # long-poll) at stop() time left its task pending — "Task was
        # destroyed but it is pending!" plus "Event loop is closed" from
        # the connection's cleanup
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        server = GMineHTTPServer(service, port=0).start()
        idle = http.client.HTTPConnection(*server.address, timeout=10)
        idle.request("GET", "/healthz")
        idle.getresponse().read()  # answered; the connection stays open
        feed, _ = service.subscribe_feed("dblp", 0)
        parked = _Subscribers(server.url, 1, timeout=10.0)
        assert _wait_until(lambda: feed.waiters == 1)
        with caplog.at_level("WARNING", logger="asyncio"):
            started = time.perf_counter()
            server.stop()
            elapsed = time.perf_counter() - started
            gc.collect()
        idle.close()
        parked.join(timeout=5.0)
        assert elapsed < 2.0
        assert not caplog.records, [r.getMessage() for r in caplog.records]
        assert not unraisable, [str(u.exc_value) for u in unraisable]
        assert feed.waiters == 0
