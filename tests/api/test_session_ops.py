"""Session-scoped registry ops: dispatch, delegation, batch isolation.

Protocol v2's tentpole claim is that **no session dispatch exists outside
the registry**: creating, stepping, describing and closing sessions — and
running mining ops in a session's context — are all ordinary registry
operations served through ``/v1/query`` (the ``/v1/sessions/...`` URLs
are thin aliases).  These tests drive the surface through the service and
both wire transports, and pin the satellite fix: an expired session
*inside a batch* must surface as a ``SESSION_EXPIRED`` envelope for that
entry alone, on every transport — and identical session.step requests in
one batch must both apply (no cache-key dedup for session state).
"""

import time

import pytest

from repro.api import DEFAULT_REGISTRY, GMineClient, GMineHTTPServer
from repro.errors import (
    InvalidArgumentError,
    NavigationError,
    SessionExpiredError,
    SessionNotFoundError,
)
from repro.service import GMineService

pytestmark = pytest.mark.tier1


class TestSessionOpsViaQuery:
    def test_full_lifecycle_through_the_query_route(self, all_clients, hot_leaf):
        leaf, _ = hot_leaf
        for client in all_clients:
            created = client.call(
                "session.create", name="walker", focus=leaf.label
            )
            sid = created["session"]["session_id"]
            assert created["session"]["focus"] == leaf.label
            assert sid in client.call("session.list")["sessions"]

            stepped = client.call(
                "session.step", session_id=sid, action="community_metrics"
            )
            assert stepped["result"]["num_weak_components"] >= 1
            assert stepped["session"]["steps"] == 2  # focus + metrics

            described = client.call("session.describe", session_id=sid)
            assert described["state"]["focus"] == leaf.label

            resumed = client.call("session.resume", session_id=sid)
            assert resumed["session"]["touches"] >= 1

            revived = client.call("session.restore", state=described["state"])
            assert revived["session"]["focus"] == leaf.label
            assert revived["session"]["session_id"] != sid

            closed = client.call("session.close", session_id=sid)
            assert closed == {"closed": sid}
            assert sid not in client.call("session.list")["sessions"]
            client.call("session.close",
                        session_id=revived["session"]["session_id"])

    def test_describe_is_a_read_only_peek(self, all_clients):
        local = all_clients[0]
        sid = local.call("session.create", name="peeked")["session"]["session_id"]
        before = local.call("session.describe", session_id=sid)["session"]
        again = local.call("session.describe", session_id=sid)["session"]
        assert before == again  # touches untouched: idempotent read
        assert local.call("session.resume", session_id=sid)["session"][
            "touches"
        ] == before["touches"] + 1

    def test_envelope_dataset_field_reaches_session_create(self, all_clients):
        local = all_clients[0]
        response = local.query("session.create", dataset="dblp",
                               args={"name": "routed"})
        assert response.unwrap()["session"]["dataset"] == "dblp"

    def test_schema_validation_comes_from_the_registry(self, all_clients):
        for client in all_clients:
            with pytest.raises(InvalidArgumentError, match="ttl"):
                client.call("session.create", ttl="forever")
            with pytest.raises(InvalidArgumentError, match="requires argument"):
                client.call("session.step", action="focus")
            with pytest.raises(InvalidArgumentError, match="unknown argument"):
                client.call("session.resume", session_id="x", extra=1)

    def test_step_errors_stay_structured(self, all_clients):
        local = all_clients[0]
        sid = local.call("session.create", name="typo")["session"]["session_id"]
        with pytest.raises(NavigationError, match="unknown session action"):
            local.call("session.step", session_id=sid, action="teleport")
        with pytest.raises(NavigationError, match="missing argument"):
            local.call("session.step", session_id=sid, action="focus")

    def test_unknown_and_expired_sessions_raise_typed_errors(self, all_clients):
        for client in all_clients:
            with pytest.raises(SessionNotFoundError):
                client.call("session.resume", session_id="never-issued")
            with pytest.raises(SessionNotFoundError):
                client.call("session.metrics", session_id="never-issued")


class TestSessionMiningVariants:
    def test_focus_is_the_default_scope(self, all_clients, hot_leaf):
        local = all_clients[0]
        leaf, members = hot_leaf
        sid = local.call("session.create", name="m", focus=leaf.label)[
            "session"
        ]["session_id"]
        via_session = local.call("session.metrics", session_id=sid)
        direct = local.call("metrics", community=leaf.label)
        assert via_session == direct

    def test_explicit_community_overrides_the_focus(self, all_clients, sibling_pair):
        local = all_clients[0]
        community_a, _ = sibling_pair
        sid = local.call("session.create", name="o")["session"]["session_id"]
        via_session = local.call(
            "session.metrics", session_id=sid, community=community_a
        )
        assert via_session == local.call("metrics", community=community_a)

    def test_variant_feeds_the_shared_cache(self, service, hot_leaf):
        leaf, members = hot_leaf
        local = GMineClient.in_process(service)
        sid = local.call("session.create", name="c", focus=leaf.label)[
            "session"
        ]["session_id"]
        args = {"session_id": sid, "sources": members}
        first = local.query("session.rwr", args=args)
        assert first.unwrap() and first.cached is False
        # the delegated kernel ran once, under the dataset op's name
        assert service.compute_counts.get("rwr") == 1
        assert "session.rwr" not in service.compute_counts
        second = local.query("session.rwr", args=args)
        assert second.cached is True  # honest delegated cached flag
        direct = local.query(
            "rwr", args={"sources": members, "community": leaf.label}
        )
        assert direct.cached is True
        assert service.compute_counts.get("rwr") == 1

    def test_variant_touches_the_session_ttl(self, api_dataset):
        dataset, tree = api_dataset
        with GMineService(session_ttl=10.0) as service:
            service.register_tree(tree, graph=dataset.graph, name="dblp")
            local = GMineClient.in_process(service)
            sid = local.call("session.create", name="t")["session"]["session_id"]
            local.call("session.metrics", session_id=sid)
            assert service.peek_session(sid).touches == 1


class TestBatchSessionIsolation:
    """Satellite fix: SESSION_EXPIRED propagates through batch isolation."""

    def _expired_session_id(self, service):
        session = service.open_session(name="brief", ttl=0.0)
        time.sleep(0.01)
        return session.session_id

    def test_expired_session_in_batch_carries_its_code(
        self, service, http_server, hot_leaf
    ):
        leaf, members = hot_leaf
        sid = self._expired_session_id(service)
        requests = [
            {"op": "metrics", "args": {"community": leaf.label}},
            {"op": "session.metrics", "args": {"session_id": sid}},
            {"op": "session.rwr", "args": {"session_id": sid,
                                           "sources": members}},
            {"op": "rwr", "args": {"sources": members,
                                   "community": leaf.label}},
        ]
        for client in (
            GMineClient.in_process(service),
            GMineClient.http(http_server.url),
        ):
            replies = client.batch(requests)
            assert [r.ok for r in replies] == [True, False, False, True]
            for failed in replies[1:3]:
                assert failed.error.code == "SESSION_EXPIRED"
                assert failed.error.type == "SessionExpiredError"
                with pytest.raises(SessionExpiredError):
                    failed.unwrap()

    def test_unknown_session_in_batch_is_not_found(self, all_clients, hot_leaf):
        leaf, _ = hot_leaf
        local = all_clients[0]
        replies = local.batch([
            {"op": "session.describe", "args": {"session_id": "ghost"}},
            {"op": "metrics", "args": {"community": leaf.label}},
        ])
        assert replies[0].ok is False
        assert replies[0].error.code == "SESSION_NOT_FOUND"
        assert replies[1].ok is True

    def test_identical_session_steps_in_one_batch_both_apply(
        self, all_clients, hot_leaf
    ):
        # regression guard for the dedup seam: session ops have no stable
        # request identity, so the batch dedup must never collapse them
        leaf, _ = hot_leaf
        local = all_clients[0]
        sid = local.call("session.create", name="twice", focus=leaf.label)[
            "session"
        ]["session_id"]
        step = {"op": "session.step",
                "args": {"session_id": sid, "action": "drill_up"}}
        replies = local.batch([step, dict(step)])
        assert all(r.ok for r in replies)
        assert not any(r.cached for r in replies)
        described = local.call("session.describe", session_id=sid)
        assert described["session"]["steps"] == 3  # focus + two drill_ups

    def test_direct_service_batch_shares_the_same_isolation(self, service):
        sid = self._expired_session_id(service)
        results = service.batch([
            {"op": "session.resume", "args": {"session_id": sid}},
            {"op": "session.list", "args": {}},
        ])
        assert results[0].ok is False and results[0].code == "SESSION_EXPIRED"
        assert results[1].ok is True


class TestLegacySessionRoutesAreAliases:
    def test_query_and_legacy_route_share_validation(self, http_server):
        import json
        import urllib.request

        def post(path, payload):
            request = urllib.request.Request(
                http_server.url + path,
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=10) as reply:
                    return reply.status, json.loads(reply.read())
            except urllib.error.HTTPError as error:  # noqa: PERF203
                return error.code, json.loads(error.read())

        legacy_status, legacy = post("/v1/sessions", {"ttl": "forever"})
        query_status, query = post(
            "/v1/query",
            {"op": "session.create", "args": {"ttl": "forever"}},
        )
        assert legacy_status == query_status == 400
        assert legacy["error"] == query["error"]

    def test_registry_row_exists_for_every_session_route(self):
        # the alias table in the router can only name registry ops
        for name in (
            "session.create", "session.restore", "session.resume",
            "session.describe", "session.step", "session.close",
            "session.list",
        ):
            assert name in DEFAULT_REGISTRY
