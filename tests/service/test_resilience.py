"""Resilience layer: deadlines, breakers, degraded serving, fault injection.

The chaos matrix at the bottom is the PR's acceptance gate: with a seeded
20%-failure FaultPlan wired into the service, every response on the
inline and process backends and over HTTP must be a *typed*
outcome — success, degraded stale serve, DEADLINE_EXCEEDED or OVERLOADED —
never an unhandled 500.
"""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest

from repro.api import FrontendPolicy, GMineClient, ProtocolRouter
from repro.api.http import GMineHTTPServer, retry_after_of
from repro.api.ops import DEFAULT_REGISTRY
from repro.api.router import dumps
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ServiceError,
)
from repro.service import (
    CircuitBreaker,
    Deadline,
    DatasetExecSpec,
    FaultPlan,
    GMineService,
    InlineBackend,
    ProcessBackend,
    ResultCache,
    RetryPolicy,
    SQLiteCacheStore,
    StaleServe,
)
from repro.storage.gtree_store import GTreeStore

pytestmark = pytest.mark.tier1


def _plan(op: str, args: dict):
    spec = DEFAULT_REGISTRY.get(op)
    canonical = spec.canonicalize(args)
    return spec.plan(canonical)


def _store_service(dataset, store_path, **kwargs) -> GMineService:
    svc = GMineService(**kwargs)
    store = GTreeStore(store_path, cache_capacity=16)
    svc.register_store(store, graph=dataset.graph, name="dblp")
    return svc


# --------------------------------------------------------------------- #
# Deadline
# --------------------------------------------------------------------- #
class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5)

    def test_remaining_and_expiry_follow_the_clock(self, clock):
        deadline = Deadline(250.0, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)
        assert not deadline.expired
        deadline.check("dispatch")  # plenty of budget: no raise
        clock.advance(0.2)
        assert deadline.remaining() == pytest.approx(0.05)
        clock.advance(0.06)
        assert deadline.expired
        with pytest.raises(DeadlineExceededError) as exc:
            deadline.check("kernel")
        assert "250ms" in str(exc.value)
        assert "kernel" in str(exc.value)


# --------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(
            attempts=4, base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        assert [policy.delay(a) for a in range(3)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),  # capped by max_delay
        ]

    def test_server_retry_after_hint_overrides_backoff(self):
        policy = RetryPolicy(attempts=3, base_delay=0.1, jitter=0.0)
        assert policy.delay(0, retry_after=1.5) == pytest.approx(1.5)
        assert policy.delay(0, retry_after=-3) == 0.0  # clamped

    def test_run_retries_transient_failures_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(
            attempts=3, base_delay=0.05, multiplier=2.0, jitter=0.0,
            sleep=sleeps.append,
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "value"

        result = policy.run(flaky, lambda e: "locked" in str(e))
        assert result == "value"
        assert len(attempts) == 3
        assert sleeps == [pytest.approx(0.05), pytest.approx(0.1)]
        assert policy.retries == 2

    def test_run_raises_non_retryable_immediately(self):
        policy = RetryPolicy(attempts=5, base_delay=0.0, jitter=0.0,
                             sleep=lambda s: None)
        calls = []

        def broken():
            calls.append(1)
            raise sqlite3.OperationalError("disk I/O error")

        with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
            policy.run(broken, lambda e: "locked" in str(e))
        assert len(calls) == 1

    def test_run_exhausts_attempts_and_raises_last_error(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0,
                             sleep=lambda s: None)
        with pytest.raises(ValueError, match="always"):
            policy.run(lambda: (_ for _ in ()).throw(ValueError("always")),
                       lambda e: True)
        assert policy.retries == 1


# --------------------------------------------------------------------- #
# CircuitBreaker
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_trips_only_on_consecutive_failures(self, clock):
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_open_rejects_until_reset_timeout(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.rejections == 1
        assert breaker.remaining_open() == pytest.approx(10.0)
        clock.advance(9.0)
        assert not breaker.allow()
        assert breaker.remaining_open() == pytest.approx(1.0)

    def test_half_open_probe_success_recloses(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only success_threshold probes admitted
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens_and_resets_clock(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert breaker.remaining_open() == pytest.approx(10.0)

    def test_describe_reports_counters(self, clock):
        breaker = CircuitBreaker(name="venue", failure_threshold=1, clock=clock)
        breaker.record_failure()
        breaker.allow()
        info = breaker.describe()
        assert info["name"] == "venue"
        assert info["state"] == "open"
        assert info["trips"] == 1
        assert info["rejections"] == 1


# --------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def _decisions(self, seed: int, fires: int):
        plan = FaultPlan(seed=seed, sleep=lambda s: None).on(
            "worker.run", probability=0.3, error=ServiceError("boom")
        )
        outcomes = []
        for _ in range(fires):
            try:
                plan.fire("worker.run")
                outcomes.append(False)
            except ServiceError:
                outcomes.append(True)
        return outcomes

    def test_same_seed_reproduces_the_exact_fire_sequence(self):
        first = self._decisions(seed=42, fires=60)
        second = self._decisions(seed=42, fires=60)
        assert first == second
        assert any(first) and not all(first)  # p=0.3 actually mixes

    def test_different_seeds_diverge(self):
        assert self._decisions(7, 60) != self._decisions(8, 60)

    def test_disabled_seam_is_a_no_op_but_counts_calls(self):
        plan = FaultPlan(seed=1)
        plan.fire("cache.get")  # no rules: must not raise or sleep
        assert plan.calls("cache.get") == 1
        assert plan.fired("cache.get") == 0

    def test_latency_uses_injected_sleep(self):
        sleeps = []
        plan = FaultPlan(seed=1, sleep=sleeps.append).on(
            "store.read", probability=1.0, latency=0.25
        )
        plan.fire("store.read")
        assert sleeps == [pytest.approx(0.25)]

    def test_times_budget_limits_a_rule(self):
        plan = FaultPlan(seed=1, sleep=lambda s: None).on(
            "cache.put", probability=1.0, error=ServiceError("twice"), times=2
        )
        for _ in range(2):
            with pytest.raises(ServiceError):
                plan.fire("cache.put")
        plan.fire("cache.put")  # budget spent: passes through
        assert plan.fired("cache.put") == 2

    def test_raises_fresh_error_instances(self):
        plan = FaultPlan(seed=1, sleep=lambda s: None).on(
            "worker.run", probability=1.0, error=ServiceError("shared")
        )
        with pytest.raises(ServiceError) as first:
            plan.fire("worker.run")
        with pytest.raises(ServiceError) as second:
            plan.fire("worker.run")
        assert first.value is not second.value
        assert str(first.value) == str(second.value) == "shared"

    def test_crash_rule_calls_injected_crash_hook(self):
        crashes = []
        plan = FaultPlan(seed=1, crash=lambda: crashes.append(1)).on(
            "worker.run", probability=1.0, crash=True
        )
        plan.fire("worker.run")
        assert crashes == [1]

    def test_describe_surfaces_rules_and_counters(self):
        plan = FaultPlan(seed=9, sleep=lambda s: None).on(
            "cache.get", probability=0.5, error=ServiceError("x")
        )
        info = plan.describe()
        assert info["seed"] == 9
        assert info["rules"][0]["seam"] == "cache.get"


# --------------------------------------------------------------------- #
# SQLite cache store: lock retry + breaker
# --------------------------------------------------------------------- #
class _FlakyStore(SQLiteCacheStore):
    """Store whose next ``fail_times`` reads raise ``fail_error``."""

    def __init__(self, *args, **kwargs):
        self.fail_times = 0
        self.fail_error = "database is locked"
        super().__init__(*args, **kwargs)

    def _get_impl(self, key, touch=True):
        if self.fail_times > 0:
            self.fail_times -= 1
            raise sqlite3.OperationalError(self.fail_error)
        return super()._get_impl(key, touch)


class TestSQLiteStoreResilience:
    def _store(self, tmp_path, clock, **kwargs):
        kwargs.setdefault(
            "lock_retry",
            RetryPolicy(attempts=4, base_delay=0.0, jitter=0.0,
                        sleep=lambda s: None),
        )
        kwargs.setdefault(
            "breaker",
            CircuitBreaker(name="cache-store", failure_threshold=3,
                           reset_timeout=5.0, clock=clock),
        )
        return _FlakyStore(tmp_path / "cache.db", **kwargs)

    def test_lock_contention_is_retried_transparently(self, tmp_path, clock):
        store = self._store(tmp_path, clock)
        store.put("k", "fp", {"v": 1}, None)
        store.fail_times = 2  # two locked reads, then success
        assert store.get("k") == ("hit", {"v": 1})
        assert store.lock_retry.retries == 2
        assert store.breaker.state == "closed"

    def test_non_lock_errors_are_not_retried_and_feed_the_breaker(
        self, tmp_path, clock
    ):
        store = self._store(tmp_path, clock)
        store.put("k", "fp", {"v": 1}, None)
        store.fail_times = 1
        store.fail_error = "disk I/O error"
        with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
            store.get("k")
        assert store.lock_retry.retries == 0  # deliberately not retried
        assert store.breaker.describe()["failures"] == 1

    def test_open_breaker_short_circuits_reads_to_a_miss(self, tmp_path, clock):
        store = self._store(tmp_path, clock)
        store.put("k", "fp", {"v": 1}, None)
        store.fail_times = 100
        store.fail_error = "disk I/O error"
        for _ in range(3):
            with pytest.raises(sqlite3.OperationalError):
                store.get("k")
        assert store.breaker.state == "open"
        # Open: the DB is not touched at all — the read degrades to a miss.
        remaining_failures = store.fail_times
        assert store.get("k") == ("miss", None)
        assert store.fail_times == remaining_failures  # short-circuited
        with pytest.raises(CircuitOpenError) as exc:
            store.try_claim("k", owner="me")
        assert exc.value.retry_after is not None

    def test_breaker_recovers_through_a_half_open_probe(self, tmp_path, clock):
        store = self._store(tmp_path, clock)
        store.put("k", "fp", {"v": 1}, None)
        store.fail_times = 3
        store.fail_error = "disk I/O error"
        for _ in range(3):
            with pytest.raises(sqlite3.OperationalError):
                store.get("k")
        assert store.breaker.state == "open"
        clock.advance(5.0)  # reset_timeout elapses; store is healed
        assert store.get("k") == ("hit", {"v": 1})  # the successful probe
        assert store.breaker.state == "closed"


# --------------------------------------------------------------------- #
# Degraded serving: stale-on-error
# --------------------------------------------------------------------- #
class TestStaleServe:
    def test_cache_serves_stale_value_when_recompute_fails(self, clock):
        cache = ResultCache(capacity=8, ttl=10.0, clock=clock)
        assert cache.get_or_compute("k", lambda: {"rows": [1, 2]}) == {
            "rows": [1, 2]
        }
        clock.advance(11.0)  # entry expires but stays resident

        def broken():
            raise ServiceError("backend outage")

        served = cache.get_or_compute("k", broken, stale_ok=True)
        assert isinstance(served, StaleServe)
        assert served.value == {"rows": [1, 2]}
        assert cache.stats.stale_serves == 1

    def test_without_stale_ok_the_error_propagates(self, clock):
        cache = ResultCache(capacity=8, ttl=10.0, clock=clock)
        cache.get_or_compute("k", lambda: 1)
        clock.advance(11.0)
        with pytest.raises(ServiceError):
            cache.get_or_compute(
                "k", lambda: (_ for _ in ()).throw(ServiceError("x"))
            )

    def test_deadline_failures_are_never_stale_served(self, clock):
        cache = ResultCache(capacity=8, ttl=10.0, clock=clock)
        cache.get_or_compute("k", lambda: 1)
        clock.advance(11.0)

        def overdue():
            raise DeadlineExceededError("deadline of 5ms exceeded (kernel)")

        # The caller asked for bounded latency: stale data cannot satisfy
        # a deadline failure, so it propagates even with stale_ok.
        with pytest.raises(DeadlineExceededError):
            cache.get_or_compute("k", overdue, stale_ok=True)

    def test_healed_backend_refreshes_instead_of_re_serving_stale(self, clock):
        cache = ResultCache(capacity=8, ttl=10.0, clock=clock)
        cache.get_or_compute("k", lambda: "old")
        clock.advance(11.0)
        served = cache.get_or_compute(
            "k", lambda: (_ for _ in ()).throw(ServiceError("x")), stale_ok=True
        )
        assert served.value == "old"
        # Stale serve must not re-stamp the entry: once the backend heals,
        # the very next lookup recomputes rather than serving stale again.
        assert cache.get_or_compute("k", lambda: "new", stale_ok=True) == "new"


# --------------------------------------------------------------------- #
# Deadlines in the execution backends
# --------------------------------------------------------------------- #
class TestBackendDeadlines:
    SPEC = DatasetExecSpec(name="d", fingerprint="f")

    def test_inline_rejects_an_already_expired_deadline(self, clock):
        backend = InlineBackend()
        deadline = Deadline(50.0, clock=clock)
        clock.advance(0.06)
        ran = []
        with pytest.raises(DeadlineExceededError):
            backend.run(self.SPEC, _plan("metrics", {"community": 0}),
                        lambda: ran.append(1), deadline=deadline)
        assert not ran  # rejected at admission, kernel never started
        assert backend.stats()["deadline"]["rejected"] == 1

    def test_inline_abandons_a_result_that_finished_late(self, clock):
        backend = InlineBackend()
        deadline = Deadline(50.0, clock=clock)

        def slow():
            clock.advance(0.2)  # kernel overruns the budget
            return "late value"

        with pytest.raises(DeadlineExceededError):
            backend.run(self.SPEC, _plan("metrics", {"community": 0}), slow,
                        deadline=deadline)
        assert backend.stats()["deadline"]["abandoned"] == 1

    def test_process_backend_abandons_and_stays_healthy(self, store_path):
        with GTreeStore(store_path) as probe:
            spec = DatasetExecSpec(
                name="dblp", fingerprint=probe.fingerprint,
                store_path=str(store_path),
            )
            label = probe.tree.leaves()[0].label
        plan = _plan("metrics", {"community": label})
        backend = ProcessBackend(workers=1)
        try:
            # A fresh pool has to start its worker first, which takes far
            # longer than this budget: the wait is cut short.
            with pytest.raises(DeadlineExceededError):
                backend.run(spec, plan, lambda: "never", deadline=Deadline(20.0))
            # The pool is not poisoned: the next run ships and completes.
            value = backend.run(spec, plan, lambda: "parent")
            assert value != "parent"
            stats = backend.stats()
            assert stats["deadline"]["abandoned"] == 1
            assert stats["shipped"] == 1 and stats["fallbacks"] == 0
        finally:
            backend.close()


# --------------------------------------------------------------------- #
# ProcessBackend breaker: open → parent fallback
# --------------------------------------------------------------------- #
class TestProcessBreakerFallback:
    def test_open_breaker_runs_plans_in_the_parent(self, clock):
        breaker = CircuitBreaker(
            name="process-pool", failure_threshold=1, reset_timeout=60.0,
            clock=clock,
        )
        backend = ProcessBackend(workers=1, breaker=breaker)
        try:
            breaker.record_failure()  # trip it without killing a real pool
            assert breaker.state == "open"
            spec = DatasetExecSpec(
                name="d", fingerprint="f", store_path="/nonexistent.gtree"
            )
            assert spec.process_capable
            value = backend.run(
                spec, _plan("metrics", {"community": 0}), lambda: "parent result"
            )
            assert value == "parent result"
            assert backend._pool is None  # the pool was never even created
            stats = backend.stats()
            assert stats["breaker_skips"] == 1
            assert stats["breaker"]["state"] == "open"
        finally:
            backend.close()


# --------------------------------------------------------------------- #
# Admission control + health endpoints
# --------------------------------------------------------------------- #
class TestAdmissionPolicy:
    def test_try_enter_sheds_above_max_inflight(self):
        policy = FrontendPolicy(max_inflight=2)
        assert policy.try_enter() and policy.try_enter()
        assert not policy.try_enter()
        assert policy.shed == 1
        policy.leave()
        assert policy.try_enter()
        info = policy.describe()
        assert info["max_inflight"] == 2 and info["shed"] == 1

    def test_uncapped_policy_never_sheds(self):
        policy = FrontendPolicy()
        assert all(policy.try_enter() for _ in range(100))
        assert policy.shed == 0

    def test_overloaded_error_carries_retry_after(self):
        error = FrontendPolicy(max_inflight=1).overloaded()
        assert isinstance(error, OverloadedError)
        assert error.retry_after == pytest.approx(1.0)

    def test_retry_after_of_reads_error_details(self):
        payload = {"ok": False, "error": {"code": "OVERLOADED",
                                          "details": {"retry_after": 2.5}}}
        assert retry_after_of(payload) == pytest.approx(2.5)
        assert retry_after_of({"ok": True, "result": {}}) is None


class TestHealthEndpoints:
    def test_bare_service_is_live_but_not_ready(self):
        with GMineService() as svc:
            router = ProtocolRouter(svc)
            status, payload = router.handle("GET", "/healthz", {})
            assert status == 200 and payload["ok"] is True
            status, payload = router.handle("GET", "/readyz", {})
            assert status == 503
            assert payload["health"]["ready"] is False

    def test_registered_dataset_makes_the_service_ready(self, service):
        router = ProtocolRouter(service)
        status, payload = router.handle("GET", "/readyz", {})
        assert status == 200
        assert payload["health"]["ready"] is True
        assert payload["health"]["datasets"] == 1

    def test_open_breaker_flips_readiness(
        self, service_dataset, store_path, tmp_path
    ):
        dataset, _ = service_dataset
        svc = _store_service(dataset, store_path,
                             cache_path=tmp_path / "cache.db")
        with svc:
            breaker = svc.cache.store.breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            router = ProtocolRouter(svc)
            status, payload = router.handle("GET", "/readyz", {})
            assert status == 503
            assert payload["health"]["open_breakers"] == ["cache-store"]
            status, _ = router.handle("GET", "/healthz", {})
            assert status == 200  # liveness is unaffected

    def test_resilience_stats_surface_breakers_and_deadline_counters(
        self, service
    ):
        stats = service.stats()
        resilience = stats["resilience"]
        assert "deadline" in resilience
        assert resilience["deadline"]["rejected"] == 0
        assert resilience["stale_serves"] == 0


# --------------------------------------------------------------------- #
# HTTP server: shedding, health bypass, deadline envelopes
# --------------------------------------------------------------------- #

def _wait_until(predicate, timeout=5.0):
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestFrontendOverload:
    def test_sheds_with_503_and_retry_after_while_health_stays_up(
        self, service
    ):
        policy = FrontendPolicy(max_inflight=1)
        with GMineHTTPServer(service, port=0, policy=policy) as server:
            holder = GMineClient.http(server.url)
            result = {}

            def long_poll():
                # Occupies the single admission slot until close() wakes it.
                result["sub"] = holder.subscribe(dataset="dblp", timeout=10.0)

            thread = threading.Thread(target=long_poll, daemon=True)
            thread.start()
            try:
                assert _wait_until(lambda: policy.describe()["inflight"] == 1)
                with GMineClient.http(server.url) as client:
                    status, payload, _ = client.transport.call(
                        "POST", "/v1/query",
                        {"op": "connectivity", "dataset": "dblp", "args": {}},
                    )
                    assert status == 503
                    assert payload["error"]["code"] == "OVERLOADED"
                    assert payload["error"]["details"]["retry_after"] >= 1.0
                    # Health probes bypass admission control entirely.
                    health = client.transport.call("GET", "/healthz", None)
                    assert health[0] == 200
            finally:
                service._feed("dblp").close()  # wake the long-poll
                thread.join(timeout=5.0)
                holder.close()
            assert not thread.is_alive()
            assert policy.shed >= 1
            assert result["sub"]["events"] == []

    def test_retry_after_header_is_set_on_shed_responses(self, service):
        import urllib.error
        import urllib.request

        policy = FrontendPolicy(max_inflight=1)
        with GMineHTTPServer(service, port=0, policy=policy) as server:
            holder = GMineClient.http(server.url)
            thread = threading.Thread(
                target=lambda: holder.subscribe(dataset="dblp", timeout=10.0),
                daemon=True,
            )
            thread.start()
            try:
                assert _wait_until(lambda: policy.describe()["inflight"] == 1)
                body = dumps({"op": "connectivity", "dataset": "dblp",
                              "args": {}})
                request = urllib.request.Request(
                    server.url + "/v1/query", data=body, method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(request, timeout=10)
                assert exc.value.code == 503
                assert exc.value.headers["Retry-After"] == "1"
            finally:
                service._feed("dblp").close()
                thread.join(timeout=5.0)
                holder.close()


class TestDeadlineEnvelope:
    def test_expired_deadline_returns_a_504_envelope(self, service):
        with GMineClient.in_process(service) as client:
            status, payload, _ = client.transport.call(
                "POST", "/v1/query",
                {"op": "connectivity", "dataset": "dblp", "args": {},
                 "deadline_ms": 1e-6},
            )
            assert status == 504
            assert payload["error"]["code"] == "DEADLINE_EXCEEDED"

    def test_client_timeout_stamps_deadline_ms(self, service):
        with GMineClient.in_process(service) as client:
            response = client.query("connectivity", dataset="dblp",
                                    timeout=30.0)
            assert response.ok  # generous budget: served normally
            response = client.query("connectivity", dataset="dblp",
                                    timeout=1e-9)
            assert not response.ok
            assert response.error.code == "DEADLINE_EXCEEDED"
            with pytest.raises(DeadlineExceededError):
                response.unwrap()


# --------------------------------------------------------------------- #
# Client-side retry
# --------------------------------------------------------------------- #
class _ScriptedTransport:
    """Transport stub that replays a canned list of outcomes."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def call(self, method, path, body, timeout=None):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def close(self):
        pass


def _overloaded_payload(op, retry_after=0.25):
    return (503, {
        "protocol": "gmine/1", "ok": False, "op": op,
        "error": {"code": "OVERLOADED", "type": "OverloadedError",
                  "message": "server at capacity",
                  "details": {"retry_after": retry_after}},
    }, b"")


def _ok_payload(op):
    return (200, {"protocol": "gmine/1", "ok": True, "op": op,
                  "result": {"value": 1}}, b"")


class TestClientRetry:
    def _policy(self, sleeps):
        return RetryPolicy(attempts=3, base_delay=0.05, multiplier=2.0,
                           jitter=0.0, sleep=sleeps.append)

    def test_idempotent_op_retries_overloaded_with_server_hint(self):
        sleeps = []
        transport = _ScriptedTransport([
            _overloaded_payload("connectivity", retry_after=0.25),
            _ok_payload("connectivity"),
        ])
        client = GMineClient(transport, retry=self._policy(sleeps))
        response = client.query("connectivity", dataset="dblp")
        assert response.ok
        assert transport.calls == 2
        assert sleeps == [pytest.approx(0.25)]  # server hint, not backoff

    def test_non_idempotent_op_never_retries(self):
        sleeps = []
        transport = _ScriptedTransport([
            _overloaded_payload("session.step"),
            _ok_payload("session.step"),
        ])
        client = GMineClient(transport, retry=self._policy(sleeps))
        response = client.query("session.step", dataset="dblp")
        assert not response.ok
        assert transport.calls == 1
        assert sleeps == []
        with pytest.raises(OverloadedError) as exc:
            response.unwrap()
        assert exc.value.retry_after == pytest.approx(0.25)

    def test_transport_failures_retry_for_idempotent_ops(self):
        sleeps = []
        transport = _ScriptedTransport([
            ProtocolError("connection torn"),
            _ok_payload("connectivity"),
        ])
        client = GMineClient(transport, retry=self._policy(sleeps))
        assert client.query("connectivity", dataset="dblp").ok
        assert transport.calls == 2

    def test_exhausted_retries_surface_the_last_envelope(self):
        transport = _ScriptedTransport([
            _overloaded_payload("connectivity"),
            _overloaded_payload("connectivity"),
            _overloaded_payload("connectivity"),
        ])
        client = GMineClient(transport, retry=self._policy([]))
        response = client.query("connectivity", dataset="dblp")
        assert not response.ok
        assert response.error.code == "OVERLOADED"
        assert transport.calls == 3

    def test_no_retry_policy_means_single_shot(self):
        transport = _ScriptedTransport([_overloaded_payload("connectivity")])
        client = GMineClient(transport)
        assert not client.query("connectivity", dataset="dblp").ok
        assert transport.calls == 1


# --------------------------------------------------------------------- #
# Shutdown wakes long-polls
# --------------------------------------------------------------------- #
class TestSubscribeShutdown:
    def test_close_wakes_http_long_poll_promptly(
        self, service_dataset, store_path
    ):
        dataset, _ = service_dataset
        svc = _store_service(dataset, store_path)
        server = GMineHTTPServer(svc, port=0).start()
        client = GMineClient.http(server.url)
        result = {}

        def long_poll():
            result["sub"] = client.subscribe(dataset="dblp", timeout=10.0)

        thread = threading.Thread(target=long_poll, daemon=True)
        thread.start()
        assert _wait_until(lambda: svc._feed("dblp").waiters > 0)
        started = time.monotonic()
        svc.close()  # must wake the poll, not strand it for 10s
        thread.join(timeout=5.0)
        elapsed = time.monotonic() - started
        assert not thread.is_alive()
        assert elapsed < 5.0
        assert result["sub"]["events"] == []
        assert result["sub"]["lagged"] is False
        client.close()
        server.stop()

    def test_closed_feed_returns_immediately_for_new_polls(
        self, service_dataset, store_path
    ):
        dataset, _ = service_dataset
        svc = _store_service(dataset, store_path)
        svc.close()
        feed = svc._feed("dblp")
        assert feed.closed


# --------------------------------------------------------------------- #
# The chaos matrix
# --------------------------------------------------------------------- #
def _chaos_queries(tree):
    leaves = sorted(tree.leaves(), key=lambda node: node.label)[:4]
    queries = [("metrics", {"community": leaf.label}) for leaf in leaves]
    hot = max(leaves, key=lambda node: node.size)
    queries.append(("rwr", {"sources": list(hot.members[:2]),
                            "community": hot.label}))
    queries.append(("connectivity", {}))
    return queries


def _run_chaos_round(client, queries, primed):
    """One sweep over the query set; returns the degraded flags observed."""
    flags = []
    for op, args in queries:
        response = client.query(op, dataset="dblp", args=args)
        assert response.ok, f"untyped failure for {op}: {response.error}"
        key = (op, dumps(args))
        body = dumps(response.result)
        assert body == primed[key], f"{op} result drifted under faults"
        flags.append(bool(response.degraded))
    return flags


class TestChaosMatrix:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_only_typed_outcomes_under_20pct_backend_failure(
        self, backend, service_dataset, store_path, clock
    ):
        dataset, tree = service_dataset
        plan = FaultPlan(seed=1729, sleep=lambda s: None)
        svc = _store_service(
            dataset, store_path, backend=f"{backend}:2", cache_ttl=30.0,
            clock=clock, fault_injector=plan, max_workers=4,
        )
        queries = _chaos_queries(tree)
        with svc, GMineClient.in_process(svc) as client:
            primed = {}
            for op, args in queries:
                response = client.query(op, dataset="dblp", args=args)
                assert response.ok and not response.degraded
                primed[(op, dumps(args))] = dumps(response.result)

            plan.on("worker.run", probability=0.2,
                    error=ServiceError("injected backend outage"))
            degraded_total = 0
            for _ in range(4):
                clock.advance(31.0)  # expire the cache: force recomputes
                flags = _run_chaos_round(client, queries, primed)
                degraded_total += sum(flags)

            assert degraded_total > 0, "seed 1729 must inject some outages"
            assert degraded_total == plan.fired("worker.run")
            stats = svc.stats()
            assert stats["resilience"]["stale_serves"] == degraded_total

    def test_chaos_outcome_sequence_is_reproducible_by_seed(
        self, service_dataset, store_path
    ):
        from tests.service.conftest import ManualClock

        dataset, tree = service_dataset
        queries = _chaos_queries(tree)

        def run_once():
            clock = ManualClock()
            plan = FaultPlan(seed=7, sleep=lambda s: None)
            svc = _store_service(
                dataset, store_path, cache_ttl=30.0, clock=clock,
                fault_injector=plan,
            )
            sequence = []
            with svc, GMineClient.in_process(svc) as client:
                primed = {}
                for op, args in queries:
                    response = client.query(op, dataset="dblp", args=args)
                    primed[(op, dumps(args))] = dumps(response.result)
                plan.on("worker.run", probability=0.3,
                        error=ServiceError("injected"))
                for _ in range(3):
                    clock.advance(31.0)
                    sequence.extend(_run_chaos_round(client, queries, primed))
            return sequence

        first = run_once()
        second = run_once()
        assert first == second
        assert any(first)

    def test_http_never_emits_500_under_faults(
        self, service_dataset, store_path
    ):
        from tests.service.conftest import ManualClock

        dataset, tree = service_dataset
        clock = ManualClock()
        plan = FaultPlan(seed=99, sleep=lambda s: None)
        svc = _store_service(
            dataset, store_path, cache_ttl=30.0, clock=clock,
            fault_injector=plan,
        )
        queries = _chaos_queries(tree)
        with svc, GMineHTTPServer(svc, port=0) as server:
            with GMineClient.http(server.url) as client:
                primed = {}
                for op, args in queries:
                    response = client.query(op, dataset="dblp", args=args)
                    assert response.ok
                    primed[(op, dumps(args))] = dumps(response.result)
                plan.on("worker.run", probability=0.2,
                        error=ServiceError("injected backend outage"))
                degraded = 0
                for _ in range(3):
                    clock.advance(31.0)
                    for op, args in queries:
                        status, payload, _ = client.transport.call(
                            "POST", "/v1/query",
                            {"op": op, "dataset": "dblp", "args": args},
                        )
                        assert status == 200, f"got {status} for {op}: {payload}"
                        assert payload["ok"] is True
                        key = (op, dumps(args))
                        assert dumps(payload["result"]) == primed[key]
                        degraded += bool(payload.get("degraded"))
                assert degraded == plan.fired("worker.run")
                assert degraded > 0


# --------------------------------------------------------------------- #
# Injector overhead when disabled
# --------------------------------------------------------------------- #
class TestDisabledInjectorOverhead:
    def test_service_without_injector_never_pays_the_seams(self, service):
        # The wiring is an identity check per seam: with no injector the
        # service must not even construct plan state.  (The ≤2% overhead
        # acceptance gate is measured by benchmarks/bench_chaos.py; this
        # test pins the structural guarantee it relies on.)
        assert service._injector is None
        assert service.cache._injector is None
