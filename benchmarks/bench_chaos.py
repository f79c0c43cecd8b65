"""Chaos benchmark: typed outcomes and bounded latency under injected faults.

Drives the service through three adversarial phases and emits
``BENCH_chaos.json`` next to this file:

* **degraded serving** — a seeded :class:`~repro.service.faults.FaultPlan`
  fails 20% of backend computations; every request must still resolve to a
  typed outcome (fresh success, ``degraded`` stale serve, or a 4xx/5xx
  envelope from the error taxonomy) and never an unhandled 500.  Reports
  per-request wall latency (p50/p99) against the request deadline budget.
* **overload shedding** — the HTTP server capped at
  ``--max-inflight 2`` takes concurrent fire from 8 client threads;
  reports the shed rate and verifies every shed is a 503 ``OVERLOADED``
  envelope, never a socket error or a 500.
* **injector overhead** — the same cached query stream with no injector
  vs an attached-but-ruleless plan; the disabled seams must cost ~nothing
  (acceptance gate: <= 2% on the cached path).

Gates (recorded in the JSON, asserted by ``make bench-chaos``):
``zero_500s`` and ``p99_within_deadline``.

Run it:  ``PYTHONPATH=src python benchmarks/bench_chaos.py``
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.api import FrontendPolicy, GMineClient, GMineHTTPServer
from repro.core.builder import build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.errors import ServiceError
from repro.service import FaultPlan, GMineService

AUTHORS = 400
SEED = 2026
FAILURE_RATE = 0.2
DEADLINE_MS = 250.0
CACHE_TTL = 30.0
CHAOS_ROUNDS = 12
OVERLOAD_THREADS = 8
OVERLOAD_REQUESTS = 200
OVERHEAD_REQUESTS = 3000


class ManualClock:
    """Deterministic service clock so cache expiry is driven, not slept."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[int(q * (len(ordered) - 1))]


def _build():
    dataset = generate_dblp(DBLPConfig(num_authors=AUTHORS, seed=SEED))
    tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=SEED)
    return dataset, tree


def _queries(tree):
    leaves = sorted(tree.leaves(), key=lambda node: node.label)
    queries = [("metrics", {"community": leaf.label}) for leaf in leaves[:6]]
    hot = max(leaves, key=lambda node: node.size)
    members = list(hot.members)
    queries += [
        ("rwr", {"sources": [members[i], members[i + 1]],
                 "community": hot.label})
        for i in range(3)
    ]
    return queries


def chaos_phase(dataset, tree) -> dict:
    clock = ManualClock()
    plan = FaultPlan(seed=SEED, sleep=lambda s: None)
    outcomes = {"ok": 0, "degraded": 0, "deadline_exceeded": 0,
                "overloaded": 0, "other_typed_error": 0, "untyped_500": 0}
    latencies = []
    with GMineService(cache_ttl=CACHE_TTL, clock=clock,
                      fault_injector=plan) as service:
        service.register_tree(tree, graph=dataset.graph, name="dblp")
        with GMineClient.in_process(service) as client:
            queries = _queries(tree)
            for op, args in queries:  # prime: stale fallbacks must exist
                reply = client.query(op, dataset="dblp", args=args)
                assert reply.ok, reply.error
            plan.on("worker.run", probability=FAILURE_RATE,
                    error=ServiceError("injected backend outage"))
            for _ in range(CHAOS_ROUNDS):
                clock.advance(CACHE_TTL + 1.0)  # expire: force recomputes
                for op, args in queries:
                    start = time.perf_counter()
                    reply = client.query(op, dataset="dblp", args=args,
                                         timeout=DEADLINE_MS / 1000.0)
                    latencies.append((time.perf_counter() - start) * 1000.0)
                    if reply.ok:
                        outcomes["degraded" if reply.degraded else "ok"] += 1
                    elif reply.error.code == "DEADLINE_EXCEEDED":
                        outcomes["deadline_exceeded"] += 1
                    elif reply.error.code == "OVERLOADED":
                        outcomes["overloaded"] += 1
                    elif reply.error.code == "INTERNAL":
                        outcomes["untyped_500"] += 1
                    else:
                        outcomes["other_typed_error"] += 1
        stale_serves = service.stats()["resilience"]["stale_serves"]
    total = len(latencies)
    return {
        "requests": total,
        "injected_failure_rate": FAILURE_RATE,
        "injected_failures": plan.fired("worker.run"),
        "outcomes": outcomes,
        "degraded_rate": round(outcomes["degraded"] / total, 4),
        "error_rate": round(
            (outcomes["deadline_exceeded"] + outcomes["overloaded"]
             + outcomes["other_typed_error"] + outcomes["untyped_500"])
            / total, 4),
        "stale_serves": stale_serves,
        "deadline_budget_ms": DEADLINE_MS,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "max": round(max(latencies), 3),
        },
    }


def overload_phase(dataset, tree) -> dict:
    counts = {"ok": 0, "shed_503": 0, "other": 0}
    with GMineService(max_workers=4) as service:
        service.register_tree(tree, graph=dataset.graph, name="dblp")
        policy = FrontendPolicy(max_inflight=2)
        hot = max(tree.leaves(), key=lambda node: node.size)
        body = {"op": "rwr", "dataset": "dblp",
                "args": {"sources": list(hot.members[:2]),
                         "community": hot.label}}
        with GMineHTTPServer(service, port=0, policy=policy) as server:
            def one(_index):
                with GMineClient.http(server.url) as client:
                    status, payload, _ = client.transport.call(
                        "POST", "/v1/query", body
                    )
                    if status == 200 and payload.get("ok"):
                        return "ok"
                    error = payload.get("error") or {}
                    if status == 503 and error.get("code") == "OVERLOADED":
                        assert error["details"]["retry_after"] >= 1.0
                        return "shed_503"
                    return "other"

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=OVERLOAD_THREADS) as pool:
                for outcome in pool.map(one, range(OVERLOAD_REQUESTS)):
                    counts[outcome] += 1
            elapsed = time.perf_counter() - start
        shed = policy.describe()["shed"]
    return {
        "requests": OVERLOAD_REQUESTS,
        "threads": OVERLOAD_THREADS,
        "max_inflight": 2,
        "outcomes": counts,
        "shed_rate": round(counts["shed_503"] / OVERLOAD_REQUESTS, 4),
        "policy_shed_counter": shed,
        "elapsed_s": round(elapsed, 3),
    }


def overhead_phase(dataset, tree) -> dict:
    def cached_run(injector):
        with GMineService(fault_injector=injector) as service:
            service.register_tree(tree, graph=dataset.graph, name="dblp")
            with GMineClient.in_process(service) as client:
                hot = max(tree.leaves(), key=lambda node: node.size)
                args = {"community": hot.label}
                client.query("metrics", dataset="dblp", args=args)  # warm
                start = time.perf_counter()
                for _ in range(OVERHEAD_REQUESTS):
                    reply = client.query("metrics", dataset="dblp", args=args)
                    assert reply.ok
                return time.perf_counter() - start

    # Interleave A/B/A/B and keep the best of each: the cached path is
    # microseconds per call, so scheduler noise dominates single runs.
    base = min(cached_run(None) for _ in range(3))
    armed = min(cached_run(FaultPlan(seed=SEED)) for _ in range(3))
    overhead = (armed - base) / base
    return {
        "requests": OVERHEAD_REQUESTS,
        "disabled_injector_s": round(armed, 4),
        "no_injector_s": round(base, 4),
        "overhead_pct": round(overhead * 100.0, 2),
    }


def main() -> None:
    dataset, tree = _build()
    chaos = chaos_phase(dataset, tree)
    overload = overload_phase(dataset, tree)
    overhead = overhead_phase(dataset, tree)
    report = {
        "benchmark": "chaos",
        "protocol": "gmine/1",
        "dataset": {
            "authors": AUTHORS,
            "nodes": dataset.graph.num_nodes,
            "edges": dataset.graph.num_edges,
        },
        "chaos": chaos,
        "overload": overload,
        "injector_overhead": overhead,
        "gates": {
            "zero_500s": chaos["outcomes"]["untyped_500"] == 0
            and overload["outcomes"]["other"] == 0,
            "p99_within_deadline":
                chaos["latency_ms"]["p99"] <= DEADLINE_MS,
        },
    }
    out = Path(__file__).parent / "BENCH_chaos.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    if not all(report["gates"].values()):
        raise SystemExit(f"chaos gates failed: {report['gates']}")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
