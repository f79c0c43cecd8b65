"""HTTP throughput: cached vs uncached RWR, every transport.

Starts the GMine Protocol HTTP server over a synthetic DBLP dataset and
measures end-to-end requests/sec for

* **uncached** RWR — every request names a distinct source pair, so each
  one pays a full power-iteration solve;
* **cached** RWR — one hot request repeated, answered from the shared
  ``ResultCache`` after the first computation;

over the shipped HTTP client (one persistent connection per calling
thread) and, for reference, the in-process transport (protocol overhead
without the socket).  Sequential and small-thread-pool concurrent rates
are both reported, plus the streamed full-vector rate (``/v1/stream``
cursor chunks vs the one-shot body).

Emits ``BENCH_http.json`` next to this file — the start of the service's
performance trajectory (ROADMAP: "as fast as the hardware allows").

Run it:  ``PYTHONPATH=src python benchmarks/bench_http_throughput.py``
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.api import GMineClient, GMineHTTPServer
from repro.core.builder import build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.service import GMineService

AUTHORS = 600
SEED = 17
UNCACHED_REQUESTS = 24
CACHED_REQUESTS = 200
CONCURRENCY = 4


def _rate(count: int, elapsed: float) -> float:
    return round(count / elapsed, 2) if elapsed > 0 else float("inf")


def _run_sequential(client: GMineClient, requests) -> float:
    start = time.perf_counter()
    for request in requests:
        reply = client.query(request["op"], args=request["args"])
        assert reply.ok, reply.error
    return time.perf_counter() - start


def _run_concurrent(client: GMineClient, requests, workers: int) -> float:
    def one(request):
        reply = client.query(request["op"], args=request["args"])
        assert reply.ok, reply.error

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(one, requests))
    return time.perf_counter() - start


def main() -> None:
    dataset = generate_dblp(DBLPConfig(num_authors=AUTHORS, seed=SEED))
    tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=SEED)
    leaf = max(tree.leaves(), key=lambda node: node.size)
    members = list(leaf.members)

    # distinct source pairs -> every request computes; one hot pair -> cache
    uncached = [
        {"op": "rwr",
         "args": {"sources": [members[i], members[i + 1]],
                  "community": leaf.label}}
        for i in range(UNCACHED_REQUESTS)
    ]
    hot = {"op": "rwr",
           "args": {"sources": members[:2], "community": leaf.label}}
    cached = [hot] * CACHED_REQUESTS

    report = {
        "benchmark": "http_throughput",
        "protocol": "gmine/1",
        "dataset": {
            "authors": AUTHORS,
            "nodes": dataset.graph.num_nodes,
            "edges": dataset.graph.num_edges,
            "hot_leaf": leaf.label,
            "hot_leaf_size": leaf.size,
        },
        "requests": {
            "uncached": UNCACHED_REQUESTS,
            "cached": CACHED_REQUESTS,
            "concurrency": CONCURRENCY,
        },
        "transports": {},
    }

    with GMineService(max_workers=CONCURRENCY) as service:
        service.register_tree(tree, graph=dataset.graph, name="dblp")
        with GMineHTTPServer(service, port=0) as server:
            rows = {
                "http": GMineClient.http(server.url),
                "in_process": GMineClient.in_process(service),
            }
            for transport, client in rows.items():
                service.cache.clear()
                uncached_elapsed = _run_sequential(client, uncached)
                client.query(hot["op"], args=hot["args"])  # warm the hot entry
                cached_elapsed = _run_sequential(client, cached)
                cached_concurrent = _run_concurrent(client, cached, CONCURRENCY)
                entry = {
                    "uncached_rps": _rate(len(uncached), uncached_elapsed),
                    "cached_rps": _rate(len(cached), cached_elapsed),
                    "cached_concurrent_rps": _rate(len(cached), cached_concurrent),
                    "cache_speedup": round(
                        (uncached_elapsed / len(uncached))
                        / (cached_elapsed / len(cached)),
                        1,
                    ),
                }
                # streamed full vector (cursor chunks) vs the one-shot body
                stream_runs = 20
                start = time.perf_counter()
                for _ in range(stream_runs):
                    merged = client.stream_result(
                        hot["op"], args=hot["args"], chunk_size=100
                    )
                stream_elapsed = time.perf_counter() - start
                total = len(merged["scores"])
                start = time.perf_counter()
                for _ in range(stream_runs):
                    client.query(
                        hot["op"], args=hot["args"], page={"top_k": total}
                    ).unwrap()
                one_shot_elapsed = time.perf_counter() - start
                entry["streamed_full_vector_rps"] = _rate(
                    stream_runs, stream_elapsed
                )
                entry["one_shot_full_vector_rps"] = _rate(
                    stream_runs, one_shot_elapsed
                )
                client.close()
                report["transports"][transport] = entry
                print(f"{transport:>10}: uncached {entry['uncached_rps']:>8} req/s | "
                      f"cached {entry['cached_rps']:>8} req/s | "
                      f"cached x{CONCURRENCY} threads "
                      f"{entry['cached_concurrent_rps']:>8} req/s | "
                      f"cache speedup {entry['cache_speedup']}x | stream "
                      f"{entry['streamed_full_vector_rps']:>7} req/s")
            stats = service.stats()
            report["cache_stats"] = stats["cache"]

    output = Path(__file__).parent / "BENCH_http.json"
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
