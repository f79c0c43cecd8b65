"""Mutable-dataset benchmark: incremental edits vs full rebuilds.

Drives the registry write path (``dataset.apply``) on a warm service and
measures what partition-scoped invalidation actually buys:

* **survival** — warm every partition-scoped cache entry (one metrics
  entry per leaf community) plus the root-scoped working set, apply a
  **single-edge** intra-community edit, then re-ask everything and count
  recomputations.  Entries for untouched communities must be served from
  cache — the Merkle sub-fingerprints they are keyed by did not change.
* **latency** — the median wall time to go from "edit decided" to "every
  working-set answer current" on the incremental path
  (``dataset.apply`` + re-query, touched entries recompute, the rest
  hit) vs the pre-mutability **full rebuild** (clone the graph + tree,
  edit out-of-band, register the result in a fresh service, answer the
  whole working set cold).

Exit status is the CI gate: non-zero when a one-edge edit invalidates
**50% or more** of the warm working set — the acceptance criterion for
partition-scoped invalidation (a root-fingerprint scheme invalidates
100% on any edit).

Emits ``BENCH_mutate.json`` next to this file.

Run it:  ``PYTHONPATH=src python benchmarks/bench_mutate.py``
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core.builder import build_gtree
from repro.core.editing import GraphEditor, apply_edit_script
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.service import GMineService

AUTHORS = 600
SEED = 37
FANOUT = 3
LEVELS = 3
REPEATS = 5
#: The gate: a single-edge edit may invalidate strictly less than this
#: fraction of the warm working set.
MAX_INVALIDATED_FRACTION = 0.5


def build_working_set(tree, graph):
    """Every leaf's metrics plus the root-scoped ops — the warm entries."""
    sources = sorted(graph.nodes(), key=repr)[:4]
    queries = [
        ("metrics", {"community": leaf.label}) for leaf in tree.leaves()
    ]
    queries += [
        ("connectivity", {}),
        ("metrics", {"hop_sample_size": 32}),
        ("rwr", {"sources": sources}),
    ]
    return queries


def run_queries(service, queries):
    for op, args in queries:
        service.call(op, **args)


def computed(service):
    return sum(service.compute_counts.values())


def intra_leaf_edge(graph, leaf):
    members = set(leaf.members)
    return next(
        (u, v, w) for u, v, w in graph.edges() if u in members and v in members
    )


def main() -> int:
    dataset = generate_dblp(DBLPConfig(num_authors=AUTHORS, seed=SEED))
    graph = dataset.graph
    tree = build_gtree(graph, fanout=FANOUT, levels=LEVELS, seed=SEED)
    queries = build_working_set(tree, graph)
    leaf = tree.leaves()[0]
    u, v, w = intra_leaf_edge(graph, leaf)

    def toggle(step):
        """Alternating single-edge re-weights: every apply changes content."""
        return [{"action": "add_edge", "u": u, "v": v,
                 "weight": w + 1.0 + (step % 2)}]

    report = {
        "benchmark": "mutable_datasets",
        "protocol": "gmine/1",
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "dataset": {
            "authors": AUTHORS,
            "seed": SEED,
            "fanout": FANOUT,
            "levels": LEVELS,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "leaves": len(tree.leaves()),
        },
        "working_set_entries": len(queries),
    }
    failures = []

    # ------------------------------------------------------------------ #
    # survival: one edge, how much of the warm cache dies?
    # ------------------------------------------------------------------ #
    with GMineService() as service:
        service.register_tree(tree, graph=graph, name="g")
        run_queries(service, queries)
        warm = computed(service)
        assert warm == len(queries), "warm-up must compute every entry once"

        apply_report = service.apply_dataset("g", toggle(0))
        assert apply_report["changed"]
        before = computed(service)
        requery_start = time.perf_counter()
        run_queries(service, queries)
        first_requery_seconds = time.perf_counter() - requery_start
        recomputed = computed(service) - before
        invalidated_fraction = recomputed / len(queries)

        report["single_edge_edit"] = {
            "invalidated_cache_entries": apply_report["invalidated"],
            "recomputed_entries": recomputed,
            "surviving_entries": len(queries) - recomputed,
            "surviving_fraction": round(1.0 - invalidated_fraction, 4),
            "invalidated_fraction": round(invalidated_fraction, 4),
            "touched_communities": len(apply_report["touched_communities"]),
            "changed_partitions": len(apply_report["changed_partitions"]),
        }
        print(f"single-edge edit: {recomputed}/{len(queries)} entries "
              f"recomputed ({invalidated_fraction:.1%} invalidated, "
              f"{1.0 - invalidated_fraction:.1%} served warm)")
        if invalidated_fraction >= MAX_INVALIDATED_FRACTION:
            failures.append(
                f"a 1-edge edit invalidated {invalidated_fraction:.1%} of the "
                f"warm working set (gate: < {MAX_INVALIDATED_FRACTION:.0%})"
            )

        # -------------------------------------------------------------- #
        # incremental latency: apply + bring the working set current
        # -------------------------------------------------------------- #
        apply_times, requery_times = [], []
        for step in range(1, REPEATS + 1):
            start = time.perf_counter()
            assert service.apply_dataset("g", toggle(step))["changed"]
            apply_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            run_queries(service, queries)
            requery_times.append(time.perf_counter() - start)
        incremental_apply = statistics.median(apply_times)
        incremental_requery = statistics.median(requery_times)

    # ------------------------------------------------------------------ #
    # full-rebuild latency: the pre-mutability path for the same edit
    # ------------------------------------------------------------------ #
    rebuild_times = []
    for step in range(REPEATS):
        start = time.perf_counter()
        rebuilt_graph = graph.copy()
        rebuilt_tree = tree.clone()
        apply_edit_script(
            GraphEditor(rebuilt_graph, rebuilt_tree), toggle(step)
        )
        with GMineService() as cold:
            cold.register_tree(rebuilt_tree, graph=rebuilt_graph, name="g")
            run_queries(cold, queries)
        rebuild_times.append(time.perf_counter() - start)
    full_rebuild = statistics.median(rebuild_times)

    incremental_total = incremental_apply + incremental_requery
    report["latency"] = {
        "incremental_apply_median_seconds": round(incremental_apply, 6),
        "incremental_requery_median_seconds": round(incremental_requery, 6),
        "incremental_total_median_seconds": round(incremental_total, 6),
        "first_requery_seconds": round(first_requery_seconds, 6),
        "full_rebuild_median_seconds": round(full_rebuild, 6),
        "speedup": round(full_rebuild / incremental_total, 2)
        if incremental_total > 0 else float("inf"),
    }
    print(f"incremental: apply {incremental_apply * 1e3:7.2f} ms + "
          f"requery {incremental_requery * 1e3:7.2f} ms | "
          f"full rebuild {full_rebuild * 1e3:8.2f} ms | "
          f"{report['latency']['speedup']:5.1f}x")

    report["acceptance"] = {
        "invalidated_fraction": report["single_edge_edit"][
            "invalidated_fraction"
        ],
        "max_allowed": MAX_INVALIDATED_FRACTION,
        "passed": not failures,
    }
    report["failures"] = failures
    output = Path(__file__).parent / "BENCH_mutate.json"
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
