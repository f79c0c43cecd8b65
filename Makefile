# Developer entry points for the GMine reproduction.
#
#   make check       — the gate: tier-1 tests + smoke runs of the concurrent
#                      sessions example and the HTTP server (what CI
#                      should run on every change)
#   make tier1       — fast tests only (everything not marked `slow`)
#   make test-all    — the complete suite including slow paper-claim tests
#   make test-slow   — only the slow tests
#   make smoke       — run the concurrent multi-session service example
#   make serve-smoke — start the gmine/1 HTTP server once per execution
#                      backend (inline, process), fire a mixed
#                      batch twice per backend, and assert cache-hit
#                      accounting, transport parity AND cross-backend
#                      byte-parity; then smoke the Protocol v2 surface —
#                      a streamed cursor query (reassembly
#                      byte-identical to one-shot), registry session
#                      ops, and an authed + rate-limited server
#                      returning AUTH_REQUIRED/RATE_LIMITED envelopes —
#                      and the mutable-dataset surface: one client's
#                      dataset.apply edit waking another client's
#                      parked /v1/subscribe long-poll; and the GPath
#                      surface: fused path queries with HTTP ==
#                      in-process parity, structured parse-error spans
#                      and a CSV dataset.ingest round-trip between two
#                      clients (examples/http_service.py)
#   make bench-http  — requests/sec for cached vs uncached RWR over the
#                      shipped HTTP client (keep-alive, one connection per
#                      thread) and the in-process transport, incl. streamed
#                      full-vector rates; writes benchmarks/BENCH_http.json
#   make bench-kernels — prepared-vs-cold mining kernel medians plus
#                      one-factorization blocked exact RWR vs the per-set
#                      loop; writes benchmarks/BENCH_kernels.json and
#                      FAILS if the prepared path is slower than cold, if
#                      warm 8-source power RWR is below 3x the per-source
#                      loop, if blocked exact RWR diverges bitwise from
#                      the loop (checked before any timing) or is below
#                      2x it (the CI gate for the prepared-kernel layer)
#   make bench-mutate — incremental dataset.apply vs full-rebuild latency
#                      plus warm-cache survival across a single-edge edit;
#                      writes benchmarks/BENCH_mutate.json and FAILS if a
#                      1-edge edit invalidates >= 50% of the warm entries
#                      (the CI gate for partition-scoped invalidation)
#   make bench-path  — GPath parse/compile overhead plus fused-plan vs
#                      direct-kernel execution on a warm prepared graph;
#                      writes benchmarks/BENCH_path.json and FAILS if the
#                      fused top(k) plan exceeds 1.10x the direct
#                      dataset.rwr kernel + slice (the CI gate for the
#                      compiler's pass-through fast path)
#   make chaos       — the resilience/chaos suite: deadline propagation,
#                      circuit-breaker trip/half-open/recovery, degraded
#                      stale serving with byte parity, admission shedding
#                      and the seeded 20%-failure fault matrix on the
#                      inline and process backends and the HTTP server
#   make bench-chaos — typed outcomes and bounded latency under a seeded
#                      20%-failure FaultPlan plus overload shedding and
#                      disabled-injector overhead; writes
#                      benchmarks/BENCH_chaos.json and FAILS on any
#                      untyped 500 or a p99 above the deadline budget
#                      (the CI gate for the resilience layer)
#   make bench-shard — sharded execution: byte parity of sharded vs inline
#                      wire envelopes (rwr, scatter rwr, metrics, GPath)
#                      gated BEFORE any timing counts, then a stream of
#                      single-community RWR requests against sharded:2 vs
#                      the store-backed process:2 pool (both ship every
#                      plan); writes benchmarks/BENCH_shard.json and FAILS
#                      on any byte divergence or if single-shard-routed
#                      latency exceeds 1.15x the unsharded pool (the CI
#                      gate for the shard subsystem)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check tier1 smoke serve-smoke chaos bench-http bench-kernels bench-mutate bench-path bench-chaos bench-shard test-all test-slow

check: tier1 smoke serve-smoke
	@echo "check: tier-1 tests, service smoke and HTTP serve-smoke passed"

tier1:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) examples/concurrent_sessions.py

serve-smoke:
	$(PYTHON) examples/http_service.py inline process

bench-http:
	$(PYTHON) benchmarks/bench_http_throughput.py

bench-kernels:
	$(PYTHON) benchmarks/bench_kernels.py

bench-mutate:
	$(PYTHON) benchmarks/bench_mutate.py

bench-path:
	$(PYTHON) benchmarks/bench_path.py

chaos:
	$(PYTHON) -m pytest -x -q tests/service/test_resilience.py

bench-chaos:
	$(PYTHON) benchmarks/bench_chaos.py

bench-shard:
	$(PYTHON) benchmarks/bench_shard.py

test-all:
	$(PYTHON) -m pytest -q -m "slow or not slow"

test-slow:
	$(PYTHON) -m pytest -q -m slow
