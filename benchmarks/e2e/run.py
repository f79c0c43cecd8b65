"""``gmine-e2e``: the repo's seeded end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload explore_zipf --seed 7 \
        --seconds 12 --trace 0

One run = ``SETUP_REPEATS`` full set-ups (median → ``setup_s``), a
correctness check against an inline reference, the timed phase, a second
correctness check on what the timed phase produced, then one JSON object on
the last line of stdout.  ``--trace 0`` prints the end-to-end metrics named
in ``BENCHMARK.json``; ``--trace 1`` prints the per-layer metrics and writes
``out/trace-<workload>.json``.  Without ``--workload`` every workload runs,
each in its own process.  Any correctness problem exits non-zero and prints
no result.  See ``README.md`` beside this file.

The process that is started only supervises: each workload runs in a worker
process, and the supervisor then waits for — and if need be kills — every
process the worker left behind (see :func:`supervise`), so nothing of a run
outlives the command, however the worker ended.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Set in the environment of the worker process that runs one workload.
WORKER_ENV = "GMINE_E2E_WORKER"
#: How long orphans of a worker get to leave by themselves before SIGTERM,
#: and how long after that before SIGKILL.
ORPHAN_GRACE_S = 5.0
KILL_AFTER_S = 3.0
PR_SET_CHILD_SUBREAPER = 36

# The process backend's forkserver re-imports this file as ``__mp_main__``;
# it must find the benchmark's modules and the program the same way.
for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(contract: Dict[str, Any]) -> argparse.Namespace:
    import traces

    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=traces.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small datasets, for the benchmark's own tests")
    return parser.parse_args()


def adopt_orphans() -> bool:
    """Make this process the parent of every orphaned descendant (Linux)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_children(grace_s: float) -> int:
    """Wait until this process has no child left, zombies included.

    After ``grace_s`` seconds what is still there gets SIGTERM — which the
    resource tracker ignores, so it outlives the others, unlinks the
    shared-memory segments they leaked and then leaves by itself — and
    ``KILL_AFTER_S`` later SIGKILL.  Returns how many were signalled."""
    from harness import children_of

    term_at = time.monotonic() + grace_s
    signalled = set()
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # nothing left
            return len(signalled)
        if pid:
            continue
        now = time.monotonic()
        if now >= term_at:
            signum = signal.SIGKILL if now >= term_at + KILL_AFTER_S else signal.SIGTERM
            # again on every pass: a dead child's children become ours
            for child in children_of(os.getpid()):
                try:
                    os.kill(child, signum)
                    signalled.add(child)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def supervise(args: argparse.Namespace, name: str) -> int:
    """Run one workload in a worker process and leave no process behind.

    The process backend's forkserver and multiprocessing's resource tracker
    are children of the interpreter that first used them and only exit once
    it is gone — when nobody is left to wait for them.  This process adopts
    whatever the worker orphans, waits for each to end, and stops what does
    not leave.  That also covers a worker that crashed or was interrupted.
    """
    adopt_orphans()
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    worker = subprocess.Popen(command, env=dict(os.environ, **{WORKER_ENV: "1"}))
    grace = 0.0  # left early: do not wait for anybody
    try:
        code = worker.wait()
        grace = ORPHAN_GRACE_S
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
        killed = reap_children(grace)
    if killed:
        print(f"gmine-e2e {name}: stopped {killed} process(es) the worker "
              "left running", file=sys.stderr)
    return code


def metric_rows(specs: List[Dict[str, Any]], values: Dict[str, float],
                workload: str) -> Dict[str, Dict[str, Any]]:
    """Exactly the metrics the contract names, each with its unit."""
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    unnamed = sorted(set(values) - {spec["name"] for spec in specs})
    if missing or unnamed:
        raise SystemExit(
            f"{workload}: metrics out of step with BENCHMARK.json — "
            f"missing {missing}, unnamed {unnamed}"
        )
    return {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in specs
    }


def run_one(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    from harness import InvalidRun, median, peak_rss_mb
    from workloads import FULL, QUICK, WORKLOADS

    sizes = QUICK if args.quick else FULL
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, sizes, workdir, args.seconds)
    print(f"gmine-e2e {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, cpu_count {os.cpu_count()}, "
          f"sizes {sizes}", flush=True)
    try:
        setups, parts = [], {}
        for _ in range(1 if args.trace else SETUP_REPEATS):
            workload.teardown()
            start = time.perf_counter()
            parts = workload.setup()
            setups.append(time.perf_counter() - start)
        print("set-up times (s):", [round(s, 3) for s in setups])

        problems = workload.verify()
        if not problems:
            if args.trace:
                import layers

                values, measured = layers.traced_run(
                    workload, args.seconds, OUT)
                specs = contract["per_layer"]
            else:
                measured = workload.measure(args.seconds)
                primary = measured.primary
                values = {
                    "setup_s": statistics.median(setups),
                    "ops_per_s": primary.ops_per_s,
                    "latency_p50_ms": median(primary.latencies_ms),
                    "latency_p95_ms": primary.p95_ms(),
                    # workers are still alive here; after teardown they are gone
                    "peak_rss_mb": peak_rss_mb(),
                }
                specs = contract["end_to_end"]
            problems = workload.verify_after()
    except InvalidRun as error:
        problems = [f"invalid run: {error}"]
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        for problem in problems[:20]:
            print("FAILED:", problem)
        return 1

    for phase in measured.phases:
        print("phase:", json.dumps(phase.describe()))
    for note in measured.notes:
        print("note:", note)
    if not args.trace:
        for name, value in sorted(measured.extras.items()):
            print(f"extra: {name} = {value:.4f}")
    attempted = sum(phase.attempted for phase in measured.phases)
    failed = sum(phase.failed for phase in measured.phases)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_rows(specs, values, args.workload),
    }
    samples = "" if args.trace else f" (n={len(measured.primary.latencies_ms)})"
    for name, row in result["metrics"].items():
        print(f"metric: {name} = {row['value']:.4f} {row['unit']}{samples}")
    OUT.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, quick=args.quick,
                  cpu_count=os.cpu_count(), setups_s=setups,
                  setup_parts_s=parts, extras=measured.extras,
                  phases=[phase.describe() for phase in measured.phases],
                  notes=measured.notes)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"gmine-e2e: the program is not here ({SRC}/repro is missing); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    # worker processes import the program by module path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    contract = load_contract()
    args = parse_args(contract)
    if os.environ.get(WORKER_ENV):
        return run_one(args, contract)
    names = [args.workload] if args.workload else [
        w["name"] for w in contract["workloads"]]
    for name in names:
        code = supervise(args, name)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
