"""Load generation, statistics and span recording for ``gmine-e2e``.

Closed loops model callers that each wait for their reply (a slow system
receives less load); the open loop sends on a fixed schedule and times
every request from when it was *due*, so a stall is charged to the requests
it delayed.  Load always comes from this one process with at most two
sender threads (the sandbox has two cores).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

#: A call sends one request and says whether it came back ok.
Call = Callable[[Dict[str, Any]], bool]

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
#: Samples a p95 needs: MIN_BEYOND of them lie beyond it.
P95_SAMPLES = 200
#: Length of the slices whose median rate is a closed loop's ``ops_per_s``.
SLICE_S = 1.0
#: An open-loop phase whose generator itself ran later than this at p95 is
#: invalid: the schedule was not the one the phase claims.
MAX_GENERATOR_LAG_MS = 10.0


class InvalidRun(Exception):
    """The run cannot support the numbers it would report."""


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses a tail with < MIN_BEYOND samples."""
    beyond = len(values) * (1.0 - pct / 100.0)
    if pct > 50 and beyond < MIN_BEYOND:
        raise InvalidRun(
            f"p{pct:g} needs {MIN_BEYOND} samples beyond it, "
            f"{len(values)} samples give {beyond:.1f}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_percentile(count: int) -> Optional[int]:
    """The highest of p99/p95/p90/p75 that ``count`` samples support."""
    for pct in (99, 95, 90, 75):
        if count * (1.0 - pct / 100.0) >= MIN_BEYOND:
            return pct
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def process_parents() -> Dict[int, int]:
    """``{pid: parent pid}`` of every process in ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:  # the process exited while we were listing
                continue
            parents[int(entry.name)] = int(stat.rpartition(")")[2].split()[1])
    return parents


def children_of(pid: int) -> List[int]:
    """The direct children of ``pid``, zombies included."""
    return [child for child, parent in process_parents().items() if parent == pid]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus every live descendant.

    Process-backend workers are forked by a forkserver, so they are never
    this process's children to reap and ``RUSAGE_CHILDREN`` misses them;
    their high-water marks are read from ``/proc`` while they still run.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    parents = process_parents()
    family = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in family and pid not in family:
                family.add(pid)
                grew = True
    for pid in family - {os.getpid()}:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# --------------------------------------------------------------------------- #
# phases
# --------------------------------------------------------------------------- #
@dataclass
class Phase:
    """What one load phase did: every attempt is either a latency or a failure."""

    name: str
    mode: str  # "closed x2", "open @100/s", ...
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    #: latencies of the successes, in completion order
    latencies_ms: List[float] = field(default_factory=list)
    #: successes per second in each consecutive slice of the phase (about
    #: one second of a closed loop, one cycle of ``ingest_open``)
    slice_rates: List[float] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)
    queue_ms: List[float] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    @property
    def ops_per_s(self) -> float:
        """The median slice's rate: a burst from a noisy neighbour moves
        one slice, not the run.  Without slices, successes over elapsed."""
        if self.slice_rates:
            return statistics.median(self.slice_rates)
        return self.succeeded / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def p95_ms(self) -> float:
        """Median of the p95s of up to four consecutive quarters of the
        phase, each with at least ten samples beyond its p95."""
        quarters = max(1, min(4, len(self.latencies_ms) // P95_SAMPLES))
        size = len(self.latencies_ms) // quarters
        return statistics.median(
            percentile(self.latencies_ms[k * size:(k + 1) * size], 95)
            for k in range(quarters)
        )

    def describe(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "phase": self.name, "mode": self.mode,
            "attempted": self.attempted, "succeeded": self.succeeded,
            "failed": self.failed, "elapsed_s": round(self.elapsed_s, 3),
            "ops_per_s": round(self.ops_per_s, 2),
            "samples": len(self.latencies_ms),
            "p50_ms": round(median(self.latencies_ms), 3),
        }
        top = highest_percentile(len(self.latencies_ms))
        if top is not None:
            row[f"p{top}_ms"] = round(percentile(self.latencies_ms, top), 3)
        if self.lags_ms:
            row["generator_lag_p95_ms"] = round(tail(self.lags_ms), 3)
        return row


def tail(values: Sequence[float]) -> float:
    """p95, or the highest percentile the sample supports below it."""
    top = highest_percentile(len(values))
    if top is None:
        return max(values)
    return percentile(values, min(top, 95))


def _timed(call: Call, request: Dict[str, Any]):
    start = time.perf_counter()
    try:
        ok = call(request)
    except Exception:  # noqa: BLE001 — a transport error is a failed request
        ok = False
    return start, time.perf_counter(), ok


def closed_loop(name: str, calls: Sequence[Call],
                lanes: Sequence[Sequence[Dict[str, Any]]],
                seconds: float) -> Phase:
    """One thread per lane; each sends its next request when the last returns."""
    phase = Phase(name, f"closed x{len(lanes)}")
    results: List[List[tuple]] = [[] for _ in lanes]
    begin = time.perf_counter()
    deadline = begin + seconds

    def client(index: int) -> None:
        rows = results[index]
        for request in lanes[index]:
            start, end, ok = _timed(calls[index], request)
            rows.append((end - start, ok, end))
            if end >= deadline:
                break

    _run_threads(client, len(lanes))
    rows = sorted((row for lane in results for row in lane), key=lambda r: r[2])
    ends = []
    for latency, ok, end in rows:
        phase.attempted += 1
        if ok:
            phase.latencies_ms.append(latency * 1000.0)
            ends.append(end)
        else:
            phase.failed += 1
    phase.elapsed_s = (rows[-1][2] if rows else begin) - begin
    # one slice per whole second, each the same number of successes long
    slices = int(seconds / SLICE_S)
    size = len(ends) // slices if slices else 0
    if size:
        marks = [begin] + [ends[(k + 1) * size - 1] for k in range(slices)]
        phase.slice_rates = [
            size / (after - before) for before, after in zip(marks, marks[1:])
        ]
    return phase


def open_loop(name: str, calls: Sequence[Call],
              requests: Sequence[Dict[str, Any]], rate: float,
              seconds: float) -> Phase:
    """Send ``requests`` at ``rate`` per second from ``len(calls)`` senders.

    Latency runs from the due time.  ``lags_ms`` is how late the generator
    itself was (woke late though idle); ``queue_ms`` is how long a request
    waited for its sender to finish earlier ones — backlog, which belongs
    to the system and is part of the latency.
    """
    senders = len(calls)
    count = min(len(requests), int(rate * seconds))
    phase = Phase(name, f"open @{rate:g}/s x{senders} senders")
    results: List[List[tuple]] = [[] for _ in range(senders)]
    begin = time.perf_counter() + 0.01

    def sender(index: int) -> None:
        rows = results[index]
        free_at = begin
        for k in range(index, count, senders):
            due = begin + k / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            start, end, ok = _timed(calls[index], requests[k])
            ready = max(due, free_at)
            rows.append((k, end - due, start - ready, ready - due, ok, end))
            free_at = end

    _run_threads(sender, senders)
    rows = sorted(row for lane in results for row in lane)
    last = begin
    for _k, latency, lag, queued, ok, end in rows:
        phase.attempted += 1
        phase.lags_ms.append(lag * 1000.0)
        phase.queue_ms.append(queued * 1000.0)
        if ok:
            phase.latencies_ms.append(latency * 1000.0)
        else:
            phase.failed += 1
        last = max(last, end)
    phase.elapsed_s = last - begin
    return phase


def backlog_grows(phase: Phase) -> bool:
    """Whether requests queued longer at the end of the phase than at its start."""
    quarter = len(phase.queue_ms) // 4
    if quarter == 0:
        return False
    first = median(phase.queue_ms[:quarter])
    last = median(phase.queue_ms[-quarter:])
    return last - first > 20.0


def _run_threads(target: Callable[[int], None], count: int) -> None:
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory spans, written out once at the end of the run.

    A span is ``(layer, request id, start, end)``; its id is
    ``"<layer>:<request id>"`` and its parent the span one depth up for the
    same request id.  Spans are recorded around calls into the program's
    public functions, from this benchmark's own files.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._index: Dict[str, float] = {}

    def record(self, layer: str, rid: str, start: float, end: float,
               parent: Optional[str] = None) -> None:
        span_id = f"{layer}:{rid}"
        self.spans.append({
            "id": span_id, "layer": layer, "request": rid,
            "start": start, "end": end,
            "parent": None if parent is None else f"{parent}:{rid}",
        })
        self._index[span_id] = end - start

    def call(self, layer: str, rid: str, parent: Optional[str],
             fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.record(layer, rid, start, time.perf_counter(), parent)

    def durations(self, layer: str) -> Dict[str, float]:
        """Seconds per request id for one layer."""
        prefix = f"{layer}:"
        return {
            span_id[len(prefix):]: seconds
            for span_id, seconds in self._index.items()
            if span_id.startswith(prefix)
        }

    def self_times(self, layer: str, child: str,
                   rids: Optional[Sequence[str]] = None) -> List[float]:
        """Per request: the layer's span minus the span one depth below."""
        outer, inner = self.durations(layer), self.durations(child)
        keys = outer.keys() & inner.keys()
        if rids is not None:
            keys &= set(rids)
        return [outer[rid] - inner[rid] for rid in sorted(keys)]

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"meta": meta, "spans": self.spans}) + "\n",
            encoding="utf-8",
        )
