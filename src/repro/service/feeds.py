"""Per-dataset change feeds: the server-push half of the write path.

Every successful mutation of a dataset — a ``dataset.apply`` edit script,
a hot-reload that changed content — publishes one :class:`ChangeEvent`
describing exactly what moved: the new Merkle root fingerprint, the
previous one, and the sub-fingerprints of the partitions that changed.
Sessions watching a community long-poll ``POST /v1/subscribe`` and receive
those events as push invalidations: a client holding cursors or local
caches learns *which* partitions to drop instead of flushing everything.

The feed is a bounded in-memory event log with two ways to wait on it:

* :meth:`ChangeFeed.publish` stamps a monotonically increasing sequence
  number and wakes every waiting subscriber;
* :meth:`ChangeFeed.wait_for` returns the events newer than the caller's
  ``since`` cursor, blocking the calling thread up to a timeout when
  there are none yet — the in-process long-poll;
* :meth:`ChangeFeed.add_listener` registers a callback fired on every
  ``publish`` and on ``close`` — the non-blocking primitive: the HTTP
  server parks a long-poll as an event-loop future, lets a listener wake
  it, and re-reads the log with a zero timeout, so a parked subscriber
  holds no thread.

The log is bounded (old events fall off), so a subscriber that slept
through more than ``history`` events is told it *lagged*: it receives the
events still held plus ``lagged=True`` and should treat its world as
stale (re-sync fingerprints) rather than assume the gap was quiet.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class ChangeEvent:
    """One published dataset change, as delivered to subscribers."""

    seq: int
    dataset: str
    kind: str  # "apply" | "reload"
    fingerprint: str
    previous_fingerprint: str
    #: Community label -> new sub-fingerprint, for every partition whose
    #: Merkle sub-fingerprint changed (empty when the whole dataset was
    #: replaced wholesale, e.g. a reload — subscribers treat that as
    #: "everything changed").
    changed_partitions: Dict[str, str] = field(default_factory=dict)
    #: Number of edits in the applied script (0 for reloads).
    edits: int = 0

    def as_payload(self) -> Dict[str, Any]:
        """JSON-friendly wire form."""
        return {
            "seq": self.seq,
            "dataset": self.dataset,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "previous_fingerprint": self.previous_fingerprint,
            "changed_partitions": dict(self.changed_partitions),
            "edits": self.edits,
        }

    def touches(self, community: Optional[str]) -> bool:
        """Whether this event concerns ``community`` (``None`` = any).

        An event with no partition detail (a wholesale reload) touches
        every community — the subscriber cannot know its watch survived.
        """
        if community is None:
            return True
        if not self.changed_partitions:
            return True
        return community in self.changed_partitions


class ChangeFeed:
    """Bounded event log + wake-ups for one dataset's changes.

    ``close()`` wakes every long-poller immediately (they return their
    empty/partial result instead of sleeping out the timeout) so service
    shutdown never hangs behind a subscriber holding the condition
    variable.  ``injector`` is the optional fault injector fired at the
    ``feed.publish`` seam.
    """

    def __init__(self, history: int = 256, injector: Optional[Any] = None) -> None:
        if history < 1:
            raise ValueError(f"change feed history must be >= 1, got {history}")
        self.history = history
        self._injector = injector
        self._cond = threading.Condition()
        self._events: List[ChangeEvent] = []
        self._next_seq = 1
        self._published = 0
        self._closed = False
        self._waiters = 0
        self._listeners: Set[Callable[[], None]] = set()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def waiters(self) -> int:
        """Long-polls currently parked: blocked threads plus listeners."""
        with self._cond:
            return self._waiters + len(self._listeners)

    def add_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` after every ``publish`` and on ``close``.

        Listeners run on the publishing thread, outside the feed lock, and
        carry no payload: the woken party re-reads the log from its own
        cursor (:meth:`events_since`, or :meth:`wait_for` with timeout 0).
        They must be cheap and must not raise.
        """
        with self._cond:
            self._listeners.add(listener)

    def remove_listener(self, listener: Callable[[], None]) -> None:
        with self._cond:
            self._listeners.remove(listener)

    def close(self) -> None:
        """Wake every waiting long-poll and refuse further blocking waits."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            listeners = list(self._listeners)
        for listener in listeners:
            listener()

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest published event (0 when none)."""
        with self._cond:
            return self._next_seq - 1

    def publish(self, **fields: Any) -> ChangeEvent:
        """Stamp, append and broadcast one event; returns it."""
        if self._injector is not None:
            # Outside the lock: an injected latency spike must not block
            # subscribers, and an injected error leaves the log untouched.
            self._injector.fire("feed.publish")
        with self._cond:
            event = ChangeEvent(seq=self._next_seq, **fields)
            self._next_seq += 1
            self._published += 1
            self._events.append(event)
            if len(self._events) > self.history:
                del self._events[: len(self._events) - self.history]
            self._cond.notify_all()
            listeners = list(self._listeners)
        for listener in listeners:
            listener()
        return event

    def events_since(self, since: int) -> Tuple[List[ChangeEvent], bool]:
        """Events with ``seq > since`` plus whether the caller lagged.

        ``lagged`` is true when events the caller never saw have already
        fallen off the bounded log — its view of the dataset may be
        arbitrarily stale and should be re-synced from ``/v1/stats``.
        """
        with self._cond:
            return self._events_since_locked(since)

    def _events_since_locked(self, since: int) -> Tuple[List[ChangeEvent], bool]:
        oldest_held = self._events[0].seq if self._events else self._next_seq
        lagged = since + 1 < oldest_held
        return [event for event in self._events if event.seq > since], lagged

    def wait_for(
        self,
        since: int,
        timeout: float,
        community: Optional[str] = None,
    ) -> Tuple[List[ChangeEvent], bool, int]:
        """Long-poll: events newer than ``since`` matching ``community``.

        Blocks up to ``timeout`` seconds for a matching event; returns
        ``(events, lagged, next_since)`` where ``next_since`` is the
        cursor the subscriber should pass on its next call.  Non-matching
        events (changes confined to other communities) are skipped *and
        advanced past*, so a community watcher never re-inspects them.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while True:
                events, lagged = self._events_since_locked(since)
                matching = [event for event in events if event.touches(community)]
                if matching or lagged:
                    next_since = events[-1].seq if events else since
                    return matching, lagged, next_since
                if events:
                    # Nothing relevant, but don't re-scan these next time.
                    since = events[-1].seq
                if self._closed:
                    # Server shutting down: return the empty long-poll now
                    # so the request thread can finish and be joined.
                    return [], False, since
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False, since
                self._waiters += 1
                try:
                    self._cond.wait(timeout=remaining)
                finally:
                    self._waiters -= 1
