"""Resilience primitives: deadlines, retry policies, circuit breakers.

Three small, dependency-free building blocks shared by the whole stack:

- :class:`Deadline` — a request's total latency budget, created once at
  the edge from the envelope's ``deadline_ms`` and threaded through
  dispatch so every layer can cheaply ask "is there still time?".
- :class:`RetryPolicy` — bounded exponential backoff with injectable
  jitter source, sleep, and clock.  Used opt-in by the client for
  idempotent (cacheable) operations and by :class:`SQLiteCacheStore`
  for ``database is locked`` contention.
- :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine guarding a failure-prone venue (the process pool, the SQLite
  cache store).  While open, callers skip the venue entirely and fall
  back (local execution, cache miss, stale serve) instead of queueing
  behind a broken dependency.

Everything takes its clock (and, for retries, its RNG and sleep) as a
constructor argument so the chaos suite drives each state machine
deterministically; defaults are the real ``time`` module.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, Optional

from ..errors import DeadlineExceededError

__all__ = ["CircuitBreaker", "Deadline", "RetryPolicy"]


class Deadline:
    """A monotonic expiry point for one request.

    Immutable after construction; sharable across threads.  ``remaining()``
    is in seconds (may be negative once past due) so it can feed directly
    into ``future.result(timeout=...)``.
    """

    __slots__ = ("budget_ms", "expires_at", "_clock")

    def __init__(
        self, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        budget = float(budget_ms)
        if budget <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_ms!r}")
        self.budget_ms = budget
        self._clock = clock
        self.expires_at = clock() + budget / 1000.0

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, stage: str) -> None:
        """Raise ``DeadlineExceededError`` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"deadline of {self.budget_ms:g}ms exceeded ({stage})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(budget_ms={self.budget_ms:g}, remaining={self.remaining():.4f}s)"


class RetryPolicy:
    """Bounded exponential backoff with injectable jitter/sleep/clock.

    ``delay(attempt)`` for attempt ``0..attempts-2`` is
    ``min(max_delay, base_delay * multiplier**attempt)`` scaled by up to
    ``jitter`` fraction of itself (drawn from ``rng``, so a seeded
    ``random.Random`` makes the schedule reproducible).  An explicit
    ``retry_after`` hint from the server overrides the computed delay.
    """

    def __init__(
        self,
        attempts: int = 3,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts!r}")
        if base_delay < 0 or max_delay < 0 or jitter < 0:
            raise ValueError("delays and jitter must be non-negative")
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self.retries = 0

    def delay(self, attempt: int, retry_after: Optional[float] = None) -> float:
        if retry_after is not None:
            return max(0.0, float(retry_after))
        base = min(self.max_delay, self.base_delay * (self.multiplier ** attempt))
        if self.jitter:
            with self._lock:
                base *= 1.0 + self.jitter * self._rng.random()
        return base

    def pause(self, attempt: int, retry_after: Optional[float] = None) -> None:
        """Sleep out the backoff before retry number ``attempt + 1``."""
        with self._lock:
            self.retries += 1
        self._sleep(self.delay(attempt, retry_after))

    def run(
        self,
        fn: Callable[[], Any],
        retryable: Callable[[BaseException], bool],
    ) -> Any:
        """Call ``fn``, retrying failures ``retryable`` deems transient."""
        for attempt in range(self.attempts):
            try:
                return fn()
            except Exception as error:
                if attempt >= self.attempts - 1 or not retryable(error):
                    raise
                self.pause(attempt, getattr(error, "retry_after", None))
        raise AssertionError("unreachable")  # pragma: no cover

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            retries = self.retries
        return {
            "attempts": self.attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "retries": retries,
        }


#: CircuitBreaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed → open → half-open breaker around a failure-prone venue.

    ``allow()`` gates entry: closed always admits; open rejects until
    ``reset_timeout`` has elapsed, then transitions to half-open and
    admits up to ``success_threshold`` concurrent probes.  Probe results
    feed back through ``record_success``/``record_failure``: enough
    successes re-close the breaker, any failure re-opens it (and resets
    the recovery clock).  Failures while closed only trip the breaker
    once ``failure_threshold`` *consecutive* failures accumulate — a
    single success resets the count.

    Thread-safe; the clock is injectable for deterministic tests.
    """

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        success_threshold: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1 or success_threshold < 1:
            raise ValueError("breaker thresholds must be >= 1")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.success_threshold = int(success_threshold)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive failures while closed
        self._probes = 0  # probes admitted while half-open
        self._probe_successes = 0
        self._opened_at = 0.0
        self.trips = 0
        self.rejections = 0

    # ---------------------------------------------------------------- #
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        # caller holds the lock
        if self._state == OPEN and self._clock() - self._opened_at >= self.reset_timeout:
            self._state = HALF_OPEN
            self._probes = 0
            self._probe_successes = 0

    def _trip(self) -> None:
        # caller holds the lock
        self._state = OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self.trips += 1

    def allow(self) -> bool:
        """True if the caller may attempt the protected venue now."""
        with self._lock:
            if self._state == CLOSED:
                return True
            self._maybe_half_open()
            if self._state == OPEN:
                self.rejections += 1
                return False
            if self._probes < self.success_threshold:
                self._probes += 1
                return True
            self.rejections += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.success_threshold:
                    self._state = CLOSED
                    self._failures = 0
            else:
                self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip()
                return
            if self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip()

    def remaining_open(self) -> float:
        """Seconds until an open breaker starts probing (0 otherwise)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self.reset_timeout - (self._clock() - self._opened_at))

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state,
                "failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
                "trips": self.trips,
                "rejections": self.rejections,
            }
