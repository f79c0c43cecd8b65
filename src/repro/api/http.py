"""The HTTP server for the GMine Protocol: one event loop, stdlib only.

``gmine serve --http PORT`` binds a :class:`ProtocolRouter` to
:class:`GMineHTTPServer`, a single asyncio event loop multiplexing every
connection — the shape that fits GMine's traffic, thousands of mostly
idle exploration sessions each firing small queries.  The server owns
**no protocol logic**: a request is parsed into ``(method, path, body)``,
checked by the :class:`FrontendPolicy`, routed through the router and
serialised with the router's canonical :func:`~repro.api.router.dumps` —
the same bytes the in-process transport produces, which the parity suites
assert.

How a request is served:

* **Policy order** (pinned by tests): the body is drained first so an
  early reply can never corrupt keep-alive framing, then bearer auth
  (``AUTH_REQUIRED``/401), then the token-bucket rate limit
  (``RATE_LIMITED``/429), then JSON parsing (``PROTOCOL_ERROR``/400),
  then ``max_inflight`` admission (``OVERLOADED``/503 + ``Retry-After``).
  ``/healthz`` and ``/readyz`` bypass all of it: a load balancer must be
  able to probe a saturated or locked-down server.
* **Compute** runs in the loop's default thread-pool executor (the
  service and its execution backends are thread-safe), keeping the loop
  free to multiplex connections.
* **Long-polls are parked, not run.**  A ``dataset.subscribe`` that would
  wait (``POST /v1/subscribe``, or the op through ``POST /v1/query``) is
  taken apart by :meth:`ProtocolRouter.long_poll`: the server answers it
  with zero-timeout polls and, between them, awaits a loop future that a
  :meth:`~repro.service.feeds.ChangeFeed.add_listener` hook completes on
  ``publish``/``close``.  A parked subscriber therefore holds no executor
  thread — any number of them leaves ``GET /v1/stats`` as fast as on an
  idle server — though it keeps its admission slot like any request
  being served.
* **Keep-alive is cheap**: each response leaves in one ``write`` (head +
  body together), so a persistent connection never waits out a
  delayed-ACK round between two small segments.  HTTP/1.1 connections
  persist unless the client sends ``Connection: close``; HTTP/1.0 ones
  close unless it sends ``Connection: keep-alive``.
* ``POST /v1/stream`` answers with ``Transfer-Encoding: chunked`` NDJSON —
  one canonical envelope per line, each carrying ``cursor``/``next_cursor``.

:class:`GMineHTTPServer` wraps the lifecycle for embedding (tests start it
on port 0; the loop runs in a background thread); ``stop()`` cancels open
connections and parked subscribers and waits for them before the loop
closes.  :func:`serve_http` is the blocking CLI entry point.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import threading
import time
from http.client import responses as _STATUS_PHRASES
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..errors import (
    AuthRequiredError,
    GMineError,
    OverloadedError,
    ProtocolError,
    RateLimitedError,
)
from .router import LongPoll, ProtocolRouter, dumps, error_payload

#: Paths exempt from auth/rate-limit/admission: probes must always answer.
HEALTH_PATHS = ("/healthz", "/readyz")


def retry_after_of(payload: Mapping) -> Optional[float]:
    """Extract a ``retry_after`` hint from an error envelope, if any.

    The server surfaces it as an HTTP ``Retry-After`` header so plain
    HTTP clients can back off without parsing the body.
    """
    error = payload.get("error")
    if isinstance(error, Mapping):
        details = error.get("details")
        if isinstance(details, Mapping):
            value = details.get("retry_after")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
    return None

#: Largest accepted request body; protects the demo server from abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Content type of streamed responses: one canonical envelope per line.
STREAM_CONTENT_TYPE = "application/x-ndjson; charset=utf-8"


def parse_json_body(raw: bytes) -> Optional[dict]:
    """Decode one request body: JSON object, ``None`` when empty.

    A malformed body raises the ``PROTOCOL_ERROR`` the server answers
    with a 400 envelope.
    """
    if not raw:
        return None
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"request body is not valid JSON: {error}") from error
    if parsed is not None and not isinstance(parsed, dict):
        raise ProtocolError("request body must be a JSON object")
    return parsed


def chunked_ndjson_frames(payloads: Iterable[Mapping]) -> Iterator[bytes]:
    """HTTP chunked-transfer frames: one canonical NDJSON line per payload.

    The single source of the stream framing: each line is the canonical
    ``dumps`` of one envelope, so a client reading line by line recovers
    exactly the payload bytes the in-process transport yields.
    """
    for payload in payloads:
        line = dumps(payload) + b"\n"
        yield f"{len(line):x}\r\n".encode("ascii") + line + b"\r\n"
    yield b"0\r\n\r\n"


class TokenBucket:
    """Thread-safe token bucket: ``rate`` requests/s with burst ``rate``.

    Tokens refill continuously on the injected monotonic clock; a request
    costs one token, and an empty bucket means the caller is over rate.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate limit must be positive, got {rate!r}")
        self.rate = float(rate)
        self.capacity = float(burst) if burst is not None else max(1.0, self.rate)
        self._clock = clock
        self._tokens = self.capacity
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.capacity, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class FrontendPolicy:
    """Transport-level guard rails of the HTTP server.

    ``auth_token`` demands ``Authorization: Bearer <token>`` on every
    request; ``rate_limit`` caps the request rate (requests per second,
    token bucket with burst = rate).  Violations raise the taxonomy's
    :class:`~repro.errors.AuthRequiredError` /
    :class:`~repro.errors.RateLimitedError`, which the server flattens
    into the stable ``AUTH_REQUIRED`` (401) / ``RATE_LIMITED`` (429) wire
    envelopes — structured failures, never dropped connections.
    """

    def __init__(
        self,
        auth_token: Optional[str] = None,
        rate_limit: Optional[float] = None,
        max_inflight: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight!r}")
        self.auth_token = auth_token
        self.bucket = None if rate_limit is None else TokenBucket(rate_limit, clock=clock)
        self.max_inflight = max_inflight
        self.shed = 0
        self._inflight = 0
        self._admission = threading.Lock()

    def check(self, headers: Mapping[str, str]) -> None:
        """Validate one request's headers (keys must be lower-cased)."""
        if self.auth_token is not None:
            supplied = headers.get("authorization", "")
            expected = f"Bearer {self.auth_token}"
            # constant-time: the token is a secret, so the comparison must
            # not leak a matching prefix through response timing
            if not hmac.compare_digest(
                supplied.encode("utf-8"), expected.encode("utf-8")
            ):
                raise AuthRequiredError(
                    "missing or invalid bearer token; send "
                    "'Authorization: Bearer <token>'"
                )
        if self.bucket is not None and not self.bucket.try_acquire():
            raise RateLimitedError(
                f"request rate limit exceeded "
                f"({self.bucket.rate:g} requests/s); retry later"
            )

    def try_enter(self) -> bool:
        """Claim an in-flight slot; ``False`` sheds the request (503)."""
        if self.max_inflight is None:
            return True
        with self._admission:
            if self._inflight >= self.max_inflight:
                self.shed += 1
                return False
            self._inflight += 1
            return True

    def leave(self) -> None:
        """Release the slot claimed by a successful :meth:`try_enter`."""
        if self.max_inflight is None:
            return
        with self._admission:
            self._inflight = max(0, self._inflight - 1)

    def overloaded(self) -> OverloadedError:
        """The typed 503 a shed request is answered with."""
        return OverloadedError(
            f"server at capacity ({self.max_inflight} requests in flight); "
            "retry shortly",
            retry_after=1.0,
        )

    def describe(self) -> Mapping[str, object]:
        """JSON-safe summary (for serve banners and smoke output)."""
        with self._admission:
            shed, inflight = self.shed, self._inflight
        return {
            "auth": self.auth_token is not None,
            "rate_limit": None if self.bucket is None else self.bucket.rate,
            "max_inflight": self.max_inflight,
            "inflight": inflight,
            "shed": shed,
        }


#: Hard cap on one request head (request line + headers).
_MAX_HEADER_BYTES = 64 * 1024


def _head(status: int, headers: Dict[str, str]) -> bytes:
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _keep_alive(version: str, headers: Mapping[str, str]) -> bool:
    """HTTP/1.1 persists unless told ``close``; 1.0 closes unless told to stay."""
    tokens = {
        token.strip() for token in headers.get("connection", "").lower().split(",")
    }
    if "close" in tokens:
        return False
    return "keep-alive" in tokens or version != "HTTP/1.0"


class GMineHTTPServer:
    """Embeddable event-loop HTTP server over one :class:`GMineService`.

    ``start()`` runs the event loop in a background daemon thread (tests
    bind port 0 and read the chosen port from :attr:`address`);
    ``serve_forever()`` blocks the calling thread (CLI mode).
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 8080,
        policy: Optional[FrontendPolicy] = None,
    ) -> None:
        self.router = ProtocolRouter(service)
        self.policy = policy
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None
        # Every open connection's task (a parked long-poll is its
        # connection's task, awaiting): what stop() cancels and awaits.
        self._connections: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port is concrete even when 0 was asked."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "GMineHTTPServer":
        """Serve from a background daemon thread; returns self."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="gmine-http", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5)
            self._thread = None
            raise error
        return self

    def serve_forever(self) -> None:
        """Serve until the loop thread ends; a KeyboardInterrupt propagates."""
        self.start()
        while self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=0.5)

    def stop(self) -> None:
        """Close the listener, every connection and parked long-poll; join."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout=10)
        self._thread = None
        self._started.clear()
        self._address = None

    def __enter__(self) -> "GMineHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            self._started.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.run_until_complete(loop.shutdown_default_executor())
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            asyncio.set_event_loop(None)
            loop.close()
            self._loop = None

    async def _serve(self) -> None:
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            # Stop accepting, then end every connection *before* the loop
            # closes: an idle keep-alive reader or a parked long-poll left
            # pending would be destroyed with the loop ("Task was destroyed
            # but it is pending") and its cleanup would hit a closed loop.
            server.close()
            connections = list(self._connections)
            for task in connections:
                task.cancel()
            await asyncio.gather(*connections, return_exceptions=True)
            await server.wait_closed()

    # ------------------------------------------------------------------ #
    # one connection
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                parsed = await self._read_request(reader, writer)
                if parsed is None:
                    break
                if not await self._respond(writer, *parsed):
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            # Only stop() cancels a connection, and this is the top of its
            # task, so end it normally: asyncio's done-callback for
            # start_server handlers logs a *cancelled* handler as an error.
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(self, reader, writer):
        """Parse one request: (method, path, version, headers, body) or None.

        ``None`` means the peer closed the connection cleanly between
        requests.  A malformed head is answered with a 400 envelope and
        the connection is closed (we cannot trust further framing).
        """
        try:
            # readline() re-raises an over-limit line as ValueError, so it
            # must sit inside the try to become a 400 envelope rather than
            # an unhandled task exception.
            request_line = await reader.readline()
            if not request_line or not request_line.strip():
                return None
            if len(request_line) > _MAX_HEADER_BYTES:
                raise ProtocolError("request line too long")
            method, target, version = request_line.decode("ascii").split()
            headers: Dict[str, str] = {}
            header_bytes = 0
            while True:
                line = await reader.readline()
                header_bytes += len(line)
                if header_bytes > _MAX_HEADER_BYTES:
                    raise ProtocolError("request headers too long")
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length") or 0)
            if length > MAX_BODY_BYTES:
                raise ProtocolError(f"request body too large ({length} bytes)")
            body = await reader.readexactly(length) if length else b""
        except (ValueError, UnicodeDecodeError, ProtocolError) as error:
            status, payload = error_payload(
                error if isinstance(error, ProtocolError)
                else ProtocolError(f"malformed HTTP request: {error}")
            )
            await self._write_payload(writer, status, payload, keep_alive=False)
            return None
        return method.upper(), target.split("?", 1)[0], version.upper(), headers, body

    async def _respond(
        self, writer, method, path, version, headers, body_bytes
    ) -> bool:
        """Answer one request; returns whether the connection persists."""
        keep_alive = _keep_alive(version, headers)
        route = path.rstrip("/")
        policy = None if route in HEALTH_PATHS else self.policy
        admitted = False
        try:
            if policy is not None:
                policy.check(headers)
            body = parse_json_body(body_bytes)
            if policy is not None:
                admitted = policy.try_enter()
                if not admitted:
                    raise policy.overloaded()
            if route == "/v1/stream":
                # The blocking part of a stream (dispatch + encode) happens
                # inside handle_stream; the returned generator only slices.
                status, payloads = await self._compute(
                    self.router.handle_stream, method, path, body
                )
                await self._write_stream(writer, status, payloads, keep_alive)
                return keep_alive
            # long_poll only inspects the request and takes two brief
            # locks, so it runs on the loop; everything heavier does not.
            parked = self.router.long_poll(method, path, body)
            if parked is not None:
                status, payload = await self._park(parked)
            else:
                status, payload = await self._compute(
                    self.router.handle, method, path, body
                )
        except GMineError as error:
            status, payload = error_payload(error)
        finally:
            if admitted:
                policy.leave()
        await self._write_payload(writer, status, payload, keep_alive)
        return keep_alive

    @staticmethod
    def _compute(function, *args):
        """Run blocking router work on the loop's default executor."""
        return asyncio.get_running_loop().run_in_executor(None, function, *args)

    async def _park(self, parked: LongPoll):
        """Serve a long-poll without holding a thread while it waits.

        The listener is registered before the first poll, so an event
        published between a poll and the wait still sets ``woken``.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + parked.timeout
        woken = asyncio.Event()

        def wake() -> None:  # runs on the publishing thread
            try:
                loop.call_soon_threadsafe(woken.set)
            except RuntimeError:  # the loop closed under a late publish
                pass

        parked.feed.add_listener(wake)
        try:
            while True:
                woken.clear()
                status, payload, final = await self._compute(parked.poll)
                # A closed feed means the service is shutting down: answer
                # with what we have rather than poll a closing service.
                if final or parked.feed.closed:
                    return status, payload
                try:
                    await asyncio.wait_for(
                        woken.wait(), deadline - loop.time()
                    )
                except asyncio.TimeoutError:
                    return status, payload
                if parked.feed.closed:
                    return status, payload
        finally:
            parked.feed.remove_listener(wake)

    async def _write_payload(
        self, writer, status: int, payload: Mapping, keep_alive: bool
    ) -> None:
        body = dumps(payload)
        headers = {
            "Content-Type": "application/json; charset=utf-8",
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        retry_after = retry_after_of(payload)
        if retry_after is not None:
            # Whole seconds, at least 1: the header is integer-valued.
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        # One write for head + body: two small segments on a keep-alive
        # connection would wait out the peer's delayed ACK (~40 ms).
        writer.write(_head(status, headers) + body)
        await writer.drain()

    async def _write_stream(
        self, writer, status: int, payloads, keep_alive: bool
    ) -> None:
        """Write NDJSON chunks under ``Transfer-Encoding: chunked``."""
        writer.write(_head(status, {
            "Content-Type": STREAM_CONTENT_TYPE,
            "Transfer-Encoding": "chunked",
            "Connection": "keep-alive" if keep_alive else "close",
        }))
        for frame in chunked_ndjson_frames(payloads):
            writer.write(frame)
            await writer.drain()


def serve_http(
    service,
    host: str = "127.0.0.1",
    port: int = 8080,
    policy: Optional[FrontendPolicy] = None,
    ready: Optional[Callable[[GMineHTTPServer], None]] = None,
) -> None:
    """Blocking CLI entry point: serve until KeyboardInterrupt.

    ``ready(server)`` runs once the socket is bound (the CLI prints its
    banner with the real port there).
    """
    server = GMineHTTPServer(service, host=host, port=port, policy=policy)
    try:
        server.start()
        if ready is not None:
            ready(server)
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.stop()
