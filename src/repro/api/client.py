"""`GMineClient`: one client API, two transports.

The client mirrors the service surface — queries, batches, streams, op
discovery, stats, and session lifecycle — over either transport:

* **in-process**: ``GMineClient.in_process(service)`` routes through the
  same :class:`~repro.api.router.ProtocolRouter` the HTTP server uses and
  serialises payloads with the same canonical ``dumps``, so the bytes are
  identical to what a socket would carry;
* **HTTP**: ``GMineClient.http(url)`` speaks to a running
  ``gmine serve --http`` server via :mod:`http.client` (stdlib only),
  over one persistent connection per calling thread.  A connection the
  server closed while idle is replaced before the next request; one
  closed under a request is resent once on a fresh connection, but only
  for requests that are safe to send twice (``GET`` and cacheable
  queries/streams) — ``session.step``, ``dataset.apply`` and batches
  raise :class:`~repro.errors.ProtocolError` rather than risk running
  twice.  Proxy environment variables are not consulted.  ``close()``
  (or a ``with`` block) closes every connection the client opened.
  ``auth_token=`` attaches the bearer token a
  :class:`~repro.api.http.FrontendPolicy` demands.

Protocol v2 adds the **streaming iterator API**: :meth:`GMineClient.stream`
yields one :class:`~repro.api.wire.Response` per cursor chunk, and
:meth:`GMineClient.stream_result` reassembles the chunks into the exact
payload a one-shot query for the full vector returns — byte-identical by
construction, which the streaming parity suite asserts.

Examples and tests take a client, not a service, and therefore run
unchanged against every deployment.  Failures come back as
:class:`~repro.api.wire.Response` envelopes whose ``unwrap()`` raises the
typed exception for the structured error code (``SESSION_EXPIRED`` raises
:class:`~repro.errors.SessionExpiredError`, and so on).
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import weakref
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)
from urllib.parse import urlsplit

from ..errors import ProtocolError
from .ops import DEFAULT_REGISTRY
from .router import ProtocolRouter, dumps
from .wire import PROTOCOL, Request, Response, WireError, exception_for_code

#: A transport exchange: HTTP status, parsed payload, canonical raw bytes.
Exchange = Tuple[int, Dict[str, Any], bytes]

#: Envelope error codes a retry may reasonably turn into a success:
#: transient server-side pushback, not request defects.
RETRYABLE_CODES = frozenset({"OVERLOADED", "RATE_LIMITED"})

#: Extra socket headroom past a request's deadline: the server needs a
#: moment to notice the expiry and serialise the DEADLINE_EXCEEDED
#: envelope; the client should receive that envelope, not a socket error.
HTTP_TIMEOUT_GRACE = 5.0


def _is_idempotent(op: str) -> bool:
    """Whether ``op`` is safe to retry: the registry's cacheable flag.

    Cacheable ops are pure functions of (dataset fingerprint, args) —
    re-running one can only repeat the same answer.  Mutating ops
    (``session.step``, ``dataset.apply``) and unknown ops never retry:
    the first attempt may have landed before the failure was reported.
    """
    try:
        return bool(DEFAULT_REGISTRY.get(op).cacheable)
    except Exception:  # noqa: BLE001 — unknown op: assume not idempotent
        return False


def _jsonify_sets(value: Any) -> Any:
    """JSON fallback for request bodies: sets become sorted lists.

    The registry accepts set/frozenset sources (their order is
    canonicalized away server-side anyway), so both transports must carry
    them; anything else non-JSON is a caller bug and fails loudly instead
    of being silently stringified.
    """
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    raise TypeError(
        f"request payload value {value!r} ({type(value).__name__}) "
        "is not JSON-serializable"
    )


def _encode_request_body(body: Mapping[str, Any]) -> bytes:
    try:
        return json.dumps(body, default=_jsonify_sets).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"request is not JSON-serializable: {error}") from error


class InProcessTransport:
    """Route through the shared router without touching a socket."""

    name = "in-process"

    def __init__(self, service) -> None:
        self.router = ProtocolRouter(service)

    def call(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
        timeout: Optional[float] = None,
    ) -> Exchange:
        # ``timeout`` is a socket-level knob; in-process there is no socket
        # — the envelope's ``deadline_ms`` is what bounds the work.
        status, payload = self.router.handle(method, path, body)
        raw = dumps(payload)
        # Round-trip through JSON so in-process callers can never observe
        # richer types than a remote caller would (tuples, numpy scalars…).
        return status, json.loads(raw.decode("utf-8")), raw

    def stream(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
        timeout: Optional[float] = None,
    ) -> Iterator[Exchange]:
        """Yield one exchange per streamed chunk (shared router path)."""
        status, payloads = self.router.handle_stream(method, path, body)
        for payload in payloads:
            raw = dumps(payload)
            yield status, json.loads(raw.decode("utf-8")), raw

    def close(self) -> None:
        pass


class _Idle:
    """One thread's idle connection, closed when the thread's locals go.

    A thread that ends (or a transport that is collected) drops its
    ``threading.local`` slots; closing the connection here keeps its
    socket from lingering until a garbage collection notices it.
    """

    __slots__ = ("connection", "live")

    def __init__(self, live: set) -> None:
        self.connection: Optional[http.client.HTTPConnection] = None
        self.live = live

    def __del__(self) -> None:
        if self.connection is not None:
            self.live.discard(self.connection)
            self.connection.close()


def _close_all(live: set) -> None:
    """Close every connection in ``live``; safe against concurrent callers."""
    while live:
        try:
            connection = live.pop()
        except KeyError:  # another thread emptied it first
            break
        connection.close()


def _peer_closed(sock) -> bool:
    """Zero-timeout readability check of an idle keep-alive socket.

    Between requests the server has nothing to say, so a readable socket
    means it closed the connection (EOF) or broke framing; either way the
    connection must not carry another request.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])  # pragma: no cover


def _resendable(method: str, path: str, body: Optional[Mapping[str, Any]]) -> bool:
    """Whether a request may be sent twice: a GET, or a cacheable query/stream."""
    if method == "GET":
        return True
    if path in ("/v1/query", "/v1/stream") and isinstance(body, Mapping):
        return _is_idempotent(body.get("op"))
    return False


#: How a reused keep-alive connection fails when the server closed it
#: under the request: no response byte arrived (``RemoteDisconnected`` is
#: a ``ConnectionResetError``), or the write itself hit the closed socket.
_TORN = (ConnectionResetError, BrokenPipeError)


class HTTPTransport:
    """Speak to a running ``gmine serve --http`` front-end (stdlib only).

    Each calling thread keeps one persistent HTTP/1.1 connection
    (:mod:`http.client`) and reuses it for every call and stream, so a
    cache hit costs one round trip, not a TCP handshake.  Before reuse, a
    zero-timeout readability check catches a connection the server has
    already closed, and the request goes out on a fresh one instead.  If
    the server closes a reused connection after the request was written
    but before any response byte, the request is resent once on a fresh
    connection — only when sending it twice is harmless (a ``GET``, or a
    ``/v1/query`` / ``/v1/stream`` of a registry-cacheable op); anything
    else (``session.step``, ``dataset.apply``, ``/v1/batch``) raises
    :class:`~repro.errors.ProtocolError` instead.  Connections go straight
    to ``base_url``: proxy environment variables are not consulted.
    :meth:`close` closes every connection, from every thread.
    """

    name = "http"

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        auth_token: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.auth_token = auth_token
        target = urlsplit(self.base_url)
        if target.scheme not in ("http", "https") or not target.hostname:
            raise ProtocolError(f"not an http(s) URL: {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection if target.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host = target.hostname
        self._port = target.port
        self._prefix = target.path
        self._headers = {"Content-Type": "application/json"}
        if auth_token is not None:
            self._headers["Authorization"] = f"Bearer {auth_token}"
        self._local = threading.local()
        self._live: set = set()  # every open connection, from every thread
        # Held by the finalizer, not just by this object: a transport that
        # dies in a reference cycle still closes its sockets before the
        # collector could finalize them unclosed.
        weakref.finalize(self, _close_all, self._live)

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #
    def _idle(self) -> _Idle:
        idle = getattr(self._local, "idle", None)
        if idle is None:
            idle = self._local.idle = _Idle(self._live)
        return idle

    def _checkout(
        self, timeout: Optional[float]
    ) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's connection (and whether it is reused) or a new one.

        A stream in progress holds its connection checked out, so a call
        made while iterating it gets a connection of its own.
        """
        idle = self._idle()
        connection, idle.connection = idle.connection, None
        if connection is not None:
            if connection.sock is not None and not _peer_closed(connection.sock):
                connection.sock.settimeout(timeout)
                return connection, True
            self._retire(connection)
        connection = self._connection_class(self._host, self._port, timeout=timeout)
        try:
            connection.connect()
        except OSError as error:
            connection.close()
            raise ProtocolError(
                f"cannot reach GMine server at {self.base_url}: {error}"
            ) from error
        self._live.add(connection)
        return connection, False

    def _checkin(
        self,
        connection: http.client.HTTPConnection,
        reply: http.client.HTTPResponse,
    ) -> None:
        """Keep a connection whose response was read to the end."""
        idle = self._idle()
        if reply.will_close or idle.connection is not None:
            self._retire(connection)
        else:
            idle.connection = connection

    def _retire(self, connection: http.client.HTTPConnection) -> None:
        self._live.discard(connection)
        connection.close()

    def _send(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
        timeout: Optional[float],
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Write one request and read the response head."""
        data = None if body is None else _encode_request_body(body)
        socket_timeout = self.timeout if timeout is None else timeout
        while True:
            connection, reused = self._checkout(socket_timeout)
            try:
                connection.request(
                    method, self._prefix + path, body=data, headers=self._headers
                )
                return connection, connection.getresponse()
            except _TORN as error:
                self._retire(connection)
                if reused and _resendable(method, path, body):
                    continue  # once: the next connection is a fresh one
                raise ProtocolError(
                    f"GMine server at {self.base_url} closed the connection "
                    f"before answering: {error!r}"
                ) from error
            except (OSError, http.client.HTTPException) as error:
                self._retire(connection)
                raise ProtocolError(
                    f"request to GMine server at {self.base_url} failed: {error!r}"
                ) from error

    def _broken_off(self, error: Exception) -> ProtocolError:
        return ProtocolError(
            f"GMine server at {self.base_url} broke off a response: {error!r}"
        )

    # ------------------------------------------------------------------ #
    # exchanges
    # ------------------------------------------------------------------ #
    def call(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
        timeout: Optional[float] = None,
    ) -> Exchange:
        # Non-2xx statuses (404 unknown session, 410 expired, …) carry a
        # protocol envelope in the body exactly like a success does.
        connection, reply = self._send(method, path, body, timeout)
        try:
            raw = reply.read()
        except (OSError, http.client.HTTPException) as error:
            reply.close()
            self._retire(connection)
            raise self._broken_off(error) from error
        self._checkin(connection, reply)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(
                f"server returned non-protocol payload (status {reply.status})"
            ) from error
        return reply.status, payload, raw

    def stream(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
        timeout: Optional[float] = None,
    ) -> Iterator[Exchange]:
        """Yield one exchange per NDJSON line of a chunked stream response.

        :mod:`http.client` decodes the chunked transfer encoding; each
        line is one canonical envelope, yielded with its exact bytes (sans
        the line feed) so parity against the in-process transport is
        byte-for-byte.  A stream read to its end returns the connection
        to the thread; one closed early closes the connection, whose
        unread chunks would corrupt the next exchange.
        """
        connection, reply = self._send(method, path, body, timeout)
        status = reply.status
        finished = False
        try:
            while True:
                try:
                    line = reply.readline()
                except (OSError, http.client.HTTPException) as error:
                    raise self._broken_off(error) from error
                if not line:
                    break
                raw = line.rstrip(b"\n")
                if not raw:
                    continue
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    raise ProtocolError(
                        f"server streamed a non-protocol line (status {status})"
                    ) from error
                yield status, payload, raw
            finished = True
        finally:
            if finished:
                self._checkin(connection, reply)
            else:
                reply.close()
                self._retire(connection)

    def close(self) -> None:
        """Close every connection this transport opened, in every thread."""
        _close_all(self._live)


class GMineClient:
    """Transport-agnostic GMine Protocol v2 client.

    ``retry`` opts into client-side retries: pass a
    :class:`repro.service.resilience.RetryPolicy` (or anything with its
    ``attempts``/``pause(attempt, retry_after)`` shape).  Only idempotent
    (registry-cacheable) operations ever retry, and only on transient
    pushback — ``OVERLOADED``/``RATE_LIMITED`` envelopes (honouring the
    server's ``retry_after`` hint) and transport-level
    :class:`~repro.errors.ProtocolError` failures.
    """

    def __init__(
        self,
        transport: Union[InProcessTransport, HTTPTransport],
        retry: Optional[Any] = None,
    ) -> None:
        self.transport = transport
        self.retry = retry

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def in_process(cls, service, retry: Optional[Any] = None) -> "GMineClient":
        """A client bound directly to a live service object."""
        return cls(InProcessTransport(service), retry=retry)

    @classmethod
    def http(
        cls,
        url: str,
        timeout: float = 30.0,
        auth_token: Optional[str] = None,
        retry: Optional[Any] = None,
    ) -> "GMineClient":
        """A client speaking to ``gmine serve --http`` at ``url``.

        ``url`` is ``http://`` or ``https://``, optionally with a path
        prefix.  Each calling thread reuses one persistent connection;
        :meth:`close` (or a ``with`` block) closes them all.
        ``auth_token`` attaches ``Authorization: Bearer <token>`` to every
        request, matching a server started with ``--auth-token``.
        """
        return cls(
            HTTPTransport(url, timeout=timeout, auth_token=auth_token),
            retry=retry,
        )

    def close(self) -> None:
        """Release the transport (over HTTP: every open connection)."""
        self.transport.close()

    def __enter__(self) -> "GMineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        op: str,
        dataset: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
        page: Optional[Mapping[str, Any]] = None,
        request_id: Optional[str] = None,
        timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> Response:
        """Run one operation; keyword arguments merge into ``args``.

        ``timeout`` (seconds) stamps the envelope's ``deadline_ms`` — the
        server fast-rejects or abandons work past the budget with a
        ``DEADLINE_EXCEEDED`` envelope — and, over HTTP, bounds the socket
        wait at ``timeout`` plus a small grace so that envelope arrives
        instead of a raw socket error.
        """
        merged = dict(args or {})
        merged.update(kwargs)
        request = Request(
            op=op,
            args=merged,
            dataset=dataset,
            page=None if page is None else dict(page),
            id=request_id,
            deadline_ms=None if timeout is None else float(timeout) * 1000.0,
        )
        body = request.to_dict()
        call_timeout = None if timeout is None else float(timeout) + HTTP_TIMEOUT_GRACE

        attempts = 1
        if self.retry is not None and _is_idempotent(op):
            attempts = max(1, int(self.retry.attempts))
        for attempt in range(attempts):
            final = attempt >= attempts - 1
            try:
                _, payload, _ = self.transport.call(
                    "POST", "/v1/query", body, timeout=call_timeout
                )
            except ProtocolError:
                # Transport failure (unreachable server, torn connection):
                # idempotent requests may simply try again.
                if final:
                    raise
                self.retry.pause(attempt, None)
                continue
            response = Response.from_dict(payload)
            error = response.error
            if error is not None and error.code in RETRYABLE_CODES and not final:
                retry_after = None
                if isinstance(error.details, Mapping):
                    retry_after = error.details.get("retry_after")
                self.retry.pause(attempt, retry_after)
                continue
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    def query_raw(
        self,
        op: str,
        dataset: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
        page: Optional[Mapping[str, Any]] = None,
    ) -> bytes:
        """The canonical wire bytes for one query (parity testing hook)."""
        request = Request(op=op, args=dict(args or {}), dataset=dataset,
                          page=None if page is None else dict(page))
        _, _, raw = self.transport.call("POST", "/v1/query", request.to_dict())
        return raw

    def call(
        self,
        op: str,
        dataset: Optional[str] = None,
        page: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
        **args: Any,
    ) -> Any:
        """Run one operation and unwrap its payload (raises typed errors)."""
        return self.query(
            op, dataset=dataset, args=args, page=page, timeout=timeout
        ).unwrap()

    # ------------------------------------------------------------------ #
    # streaming cursors
    # ------------------------------------------------------------------ #
    def stream(
        self,
        op: str,
        dataset: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
        page: Optional[Mapping[str, Any]] = None,
        chunk_size: Optional[int] = None,
        cursor: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> Iterator[Response]:
        """Iterate the cursor chunks of one streamable operation.

        Each yielded :class:`Response` carries a slice of the result's
        stream field plus ``cursor``/``next_cursor``; pass a previous
        chunk's ``next_cursor`` as ``cursor`` (with the *same* request)
        to resume after a disconnect.  Check ``response.ok`` (or call
        ``unwrap()``) — a failed stream yields exactly one error envelope.
        """
        request = Request(
            op=op,
            args=dict(args or {}),
            dataset=dataset,
            page=None if page is None else dict(page),
            id=request_id,
            chunk_size=chunk_size,
            cursor=cursor,
        )
        for _status, payload, _raw in self.transport.stream(
            "POST", "/v1/stream", request.to_dict()
        ):
            yield Response.from_dict(payload)

    def stream_raw(
        self,
        op: str,
        dataset: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
        page: Optional[Mapping[str, Any]] = None,
        chunk_size: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> List[bytes]:
        """The canonical wire bytes of every chunk (parity testing hook)."""
        request = Request(op=op, args=dict(args or {}), dataset=dataset,
                          page=None if page is None else dict(page),
                          chunk_size=chunk_size, cursor=cursor)
        return [
            raw
            for _status, _payload, raw in self.transport.stream(
                "POST", "/v1/stream", request.to_dict()
            )
        ]

    def stream_result(
        self,
        op: str,
        dataset: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
        page: Optional[Mapping[str, Any]] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Stream one operation and reassemble the full result payload.

        The returned dict is byte-identical (under the canonical
        serialisation) to the ``result`` of a one-shot query whose
        pagination covers the whole vector — chunking is pure transport,
        never a different answer.  Raises the typed taxonomy error if the
        stream fails.
        """
        chunks = list(
            self.stream(op, dataset=dataset, args=args, page=page,
                        chunk_size=chunk_size)
        )
        first = chunks[0]
        if not first.ok:
            first.unwrap()
        field = first.page["field"]
        merged = dict(first.result)
        merged[field] = [
            item for response in chunks for item in response.result[field]
        ]
        return merged

    def batch(
        self, requests: Sequence[Union[Request, Mapping[str, Any]]]
    ) -> List[Response]:
        """Run many operations; per-request failures come back in place."""
        body = {
            "protocol": PROTOCOL,
            "requests": [
                item.to_dict() if isinstance(item, Request) else dict(item)
                for item in requests
            ],
        }
        status, payload, _ = self.transport.call("POST", "/v1/batch", body)
        self._check_envelope(status, payload)
        return [Response.from_dict(entry) for entry in payload.get("responses", [])]

    # ------------------------------------------------------------------ #
    # discovery + stats
    # ------------------------------------------------------------------ #
    def ops(self) -> List[Dict[str, Any]]:
        """The registry's op table: names, schemas, cost classes."""
        status, payload, _ = self.transport.call("GET", "/v1/ops", None)
        self._check_envelope(status, payload)
        return payload["ops"]

    def stats(self) -> Dict[str, Any]:
        """Cache / backend / compute / session statistics of the service."""
        status, payload, _ = self.transport.call("GET", "/v1/stats", None)
        self._check_envelope(status, payload)
        return payload["stats"]

    def datasets(self) -> List[Dict[str, Any]]:
        """The dataset table: name, kind, fingerprint, backing paths."""
        status, payload, _ = self.transport.call("GET", "/v1/datasets", None)
        self._check_envelope(status, payload)
        return payload["datasets"]

    def reload_dataset(self, name: str) -> Dict[str, Any]:
        """Hot-reload one dataset from its backing file; returns the report."""
        status, payload, _ = self.transport.call(
            "POST", f"/v1/datasets/{name}/reload", None
        )
        self._check_envelope(status, payload)
        return {
            key: value
            for key, value in payload.items()
            if key not in ("protocol", "ok")
        }

    def apply_dataset(
        self,
        name: str,
        script: Sequence[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Apply an edit script to a mutable dataset; returns the change report.

        The report carries the new and previous root fingerprints, the
        touched communities with their new sub-fingerprints, and how many
        cache entries the edit invalidated — everything a client needs to
        refresh its own derived state selectively.
        """
        status, payload, _ = self.transport.call(
            "POST", f"/v1/datasets/{name}/apply", {"script": list(script)}
        )
        self._check_envelope(status, payload)
        return {
            key: value
            for key, value in payload.items()
            if key not in ("protocol", "ok")
        }

    def subscribe(
        self,
        dataset: Optional[str] = None,
        since: int = 0,
        timeout: float = 0.0,
        community: Optional[Union[int, str]] = None,
    ) -> Dict[str, Any]:
        """Long-poll the dataset's change feed for events after ``since``.

        Returns ``{"events": [...], "next_since": N, "fingerprint": ...,
        "lagged": bool}``; pass ``next_since`` back in to resume the poll
        loop without missing or re-reading an event.  ``community``
        filters to events touching that community.
        """
        body: Dict[str, Any] = {"since": int(since), "timeout": timeout}
        if dataset is not None:
            body["dataset"] = dataset
        if community is not None:
            body["community"] = community
        status, payload, _ = self.transport.call("POST", "/v1/subscribe", body)
        self._check_envelope(status, payload)
        return {
            key: value
            for key, value in payload.items()
            if key not in ("protocol", "ok")
        }

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #
    def create_session(
        self,
        dataset: Optional[str] = None,
        focus: Optional[str] = None,
        name: str = "session",
        ttl: Optional[float] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"name": name}
        if dataset is not None:
            body["dataset"] = dataset
        if focus is not None:
            body["focus"] = focus
        if ttl is not None:
            body["ttl"] = ttl
        status, payload, _ = self.transport.call("POST", "/v1/sessions", body)
        self._check_envelope(status, payload)
        return payload["session"]

    def restore_session(
        self, state: Mapping[str, Any], dataset: Optional[str] = None
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"state": dict(state)}
        if dataset is not None:
            body["dataset"] = dataset
        status, payload, _ = self.transport.call("POST", "/v1/sessions", body)
        self._check_envelope(status, payload)
        return payload["session"]

    def sessions(self) -> List[str]:
        status, payload, _ = self.transport.call("GET", "/v1/sessions", None)
        self._check_envelope(status, payload)
        return payload["sessions"]

    def resume_session(self, session_id: str) -> Dict[str, Any]:
        status, payload, _ = self.transport.call(
            "POST", f"/v1/sessions/{session_id}/resume", None
        )
        self._check_envelope(status, payload)
        return payload["session"]

    def session_state(self, session_id: str) -> Dict[str, Any]:
        status, payload, _ = self.transport.call(
            "GET", f"/v1/sessions/{session_id}", None
        )
        self._check_envelope(status, payload)
        return payload["state"]

    def session_step(
        self, session_id: str, action: str, **args: Any
    ) -> Dict[str, Any]:
        """Apply one exploration step; returns {'session', 'action', 'result'}."""
        status, payload, _ = self.transport.call(
            "POST",
            f"/v1/sessions/{session_id}/step",
            {"action": action, "args": args},
        )
        self._check_envelope(status, payload)
        return payload

    def close_session(self, session_id: str) -> None:
        status, payload, _ = self.transport.call(
            "DELETE", f"/v1/sessions/{session_id}", None
        )
        self._check_envelope(status, payload)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_envelope(status: int, payload: Mapping[str, Any]) -> None:
        """Raise the typed taxonomy exception for a failed envelope."""
        if payload.get("ok"):
            return
        error = payload.get("error")
        if isinstance(error, Mapping):
            WireError.from_dict(error).raise_()
        raise exception_for_code(
            "PROTOCOL_ERROR", f"request failed with HTTP status {status}"
        )
