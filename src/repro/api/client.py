"""`GMineClient`: one client API, two transports.

The client mirrors the service surface — queries, batches, streams, op
discovery, stats, and session lifecycle — over either transport:

* **in-process**: ``GMineClient.in_process(service)`` routes through the
  same :class:`~repro.api.router.ProtocolRouter` the HTTP server uses and
  serialises payloads with the same canonical ``dumps``, so the bytes are
  identical to what a socket would carry;
* **HTTP**: ``GMineClient.http(url)`` speaks to a running
  ``gmine serve --http`` server via :mod:`urllib` (stdlib only).  ``auth_token=`` attaches the
  bearer token a :class:`~repro.api.http.FrontendPolicy` demands.

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

import json
import urllib.error
import urllib.request
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


class HTTPTransport:
    """Speak to a running ``gmine serve --http`` front-end (stdlib only)."""

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

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.auth_token is not None:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        return headers

    def call(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
        timeout: Optional[float] = None,
    ) -> Exchange:
        data = None if body is None else _encode_request_body(body)
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers=self._headers(),
        )
        socket_timeout = self.timeout if timeout is None else timeout
        try:
            with urllib.request.urlopen(request, timeout=socket_timeout) as reply:
                raw = reply.read()
                status = reply.status
        except urllib.error.HTTPError as error:
            # Structured failures (404 unknown session, 410 expired, …)
            # still carry a protocol envelope in the body.
            raw = error.read()
            status = error.code
        except urllib.error.URLError as error:
            raise ProtocolError(
                f"cannot reach GMine server at {self.base_url}: {error.reason}"
            ) from error
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(
                f"server returned non-protocol payload (status {status})"
            ) from error
        return status, payload, raw

    def stream(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
        timeout: Optional[float] = None,
    ) -> Iterator[Exchange]:
        """Yield one exchange per NDJSON line of a chunked stream response.

        ``urllib`` decodes the chunked transfer encoding transparently;
        each line is one canonical envelope, yielded with its exact bytes
        (sans the line feed) so parity against the in-process transport is
        byte-for-byte.  Closing the generator early closes the socket.
        """
        data = None if body is None else _encode_request_body(body)
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers=self._headers(),
        )
        try:
            reply = urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            )
        except urllib.error.HTTPError as error:
            reply = error  # error bodies stream exactly like success bodies
        except urllib.error.URLError as error:
            raise ProtocolError(
                f"cannot reach GMine server at {self.base_url}: {error.reason}"
            ) from error
        status = reply.status if hasattr(reply, "status") else reply.code
        try:
            while True:
                line = reply.readline()
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
        finally:
            reply.close()

    def close(self) -> None:
        pass


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

        ``auth_token`` attaches ``Authorization: Bearer <token>`` to every
        request, matching a server started with ``--auth-token``.
        """
        return cls(
            HTTPTransport(url, timeout=timeout, auth_token=auth_token),
            retry=retry,
        )

    def close(self) -> None:
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
        refresh_rwr: bool = False,
    ) -> Dict[str, Any]:
        """Apply an edit script to a mutable dataset; returns the change report.

        The report carries the new and previous root fingerprints, the
        touched communities with their new sub-fingerprints, and how many
        cache entries the edit invalidated — everything a client needs to
        refresh its own derived state selectively.
        """
        body: Dict[str, Any] = {"script": list(script)}
        if refresh_rwr:
            body["refresh_rwr"] = True
        status, payload, _ = self.transport.call(
            "POST", f"/v1/datasets/{name}/apply", body
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
