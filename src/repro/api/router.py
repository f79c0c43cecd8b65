"""Transport-neutral routing for GMine Protocol v2.

The :class:`ProtocolRouter` maps ``(method, path, body)`` triples onto the
service — exactly the surface the HTTP server exposes — and returns
``(status, payload)`` pairs of plain JSON-safe data.  Every transport
calls it: :mod:`repro.api.http` feeds it real sockets, and the in-process
transport of :class:`~repro.api.client.GMineClient` calls
:meth:`ProtocolRouter.handle` directly and serialises the payload with
the very same :func:`dumps`.
That shared path is the parity guarantee: the bytes a client sees cannot
depend on the transport.

Protocol v2 collapses **all** dispatch onto the operation registry: the
session URLs below are thin wire-compatibility aliases that construct a
registry request (``session.create``, ``session.step``, …) and route it
through the very same :meth:`query` path as dataset operations — there is
no session dispatch outside the registry.  The ``/v1/stream`` route adds
resumable cursor streaming for ops that declare a
:class:`~repro.api.registry.StreamSpec`.

Routes::

    POST   /v1/query                 one Request envelope -> one Response
    POST   /v1/stream                one Request envelope -> chunked Responses
                                     (cursor + next_cursor per chunk)
    POST   /v1/batch                 {"requests": [...]} -> {"responses": [...]}
    GET    /v1/ops                   the registry's op table (schemas included)
    GET    /v1/stats                 cache / backend / compute / session stats
    GET    /v1/datasets              the dataset table (kind, fingerprint, paths)
    POST   /v1/datasets/<name>/reload  hot-reload a dataset from its file
    POST   /v1/datasets/<name>/apply   alias of op dataset.apply (edit script)
    POST   /v1/subscribe             alias of op dataset.subscribe (long-poll
                                     change feed: events after ``since``)
    GET    /v1/sessions              alias of op session.list
    POST   /v1/sessions              alias of session.create / session.restore
    GET    /v1/sessions/<id>         alias of session.describe
    POST   /v1/sessions/<id>/resume  alias of session.resume
    POST   /v1/sessions/<id>/step    alias of session.step
    DELETE /v1/sessions/<id>         alias of session.close
"""

from __future__ import annotations

import json
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..errors import (
    GMineError,
    InvalidArgumentError,
    ProtocolError,
    StaleCursorError,
)
from .ops import encode_result
from .wire import (
    PROTOCOL,
    Request,
    Response,
    ResultCursor,
    WireError,
    error_code_for,
    http_status_for,
    request_digest,
)

JsonDict = Dict[str, Any]
Handled = Tuple[int, JsonDict]
HandledStream = Tuple[int, Iterable[JsonDict]]

#: Items per streamed chunk when the request names no ``chunk_size``.
DEFAULT_STREAM_CHUNK = 500


def dumps(payload: Mapping[str, Any]) -> bytes:
    """The canonical protocol serialisation (every transport uses this).

    Keys are sorted and separators fixed so the same payload always yields
    the same bytes, whatever dict-construction order produced it.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    ).encode("utf-8")


def error_payload(error: BaseException) -> Handled:
    """Flatten any exception into a structured ``(status, envelope)`` pair.

    Shared by the router and the HTTP server (which uses it for
    transport-level failures like auth and rate-limit rejections), so
    every failure path emits the same canonical envelope shape.
    """
    code = error_code_for(error)
    return (
        http_status_for(code),
        {
            "protocol": PROTOCOL,
            "ok": False,
            "error": WireError.from_exception(error).to_dict(),
        },
    )


def _not_found(path: str) -> Handled:
    return (
        404,
        {
            "protocol": PROTOCOL,
            "ok": False,
            "error": {
                "code": "PROTOCOL_ERROR",
                "type": "ProtocolError",
                "message": f"no route for {path!r}",
            },
        },
    )


class LongPoll:
    """A waiting ``dataset.subscribe``, unbundled so a server can park it.

    :meth:`poll` answers the request as if its ``timeout`` were 0 — the
    same registry path, so the same bytes a blocking wait would return —
    and says whether that answer is final.  Between polls the caller
    waits on :attr:`feed` (``add_listener``) for at most :attr:`timeout`
    seconds in total, holding no thread.
    """

    def __init__(
        self,
        feed,
        timeout: float,
        run: Callable[[], Response],
        shape: Callable[[Response], Handled],
    ) -> None:
        self.feed = feed
        self.timeout = timeout
        self._run = run
        self._shape = shape

    def poll(self) -> Tuple[int, JsonDict, bool]:
        """``(status, payload, final)``; final = error, events or lag."""
        try:
            response = self._run()
        except Exception as error:  # noqa: BLE001 — same boundary as handle()
            return (*error_payload(error), True)
        final = (
            not response.ok
            or bool(response.result["events"])
            or response.result["lagged"]
        )
        return (*self._shape(response), final)


class ProtocolRouter:
    """Bind a :class:`GMineService` to the protocol surface."""

    def __init__(self, service) -> None:
        self.service = service

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def handle(
        self, method: str, path: str, body: Optional[Mapping[str, Any]] = None
    ) -> Handled:
        """Route one call; never raises — failures become error envelopes."""
        method = method.upper()
        parts = [part for part in path.split("/") if part]
        try:
            # Health endpoints live outside /v1: probes (and load
            # balancers) must reach them without protocol knowledge, and
            # front-ends exempt them from admission control.
            if parts == ["healthz"] and method == "GET":
                return self.healthz()
            if parts == ["readyz"] and method == "GET":
                return self.readyz()
            if parts[:1] != ["v1"]:
                return _not_found(path)
            tail = parts[1:]
            if tail == ["query"] and method == "POST":
                return self.query(body or {})
            if tail == ["batch"] and method == "POST":
                return self.batch(body or {})
            if tail == ["ops"] and method == "GET":
                return self.ops()
            if tail == ["stats"] and method == "GET":
                return self.stats()
            if tail == ["datasets"] and method == "GET":
                return self.datasets()
            if (
                len(tail) == 3
                and tail[0] == "datasets"
                and tail[2] == "reload"
                and method == "POST"
            ):
                return self.reload_dataset(tail[1])
            if (
                len(tail) == 3
                and tail[0] == "datasets"
                and tail[2] == "apply"
                and method == "POST"
            ):
                return self.apply_dataset(tail[1], body or {})
            if tail == ["subscribe"] and method == "POST":
                return self.subscribe(body or {})
            if tail == ["sessions"]:
                if method == "GET":
                    return self.list_sessions()
                if method == "POST":
                    return self.create_session(body or {})
            if len(tail) == 2 and tail[0] == "sessions":
                if method == "GET":
                    return self.session_state(tail[1])
                if method == "DELETE":
                    return self.close_session(tail[1])
            if len(tail) == 3 and tail[0] == "sessions" and method == "POST":
                if tail[2] == "resume":
                    return self.resume_session(tail[1])
                if tail[2] == "step":
                    return self.session_step(tail[1], body or {})
            return _not_found(path)
        except Exception as error:  # noqa: BLE001 — server boundary: every
            # failure, taxonomy or not, must leave as a structured envelope
            # (error_code_for maps unknown types to INTERNAL) rather than a
            # dropped connection or a raw traceback.
            return error_payload(error)

    def handle_stream(
        self, method: str, path: str, body: Optional[Mapping[str, Any]] = None
    ) -> HandledStream:
        """Route one possibly-streaming call; returns ``(status, payloads)``.

        ``/v1/stream`` yields one payload per chunk; every other route
        yields exactly the single payload :meth:`handle` would return, so
        a front-end may funnel its whole surface through this entry point.
        """
        parts = [part for part in path.split("/") if part]
        if parts == ["v1", "stream"] and method.upper() == "POST":
            try:
                return self.stream(body or {})
            except Exception as error:  # noqa: BLE001 — same boundary as handle()
                status, payload = error_payload(error)
                return status, [payload]
        status, payload = self.handle(method, path, body)
        return status, [payload]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, body: Mapping[str, Any]) -> Handled:
        return self._query_shape(self._run_query(body))

    @staticmethod
    def _query_shape(response: Response) -> Handled:
        return response.status, response.to_dict()

    def batch(self, body: Mapping[str, Any]) -> Handled:
        """Route a request list through :meth:`GMineService.batch`.

        The service's batch machinery — identical-request dedup and the
        worker pool — serves the remote surface too; a malformed envelope
        becomes a failure Response in place, never sinking its neighbours.
        Session-scoped requests ride along like any other: an expired
        session inside the batch yields a ``SESSION_EXPIRED`` envelope for
        that entry alone.
        """
        requests = body.get("requests")
        if not isinstance(requests, (list, tuple)):
            raise ProtocolError(
                "batch body must be {'requests': [...]}, got "
                f"{dict(body)!r}"
            )
        parsed: list = []  # Request for well-formed entries, Response otherwise
        for item in requests:
            try:
                parsed.append(Request.from_dict(item))
            except Exception as error:  # noqa: BLE001 — isolate, don't sink
                parsed.append(Response.failure(error))
        well_formed = [entry for entry in parsed if isinstance(entry, Request)]
        results = iter(
            self.service.batch(
                [
                    {
                        "op": entry.op,
                        "args": entry.args,
                        "dataset": entry.dataset,
                        "deadline_ms": entry.deadline_ms,
                    }
                    for entry in well_formed
                ]
            )
            if well_formed
            else []
        )
        responses = [
            entry if isinstance(entry, Response)
            else self._result_to_response(entry, next(results))
            for entry in parsed
        ]
        # The batch call itself succeeds even when members fail: isolation
        # is per-request, mirroring GMineService.batch.
        return 200, {
            "protocol": PROTOCOL,
            "ok": True,
            "responses": [response.to_dict() for response in responses],
        }

    def _run_query(self, payload: Mapping[str, Any]) -> Response:
        try:
            request = Request.from_dict(payload)
        except GMineError as error:
            return Response.failure(error)
        result = self.service.execute(
            {
                "op": request.op,
                "args": request.args,
                "dataset": request.dataset,
                "deadline_ms": request.deadline_ms,
            }
        )
        return self._result_to_response(request, result)

    def _result_to_response(self, request: Request, result) -> Response:
        """Flatten one service ``QueryResult`` into a wire envelope."""
        if not result.ok:
            return Response(
                ok=False,
                op=request.op,
                id=request.id,
                error=WireError(
                    code=result.code or "INTERNAL",
                    message=result.error,
                    type=result.error_type,
                    details=result.error_details,
                ),
            )
        spec = self.service.registry.get(request.op)
        try:
            encoded, page_meta = encode_result(spec, result.value, request.page)
        except GMineError as error:
            return Response.failure(error, op=request.op, request_id=request.id)
        return Response(
            ok=True,
            op=request.op,
            result=encoded,
            cached=result.cached,
            degraded=getattr(result, "degraded", False),
            page=page_meta,
            id=request.id,
        )

    # ------------------------------------------------------------------ #
    # streaming cursors
    # ------------------------------------------------------------------ #
    def stream(self, body: Mapping[str, Any]) -> HandledStream:
        """Serve one streamable request as resumable cursor chunks.

        The full result is computed (or served from the shared cache)
        exactly as ``/v1/query`` would, encoded with the pagination knob
        widened to the complete vector, and the encoded stream field is
        sliced into ``chunk_size`` pages.  Each chunk envelope carries
        ``cursor`` (its own position) and ``next_cursor`` (the resumption
        token); reassembling every chunk reproduces the one-shot payload
        byte for byte.  A resumed cursor must match the original request
        (digest) and the dataset's **current** fingerprint — a content-
        changing hot-reload between pages surfaces as ``CURSOR_EXPIRED``
        rather than a silently inconsistent vector.
        """
        request = Request.from_dict(body)
        spec = self.service.registry.get(request.op)
        if spec.stream is None:
            streamable = sorted(s.name for s in self.service.registry if s.stream)
            raise ProtocolError(
                f"operation {request.op!r} does not stream; "
                f"streamable operations: {streamable}"
            )
        # Partition-scoped ops pin the community's Merkle sub-fingerprint
        # rather than the root, so a cursor keeps streaming across edits
        # that did not touch its community; a touched community (or any
        # change, for root-scoped ops) expires the cursor below.
        fingerprint = self.service.stream_fingerprint(
            request.dataset, request.op, request.args
        )
        digest = request_digest(request)
        offset = 0
        chunk_size = request.chunk_size
        if request.cursor is not None:
            cursor = ResultCursor.from_token(request.cursor)
            if cursor.op != request.op or cursor.request_digest != digest:
                raise ProtocolError(
                    "stream cursor does not belong to this request; resume "
                    "with the same op, dataset, args and page it was issued for"
                )
            if cursor.fingerprint != fingerprint:
                raise StaleCursorError(
                    f"stream cursor was issued under dataset fingerprint "
                    f"{cursor.fingerprint[:12]}… but "
                    f"{request.dataset or 'the dataset'} now has "
                    f"{fingerprint[:12]}… (hot-reloaded?); restart the stream"
                )
            offset = cursor.offset
            chunk_size = chunk_size if chunk_size is not None else cursor.chunk_size
        if chunk_size is None:
            chunk_size = DEFAULT_STREAM_CHUNK

        result = self.service.execute(
            {
                "op": request.op,
                "args": request.args,
                "dataset": request.dataset,
                "deadline_ms": request.deadline_ms,
            }
        )
        if not result.ok:
            response = self._result_to_response(request, result)
            return response.status, [response.to_dict()]
        if result.fingerprint is not None and result.fingerprint != fingerprint:
            # The dataset was swapped between the fingerprint read above
            # and the dispatch: the payload belongs to the *new* snapshot.
            # A resumed cursor pinned the old content — expire it rather
            # than mix versions; a fresh stream simply stamps its cursors
            # with the snapshot that actually produced the bytes.
            if request.cursor is not None:
                raise StaleCursorError(
                    f"dataset content changed while this page was being "
                    f"computed ({fingerprint[:12]}… -> "
                    f"{result.fingerprint[:12]}…); restart the stream"
                )
            fingerprint = result.fingerprint
        page = dict(request.page) if request.page else {}
        page.setdefault(spec.stream.page_key, spec.stream.total(result.value))
        payload, _ = encode_result(spec, result.value, page)
        items = payload[spec.stream.field]
        if offset > len(items):
            raise InvalidArgumentError(
                f"stream cursor offset {offset} is past the end of the "
                f"{len(items)}-item stream"
            )
        return 200, self._stream_chunks(
            request, spec, payload, items, offset, chunk_size,
            fingerprint, digest, cached=result.cached,
        )

    def _stream_chunks(
        self,
        request: Request,
        spec,
        payload: JsonDict,
        items: List[Any],
        offset: int,
        chunk_size: int,
        fingerprint: str,
        digest: str,
        cached: bool,
    ) -> Iterator[JsonDict]:
        """Yield chunk envelopes over an already-encoded payload.

        Pure slicing — the heavy dispatch happened before the generator was
        handed out, so iteration cannot fail mid-stream.
        """
        field = spec.stream.field
        total = len(items)
        position = offset
        base = ResultCursor(
            op=request.op,
            fingerprint=fingerprint,
            request_digest=digest,
            offset=0,
            chunk_size=chunk_size,
        )
        while True:
            window = items[position : position + chunk_size]
            next_position = position + len(window)
            exhausted = next_position >= total
            chunk = dict(payload)
            chunk[field] = window
            yield Response(
                ok=True,
                op=request.op,
                result=chunk,
                cached=cached,
                page={
                    "field": field,
                    "offset": position,
                    "count": len(window),
                    "total": total,
                },
                id=request.id,
                cursor=base.advanced(position).to_token(),
                next_cursor=(
                    None if exhausted else base.advanced(next_position).to_token()
                ),
            ).to_dict()
            if exhausted:
                return
            position = next_position

    # ------------------------------------------------------------------ #
    # registry + stats
    # ------------------------------------------------------------------ #
    def ops(self) -> Handled:
        return 200, {
            "protocol": PROTOCOL,
            "ok": True,
            "ops": self.service.registry.describe(),
        }

    def stats(self) -> Handled:
        return 200, {"protocol": PROTOCOL, "ok": True, "stats": self.service.stats()}

    # ------------------------------------------------------------------ #
    # health probes
    # ------------------------------------------------------------------ #
    def healthz(self) -> Handled:
        """Liveness: 200 whenever the service object answers at all."""
        health = self.service.health()
        return 200, {"protocol": PROTOCOL, "ok": True, "health": health}

    def readyz(self) -> Handled:
        """Readiness: 503 while no dataset is loaded or a breaker is open."""
        health = self.service.health()
        status = 200 if health.get("ready") else 503
        return status, {
            "protocol": PROTOCOL,
            "ok": bool(health.get("ready")),
            "health": health,
        }

    # ------------------------------------------------------------------ #
    # dataset lifecycle
    # ------------------------------------------------------------------ #
    def datasets(self) -> Handled:
        return 200, {
            "protocol": PROTOCOL,
            "ok": True,
            "datasets": self.service.describe_datasets(),
        }

    def reload_dataset(self, name: str) -> Handled:
        report = self.service.reload_dataset(name)
        payload: JsonDict = {"protocol": PROTOCOL, "ok": True}
        payload.update(report)
        return 200, payload

    def apply_dataset(self, name: str, body: Mapping[str, Any]) -> Handled:
        """Alias of op ``dataset.apply``: edit a mutable dataset in place.

        Body: ``{"script": [...]}``.  Every body field but ``dataset``
        (which the path names) goes to the registry as an op arg, so
        validation, canonicalization and dispatch — the rejection of an
        unknown field included — happen exactly as a ``POST /v1/query``
        for ``dataset.apply`` would.
        """
        args: JsonDict = {
            key: value for key, value in body.items() if key != "dataset"
        }
        args["dataset"] = name
        return self._registry_call("dataset.apply", args)

    def subscribe(self, body: Mapping[str, Any]) -> Handled:
        """Alias of op ``dataset.subscribe``: long-poll the change feed.

        Body: ``{"dataset": ..., "since": N, "timeout": seconds,
        "community": ...}``.  Every non-``None`` body field goes to the
        registry as an op arg, so an unknown field is rejected exactly as
        on ``POST /v1/query``.  Blocks the calling thread (bounded
        server-side) until an event after ``since`` arrives — the
        in-process transport's long-poll.  The HTTP server never gets
        here with a positive timeout: it takes the request apart with
        :meth:`long_poll` and parks it on the event loop, so the wait
        never stalls other requests however many subscribers are parked.
        """
        return self._registry_call(
            "dataset.subscribe", self._subscribe_args(body)
        )

    @staticmethod
    def _subscribe_args(body: Mapping[str, Any]) -> JsonDict:
        return {key: value for key, value in body.items() if value is not None}

    def long_poll(
        self, method: str, path: str, body: Optional[Mapping[str, Any]]
    ) -> Optional[LongPoll]:
        """Unbundle a ``dataset.subscribe`` that would wait, else ``None``.

        Recognises both spellings — ``POST /v1/subscribe`` and op
        ``dataset.subscribe`` through ``POST /v1/query``.  ``None`` covers
        every other request *and* every subscribe that answers at once
        (timeout 0 or malformed, unknown dataset): those take
        :meth:`handle` and get their ordinary envelope.
        """
        if method.upper() != "POST" or not body:
            return None
        parts = [part for part in path.split("/") if part]
        if parts == ["v1", "subscribe"]:
            envelope: JsonDict = {
                "op": "dataset.subscribe",
                "args": self._subscribe_args(body),
            }
            shape = self._legacy_shape
        elif parts == ["v1", "query"] and body.get("op") == "dataset.subscribe":
            envelope = dict(body)
            shape = self._query_shape
        else:
            return None
        args = envelope.get("args")
        timeout = args.get("timeout") if isinstance(args, Mapping) else None
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not timeout > 0
        ):
            return None
        dataset = args.get("dataset")
        try:
            feed, wait = self.service.subscribe_feed(
                envelope.get("dataset") if dataset is None else dataset, timeout
            )
        except (GMineError, KeyError, TypeError, ValueError):
            return None
        envelope["args"] = {**args, "timeout": 0}
        return LongPoll(feed, wait, lambda: self._run_query(envelope), shape)

    # ------------------------------------------------------------------ #
    # sessions: wire-compatible aliases over the registry's session ops
    # ------------------------------------------------------------------ #
    def _registry_call(self, op: str, args: Mapping[str, Any]) -> Handled:
        """Run one registry op and flatten its result to the legacy shape.

        The legacy session URLs predate Protocol v2; they keep their wire
        shape (result keys at the top level of the envelope) but all
        validation, canonicalization and dispatch happen in the registry —
        exactly the same path a ``POST /v1/query`` for the op takes.
        """
        return self._legacy_shape(
            self._run_query({"op": op, "args": dict(args)})
        )

    @staticmethod
    def _legacy_shape(response: Response) -> Handled:
        if not response.ok:
            error = response.error or WireError("INTERNAL", "")
            return response.status, {
                "protocol": PROTOCOL,
                "ok": False,
                "error": error.to_dict(),
            }
        payload: JsonDict = {"protocol": PROTOCOL, "ok": True}
        payload.update(response.result)
        return 200, payload

    def list_sessions(self) -> Handled:
        return self._registry_call("session.list", {})

    def create_session(self, body: Mapping[str, Any]) -> Handled:
        if body.get("state") is not None:
            return self._registry_call(
                "session.restore",
                {
                    key: body.get(key)
                    for key in ("state", "dataset")
                    if body.get(key) is not None
                },
            )
        return self._registry_call(
            "session.create",
            {
                key: body.get(key)
                for key in ("dataset", "ttl", "focus", "name")
                if body.get(key) is not None
            },
        )

    def resume_session(self, session_id: str) -> Handled:
        return self._registry_call("session.resume", {"session_id": session_id})

    def session_state(self, session_id: str) -> Handled:
        return self._registry_call("session.describe", {"session_id": session_id})

    def close_session(self, session_id: str) -> Handled:
        return self._registry_call("session.close", {"session_id": session_id})

    def session_step(self, session_id: str, body: Mapping[str, Any]) -> Handled:
        args: JsonDict = {"session_id": session_id}
        if body.get("action") is not None:
            args["action"] = body.get("action")
        if body.get("args") is not None:
            args["args"] = body.get("args")
        return self._registry_call("session.step", args)
