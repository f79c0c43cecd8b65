"""GMine Protocol v2 wire envelopes and the structured error taxonomy.

The envelopes stay wire-compatible with protocol ``gmine/1``.  A request
is one JSON object::

    {"protocol": "gmine/1", "op": "rwr", "dataset": "dblp",
     "args": {"sources": [1, 2]}, "page": {"top_k": 20}, "id": "r-1"}

and a response mirrors it::

    {"protocol": "gmine/1", "id": "r-1", "ok": true, "op": "rwr",
     "cached": false, "result": {...}, "page": {"top_k": 20, "total": 412}}

    {"protocol": "gmine/1", "id": "r-1", "ok": false,
     "error": {"code": "SESSION_EXPIRED", "type": "SessionExpiredError",
               "message": "..."}}

Protocol v2 adds **streaming result cursors** on top of the same
envelopes: a streamed request may carry ``chunk_size`` and a ``cursor``
token, and each response chunk carries ``cursor`` (its own position) and
``next_cursor`` (``null`` once the stream is exhausted).  A
:class:`ResultCursor` token is stable and resumable: it pins the
operation, the dataset fingerprint it was issued under, a digest of the
request, and the next offset — so a client can reconnect, replay the same
request with the token, and continue exactly where it stopped; if the
dataset was hot-reloaded in between, the fingerprint mismatch surfaces as
a structured ``CURSOR_EXPIRED`` error instead of a silently torn vector.

Every failure carries a **stable machine-readable code** mapped from the
exception hierarchy in :mod:`repro.errors`; :func:`error_code_for` walks an
exception's MRO to the nearest declared ancestor, and
:func:`exception_for_code` inverts the mapping so clients (and
``QueryResult.unwrap``) re-raise *typed* exceptions rather than strings.
Both transports — in-process and HTTP — speak
exactly these envelopes, which is what makes the byte-identical parity
guarantee testable.

One response family sits outside byte parity: ``session.step``
envelopes.  Their ``session`` summary carries per-session counters
(``steps``, ``touches``) that count the calls made on that one session,
so the same step sent to two sessions with different histories answers
with different bytes.  Parity for steps holds only for the same sequence
driven through fresh sessions, modulo the session id; every other
envelope, session reads included, must match byte for byte.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Type

from .. import errors
from ..errors import GMineError, ProtocolError

PROTOCOL = "gmine/1"

#: Exception class -> stable wire code.  Order matters only for docs; the
#: lookup walks each exception's MRO, so subclasses inherit their nearest
#: ancestor's code unless declared explicitly.
ERROR_CODES: Tuple[Tuple[Type[BaseException], str], ...] = (
    (errors.SessionNotFoundError, "SESSION_NOT_FOUND"),
    (errors.SessionExpiredError, "SESSION_EXPIRED"),
    (errors.UnknownOperationError, "UNKNOWN_OPERATION"),
    (errors.DatasetNotFoundError, "DATASET_NOT_FOUND"),
    (errors.QueryParseError, "QUERY_PARSE_ERROR"),
    (errors.InvalidArgumentError, "INVALID_ARGUMENT"),
    (errors.StaleCursorError, "CURSOR_EXPIRED"),
    (errors.AuthRequiredError, "AUTH_REQUIRED"),
    (errors.RateLimitedError, "RATE_LIMITED"),
    (errors.DeadlineExceededError, "DEADLINE_EXCEEDED"),
    (errors.OverloadedError, "OVERLOADED"),
    (errors.ProtocolError, "PROTOCOL_ERROR"),
    (errors.NavigationError, "NAVIGATION_ERROR"),
    (errors.ConvergenceError, "NOT_CONVERGED"),
    (errors.ExtractionError, "EXTRACTION_FAILED"),
    (errors.MiningError, "MINING_ERROR"),
    (errors.CorruptStoreError, "CORRUPT_STORE"),
    (errors.StorageError, "STORAGE_ERROR"),
    (errors.GraphError, "GRAPH_ERROR"),
    (errors.PartitionError, "PARTITION_ERROR"),
    (errors.GTreeError, "GTREE_ERROR"),
    (errors.DatasetError, "DATASET_ERROR"),
    (errors.ServiceError, "SERVICE_ERROR"),
    (errors.GMineError, "GMINE_ERROR"),
    (TypeError, "INVALID_ARGUMENT"),
    (ValueError, "INVALID_ARGUMENT"),
    (KeyError, "INVALID_ARGUMENT"),
)

#: Fallback for exceptions outside the taxonomy.
INTERNAL_ERROR = "INTERNAL"

_CLASS_BY_CODE: Dict[str, Type[BaseException]] = {}
for _cls, _code in ERROR_CODES:
    # first declaration wins: the most specific class represents its code
    _CLASS_BY_CODE.setdefault(_code, _cls)

#: Wire code -> HTTP status used by the front-end (and mirrored by the
#: in-process transport so parity holds for failures too).
HTTP_STATUS: Dict[str, int] = {
    "SESSION_NOT_FOUND": 404,
    "SESSION_EXPIRED": 410,
    "UNKNOWN_OPERATION": 404,
    "DATASET_NOT_FOUND": 404,
    "QUERY_PARSE_ERROR": 400,
    "INVALID_ARGUMENT": 400,
    "CURSOR_EXPIRED": 410,
    "AUTH_REQUIRED": 401,
    "RATE_LIMITED": 429,
    "DEADLINE_EXCEEDED": 504,
    "OVERLOADED": 503,
    "PROTOCOL_ERROR": 400,
    "NAVIGATION_ERROR": 404,
    "NOT_CONVERGED": 422,
    "EXTRACTION_FAILED": 422,
    "MINING_ERROR": 422,
    "CORRUPT_STORE": 500,
    "STORAGE_ERROR": 500,
    "GRAPH_ERROR": 422,
    "PARTITION_ERROR": 422,
    "GTREE_ERROR": 422,
    "DATASET_ERROR": 422,
    "SERVICE_ERROR": 500,
    "GMINE_ERROR": 500,
    INTERNAL_ERROR: 500,
}


def error_code_for(error: BaseException) -> str:
    """The stable wire code for an exception (nearest declared ancestor)."""
    for klass in type(error).__mro__:
        for declared, code in ERROR_CODES:
            if klass is declared:
                return code
    return INTERNAL_ERROR


def exception_for_code(code: str, message: str) -> BaseException:
    """Rebuild a typed exception from a wire error (client-side re-raise)."""
    klass = _CLASS_BY_CODE.get(code, errors.ServiceError)
    if not issubclass(klass, GMineError):
        # stdlib types in the taxonomy still come back as library errors so
        # one `except GMineError` catches every protocol failure.
        klass = errors.InvalidArgumentError
    return klass(message)


def http_status_for(code: str) -> int:
    return HTTP_STATUS.get(code, 500)


# --------------------------------------------------------------------------- #
# streaming cursors
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResultCursor:
    """One resumable position inside a streamed result.

    The token is opaque to clients but carries everything the server needs
    to resume statelessly: the operation, the dataset **fingerprint** the
    stream was issued under (a hot-reload in between turns resumption into
    a structured ``CURSOR_EXPIRED`` failure instead of a torn vector), a
    digest of the full request (so a token cannot be replayed against a
    different query), the next item offset, and the chunk size.  Offsets
    index the *encoded* stream field, whose order is deterministic — the
    same property the cache and the parity suites already rely on — which
    is what makes pages stable across connections and processes.
    """

    op: str
    fingerprint: str
    request_digest: str
    offset: int
    chunk_size: int

    def to_token(self) -> str:
        payload = json.dumps(
            {
                "op": self.op,
                "fp": self.fingerprint,
                "rq": self.request_digest,
                "of": self.offset,
                "ck": self.chunk_size,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii").rstrip("=")

    @classmethod
    def from_token(cls, token: str) -> "ResultCursor":
        try:
            padded = token + "=" * (-len(token) % 4)
            payload = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
            return cls(
                op=str(payload["op"]),
                fingerprint=str(payload["fp"]),
                request_digest=str(payload["rq"]),
                offset=int(payload["of"]),
                chunk_size=int(payload["ck"]),
            )
        except (KeyError, ValueError, TypeError) as error:
            raise ProtocolError(f"malformed stream cursor {token!r}") from error

    def advanced(self, offset: int) -> "ResultCursor":
        """The same stream position family, moved to ``offset``."""
        return ResultCursor(
            op=self.op,
            fingerprint=self.fingerprint,
            request_digest=self.request_digest,
            offset=offset,
            chunk_size=self.chunk_size,
        )


def request_digest(request: "Request") -> str:
    """A short stable digest tying a cursor to one exact request.

    Hashes the raw ``(op, dataset, args, page)`` quadruple under the
    canonical serialisation; resuming a stream therefore requires
    repeating the request verbatim (same spelling), which keeps the token
    cheap while still rejecting replays against other queries.
    """
    basis = json.dumps(
        {
            "op": request.op,
            "dataset": request.dataset,
            "args": request.args,
            "page": request.page,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# envelopes
# --------------------------------------------------------------------------- #
@dataclass
class Request:
    """One protocol request envelope (JSON-round-trippable).

    ``chunk_size`` and ``cursor`` only matter on the streaming route:
    ``chunk_size`` asks for pages of that many items, and ``cursor``
    resumes a previously issued stream at its ``next_cursor`` token.
    ``deadline_ms`` is the request's total latency budget: the server
    fast-rejects work it predicts cannot finish in budget and abandons
    in-flight plans past it (``DEADLINE_EXCEEDED``).  All three are
    additive — omitted when unset, so v1 payload bytes are untouched.
    """

    op: str
    args: Dict[str, Any] = field(default_factory=dict)
    dataset: Optional[str] = None
    page: Optional[Dict[str, Any]] = None
    id: Optional[str] = None
    chunk_size: Optional[int] = None
    cursor: Optional[str] = None
    deadline_ms: Optional[float] = None
    protocol: str = PROTOCOL

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "protocol": self.protocol,
            "op": self.op,
            "args": dict(self.args),
        }
        if self.dataset is not None:
            payload["dataset"] = self.dataset
        if self.page is not None:
            payload["page"] = dict(self.page)
        if self.id is not None:
            payload["id"] = self.id
        if self.chunk_size is not None:
            payload["chunk_size"] = self.chunk_size
        if self.cursor is not None:
            payload["cursor"] = self.cursor
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Request":
        if not isinstance(payload, Mapping):
            raise ProtocolError(f"request must be a JSON object, got {payload!r}")
        protocol = payload.get("protocol", PROTOCOL)
        if protocol != PROTOCOL:
            raise ProtocolError(
                f"unsupported protocol {protocol!r}; this server speaks {PROTOCOL!r}"
            )
        op = payload.get("op", payload.get("operation"))
        if not op or not isinstance(op, str):
            raise ProtocolError(f"request has no operation: {dict(payload)!r}")
        args = payload.get("args", {})
        if not isinstance(args, Mapping):
            raise ProtocolError(f"request args must be an object, got {args!r}")
        page = payload.get("page")
        if page is not None and not isinstance(page, Mapping):
            raise ProtocolError(f"request page must be an object, got {page!r}")
        chunk_size = payload.get("chunk_size")
        if chunk_size is not None and (
            not isinstance(chunk_size, int)
            or isinstance(chunk_size, bool)
            or chunk_size < 1
        ):
            raise ProtocolError(
                f"request chunk_size must be a positive integer, got {chunk_size!r}"
            )
        cursor = payload.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            raise ProtocolError(f"request cursor must be a string, got {cursor!r}")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float))
            or isinstance(deadline_ms, bool)
            or deadline_ms <= 0
        ):
            raise ProtocolError(
                f"request deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        request_id = payload.get("id")
        return cls(
            op=op,
            args=dict(args),
            dataset=payload.get("dataset"),
            page=None if page is None else dict(page),
            id=None if request_id is None else str(request_id),
            chunk_size=chunk_size,
            cursor=cursor,
            deadline_ms=deadline_ms,
            protocol=protocol,
        )


@dataclass
class WireError:
    """Structured failure: stable code + original exception type + message."""

    code: str
    message: str
    type: str = ""
    details: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = {"code": self.code, "type": self.type, "message": self.message}
        if self.details is not None:
            payload["details"] = dict(self.details)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WireError":
        details = payload.get("details")
        return cls(
            code=str(payload.get("code", INTERNAL_ERROR)),
            message=str(payload.get("message", "")),
            type=str(payload.get("type", "")),
            details=None if details is None else dict(details),
        )

    @classmethod
    def from_exception(cls, error: BaseException) -> "WireError":
        wire_details = getattr(error, "wire_details", None)
        return cls(
            code=error_code_for(error),
            message=str(error),
            type=type(error).__name__,
            details=wire_details() if callable(wire_details) else None,
        )

    def raise_(self) -> None:
        error = exception_for_code(self.code, self.message)
        if self.details is not None and "retry_after" in self.details:
            # OVERLOADED/RATE_LIMITED hints survive the round-trip so client
            # retry loops can honor the server's backoff suggestion.
            error.retry_after = self.details["retry_after"]
        raise error


@dataclass
class Response:
    """One protocol response envelope (JSON-round-trippable).

    ``cursor``/``next_cursor`` are only present on streamed chunks:
    ``cursor`` names the position this chunk was served from, and
    ``next_cursor`` is the resumption token for the rest of the stream
    (``None`` once exhausted).  One-shot responses never carry either key,
    so v1 payload bytes are untouched.  ``degraded`` is stamped (only when
    true, same additivity rule) on successes served from an expired cache
    entry because the backend failed — the resilience layer's stale-serve
    path.
    """

    ok: bool
    op: str = ""
    result: Any = None
    error: Optional[WireError] = None
    cached: bool = False
    degraded: bool = False
    page: Optional[Dict[str, Any]] = None
    id: Optional[str] = None
    cursor: Optional[str] = None
    next_cursor: Optional[str] = None
    protocol: str = PROTOCOL

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"protocol": self.protocol, "ok": self.ok}
        if self.id is not None:
            payload["id"] = self.id
        if self.op:
            payload["op"] = self.op
        if self.ok:
            payload["cached"] = self.cached
            if self.degraded:
                payload["degraded"] = True
            payload["result"] = self.result
            if self.page is not None:
                payload["page"] = dict(self.page)
            if self.cursor is not None:
                payload["cursor"] = self.cursor
                payload["next_cursor"] = self.next_cursor
        else:
            payload["error"] = (self.error or WireError(INTERNAL_ERROR, "")).to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Response":
        if not isinstance(payload, Mapping):
            raise ProtocolError(f"response must be a JSON object, got {payload!r}")
        error = payload.get("error")
        page = payload.get("page")
        request_id = payload.get("id")
        cursor = payload.get("cursor")
        next_cursor = payload.get("next_cursor")
        return cls(
            ok=bool(payload.get("ok")),
            op=str(payload.get("op", "")),
            result=payload.get("result"),
            error=None if error is None else WireError.from_dict(error),
            cached=bool(payload.get("cached", False)),
            degraded=bool(payload.get("degraded", False)),
            page=None if page is None else dict(page),
            id=None if request_id is None else str(request_id),
            cursor=None if cursor is None else str(cursor),
            next_cursor=None if next_cursor is None else str(next_cursor),
            protocol=str(payload.get("protocol", PROTOCOL)),
        )

    @classmethod
    def failure(
        cls, error: BaseException, op: str = "", request_id: Optional[str] = None
    ) -> "Response":
        return cls(
            ok=False, op=op, error=WireError.from_exception(error), id=request_id
        )

    def unwrap(self) -> Any:
        """Return the result payload, re-raising a typed taxonomy error."""
        if not self.ok:
            (self.error or WireError(INTERNAL_ERROR, "request failed")).raise_()
        return self.result

    @property
    def status(self) -> int:
        """The HTTP status this envelope travels under."""
        if self.ok:
            return 200
        return http_status_for((self.error or WireError(INTERNAL_ERROR, "")).code)
