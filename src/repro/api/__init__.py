"""GMine Protocol v2: the single public protocol layer of the service.

This package owns everything between a caller and the mining engine:

* :mod:`~repro.api.registry` — typed operation registry; every op is an
  :class:`OpSpec` (argument schema, cacheability, cost class, scope,
  streaming declaration) and validation / canonicalization / cache-keying
  all derive from the spec.  Session-scoped ops are first-class rows in
  the same table as dataset ops;
* :mod:`~repro.api.ops` — the default op table binding specs to compute
  handlers and wire encoders (with top-k / offset+limit pagination),
  including the session lifecycle and the session-context mining variants;
* :mod:`~repro.api.wire` — versioned ``Request``/``Response`` envelopes
  (wire-compatible ``protocol: "gmine/1"``), resumable
  :class:`ResultCursor` stream tokens, and the structured error taxonomy
  mapped from :mod:`repro.errors`;
* :mod:`~repro.api.router` — transport-neutral routing shared by every
  transport, with one canonical JSON serialisation, the chunked
  ``/v1/stream`` surface and the long-poll hand-off;
* :mod:`~repro.api.http` — the one HTTP server (``gmine serve --http
  PORT``): a stdlib asyncio event loop that runs compute in its executor
  and parks ``dataset.subscribe`` long-polls as loop futures, plus its
  :class:`FrontendPolicy` (bearer auth, token-bucket rate limiting,
  ``max_inflight`` shedding);
* :mod:`~repro.api.client` — :class:`GMineClient`, one client API over
  the in-process or HTTP transports, with a streaming iterator,
  byte-identical payloads guaranteed by construction.

None of these modules import the service package — the service imports
*them* — so the protocol layer stays importable for docs, schema tooling
and client-only deployments.
"""

from .client import GMineClient, HTTPTransport, InProcessTransport
from .http import FrontendPolicy, GMineHTTPServer, TokenBucket, serve_http
from .ops import DEFAULT_REGISTRY, OpContext, build_default_registry, encode_result
from .plans import KERNELS, ComputePlan, plan_for, run_plan
from .registry import (
    REQUIRED,
    ArgSpec,
    CanonicalizationContext,
    OperationRegistry,
    OpSpec,
    StreamSpec,
)
from .router import DEFAULT_STREAM_CHUNK, ProtocolRouter, dumps, error_payload
from .wire import (
    PROTOCOL,
    Request,
    Response,
    ResultCursor,
    WireError,
    error_code_for,
    exception_for_code,
    http_status_for,
    request_digest,
)

#: One class, two names: ``benchmarks/e2e`` (frozen) imports the server
#: under this second name too, so it stays bound to the same object.
GMineAsyncHTTPServer = GMineHTTPServer

__all__ = [
    "ArgSpec",
    "CanonicalizationContext",
    "ComputePlan",
    "DEFAULT_REGISTRY",
    "DEFAULT_STREAM_CHUNK",
    "FrontendPolicy",
    "KERNELS",
    "GMineAsyncHTTPServer",
    "GMineClient",
    "GMineHTTPServer",
    "HTTPTransport",
    "InProcessTransport",
    "OpContext",
    "OperationRegistry",
    "OpSpec",
    "PROTOCOL",
    "ProtocolRouter",
    "REQUIRED",
    "Request",
    "Response",
    "ResultCursor",
    "StreamSpec",
    "TokenBucket",
    "WireError",
    "build_default_registry",
    "dumps",
    "encode_result",
    "error_code_for",
    "error_payload",
    "exception_for_code",
    "http_status_for",
    "plan_for",
    "request_digest",
    "run_plan",
    "serve_http",
]
