"""Exception hierarchy for the GMine reproduction.

Every error raised by the library derives from :class:`GMineError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate finer-grained conditions.
"""

from __future__ import annotations


class GMineError(Exception):
    """Base class for every error raised by this library."""


class GraphError(GMineError):
    """Base class for errors raised by the graph substrate."""


class NodeNotFoundError(GraphError, KeyError):
    """A vertex id was referenced that is not present in the graph."""

    def __init__(self, node):
        super().__init__(node)
        self.node = node

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable.
        return f"node not found in graph: {self.node!r}"


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was referenced that is not present in the graph."""

    def __init__(self, u, v):
        super().__init__((u, v))
        self.u = u
        self.v = v

    def __str__(self) -> str:
        return f"edge not found in graph: ({self.u!r}, {self.v!r})"


class GraphFormatError(GraphError):
    """A graph file or serialized payload could not be parsed."""


class PartitionError(GMineError):
    """Base class for errors raised by the partitioning subsystem."""


class InvalidPartitionError(PartitionError):
    """A partition vector violates an invariant (cover, range, balance)."""


class GTreeError(GMineError):
    """Base class for errors raised by the G-Tree core."""


class GTreeStructureError(GTreeError):
    """The G-Tree structure violates one of its invariants."""


class NavigationError(GTreeError):
    """An interactive navigation request could not be satisfied."""


class StorageError(GMineError):
    """Base class for errors raised by the storage subsystem."""


class PageError(StorageError):
    """A page could not be read, written, or validated."""


class CorruptStoreError(StorageError):
    """A persisted G-Tree file failed checksum or structural validation."""


class MiningError(GMineError):
    """Base class for errors raised by the mining subsystem."""


class ExtractionError(MiningError):
    """Connection-subgraph extraction could not produce a valid result."""


class ConvergenceError(MiningError):
    """An iterative solver failed to converge within its iteration budget."""


class VisualizationError(GMineError):
    """Base class for errors raised by the visualization subsystem."""


class LayoutError(VisualizationError):
    """A layout algorithm received invalid input or failed to converge."""


class DatasetError(GMineError):
    """A dataset could not be generated, parsed, or validated."""


class CLIError(GMineError):
    """A command-line invocation was invalid."""


class ServiceError(GMineError):
    """Base class for errors raised by the query-service subsystem."""


class SessionNotFoundError(ServiceError):
    """A session id was presented that the service has never issued."""


class SessionExpiredError(ServiceError):
    """A session existed but its TTL elapsed before it was resumed."""


class UnknownOperationError(ServiceError):
    """A query request named an operation the service does not expose."""


class DatasetNotFoundError(ServiceError):
    """A request named a dataset the service has not registered."""


class DatasetReadOnlyError(ServiceError):
    """A write was attempted on a dataset that cannot be edited in place.

    Store-backed datasets are served by a read-only pager: the write path
    for them is rebuild-the-file + ``/v1/datasets/<name>/reload``.
    """


class EditConflictError(ServiceError):
    """An edit script could not be applied to the current dataset state."""


class InvalidArgumentError(ServiceError):
    """An operation argument failed the registry's schema validation."""


class QueryParseError(InvalidArgumentError):
    """A GPath query failed to tokenize, parse, or type-check.

    Carries the offending source text and a half-open character span
    ``(start, end)`` so front-ends can point at the exact token.  The
    span attributes are optional: clients re-raising from a wire error
    construct the exception from its message alone.
    """

    def __init__(self, message, source=None, start=None, end=None):
        super().__init__(message)
        self.source = source
        self.start = start
        self.end = end

    @property
    def span(self):
        if self.start is None:
            return None
        return (self.start, self.end)

    def wire_details(self):
        """Structured payload for the wire-level ``details`` field."""
        details = {}
        if self.span is not None:
            details["span"] = [self.start, self.end]
        if self.source is not None:
            details["source"] = self.source
        return details or None


class ProtocolError(ServiceError):
    """A wire envelope was malformed or spoke an unsupported protocol."""


class StaleCursorError(ProtocolError):
    """A stream cursor outlived the dataset content it was issued under."""


class AuthRequiredError(ServiceError):
    """A front-end request lacked (or carried an invalid) bearer token."""


class RateLimitedError(ServiceError):
    """A front-end request exceeded the configured request rate."""


class DeadlineExceededError(ServiceError):
    """A request's deadline budget elapsed before (or during) compute.

    Raised both by admission control (the budget was already spent at
    dispatch) and by in-flight abandonment (the plan ran past its
    deadline; the result is discarded).
    """


class WorkerDeadlineCancelled(DeadlineExceededError):
    """A pool/shard worker cancelled overdue work before running it.

    The parent propagates ``deadline_at`` (absolute wall-clock) into the
    worker task; a task that only reaches the front of the worker's queue
    after that instant raises this instead of computing a result nobody
    will use.  Counted separately (``resilience.deadline.worker_cancelled``
    in ``/v1/stats``) from parent-side abandonment, which leaves the
    worker running.
    """


class OverloadedError(ServiceError):
    """The server shed this request under load; retry after backoff.

    ``retry_after`` (seconds) is a hint for clients and travels on the
    wire in the error ``details`` so typed client exceptions carry it.
    """

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after

    def wire_details(self):
        """Structured payload for the wire-level ``details`` field."""
        if self.retry_after is None:
            return None
        return {"retry_after": self.retry_after}


class CircuitOpenError(OverloadedError):
    """A circuit breaker is open; the protected venue was not attempted."""
