"""GMine as a service: shared datasets, concurrent sessions, cached mining.

The paper demonstrates a single-user GUI; this package grows the same engine
into a concurrent query service.  :class:`GMineService` owns one shared
G-Tree (in-memory or store-backed) per dataset, hands out independent
TTL-managed exploration sessions, and routes every expensive mining call
through a thread-safe LRU+TTL :class:`ResultCache` keyed by
``(tree fingerprint, operation, canonicalized args)``.  The batch API
deduplicates identical requests in flight and fans independent ones out over
a worker pool with per-request error isolation.

The public operation surface is declared in :mod:`repro.api` (GMine
Protocol v2): the registry's :class:`~repro.api.registry.OpSpec` table
drives validation, canonicalization and cache keying for every call, and
the HTTP front-end / :class:`~repro.api.client.GMineClient` expose this
service remotely.
"""

from .cache import (
    CacheStats,
    CacheStore,
    MemoryCacheStore,
    ResultCache,
    SQLiteCacheStore,
    canonical_args,
    make_cache_key,
)
from .cache import StaleServe
from .datasets import DatasetHandle, DatasetRegistry
from .faults import SEAMS, FaultPlan, FaultRule
from .resilience import CircuitBreaker, Deadline, RetryPolicy
from .executors import (
    BACKEND_NAMES,
    DatasetExecSpec,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    StaleDatasetError,
    make_backend,
)
from .service import (
    DEFAULT_DATASET,
    OPERATIONS,
    GMineService,
    QueryRequest,
    QueryResult,
)
from .sessions import DEFAULT_SESSION_TTL, ServiceSession, SessionManager

__all__ = [
    "BACKEND_NAMES",
    "CacheStats",
    "CacheStore",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "SEAMS",
    "StaleServe",
    "DEFAULT_DATASET",
    "DEFAULT_SESSION_TTL",
    "DatasetExecSpec",
    "DatasetHandle",
    "DatasetRegistry",
    "ExecutionBackend",
    "GMineService",
    "InlineBackend",
    "MemoryCacheStore",
    "OPERATIONS",
    "ProcessBackend",
    "QueryRequest",
    "QueryResult",
    "ResultCache",
    "SQLiteCacheStore",
    "ServiceSession",
    "StaleDatasetError",
    "SessionManager",
    "canonical_args",
    "make_backend",
    "make_cache_key",
]
