"""Shared-memory CSR segments for worker processes.

:class:`SharedMatrixSegment` is what the sharded backend uses: the
parent copies each shard's row slice of the transition matrix
(``W[rows_s, :]``) into one :mod:`multiprocessing.shared_memory`
segment, pickles only a small manifest (segment name plus
dtype/shape/offset rows) into the warm task, and the shard worker maps
the same bytes with ``np.ndarray`` + ``csr_matrix`` views, zero-copy.

Lifetime rule: **nobody computes on a mapping that another party may
close.**  ``SharedMemory.close()`` unmaps the pages even while NumPy
views over them are still referenced (a view holds the memoryview, not
a buffer export, so no ``BufferError`` stops it), and a kernel still
reading them crashes.  So the publisher keeps its own private copy of
every matrix and never computes on its views; a shard worker reads its
attachment only inside its own single-task pool, and the release that
closes it is itself a task queued behind any running one.

The publisher owns unlink; attachments only close; a
``weakref.finalize`` guard unlinks a segment whose owner is dropped
without an explicit release.  Attachments stay registered with the
``resource_tracker``: pool workers share the publisher's tracker
process, so the creation-time entry doubles as the crash net — if the
whole process family dies without a graceful release (SIGTERM,
SIGKILL), the tracker unlinks the segment at shutdown instead of
leaking it in ``/dev/shm``.  (An attacher-side *unregister* — the usual
bug-38119 workaround — would erase the publisher's entry from the
shared tracker and defeat exactly that net.)

Every view is marked read-only; a kernel that tried to mutate a shared
buffer would raise instead of corrupting every other process's matrices.

:class:`SharedPreparedGraph` publishes a whole
:class:`~repro.graph.matrix.PreparedGraph` the same way.  The service no
longer uses it (see its docstring).
"""

from __future__ import annotations

import logging
import pickle
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from ..errors import GraphError
from .matrix import PreparedGraph, VertexIndex

logger = logging.getLogger(__name__)

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Byte alignment of every array inside a segment (cache-line friendly,
#: and satisfies any dtype's alignment requirement).
SEGMENT_ALIGNMENT = 64


def shared_memory_available() -> bool:
    """Whether this platform can publish shared-memory segments."""
    return _shared_memory is not None


def _align(offset: int) -> int:
    remainder = offset % SEGMENT_ALIGNMENT
    return offset if remainder == 0 else offset + (SEGMENT_ALIGNMENT - remainder)


# --------------------------------------------------------------------------- #
# per-process segment counters
# --------------------------------------------------------------------------- #
class _ShmCounters:
    """Per-process counters for segment lifecycle accounting.

    The publisher's numbers (prepares, segment bytes, unlinks) show every
    segment it created was retired; an attaching process counts its
    attaches, detaches and failed attaches.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.prepares = 0  # segments published by this process
        self.attaches = 0  # segments attached by this process
        self.unlinks = 0
        self.detaches = 0
        self.attach_fallbacks = 0  # attach failed; caller rebuilt cold
        self.segment_bytes = 0  # bytes currently published (owner side)

    def published(self, nbytes: int) -> None:
        with self._lock:
            self.prepares += 1
            self.segment_bytes += nbytes

    def attached(self) -> None:
        with self._lock:
            self.attaches += 1

    def unlinked(self, nbytes: int) -> None:
        with self._lock:
            self.unlinks += 1
            self.segment_bytes -= nbytes

    def detached(self) -> None:
        with self._lock:
            self.detaches += 1

    def fallback(self) -> None:
        with self._lock:
            self.attach_fallbacks += 1

    def describe(self) -> Dict[str, int]:
        with self._lock:
            return {
                "prepares": self.prepares,
                "attaches": self.attaches,
                "unlinks": self.unlinks,
                "detaches": self.detaches,
                "attach_fallbacks": self.attach_fallbacks,
                "segment_bytes": self.segment_bytes,
            }


SHM_STATS = _ShmCounters()


def shm_stats() -> Dict[str, int]:
    """This process's shared-segment counters (JSON-friendly)."""
    return SHM_STATS.describe()


# --------------------------------------------------------------------------- #
# manifest: the picklable identity of one published segment
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedArraySpec:
    """Where one numeric array lives inside the segment."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedGraphManifest:
    """Everything a process needs to attach a published prepared graph.

    Entirely picklable — names, dtypes, offsets — never buffers.  This is
    what :class:`SharedPreparedGraph` pickles as.
    """

    segment: str
    fingerprint: Optional[str]
    matrix_shape: Tuple[int, int]
    arrays: Tuple[SharedArraySpec, ...]
    nodes_offset: int
    nodes_length: int
    total_bytes: int

    def spec(self, key: str) -> SharedArraySpec:
        for entry in self.arrays:
            if entry.key == key:
                return entry
        raise GraphError(f"shared segment manifest has no array {key!r}")


def _read_only_view(buffer, spec: SharedArraySpec) -> np.ndarray:
    array = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=buffer, offset=spec.offset
    )
    array.flags.writeable = False
    return array


def _csr_from_views(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape
) -> sparse.csr_matrix:
    matrix = sparse.csr_matrix((data, indices, indptr), shape=shape, copy=False)
    # The buffers come from a canonical ``coo.tocsr()`` (sorted, duplicate
    # free); assert that invariant up front so no kernel ever triggers a
    # lazy ``sort_indices`` write into the read-only segment.
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    return matrix


def _csr_from_views_raw(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape
) -> sparse.csr_matrix:
    """CSR over shared views with *honest* flags (buffers shipped verbatim).

    Matrix segments carry whatever stored order the publisher's slice had
    — possibly unsorted.  Declaring it sorted would let an attaching
    kernel take a sorted-only code path over unsorted data; leaving the
    flags unset keeps every consumer on order-preserving paths (the only
    one the shard workers use is ``matrix @ rank``, which is one).
    """
    return sparse.csr_matrix((data, indices, indptr), shape=shape, copy=False)


def _csc_from_views(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape
) -> sparse.csc_matrix:
    matrix = sparse.csc_matrix((data, indices, indptr), shape=shape, copy=False)
    # Published from a canonical ``tocsc()`` — same invariant as the CSR
    # views: declare it so nothing writes into the read-only segment.
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    return matrix


def _release_segment(shm, owner: bool, nbytes: int, state: Dict[str, bool]) -> None:
    """Idempotent close(+unlink): shared by ``release`` and the finalizer."""
    if state.get("released"):
        return
    state["released"] = True
    if owner:
        try:
            # Defensive: unlink()'s own unregister must find its entry in
            # the shared tracker cache even if something external dropped
            # it (the cache is a set — re-adding an existing entry is a
            # no-op).
            try:
                from multiprocessing import resource_tracker

                resource_tracker.register(
                    getattr(shm, "_name", shm.name), "shared_memory"
                )
            except Exception:  # pragma: no cover - tracker variants
                pass
            shm.unlink()
            SHM_STATS.unlinked(nbytes)
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass
        except Exception:  # pragma: no cover - platform quirks
            logger.warning("failed to unlink shared segment %s", shm.name,
                           exc_info=True)
    try:
        # Unmaps the pages even if views over them are still referenced
        # (see the module docstring for why nobody reads them by then).
        shm.close()
    except BufferError:  # pragma: no cover - a live buffer export
        pass
    if not owner:
        SHM_STATS.detached()


class SharedPreparedGraph(PreparedGraph):
    """A :class:`PreparedGraph` whose numeric buffers live in shared memory.

    **No caller in the package.**  The service used to publish every
    widest-scope preparation through this class and compute on the
    segment in the parent, which let an edit or reload unmap pages a
    running kernel was reading; the parent and every worker now compute
    on a private :class:`PreparedGraph`.  The class stays only because
    the frozen ``benchmarks/e2e/layers.py`` imports it for its
    ``graph.shm.publish_ms`` / ``graph.shm.attach_ms`` probes; the next
    benchmark refresh deletes those probes and this class with them.

    Construction goes through :meth:`publish` (copy buffers into a fresh
    segment; this process owns its lifetime) or :meth:`attach` (map an
    existing segment zero-copy).  Pickling an instance serialises only the
    manifest.
    """

    def __init__(
        self,
        index: VertexIndex,
        adjacency: sparse.csr_matrix,
        fingerprint: Optional[str],
        manifest: SharedGraphManifest,
        shm,
        owner: bool,
        degrees: Optional[np.ndarray] = None,
        transition: Optional[sparse.csr_matrix] = None,
        transition_csc: Optional[sparse.csc_matrix] = None,
        reverse_transition: Optional[sparse.csr_matrix] = None,
    ) -> None:
        super().__init__(index, adjacency, fingerprint=fingerprint)
        self._degrees = degrees
        self._transition = transition
        # Derived views (what the exact solver factorises / reverse walks
        # iterate) ride the same segment, so workers never rebuild them.
        self._transition_csc = transition_csc
        self._reverse_transition = reverse_transition
        self.manifest = manifest
        self._shm = shm
        self._owner = owner
        self._release_state: Dict[str, bool] = {"released": False}
        # Leak-proofing: if the owning registry drops this view without an
        # explicit release (crash path, test teardown), the finalizer still
        # unlinks the segment.  The callback closes over the SharedMemory
        # object and a tiny state dict, never over ``self``.
        self._finalizer = weakref.finalize(
            self, _release_segment, shm, owner, manifest.total_bytes,
            self._release_state,
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def publish(cls, prepared: PreparedGraph) -> "SharedPreparedGraph":
        """Copy one prepared graph's buffers into a fresh shared segment.

        The returned instance *replaces* the input for the publisher: its
        adjacency/degrees/transition are views over the segment, so the
        parent pays the copy once and holds no private duplicate.
        """
        if _shared_memory is None:  # pragma: no cover - platform guard
            raise GraphError("shared memory is not available on this platform")
        adjacency = prepared.adjacency.tocsr()
        adjacency.sum_duplicates()
        adjacency.sort_indices()
        degrees = prepared.degrees
        transition = prepared.transition
        transition_csc = prepared.transition_csc
        reverse_transition = prepared.reverse_transition
        nodes_blob = pickle.dumps(
            prepared.index.nodes(), protocol=pickle.HIGHEST_PROTOCOL
        )
        sources: Dict[str, np.ndarray] = {
            "adj_data": adjacency.data,
            "adj_indices": adjacency.indices,
            "adj_indptr": adjacency.indptr,
            "degrees": degrees,
            "w_data": transition.data,
            "w_indices": transition.indices,
            "w_indptr": transition.indptr,
            # Derived views (PR 8 follow-up): the CSC the exact solver
            # factorises and the reverse-walk CSR, published once so every
            # attaching worker shares them zero-copy too.
            "wc_data": transition_csc.data,
            "wc_indices": transition_csc.indices,
            "wc_indptr": transition_csc.indptr,
            "wr_data": reverse_transition.data,
            "wr_indices": reverse_transition.indices,
            "wr_indptr": reverse_transition.indptr,
        }
        specs = []
        offset = 0
        for key, array in sources.items():
            array = np.ascontiguousarray(array)
            sources[key] = array
            offset = _align(offset)
            specs.append(
                SharedArraySpec(
                    key=key, dtype=array.dtype.str, shape=array.shape,
                    offset=offset,
                )
            )
            offset += array.nbytes
        nodes_offset = _align(offset)
        total = nodes_offset + len(nodes_blob)
        shm = _shared_memory.SharedMemory(create=True, size=max(total, 1))
        try:
            for spec, array in zip(specs, sources.values()):
                target = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=shm.buf,
                    offset=spec.offset,
                )
                target[...] = array
            shm.buf[nodes_offset:nodes_offset + len(nodes_blob)] = nodes_blob
        except Exception:
            shm.close()
            shm.unlink()
            raise
        manifest = SharedGraphManifest(
            segment=shm.name,
            fingerprint=prepared.fingerprint,
            matrix_shape=tuple(adjacency.shape),
            arrays=tuple(specs),
            nodes_offset=nodes_offset,
            nodes_length=len(nodes_blob),
            total_bytes=total,
        )
        SHM_STATS.published(total)
        return cls._wrap(manifest, shm, owner=True, index=prepared.index)

    @classmethod
    def attach(cls, manifest: SharedGraphManifest) -> "SharedPreparedGraph":
        """Map an already-published segment zero-copy (worker side)."""
        if _shared_memory is None:  # pragma: no cover - platform guard
            raise GraphError("shared memory is not available on this platform")
        try:
            shm = _shared_memory.SharedMemory(name=manifest.segment)
        except (FileNotFoundError, OSError) as error:
            raise GraphError(
                f"shared prepared segment {manifest.segment!r} is gone "
                f"(retired or never published here): {error}"
            ) from error
        # The open auto-registered with the (shared) resource tracker;
        # deliberately left tracked — see the module docstring.
        try:
            view = cls._wrap(manifest, shm, owner=False, index=None)
        except Exception:
            shm.close()
            raise
        SHM_STATS.attached()
        return view

    @classmethod
    def _wrap(
        cls,
        manifest: SharedGraphManifest,
        shm,
        owner: bool,
        index: Optional[VertexIndex],
    ) -> "SharedPreparedGraph":
        buffer = shm.buf
        arrays = {spec.key: _read_only_view(buffer, spec) for spec in manifest.arrays}
        if index is None:
            nodes = pickle.loads(
                bytes(
                    buffer[
                        manifest.nodes_offset:
                        manifest.nodes_offset + manifest.nodes_length
                    ]
                )
            )
            index = VertexIndex(nodes)
        adjacency = _csr_from_views(
            arrays["adj_data"], arrays["adj_indices"], arrays["adj_indptr"],
            manifest.matrix_shape,
        )
        transition = _csr_from_views(
            arrays["w_data"], arrays["w_indices"], arrays["w_indptr"],
            manifest.matrix_shape,
        )
        # Old manifests (pre derived-view publishing) lack these arrays;
        # the lazy PreparedGraph properties rebuild them locally then.
        transition_csc = None
        if "wc_data" in arrays:
            transition_csc = _csc_from_views(
                arrays["wc_data"], arrays["wc_indices"], arrays["wc_indptr"],
                manifest.matrix_shape,
            )
        reverse_transition = None
        if "wr_data" in arrays:
            reverse_transition = _csr_from_views(
                arrays["wr_data"], arrays["wr_indices"], arrays["wr_indptr"],
                manifest.matrix_shape,
            )
        return cls(
            index=index,
            adjacency=adjacency,
            fingerprint=manifest.fingerprint,
            manifest=manifest,
            shm=shm,
            owner=owner,
            degrees=arrays["degrees"],
            transition=transition,
            transition_csc=transition_csc,
            reverse_transition=reverse_transition,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def owner(self) -> bool:
        """Whether this process published (and must unlink) the segment."""
        return self._owner

    @property
    def released(self) -> bool:
        return self._release_state["released"]

    @property
    def segment_bytes(self) -> int:
        return self.manifest.total_bytes

    def release(self) -> None:
        """Retire the segment: unlink (owner) / close (attachment).

        Idempotent.  Unlinking never tears another process's attachment —
        POSIX keeps the memory until the last mapping closes — but closing
        unmaps this process's views, so call it only once nothing here
        computes on them.
        """
        self._finalizer()

    # ------------------------------------------------------------------ #
    # pickling: manifest only — the receiver attaches
    # ------------------------------------------------------------------ #
    def __reduce__(self):
        return (SharedPreparedGraph.attach, (self.manifest,))

    def __repr__(self) -> str:
        role = "owner" if self._owner else "attached"
        return (
            f"<SharedPreparedGraph {role} segment={self.manifest.segment} "
            f"{len(self.index)} vertices, {self.adjacency.nnz} stored entries, "
            f"{self.manifest.total_bytes} bytes>"
        )


# --------------------------------------------------------------------------- #
# generic single-matrix segments (per-shard transition row slices)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedMatrixManifest:
    """Picklable identity of one published CSR matrix segment."""

    segment: str
    shape: Tuple[int, int]
    arrays: Tuple[SharedArraySpec, ...]
    total_bytes: int


class SharedMatrixSegment:
    """One CSR matrix resident in shared memory.

    The sharded backend publishes each shard's row slice of the parent
    transition matrix (``W[rows_s, :]``) through one of these, so shard
    workers attach their matvec operand zero-copy instead of unpickling
    an O(nnz) payload per warm.  The publisher owns unlink, attachments
    only close, and a ``weakref.finalize`` guard backstops both (see the
    module docstring for who may compute on which mapping).
    """

    def __init__(self, matrix: sparse.csr_matrix, manifest: SharedMatrixManifest,
                 shm, owner: bool) -> None:
        self.matrix = matrix
        self.manifest = manifest
        self._shm = shm
        self._owner = owner
        self._release_state: Dict[str, bool] = {"released": False}
        self._finalizer = weakref.finalize(
            self, _release_segment, shm, owner, manifest.total_bytes,
            self._release_state,
        )

    @classmethod
    def publish(cls, matrix: sparse.csr_matrix) -> "SharedMatrixSegment":
        """Copy ``matrix``'s CSR buffers into a fresh segment, verbatim.

        Deliberately NO canonicalisation (``sort_indices`` would reorder
        each row's stored nonzeros — and the stored order is the byte
        parity contract: a shard matvec must accumulate every output row
        in exactly the order the parent's monolithic matrix would).  It
        also must not mutate the caller's matrix, which the parent keeps
        for re-warms.
        """
        if _shared_memory is None:  # pragma: no cover - platform guard
            raise GraphError("shared memory is not available on this platform")
        if not sparse.isspmatrix_csr(matrix):
            matrix = matrix.tocsr()
        sources: Dict[str, np.ndarray] = {
            "data": matrix.data,
            "indices": matrix.indices,
            "indptr": matrix.indptr,
        }
        specs = []
        offset = 0
        for key, array in sources.items():
            array = np.ascontiguousarray(array)
            sources[key] = array
            offset = _align(offset)
            specs.append(SharedArraySpec(
                key=key, dtype=array.dtype.str, shape=array.shape,
                offset=offset,
            ))
            offset += array.nbytes
        shm = _shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            for spec, array in zip(specs, sources.values()):
                target = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=shm.buf,
                    offset=spec.offset,
                )
                target[...] = array
        except Exception:
            shm.close()
            shm.unlink()
            raise
        manifest = SharedMatrixManifest(
            segment=shm.name,
            shape=tuple(matrix.shape),
            arrays=tuple(specs),
            total_bytes=offset,
        )
        SHM_STATS.published(offset)
        views = {spec.key: _read_only_view(shm.buf, spec) for spec in specs}
        shared = _csr_from_views_raw(
            views["data"], views["indices"], views["indptr"], manifest.shape
        )
        return cls(shared, manifest, shm, owner=True)

    @classmethod
    def attach(cls, manifest: SharedMatrixManifest) -> "SharedMatrixSegment":
        """Map an already-published matrix segment zero-copy."""
        if _shared_memory is None:  # pragma: no cover - platform guard
            raise GraphError("shared memory is not available on this platform")
        try:
            shm = _shared_memory.SharedMemory(name=manifest.segment)
        except (FileNotFoundError, OSError) as error:
            raise GraphError(
                f"shared matrix segment {manifest.segment!r} is gone "
                f"(retired or never published here): {error}"
            ) from error
        try:
            views = {
                spec.key: _read_only_view(shm.buf, spec)
                for spec in manifest.arrays
            }
            matrix = _csr_from_views_raw(
                views["data"], views["indices"], views["indptr"],
                manifest.shape,
            )
        except Exception:
            shm.close()
            raise
        SHM_STATS.attached()
        return cls(matrix, manifest, shm, owner=False)

    @property
    def owner(self) -> bool:
        return self._owner

    @property
    def released(self) -> bool:
        return self._release_state["released"]

    def release(self) -> None:
        """Retire the segment (idempotent; unlink for owner, close else)."""
        self._finalizer()
