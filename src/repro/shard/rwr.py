"""Scatter-gather RWR: the shared power loop over a distributed matvec.

:func:`scatter_rwr` runs :func:`repro.mining.rwr.power_columns` — the
same loop, canonical source order and strict :class:`ConvergenceError`
as ``steady_state_rwr(..., solver="power")`` — with the ``W @ r``
product supplied by a caller-provided callable.

Why this is *exactly* the monolithic result and not an approximation:
CSR matrix–vector products accumulate each output element independently,
in the row's stored-nonzero order.  Slicing the transition matrix into
row blocks ``W[rows_s, :]`` preserves each row's stored order, so a
shard's partial product is bitwise the corresponding rows of the full
product, and scattering the partials back into place reconstructs
``W @ r`` bit-for-bit.  Every remaining arithmetic step runs in the
parent in the shared loop, so the final scores are byte-identical by
construction (CI-gated, not just asserted).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..graph.matrix import VertexIndex
from ..mining.rwr import RWRResult, _validate_restart, power_columns

#: ``(rank) -> product`` supplying ``transition @ rank`` for a 1-D vector.
Matvec = Callable[[np.ndarray], np.ndarray]


def scatter_rwr(
    index: VertexIndex,
    matvec: Matvec,
    sources: Sequence,
    restart_probability: float = 0.15,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> RWRResult:
    """Steady-state RWR for one source set through a distributed matvec."""
    _validate_restart(restart_probability)
    canonical_sources = sorted(set(sources), key=repr)
    return power_columns(
        matvec, index, [canonical_sources], restart_probability, tol, max_iter
    )[0]
