"""Picklable compute plans: *what* an operation computes, detached from *where*.

Execution engine v2 splits every expensive operation into two halves:

* a **plan** — a pure, picklable description of the kernel invocation
  (:class:`ComputePlan`): the canonical arguments plus the scope to
  materialise.  Plans close over nothing — no service, no engine, no open
  file handles — which is exactly what lets a
  :class:`~repro.service.executors.ProcessBackend` ship them to a worker
  process over ``pickle``;
* a **kernel** — a pure entry point in :mod:`repro.mining` (RWR steady
  states, the metric suite, connection-subgraph extraction) run against the
  materialised scope.  Kernels are looked up by name in :data:`KERNELS`
  (never by pickled function object, so spawn-based workers resolve them by
  import), and their rich results (``RWRResult``, ``SubgraphMetrics``,
  ``ExtractionResult``) travel back to the parent, where the wire **encode**
  step is applied — encoding never happens in a worker.

:func:`run_plan` is the single execution path every backend uses: the
inline backend resolves the scope against the live dataset in the
parent, the process backend against a store the worker pre-loaded by
``(path, fingerprint)``, and a shard worker against its slice of the
G-Tree.  One code path, three venues — byte-identical results by
construction.

The optional ``resolve_prepared`` hook supplies each venue's cached
:class:`~repro.graph.matrix.PreparedGraph` — the parent resolves it off
the :class:`~repro.service.datasets.DatasetHandle`, process workers off
their warm context — so widest-scope kernels skip the O(E)
graph-to-matrix conversion entirely.  A prepared view never changes a
result (bit-parity is the prepared layer's contract), it only skips work,
which is why it is *not* part of the plan: plans stay pure descriptions
of what to compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import ServiceError
from ..mining.connection_subgraph import extract_connection_subgraph
from ..mining.metrics_suite import compute_subgraph_metrics
from ..mining.rwr import steady_state_rwr
from ..query.evaluate import evaluate_path

#: Scope resolver signature: a community reference (``None`` = widest
#: scope) to a materialised subgraph.  The parent backs this with the live
#: engine; process workers back it with their pre-loaded store.
ScopeResolver = Callable[[Any], Any]

#: Prepared resolver signature: ``(scope, materialised subgraph)`` to the
#: venue's cached :class:`~repro.graph.matrix.PreparedGraph`, or ``None``
#: when the scope has no prepared view (community subgraphs, datasets
#: without a full graph).
PreparedResolver = Callable[[Any, Any], Any]


def prepared_applies(scope: Any, subgraph: Any, graph: Any) -> bool:
    """Whether a venue's cached prepared view may serve this kernel run.

    The single source of truth for the gating rule — shared by the
    parent's :meth:`~repro.service.datasets.DatasetHandle.prepared_provider`
    and the process worker's provider, so the two venues can never drift
    on *when* the prepared path applies: only at widest scope (``scope is
    None``), and only when the kernel is really about to run on the
    venue's full graph object (community subgraphs are fresh per request
    and convert cold).
    """
    return scope is None and graph is not None and subgraph is graph


@dataclass(frozen=True)
class ComputePlan:
    """One kernel invocation, fully described by picklable values.

    ``args`` holds the canonical argument mapping flattened to an ordered
    tuple of ``(name, value)`` pairs (canonical values are primitives,
    lists and nested signature dicts — all picklable); ``scope`` is the
    community to materialise before the kernel runs (``None`` = widest
    scope: the full graph when one is attached, the root subgraph
    otherwise).
    """

    operation: str
    kernel: str
    scope: Any
    args: Tuple[Tuple[str, Any], ...]

    @property
    def arg_dict(self) -> Dict[str, Any]:
        """The canonical arguments as a plain dict."""
        return dict(self.args)


def _freeze_args(canonical: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Flatten a canonical mapping into a deterministic picklable tuple."""
    return tuple((name, canonical[name]) for name in canonical)


def plan_for(operation: str, kernel: str, canonical: Mapping[str, Any]) -> ComputePlan:
    """Build the plan for one canonicalized request (scope = ``community``)."""
    return ComputePlan(
        operation=operation,
        kernel=kernel,
        scope=canonical.get("community"),
        args=_freeze_args(canonical),
    )


# --------------------------------------------------------------------------- #
# kernels: pure mining entry points keyed by name
# --------------------------------------------------------------------------- #
def _kernel_metrics(subgraph, args: Mapping[str, Any], prepared=None):
    signature = dict(args["metrics"])
    return compute_subgraph_metrics(
        subgraph,
        hop_sample_size=signature["hop_sample_size"],
        pagerank_damping=signature["pagerank_damping"],
        top_k=signature["top_k"],
        seed=signature["seed"],
        prepared=prepared,
    )


def _kernel_rwr(subgraph, args: Mapping[str, Any], prepared=None):
    return steady_state_rwr(
        subgraph,
        args["sources"],
        restart_probability=args["restart_probability"],
        solver=args["solver"],
        prepared=prepared,
    )


def _kernel_connection_subgraph(subgraph, args: Mapping[str, Any], prepared=None):
    return extract_connection_subgraph(
        subgraph,
        args["sources"],
        budget=args["budget"],
        restart_probability=args["restart_probability"],
        prepared=prepared,
    )


#: Kernel name -> pure ``(subgraph, canonical args, prepared) -> rich
#: result``.  ``prepared`` is the venue's cached
#: :class:`~repro.graph.matrix.PreparedGraph` for the materialised scope
#: (``None`` = convert cold); it never changes the result, only the cost.
def _kernel_path(subgraph, args: Mapping[str, Any], prepared=None):
    return evaluate_path(subgraph, args["plan"], prepared=prepared)


KERNELS: Dict[str, Callable[..., Any]] = {
    "metrics": _kernel_metrics,
    "rwr": _kernel_rwr,
    "connection_subgraph": _kernel_connection_subgraph,
    "path": _kernel_path,
}


def run_plan(
    plan: ComputePlan,
    resolve_scope: ScopeResolver,
    resolve_prepared: Optional[PreparedResolver] = None,
) -> Any:
    """Execute one plan: materialise its scope, run its kernel.

    This is the only way plans execute, in the parent or in a worker; the
    venue differs solely in what ``resolve_scope`` (and, when given,
    ``resolve_prepared``) is backed by.
    """
    try:
        kernel = KERNELS[plan.kernel]
    except KeyError:
        raise ServiceError(
            f"plan for {plan.operation!r} names unknown kernel {plan.kernel!r}"
        ) from None
    subgraph = resolve_scope(plan.scope)
    prepared = None
    if resolve_prepared is not None:
        prepared = resolve_prepared(plan.scope, subgraph)
    return kernel(subgraph, plan.arg_dict, prepared)
