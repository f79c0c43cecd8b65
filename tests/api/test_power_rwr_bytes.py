"""Pinned bytes for power RWR: failure envelopes and SIMD independence.

``NOT_CONVERGED`` envelopes carry the solver's message verbatim, so its
text is wire format.  A restart probability of 0.001 cannot converge in
the service's 500 iterations on this dataset; the expected bytes below
were recorded from the column-freezing block solver the shared power
loop replaced, and a multi-column failure still names how many of the
source sets got stuck.

The power loop's arithmetic (CSR matvec, elementwise updates, pairwise
sums) must not depend on which SIMD kernels numpy dispatches to.  A
subprocess with numpy's AVX-512 kernels disabled — what an AVX2-only
host runs — must produce the same ``rwr`` bytes and per-source score
columns, to the last bit, as this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

_ENVELOPE = (
    '{{"error":{{"code":"NOT_CONVERGED","message":"RWR did not converge '
    'within 500 iterations (tol=1e-10) for {stuck} source sets",'
    '"type":"ConvergenceError"}},"ok":false,"op":"{op}","protocol":"gmine/1"}}'
)


def _not_converged(op, stuck):
    return _ENVELOPE.format(op=op, stuck=stuck).encode("utf-8")


class TestNotConvergedEnvelopes:
    def _requests(self, api_dataset):
        _, tree = api_dataset
        leaf = max(tree.leaves(), key=lambda node: node.size)
        members = list(leaf.members[:3])
        restart = {"restart_probability": 0.001}
        return [
            ("rwr", {"sources": members[:1], **restart}, "1 of 1"),
            ("rwr", {"sources": members[:2], "community": leaf.label, **restart},
             "1 of 1"),
            ("connection_subgraph", {"sources": members, "budget": 12, **restart},
             "2 of 3"),
            ("connection_subgraph",
             {"sources": members[:2], "community": leaf.label, "budget": 12,
              **restart},
             "2 of 2"),
        ]

    def test_envelopes_keep_the_block_solver_bytes(self, api_dataset, all_clients):
        for op, args, stuck in self._requests(api_dataset):
            for client in all_clients:
                assert client.query_raw(op, args=args) == _not_converged(op, stuck)


# --------------------------------------------------------------------------- #
# the same bits with numpy's AVX-512 dispatch disabled
# --------------------------------------------------------------------------- #
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def probe():
    """``rwr`` wire bytes and per-source ``float.hex`` score columns."""
    from numpy._core._multiarray_umath import __cpu_features__

    from repro.api import GMineClient
    from repro.core.builder import build_gtree
    from repro.data.dblp import DBLPConfig, generate_dblp
    from repro.graph.matrix import PreparedGraph
    from repro.mining.rwr import per_source_rwr
    from repro.service import GMineService

    graph = generate_dblp(DBLPConfig(num_authors=240, seed=13)).graph
    tree = build_gtree(graph, fanout=3, levels=2, seed=13)
    nodes = sorted(graph.nodes())
    leaves = sorted(tree.leaves(), key=lambda node: -node.size)[:2]
    out = {"x86_v4": bool(__cpu_features__.get("X86_V4")), "rwr": [], "columns": []}
    with GMineService() as service:
        service.register_tree(tree, graph=graph, name="g")
        client = GMineClient.in_process(service)
        requests = [{"sources": nodes[i:i + k]} for i, k in ((0, 1), (40, 2), (90, 3))]
        requests += [{"sources": list(leaf.members[:2]), "community": leaf.label}
                     for leaf in leaves]
        for args in requests:
            out["rwr"].append(client.query_raw("rwr", args=args).decode("utf-8"))
    prepared = PreparedGraph.from_graph(graph)
    for source, result in per_source_rwr(graph, nodes[7:10], prepared=prepared).items():
        out["columns"].append(
            [source, result.iterations,
             [score.hex() for score in result.scores.values()]]
        )
    return out


def test_rwr_bits_do_not_depend_on_avx512():
    here = Path(__file__).resolve().parent
    src = here.parents[1] / "src"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "import test_power_rwr_bytes as t; print(json.dumps(t.probe()))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(here)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    other = json.loads(run.stdout.strip().splitlines()[-1])
    assert other["x86_v4"] is False  # the variable took effect
    mine = probe()
    assert other["rwr"] == mine["rwr"]
    assert other["columns"] == mine["columns"]
