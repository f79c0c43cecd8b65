"""The ``query.path`` operation end to end: parity, caching, error spans.

The acceptance bars from the GPath issue:

* byte-identical payloads for the same query across the in-process and
  HTTP transports **and** across the inline, thread and process
  execution backends (the store is registered with
  ``graph_path`` so process workers genuinely recompile and re-execute);
* community-scoped path queries key their cache entries by partition
  Merkle sub-fingerprints — a one-edge edit to a *different* community
  must not invalidate them;
* a fused ``rwr(...)/top(k)`` query returns exactly the scores of the
  direct ``rwr`` op for the same community and sources;
* parse failures surface as structured 400 ``QUERY_PARSE_ERROR``
  envelopes carrying the source span over HTTP — never a 500
  — including inside ``/v1/batch``, where they stay isolated.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import GMineClient
from repro.core.builder import build_gtree
from repro.data.dblp import DBLPConfig, generate_dblp
from repro.errors import NavigationError, QueryParseError
from repro.graph.io import write_json
from repro.service import BACKEND_NAMES, GMineService
from repro.storage.gtree_store import save_gtree

pytestmark = pytest.mark.tier1


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestPathResults:
    def test_nodes_query_lists_the_community(self, all_clients, hot_leaf):
        leaf, _ = hot_leaf
        for client in all_clients:
            payload = client.call(
                "query.path",
                path=f"community({leaf.label})/members/nodes",
                page={"limit": leaf.size},
            )
            assert payload["kind"] == "nodes"
            assert payload["count"] == leaf.size
            assert set(payload["items"]) == set(leaf.members)

    def test_fused_top_k_matches_direct_rwr(self, all_clients, hot_leaf):
        leaf, members = hot_leaf
        sources = ", ".join(str(m) for m in members)
        for client in all_clients:
            fused = client.call(
                "query.path",
                path=(
                    f"community({leaf.label})/members/"
                    f"rwr(sources=[{sources}])/top(5)"
                ),
            )
            direct = client.call(
                "rwr", sources=members, community=leaf.label,
                page={"top_k": 5},
            )
            assert fused["kind"] == "scores"
            assert fused["items"] == direct["scores"]
            assert fused["rwr"]["iterations"] == direct["iterations"]
            assert fused["rwr"]["converged"] == direct["converged"]

    def test_metrics_terminal_matches_direct_metrics(self, all_clients, hot_leaf):
        leaf, _ = hot_leaf
        for client in all_clients:
            path = client.call("query.path", path=f"community({leaf.label})/metrics")
            direct = client.call("metrics", community=leaf.label)
            assert path["kind"] == "metrics"
            assert path["metrics"] == direct

    def test_tree_level_query_folds_to_labels(self, all_clients, api_dataset):
        _, tree = api_dataset
        expected = sorted(node.label for node in tree.leaves())
        for client in all_clients:
            payload = client.call(
                "query.path", path="leaves/nodes",
                page={"limit": len(expected)},
            )
            assert payload["items"] == expected

    def test_canonical_spellings_share_one_cache_entry(self, service, hot_leaf):
        leaf, members = hot_leaf
        client = GMineClient.in_process(service)
        spellings = [
            f"community({leaf.label})/members/"
            f"rwr(sources=[{members[0]}, {members[1]}])/top(5)",
            f" community( {leaf.label} ) / members / "
            f"rwr(sources=[{members[1]}, {members[0]}, {members[0]}]) / top(5) ",
        ]
        first = client.query("query.path", args={"path": spellings[0]})
        second = client.query("query.path", args={"path": spellings[1]})
        assert first.ok and second.ok
        assert second.cached is True
        assert service.compute_counts.get("query.path") == 1


class TestTransportAndBackendParity:
    def test_byte_identical_across_transports(
        self, all_clients, hot_leaf
    ):
        local, remote = all_clients
        leaf, members = hot_leaf
        args = {
            "path": f"community({leaf.label})/members/hops(1)/"
                    f"rwr(sources=[{members[0]}])/top(10)"
        }
        local.query("query.path", args=args).unwrap()  # warm
        raws = {
            client.query_raw("query.path", args=args)
            for client in (local, remote)
        }
        assert len(raws) == 1

    @pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
    def test_byte_identical_across_backends(self, tmp_path, backend):
        dataset = generate_dblp(DBLPConfig(num_authors=250, seed=47))
        tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=47)
        store_path = tmp_path / "path.gtree"
        graph_path = tmp_path / "path.json"
        save_gtree(tree, store_path)
        write_json(dataset.graph, graph_path)
        leaf = max(tree.leaves(), key=lambda node: node.size)
        members = list(leaf.members[:2])
        sources = ", ".join(str(m) for m in members)
        args = {
            "path": f"community({leaf.label})/members/"
                    f"rwr(sources=[{sources}])/top(8)"
        }

        payloads = set()
        for spec in (backend, f"{backend}:2"):
            with GMineService(backend=spec) as service:
                service.register_store(
                    store_path, name="dblp", graph_path=graph_path
                )
                client = GMineClient.in_process(service)
                payloads.add(
                    json.dumps(
                        client.call("query.path", **args), sort_keys=True
                    )
                )
        assert len(payloads) == 1, f"{backend}: payloads disagree"

    _reference = {}

    @pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
    def test_backends_agree_with_each_other(self, tmp_path_factory, backend):
        # cross-parametrization memo: every backend must produce the bytes
        # the first one did
        workdir = tmp_path_factory.mktemp("path-backend")
        dataset = generate_dblp(DBLPConfig(num_authors=250, seed=47))
        tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=47)
        store_path = workdir / "path.gtree"
        graph_path = workdir / "path.json"
        save_gtree(tree, store_path)
        write_json(dataset.graph, graph_path)
        leaf = max(tree.leaves(), key=lambda node: node.size)
        args = {
            "path": f"community({leaf.label})/members/hops(2)/"
                    f"edges[weight >= 1]/count"
        }
        with GMineService(backend=backend) as service:
            service.register_store(store_path, name="dblp", graph_path=graph_path)
            payload = GMineClient.in_process(service).call(
                "query.path", **args
            )
        encoded = json.dumps(payload, sort_keys=True)
        self._reference.setdefault("bytes", encoded)
        assert encoded == self._reference["bytes"], backend


class TestPartitionScopedCaching:
    def test_edit_elsewhere_keeps_path_cache_entries(self, api_dataset):
        dataset, _ = api_dataset
        # a fresh mutable registration: apply_dataset clones internally
        tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=31)
        with GMineService() as service:
            service.register_tree(tree, graph=dataset.graph, name="mut")
            client = GMineClient.in_process(service)
            leaves = sorted(
                tree.leaves(), key=lambda node: node.size, reverse=True
            )
            scoped_leaf, other_leaf = leaves[0], leaves[-1]
            assert scoped_leaf.label != other_leaf.label
            members = list(scoped_leaf.members[:2])
            sources = ", ".join(str(m) for m in members)
            args = {
                "path": f"community({scoped_leaf.label})/members/"
                        f"rwr(sources=[{sources}])/top(5)"
            }
            warm = client.query("query.path", args=args)
            assert warm.ok and service.compute_counts.get("query.path") == 1

            # one edge inside a *different* leaf: its sub-fingerprint (and
            # the root) change, the scoped community's does not
            touched = set(other_leaf.members)
            u, v, w = next(
                (u, v, w) for u, v, w in dataset.graph.edges()
                if u in touched and v in touched
            )
            report = service.apply_dataset(
                "mut", [{"action": "add_edge", "u": u, "v": v,
                         "weight": w + 1.0}]
            )
            assert report["changed"] is True

            again = client.query("query.path", args=args)
            assert again.ok
            assert again.cached is True
            assert service.compute_counts.get("query.path") == 1

    def test_edit_inside_the_scope_invalidates(self, api_dataset):
        dataset, _ = api_dataset
        tree = build_gtree(dataset.graph, fanout=3, levels=3, seed=31)
        with GMineService() as service:
            service.register_tree(tree, graph=dataset.graph, name="mut")
            client = GMineClient.in_process(service)
            leaf = max(tree.leaves(), key=lambda node: node.size)
            members = list(leaf.members[:2])
            args = {
                "path": f"community({leaf.label})/members/"
                        f"rwr(sources=[{members[0]}, {members[1]}])/top(5)"
            }
            client.query("query.path", args=args).unwrap()
            inside = set(leaf.members)
            u, v, w = next(
                (u, v, w) for u, v, w in dataset.graph.edges()
                if u in inside and v in inside
            )
            service.apply_dataset(
                "mut", [{"action": "add_edge", "u": u, "v": v,
                         "weight": w + 1.0}]
            )
            fresh = client.query("query.path", args=args)
            assert fresh.ok
            assert fresh.cached is False


class TestStructuredParseErrors:
    BAD = "community(/members"

    def test_parse_error_is_400_with_span_over_http(self, http_server):
        status, payload = _post(
            http_server.url + "/v1/query",
            {"op": "query.path", "args": {"path": self.BAD}},
        )
        assert status == 400
        assert payload["ok"] is False
        assert payload["error"]["code"] == "QUERY_PARSE_ERROR"
        assert payload["error"]["details"]["source"] == self.BAD
        assert payload["error"]["details"]["span"] == [10, 11]

    def test_unknown_axis_is_never_a_500(self, http_server):
        status, payload = _post(
            http_server.url + "/v1/query",
            {"op": "query.path",
             "args": {"path": "community(s0)/teleport/nodes"}},
        )
        assert status == 400
        assert payload["error"]["code"] == "QUERY_PARSE_ERROR"
        assert "unknown step" in payload["error"]["message"]
        start, end = payload["error"]["details"]["span"]
        assert "community(s0)/teleport/nodes"[start:end] == "teleport"

    def test_unknown_community_is_404_navigation_error(self, http_server):
        status, payload = _post(
            http_server.url + "/v1/query",
            {"op": "query.path",
             "args": {"path": "community(never-built)/members/count"}},
        )
        assert status == 404
        assert payload["error"]["code"] == "NAVIGATION_ERROR"

    def test_batch_isolates_parse_failures(self, http_server, hot_leaf):
        leaf, _ = hot_leaf
        good = {"op": "query.path",
                "args": {"path": f"community({leaf.label})/members/count"}}
        bad = {"op": "query.path", "args": {"path": self.BAD}}
        status, payload = _post(
            http_server.url + "/v1/batch", {"requests": [good, bad, good]}
        )
        assert status == 200
        oks = [entry["ok"] for entry in payload["responses"]]
        assert oks == [True, False, True]
        failure = payload["responses"][1]["error"]
        assert failure["code"] == "QUERY_PARSE_ERROR"
        assert failure["details"]["span"] == [10, 11]

    def test_in_process_client_raises_typed_parse_error(self, all_clients):
        for client in all_clients:
            with pytest.raises(QueryParseError):
                client.call("query.path", path=self.BAD)
            with pytest.raises(NavigationError):
                client.call("query.path", path="community(nope)/members")

    def test_parse_errors_are_byte_identical_across_transports(
        self, all_clients
    ):
        raws = {
            client.query_raw("query.path", args={"path": self.BAD})
            for client in all_clients
        }
        assert len(raws) == 1


class TestPathStreaming:
    def test_nodes_stream_reassembles(self, all_clients, hot_leaf):
        leaf, _ = hot_leaf
        for client in all_clients:
            args = {"path": f"community({leaf.label})/members/nodes"}
            merged = client.stream_result("query.path", args=args, chunk_size=4)
            one_shot = client.query(
                "query.path", args=args, page={"limit": leaf.size}
            ).unwrap()
            assert merged == one_shot

    def test_scores_stream_reassembles(self, all_clients, hot_leaf):
        leaf, members = hot_leaf
        sources = ", ".join(str(m) for m in members)
        for client in all_clients:
            args = {
                "path": f"community({leaf.label})/members/"
                        f"rwr(sources=[{sources}])"
            }
            merged = client.stream_result("query.path", args=args, chunk_size=3)
            one_shot = client.query(
                "query.path", args=args, page={"limit": leaf.size}
            ).unwrap()
            assert merged == one_shot
