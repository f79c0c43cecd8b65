"""End-to-end tests for the gmine command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *args):
    """Run the CLI and return (exit_code, parsed JSON output)."""
    code = main(list(args))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestGenerateAndBuild:
    def test_generate_json(self, tmp_path, capsys):
        output = tmp_path / "dblp.json"
        code, payload, _ = run_cli(
            capsys, "generate", "--authors", "200", "--output", str(output)
        )
        assert code == 0
        assert payload["authors"] == 200
        assert output.exists()

    def test_generate_edge_list(self, tmp_path, capsys):
        output = tmp_path / "dblp.edges"
        code, payload, _ = run_cli(
            capsys, "generate", "--authors", "150", "--output", str(output)
        )
        assert code == 0
        assert output.exists()

    def test_build_and_stats_and_query_and_render(self, tmp_path, capsys):
        graph_path = tmp_path / "dblp.json"
        store_path = tmp_path / "dblp.gtree"
        svg_path = tmp_path / "view.svg"

        code, _, _ = run_cli(
            capsys, "generate", "--authors", "300", "--seed", "3", "--output", str(graph_path)
        )
        assert code == 0

        code, summary, _ = run_cli(
            capsys, "build", "--graph", str(graph_path), "--fanout", "3",
            "--levels", "3", "--output", str(store_path),
        )
        assert code == 0
        assert summary["leaf_communities"] >= 3
        assert store_path.exists()

        code, stats, _ = run_cli(capsys, "stats", str(store_path))
        assert code == 0
        assert stats["tree_nodes"] == summary["tree_nodes"]

        # Query an author by id (names depend on the generator seed).
        code, result, _ = run_cli(
            capsys, "query", "--store", str(store_path), "--value", "42", "--by-id"
        )
        assert code == 0
        assert result["leaf"].startswith("s0")

        code, rendered, _ = run_cli(
            capsys, "render", str(store_path), "--output", str(svg_path)
        )
        assert code == 0
        assert svg_path.exists()
        assert rendered["items"] > 0

    def test_stats_on_raw_graph(self, tmp_path, capsys):
        graph_path = tmp_path / "tiny.json"
        run_cli(capsys, "generate", "--authors", "120", "--output", str(graph_path))
        code, stats, _ = run_cli(capsys, "stats", str(graph_path))
        assert code == 0
        assert stats["num_weak_components"] >= 1


class TestExtract:
    def test_extract_with_svg(self, tmp_path, capsys):
        graph_path = tmp_path / "dblp.json"
        run_cli(capsys, "generate", "--authors", "400", "--seed", "9",
                "--output", str(graph_path))
        svg_path = tmp_path / "extract.svg"
        out_path = tmp_path / "extract.json"
        code, summary, _ = run_cli(
            capsys, "extract", "--graph", str(graph_path),
            "--sources", "0", "17", "53", "--budget", "25",
            "--svg", str(svg_path), "--output", str(out_path),
        )
        assert code == 0
        assert summary["extracted_nodes"] <= 25
        assert summary["sources_present"] == 1.0
        assert svg_path.exists() and out_path.exists()


class TestErrorHandling:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1

    def test_missing_graph_file(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_query_miss_reports_error(self, tmp_path, capsys):
        graph_path = tmp_path / "dblp.json"
        store_path = tmp_path / "dblp.gtree"
        main(["generate", "--authors", "150", "--output", str(graph_path)])
        main(["build", "--graph", str(graph_path), "--fanout", "2", "--levels", "2",
              "--output", str(store_path)])
        capsys.readouterr()
        code = main(["query", "--store", str(store_path), "--value", "Nobody At All"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestServeBackends:
    """`gmine serve` batch mode on each execution backend + cache persistence."""

    @pytest.fixture
    def built_store(self, tmp_path, capsys):
        graph_path = tmp_path / "dblp.json"
        store_path = tmp_path / "dblp.gtree"
        code, _, _ = run_cli(
            capsys, "generate", "--authors", "200", "--seed", "5",
            "--output", str(graph_path),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "build", "--graph", str(graph_path),
            "--fanout", "3", "--levels", "2", "--output", str(store_path),
        )
        assert code == 0
        requests_path = tmp_path / "requests.json"
        requests_path.write_text(
            json.dumps([{"op": "metrics", "args": {}},
                        {"op": "connectivity", "args": {}}]),
            encoding="utf-8",
        )
        return graph_path, store_path, requests_path

    @pytest.mark.parametrize("backend", ["inline", "process:2", "sharded:2"])
    def test_serve_batch_on_each_backend(self, built_store, capsys, backend):
        graph_path, store_path, requests_path = built_store
        code, payload, _ = run_cli(
            capsys, "serve", "--store", str(store_path),
            "--graph", str(graph_path), "--requests", str(requests_path),
            "--backend", backend,
        )
        assert code == 0
        assert all(result["ok"] for result in payload["results"])
        assert payload["stats"]["backend"]["name"] == backend.split(":")[0]

    def test_serve_cache_path_persists_across_runs(self, built_store, capsys):
        graph_path, store_path, requests_path = built_store
        cache_db = store_path.parent / "cache.db"
        code, first, _ = run_cli(
            capsys, "serve", "--store", str(store_path),
            "--graph", str(graph_path), "--requests", str(requests_path),
            "--cache-path", str(cache_db),
        )
        assert code == 0
        assert not any(result["cached"] for result in first["results"])
        # a second CLI invocation = a fresh process warm-starting from disk
        code, second, _ = run_cli(
            capsys, "serve", "--store", str(store_path),
            "--graph", str(graph_path), "--requests", str(requests_path),
            "--cache-path", str(cache_db),
        )
        assert code == 0
        assert all(result["cached"] for result in second["results"])

    def test_serve_rejects_unknown_backend(self, built_store, capsys):
        graph_path, store_path, requests_path = built_store
        code, _, err = run_cli(
            capsys, "serve", "--store", str(store_path),
            "--requests", str(requests_path), "--backend", "quantum",
        )
        assert code == 2
        assert "unknown execution backend" in err

    @pytest.mark.parametrize("backend", ["thread", "auto:2"])
    def test_serve_rejects_retired_backends(self, built_store, capsys, backend):
        _, store_path, requests_path = built_store
        code, _, err = run_cli(
            capsys, "serve", "--store", str(store_path),
            "--requests", str(requests_path), "--backend", backend,
        )
        assert code == 2
        assert "unknown execution backend" in err

    @pytest.mark.parametrize("flag", [["--shm", "on"], ["--cost-model", "c.json"]])
    def test_serve_rejects_retired_flags(self, built_store, capsys, flag):
        _, store_path, requests_path = built_store
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--store", str(store_path),
                  "--requests", str(requests_path), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestPathCommand:
    """`gmine path`: GPath queries from the shell."""

    @pytest.fixture
    def built_store(self, tmp_path, capsys):
        graph_path = tmp_path / "dblp.json"
        store_path = tmp_path / "dblp.gtree"
        code, _, _ = run_cli(
            capsys, "generate", "--authors", "200", "--seed", "5",
            "--output", str(graph_path),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "build", "--graph", str(graph_path),
            "--fanout", "3", "--levels", "2", "--output", str(store_path),
        )
        assert code == 0
        return graph_path, store_path

    def test_parse_only_canonicalizes(self, capsys):
        code, payload, _ = run_cli(
            capsys, "path", "community(s0)/members/neighbors", "--parse-only"
        )
        assert code == 0
        assert payload["canonical"] == "community(s0)/members/hops(1)"
        assert payload["steps"] == 3

    def test_parse_only_rejects_bad_query(self, capsys):
        code = main(["path", "community(", "--parse-only"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_tree_query_over_store(self, built_store, capsys):
        _, store_path = built_store
        code, payload, _ = run_cli(
            capsys, "path", str(store_path), "leaves/nodes"
        )
        assert code == 0
        assert payload["ok"] is True
        assert payload["result"]["count"] >= 3
        assert all(label.startswith("s") for label in payload["result"]["items"])

    def test_community_query_with_graph(self, built_store, capsys):
        graph_path, store_path = built_store
        code, leaves, _ = run_cli(
            capsys, "path", str(store_path), "leaves/nodes"
        )
        assert code == 0
        label = leaves["result"]["items"][0]
        code, payload, _ = run_cli(
            capsys, "path", str(store_path),
            f"community({label})/members/count",
            "--graph", str(graph_path),
        )
        assert code == 0
        assert payload["result"]["count"] > 0

    def test_pagination_flags_reach_the_page_block(self, built_store, capsys):
        _, store_path = built_store
        code, payload, _ = run_cli(
            capsys, "path", str(store_path), "leaves/nodes", "--limit", "2"
        )
        assert code == 0
        assert len(payload["result"]["items"]) == 2
        assert payload["result"]["count"] >= 3

    def test_navigation_error_exits_3_with_envelope(self, built_store, capsys):
        graph_path, store_path = built_store
        code, payload, _ = run_cli(
            capsys, "path", str(store_path),
            "community(never-built)/members/count",
            "--graph", str(graph_path),
        )
        assert code == 3
        assert payload["ok"] is False
        assert payload["error"]["code"] == "NAVIGATION_ERROR"

    def test_parse_error_envelope_carries_span(self, built_store, capsys):
        _, store_path = built_store
        code, payload, _ = run_cli(
            capsys, "path", str(store_path), "community(s0)/teleport"
        )
        assert code == 3
        assert payload["error"]["code"] == "QUERY_PARSE_ERROR"
        span = payload["error"]["details"]["span"]
        text = payload["error"]["details"]["source"]
        assert text[span[0]:span[1]] == "teleport"

    def test_missing_positionals_is_a_usage_error(self, capsys):
        code = main(["path"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_missing_store_suggests_url(self, tmp_path, capsys):
        code = main(["path", str(tmp_path / "none.gtree"), "leaves/count"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--url" in captured.err


class TestIngestCommand:
    """`gmine ingest`: file -> G-Tree -> dataset from the shell."""

    @pytest.fixture
    def csv_file(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(
            "source,target,weight\n"
            "0,1,2.0\n1,2,1.0\n2,0,1.0\n2,3,0.5\n3,4,1.0\n4,2,1.0\n",
            encoding="utf-8",
        )
        return path

    def test_ingest_reports_the_built_dataset(self, csv_file, capsys):
        code, payload, _ = run_cli(
            capsys, "ingest", "--graph", str(csv_file), "--name", "toy",
            "--fanout", "2", "--levels", "2",
        )
        assert code == 0
        assert payload["ok"] is True
        assert payload["result"]["dataset"] == "toy"
        assert payload["result"]["nodes"] == 5
        assert payload["result"]["tree"]["leaves"] >= 1

    def test_ingest_store_then_path_round_trip(self, csv_file, tmp_path, capsys):
        store_path = tmp_path / "toy.gtree"
        code, payload, _ = run_cli(
            capsys, "ingest", "--graph", str(csv_file), "--name", "toy",
            "--fanout", "2", "--levels", "2", "--store", str(store_path),
        )
        assert code == 0
        assert payload["result"]["store"] == str(store_path)
        assert store_path.exists()
        # the persisted tree serves GPath queries in a later process
        code, queried, _ = run_cli(
            capsys, "path", str(store_path), "members/count",
            "--graph", str(csv_file),
        )
        assert code == 0
        assert queried["result"]["count"] == payload["result"]["nodes"]

    def test_ingest_missing_file_is_a_usage_error(self, tmp_path, capsys):
        code = main(["ingest", "--graph", str(tmp_path / "nope.csv"),
                     "--name", "toy"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
