"""Tests of the ``gmine-e2e`` benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs once untraced and once traced in ``--quick`` mode (small
datasets, 3 s timed phase) in a subprocess, exactly as the driver runs it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SEED = 11
SECONDS = 3

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import traces  # noqa: E402


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    command = [
        sys.executable, str(cwd / "benchmarks/e2e/run.py"), "--quick",
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


@pytest.fixture(scope="module")
def runs():
    """{(workload, trace): (result object, detail file)} — one run each."""
    cache = {}

    def get(workload: str, trace: int):
        key = (workload, trace)
        if key not in cache:
            done = run_benchmark(workload, trace)
            assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            detail = json.loads((
                HERE / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
            ).read_text(encoding="utf-8"))
            cache[key] = (result, detail)
        return cache[key]

    return get


def test_contract_has_exactly_the_keys_the_driver_reads():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)), "a metric name is used twice"
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in CONTRACT["end_to_end"])}
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_traces_are_deterministic_and_pinned():
    assert traces.self_test() == []


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_once_and_nothing_unnamed(runs, workload, trace):
    result, _ = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [spec["name"] for spec in specs]
    for spec in specs:
        row = result["metrics"][spec["name"]]
        assert set(row) == {"value", "unit"}
        assert row["unit"] == spec["unit"]
        assert isinstance(row["value"], float)
    if not trace:
        assert all(row["value"] > 0 for row in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_percentiles_have_ten_samples_beyond_them(runs, workload):
    _, detail = runs(workload, 0)
    for phase in detail["phases"]:
        for key in phase:
            if key.startswith("p") and key.endswith("_ms") and key != "p50_ms":
                pct = int(key[1:-3])
                assert phase["samples"] * (1 - pct / 100) >= 10, (phase, key)
        assert phase["attempted"] == phase["succeeded"] + phase["failed"]
        assert "closed x" in phase["mode"] or "open @" in phase["mode"]
    # latency_p95_ms comes from the first phase
    assert detail["phases"][0]["samples"] >= 200


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_file_parses_and_every_parent_exists(runs, workload):
    runs(workload, 1)
    document = json.loads(
        (HERE / "out" / f"trace-{workload}.json").read_text(encoding="utf-8"))
    spans = document["spans"]
    assert spans and document["meta"]["workload"] == workload
    ids = {span["id"] for span in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids, span


def test_workloads_discriminate_as_designed(runs):
    def layer(workload):
        result, _ = runs(workload, 1)
        return {k: v["value"] for k, v in result["metrics"].items()}

    mine, explore = layer("mine_cold"), layer("explore_zipf")
    assert mine["service.cache.hit_ratio"] == 0
    assert mine["api.http.self_us"] == 0 and mine["api.aio.self_us"] == 0
    assert mine["service.executors.shipped"] > 0
    assert mine["service.executors.fallbacks"] == 0
    # no eviction check: --quick never fills the 512-entry cache
    assert explore["service.cache.hit_ratio"] > 0.3
    assert explore["replay.hit_api_share_pct"] > 50
    assert explore["replay.kernel_share_pct"] < mine["replay.kernel_share_pct"]
    assert layer("edit_while_read")["service.cache.survival_ratio"] > 0.5
    ingest = layer("ingest_open")
    assert ingest["e2e.ingest_edges_per_s"] > 0
    assert ingest["partition.recursive_partition_s"] > 0


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("mine_cold", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_no_process_outlives_the_command():
    """The process backend's forkserver and resource tracker exit after the
    interpreter that started them; the command must have waited for them."""
    command = [
        sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--quick",
        "--workload", "mine_cold", "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    # its own session, so that everything it starts can be told apart
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL,
                          start_new_session=True) as process:
        assert process.wait(timeout=180) == 0
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[3]) == process.pid:  # session id; zombies count
                left.append(entry.name)
    assert left == []


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    slower = [value * 1.2 for value in steady]
    faster = [value * 0.8 for value in steady]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(steady, slower, "lower", 0.1, False) == "regressed"
    assert compare.verdict(steady, faster, "lower", 0.1, True) == "improved"
    assert compare.verdict(steady, steady, "lower", 0.1, False) == "within bound"
    assert compare.verdict(noisy, slower, "lower", 0.1, False) == "unresolved"
    assert compare.verdict(steady, faster, "higher", 0.1, False) == "regressed"
    assert compare.wins(steady, faster, "lower") == (10, 0)
    assert compare.spread(steady) < 0.01 < compare.spread(noisy)
