"""Smoke tests of the end-to-end benchmark (``perfbench/run.py``).

Each workload runs with ``--smoke`` (tiny inputs) for one second, untraced on
two seeds and traced on one.  The tests check that every metric named in
``BENCHMARK.json`` is emitted with its unit, that the names are the agreed
ones, that a different seed changes the inputs but not the metric names, and
that running the benchmark leaves the tracked benchmark results untouched.

Run with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

END_TO_END = ["setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "failed_ratio",
              "compression_ratio", "max_rel_error", "peak_rss_mb"]

PER_LAYER = [
    "codecs.from_bytes.calls", "codecs.from_bytes.us",
    "store.read_payload.us", "store.read_payload_span.us", "store.preads",
    "store.chunks_read", "store.read_retries",
    "prefetch.wait.us", "prefetch.useful_ratio",
    "plan.build.ms", "plan.execute.ms", "plan.fold_self.ms", "plan.passes",
    "plan.decodes_per_pass", "plan.io_s",
    "core.compress.ms", "kernels.transform_and_bin.ms",
    "store.writer.append.us", "store.writer.finalize.ms",
    "sharded.append_shard.ms", "sharded.open.ms", "sharded.shards",
    "plan.incremental_groups",
    "serving.queue_wait.ms", "serving.batch_exec.ms", "serving.batch_size",
    "serving.plans_per_request", "serving.wire.ms",
    "cache.hit_rate", "cache.evictions", "cache.prefetch_useful_ratio",
    "trace.overhead_ratio",
    # the chunks_read == chunks_prefetched guard reports this count too
    "store.chunks_prefetched",
]

RUNS = [(workload, seed, trace) for workload in run.WORKLOADS
        for seed, trace in ((1, 0), (2, 0), (1, 1))]


def tracked_results() -> dict:
    """Digest of every tracked benchmark result file the benchmark must not write."""
    files = sorted(ROOT.glob("BENCH_*.json")) + sorted(
        (ROOT / "benchmarks" / "results").glob("*.txt"))
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in files}


def invoke(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every smoke run's ``(result line, report)``, plus the result digests."""
    before = tracked_results()
    outputs = {}
    for key in RUNS:
        completed = invoke(*key)
        assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
        lines = completed.stdout.strip().splitlines()
        outputs[key] = (json.loads(lines[-1]), json.loads(lines[-2])["report"],
                        completed.stdout)
    outputs["tracked"] = (before, tracked_results())
    return outputs


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_program():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted({**run.END_TO_END, **run.UNBOUNDED}) == sorted(END_TO_END)
    assert sorted(run.PER_LAYER) == sorted(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    notes = json.loads((HERE / "workloads.json").read_text())
    assert sorted(notes["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    spec = benchmark_json()
    for name, seed, trace in RUNS:
        if name != workload:
            continue
        result, report, stdout = runs[(name, seed, trace)]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = spec["per_layer"] if trace else spec["end_to_end"]
        assert {m: e["unit"] for m, e in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected}
        assert all(isinstance(e["value"], (int, float))
                   for e in result["metrics"].values())
        if not trace:
            # all eight end-to-end metrics are printed by name with a unit
            assert sorted(report["metrics"]) == sorted(END_TO_END)
            for metric in END_TO_END:
                assert f"{workload} {metric} = " in stdout
            assert report["metrics"]["failed_ratio"]["value"] == 0.0
            assert report["op_tail"]["samples"] == result["attempted"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_inputs_not_metric_names(runs, workload):
    first_result, first, _ = runs[(workload, 1, 0)]
    second_result, second, _ = runs[(workload, 2, 0)]
    assert first["inputs"] != second["inputs"]
    assert sorted(first["metrics"]) == sorted(second["metrics"])
    assert sorted(first_result["metrics"]) == sorted(second_result["metrics"])


def test_scan_work_counts_match_the_plan(runs):
    """Exact counts: one decode per chunk per pass per store, preads repeat."""
    n_chunks = run.SIZES["scan_shape"][1][0] // run.SLAB_ROWS
    for workload in ("scan-warm", "scan-cold"):
        metrics = runs[(workload, 1, 1)][0]["metrics"]
        assert metrics["plan.decodes_per_pass"]["value"] == n_chunks
        assert metrics["plan.passes"]["value"] == 2
        assert metrics["store.chunks_read"]["value"] == 4 * n_chunks
        assert metrics["store.chunks_prefetched"]["value"] == 4 * n_chunks
        assert metrics["store.read_retries"]["value"] == 0
    warm = runs[("scan-warm", 1, 1)][0]["metrics"]["store.preads"]["value"]
    cold = runs[("scan-cold", 1, 1)][0]["metrics"]["store.preads"]["value"]
    assert warm == cold


def test_ingest_is_answered_from_partials(runs):
    metrics = runs[("ingest", 1, 1)][0]["metrics"]
    assert metrics["plan.incremental_groups"]["value"] == 1
    assert metrics["plan.decodes_per_pass"]["value"] == 0
    assert metrics["sharded.append_shard.ms"]["value"] > 0


def test_serve_hits_the_cache(runs):
    metrics = runs[("serve", 1, 1)][0]["metrics"]
    assert metrics["cache.hit_rate"]["value"] == 1.0
    assert metrics["serving.batch_size"]["value"] >= 1


def test_tracked_results_are_not_written(runs):
    before, after = runs["tracked"]
    assert before == after


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = invoke("scan-warm", 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
