"""Tiny-size self-test of the benchmark harness: metric names, units, failure counting.

Runs in a few seconds: one 4x3 rung and one m=300 estimate instead of the
full workloads.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import amphimax  # noqa: E402
import amphimax.diffusion  # noqa: E402
import amphimax.sdg  # noqa: E402
import harness  # noqa: E402

ORIGINAL_SOLVE = amphimax.solve


def _table(entries):
    return {e["name"]: (e["unit"], e["better"]) for e in entries}


def test_metric_tables_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)
    assert _table(bench["end_to_end"]) == harness.END_TO_END
    assert _table(bench["per_layer"]) == harness.PER_LAYER


def _check_metrics(result, table):
    assert list(result["metrics"]) == list(table)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name][0]
        assert math.isfinite(metric["value"])


def test_tiny_workloads_report_every_metric_and_trace_cleanly():
    tiny = (
        harness.small_ladder(rungs=harness.LADDER[:1]),
        harness.simulate_large(m=300, edge_count=1000, sizes=(10,)),
    )
    for workload in tiny:
        result, detail = harness.run(workload, seed=1, seconds=0, trace=0)
        assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0), detail
        _check_metrics(result, harness.END_TO_END)
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(result["metrics"][name]["value"] > 0 for name in harness.END_TO_END)

        traced, detail = harness.run(workload, seed=1, seconds=0, trace=1)
        # one untraced and one traced pass, byte-identical outputs
        assert (traced["correct"], traced["attempted"], traced["failed"]) == (True, 2, 0), detail
        _check_metrics(traced, harness.PER_LAYER)
        assert traced["metrics"]["diffusion.calls"]["value"] >= 1

    # the 4x3 rank-1 rung at the fixed instance seed has 73 net points
    ladder, _ = harness.run(tiny[0], seed=1, seconds=0, trace=1)
    assert ladder["metrics"]["sdg.net_points"]["value"] == 73
    assert ladder["metrics"]["net.points"]["value"] == 73
    assert amphimax.solve is ORIGINAL_SOLVE
    assert amphimax.sdg.estimate_sigma is amphimax.diffusion.estimate_sigma
    assert amphimax.sdg.stream.__module__ == "amphimax._rng"


def test_every_pass_starts_from_empty_caches():
    workload = harness.simulate_large(m=300, edge_count=1000, sizes=(10,))
    jobs = workload.jobs(workload.setup(), 1)
    harness.run_pass(jobs)
    assert amphimax.diffusion._edge_arrays.cache_info().currsize == 1
    harness.clear_caches()
    assert amphimax.diffusion._edge_arrays.cache_info().currsize == 0


def _boom():
    raise RuntimeError("job failed on purpose")


def test_failures_are_counted():
    jobs = [
        harness.Job("ok", lambda: 1, lambda out: ([], {}), str),
        harness.Job("raises", _boom, lambda out: ([], {}), str),
        harness.Job("bad_output", lambda: 2, lambda out: (["wrong size"], {}), str),
    ]
    faulty = harness.Workload("faulty", lambda: [], lambda instances, seed: jobs, lambda facts, wall: {})
    result, detail = harness.run(faulty, seed=0, seconds=0, trace=0)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)
    assert result["metrics"]["ok_frac"]["value"] == 1 / 3
    assert len(detail["problems"]) == 2

    # an output that changes between passes at the same seed fails too
    attempted, failed, _, problems = harness.evaluate(jobs[:1], [[1], [2]])
    assert (attempted, failed) == (2, 1)
    assert "differs" in problems[0]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_ladder", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
