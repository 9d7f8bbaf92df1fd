import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from amphimax import cli
from amphimax.diffusion import exact_sigma
from amphimax.generators import gen_rank_r
from amphimax.instance import numerical_rank, parse_instance, serialize_instance
from amphimax.net import build_net, prune_net


def run_cli(*args, cwd=None):
    # the package from this checkout, installed or not, as tests/test_readme.py runs it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "amphimax", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "instance.json"
    inst = gen_rank_r(4, 4, 1, social_edge_count=4, factor_low=0.3, seed=6)
    path.write_text(serialize_instance(inst))
    return path, inst


def test_ratio_prints_enough_digits():
    proc = run_cli("ratio", "--epsilon", "0.1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1506711543"


def test_ratio_out_of_range_is_runtime_error():
    proc = run_cli("ratio", "--epsilon", "0.9")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_usage_errors_exit_2(instance_file):
    path, _ = instance_file
    assert run_cli("bogus").returncode == 2
    assert run_cli("solve", "--epsilon", "0.5").returncode == 2  # missing --instance
    assert run_cli().returncode == 2
    # no random draws in these, so they take no seed
    assert run_cli("exact", "--instance", str(path), "--x", "0", "--y", "0", "--seed", "1").returncode == 2
    assert run_cli("net", "--instance", str(path), "--epsilon", "0.5", "--seed", "1").returncode == 2
    assert run_cli("solve", "--instance", str(path), "--epsilon", "0.8", "--threads", "2").returncode == 2


def test_missing_file_exits_1():
    proc = run_cli("exact", "--instance", "/nonexistent.json", "--x", "0", "--y", "0")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_invalid_instance_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "m": 1, "bipartite": {"dense": [[1.5]]}, "social_edges": [], "budgets": {"providers": 1, "consumers": 1}}')
    proc = run_cli("exact", "--instance", str(bad), "--x", "0", "--y", "0")
    assert proc.returncode == 1
    assert "entry out of [0,1]" in proc.stderr
    # a bit_precision past the float range of the net grid (1020 at n = 4)
    doc = json.loads(serialize_instance(gen_rank_r(4, 3, 1, social_edge_count=2, seed=3)))
    for lam in (1021, 1100):
        doc["bit_precision"] = lam
        bad.write_text(json.dumps(doc))
        for command in ("net", "solve"):
            proc = run_cli(command, "--instance", str(bad), "--epsilon", "0.5")
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr.startswith(f"error: invalid instance: bit_precision {lam} exceeds 1020:")
            assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "amphimax 0.1.0"


def test_gen_output_parses_and_is_deterministic(tmp_path):
    a = run_cli("gen", "--family", "rank_r", "--params", "n=4,m=3,r=1,social_edges=2", "--seed", "3")
    b = run_cli("gen", "--family", "rank_r", "--params", "n=4,m=3,r=1,social_edges=2", "--seed", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    inst = parse_instance(a.stdout)
    assert inst == gen_rank_r(4, 3, 1, social_edge_count=2, seed=3)


def test_gen_planted_embeds_metadata():
    proc = run_cli("gen", "--family", "planted", "--params", "n=8,k=4", "--seed", "2")
    doc = json.loads(proc.stdout)
    assert len(doc["planted"]) == 4
    # document still parses as an instance; the extra key is ignored
    parse_instance(proc.stdout)


def test_gen_records_the_seed_of_families_that_draw(tmp_path):
    def manifest(*argv):
        out = tmp_path / "inst.json"
        assert cli.main(["gen", *argv, "--out", str(out)]) == 0
        return json.loads((tmp_path / "inst.json.manifest.json").read_text())

    for family, params in (("rank_r", "n=4,m=3,r=1"), ("planted", "n=6,k=2"), ("classic_im", "m=4,b2=1")):
        doc = manifest("--family", family, "--params", params)
        assert doc["master_seed"] == 0 and doc["config"]["seed"] == 0, family
        doc = manifest("--family", family, "--params", params, "--seed", "5")
        assert doc["master_seed"] == 5 and doc["config"]["seed"] == 5, family
    doc = manifest("--family", "three_layer", "--params", "k=2,groups=2")
    assert doc["master_seed"] is None and "seed" not in doc["config"]


def test_gen_three_layer_takes_no_seed(tmp_path, capsys):
    # it draws nothing, so any seed is refused, a negative one too
    out = tmp_path / "tl.json"
    for seed in ("0", "-1"):
        argv = ["gen", "--family", "three_layer", "--params", "k=2,groups=2", "--seed", seed, "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", "error: family three_layer draws nothing and takes no --seed\n")
        assert not out.exists()


def test_elapsed_time_includes_encoding(tmp_path, monkeypatch, capsys):
    dump = cli._dump

    def slow_dump(obj):
        time.sleep(0.2)
        return dump(obj)

    monkeypatch.setattr(cli, "_dump", slow_dump)
    out = tmp_path / "inst.json"
    argv = ["gen", "--family", "rank_r", "--params", "n=2,m=2,r=1", "--out", str(out)]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "inst.json.manifest.json").read_text())
    assert manifest["elapsed_ms"] >= 200.0
    assert f"done in {manifest['elapsed_ms']} ms" in capsys.readouterr().err


def test_gen_bad_params_exit_1():
    for family, params, message in [
        ("rank_r", "n=4", "missing parameter 'm'"),
        ("rank_r", "nope", "parameters are K=V pairs"),
        # misspelled keys: the real ones are social_edges and edge_count
        ("rank_r", "n=4,m=3,r=1,social_edge=6", "unknown parameter 'social_edge'"),
        ("classic_im", "m=5,b2=2,edges=4", "unknown parameter 'edges'"),
        # counts are not truncated, and a budget of 0 is not the default budget
        ("rank_r", "n=4.7,m=3,r=1", "parameter 'n' must be an integer, got 4.7"),
        ("rank_r", "n=4,m=3,r=1,b1=0.5", "parameter 'b1' must be an integer, got 0.5"),
        ("rank_r", "n=4,m=3,r=1,b1=0", "invalid instance: provider budget must be at least 1, got 0"),
        ("rank_r", "n=4,n=6,m=3,r=1", "parameter 'n' given twice"),
        # edge_prob outside [0, 1] used to act as 0 or 1, and NaN as 1
        ("rank_r", "n=4,m=3,r=1,edge_prob=-0.5", "edge_prob must lie in [0,1], got -0.5"),
        ("rank_r", "n=4,m=3,r=1,edge_prob=3", "edge_prob must lie in [0,1], got 3.0"),
        ("rank_r", "n=4,m=3,r=1,edge_prob=nan", "edge_prob must lie in [0,1], got nan"),
        # a grid that starts at 2^-5000 cannot be computed in floats
        ("rank_r", "n=4,m=3,r=1,bit_precision=5000", "invalid instance: bit_precision 5000 exceeds 1020:"),
    ]:
        proc = run_cli("gen", "--family", family, "--params", params)
        assert proc.returncode == 1, params
        assert proc.stderr.startswith("error: " + message) and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_simulate_shape_and_determinism(instance_file):
    path, _ = instance_file
    args = ("simulate", "--instance", str(path), "--x", "0,1", "--y", "0,2", "--samples", "400", "--seed", "5")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert set(doc) == {"mean", "std_error", "samples"}
    assert doc["samples"] == 400
    assert 0.0 <= doc["mean"] <= 4.0


def test_exact_matches_library(instance_file):
    path, inst = instance_file
    proc = run_cli("exact", "--instance", str(path), "--x", "0,1", "--y", "0,2")
    doc = json.loads(proc.stdout)
    assert doc["std_error"] == 0.0 and doc["samples"] == 0
    assert abs(doc["mean"] - exact_sigma(inst, (0, 1), (0, 2))) < 1e-12


def test_exact_index_out_of_range_exits_1(instance_file):
    path, _ = instance_file
    proc = run_cli("exact", "--instance", str(path), "--x", "9", "--y", "0")
    assert proc.returncode == 1
    assert "out of range" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("simulate", "--samples", "0"), "samples must be at least 1"),
        (("simulate", "--samples", "-4"), "samples must be at least 1"),
        (("solve", "--epsilon", "0.8", "--samples", "0"), "samples must be at least 1"),
        (("solve", "--epsilon", "nan"), "epsilon must be a positive finite number"),
        (("net", "--epsilon", "nan"), "epsilon must be a positive finite number"),
        # checked before the weak epsilon sqrt(1 + eps) - 1 is derived from it
        (("net", "--epsilon", "-0.5"), "epsilon must be a positive finite number, got -0.5\n"),
        (("net", "--epsilon", "-2"), "epsilon must be a positive finite number, got -2.0\n"),
    ],
    ids=[
        "simulate-zero", "simulate-negative", "solve-zero", "solve-nan",
        "net-nan", "net-negative", "net-below-minus-one",
    ],
)
def test_bad_sample_counts_and_epsilon_exit_1(instance_file, args, message):
    path, _ = instance_file
    proc = run_cli(args[0], "--instance", str(path), *args[1:])
    assert proc.returncode == 1
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_negative_seed_exits_1(instance_file):
    # refused by name, not with NumPy's bare "expected non-negative integer"
    path = str(instance_file[0])
    for args in (
        ("solve", "--instance", path, "--epsilon", "0.8"),
        ("simulate", "--instance", path, "--x", "0", "--y", "0"),
        ("gen", "--family", "rank_r", "--params", "n=4,m=3,r=1"),
    ):
        proc = run_cli(*args, "--seed", "-1")
        assert proc.returncode == 1, args
        assert proc.stderr == "error: master seed must be a non-negative integer, got -1\n", args
        assert proc.stdout == ""


@pytest.mark.parametrize("command", ["net", "solve"])
def test_tiny_epsilon_exits_1_before_the_grid_exists(instance_file, command):
    # a grid of ~10^10 values at 1e-9; at 1e-20 the weak epsilon rounds to 0
    path, _ = instance_file
    for epsilon in ("1e-9", "1e-20"):
        proc = run_cli(command, "--instance", str(path), "--epsilon", epsilon)
        assert proc.returncode == 1
        assert re.fullmatch(r"error: net needs .* at epsilon 1e-(09|20)\b.*; raise epsilon\n", proc.stderr), proc.stderr


def test_empty_index_lists(instance_file):
    path, _ = instance_file
    proc = run_cli("exact", "--instance", str(path), "--x", "", "--y", "0")
    assert json.loads(proc.stdout)["mean"] == 0.0


def test_net_output(instance_file):
    path, inst = instance_file
    proc = run_cli("net", "--instance", str(path), "--epsilon", "0.5")
    doc = json.loads(proc.stdout)
    assert set(doc) == {"points", "r", "grid_size", "count"}
    assert doc["r"] == 1
    assert doc["count"] == len(doc["points"])
    assert all(len(p) == 4 for p in doc["points"])


def test_solve_payload_out_and_manifest(instance_file, tmp_path):
    path, inst = instance_file
    out = tmp_path / "result.json"
    report = tmp_path / "report.json"
    proc = run_cli(
        "solve", "--instance", str(path), "--epsilon", "0.8", "--samples", "80",
        "--seed", "4", "--out", str(out), "--report", str(report),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc) == {"providers", "consumers", "value", "std_error", "net_size", "net_searched", "rank", "guarantee"}
    assert doc["rank"] == 1
    assert len(doc["providers"]) == inst.budget_providers
    assert out.read_text() == proc.stdout
    manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["version"] == "0.1.0"
    assert manifest["master_seed"] == 4
    assert manifest["instance_checksum"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["elapsed_ms"] >= 0
    assert "threads" not in manifest and "threads" not in manifest["config"]
    # --samples replaces the sample counts delta would size, and unset options are left out
    assert manifest["config"]["samples"] == 80 and "delta" not in manifest["config"]
    assert None not in manifest["config"].values()
    rows = json.loads(report.read_text())
    assert len(rows) == doc["net_size"]
    # row 0 is the zero point, which covers no provider image and is pruned;
    # the first searched row computed its own sets
    assert rows[0] == {
        "net_point_index": None, "pruned": True, "providers": [], "consumers": [],
        "value": None, "std_error": None, "evaluations_y": 0, "evaluations_x": 0,
    }
    searched = [k for k, row in enumerate(rows) if not row["pruned"]]
    assert len(searched) == doc["net_searched"]
    assert rows[searched[0]]["net_point_index"] == searched[0]

    # without --samples, delta sizes the samples and is recorded; unset options are not
    auto = tmp_path / "auto.json"
    proc = run_cli("solve", "--instance", str(path), "--epsilon", "0.8", "--out", str(auto))
    assert proc.returncode == 0
    config = json.loads((tmp_path / "auto.json.manifest.json").read_text())["config"]
    assert config["delta"] == 0.01
    assert "samples" not in config and "report" not in config


def test_solve_result_reports_both_net_sizes(instance_file):
    path, inst = instance_file
    proc = run_cli("solve", "--instance", str(path), "--epsilon", "0.8", "--samples", "40")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    net = build_net(inst.bipartite, numerical_rank(inst.bipartite), 0.8, inst.bit_precision)
    kept = prune_net(net, inst.bipartite, inst.budget_providers, inst.bit_precision)
    assert (doc["net_size"], doc["net_searched"]) == (len(net), len(kept))
    assert 0 < doc["net_searched"] < doc["net_size"]


def test_solve_deterministic_across_runs(instance_file):
    path, _ = instance_file
    args = ("solve", "--instance", str(path), "--epsilon", "0.9", "--samples", "60", "--seed", "7")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout


def test_progress_goes_to_stderr_only(instance_file):
    path, _ = instance_file
    proc = run_cli("exact", "--instance", str(path), "--x", "0", "--y", "0")
    json.loads(proc.stdout)  # stdout is pure JSON
    assert "done in" in proc.stderr


def test_solve_reports_its_guarantee(instance_file):
    # (1 - 1/e - epsilon)^3 inside the range of the guarantee, null past 1 - 1/e
    path, _ = instance_file
    guarantees = {}
    for epsilon in ("0.6", "0.7"):
        proc = run_cli("solve", "--instance", str(path), "--epsilon", epsilon, "--samples", "40")
        assert proc.returncode == 0, proc.stderr
        guarantees[epsilon] = json.loads(proc.stdout)["guarantee"]
    assert guarantees["0.6"] == cli.approximation_ratio(0.6) == pytest.approx(3.3e-5, rel=0.01)
    assert guarantees["0.7"] is None
