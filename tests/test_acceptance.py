"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (bypassing capture) with the
measured numbers and enforces its own wall-clock budget, so a full run
doubles as a scorecard for the solver's contract.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from amphimax._rng import stream
from amphimax.diffusion import estimate_sigma, exact_rho_bar, exact_sigma
from amphimax.generators import gen_classic_im, gen_planted_biclique, gen_rank_r
from amphimax.greedy import greedy_max
from amphimax.instance import numerical_rank, serialize_instance, validate
from amphimax.net import build_net, covers
from amphimax.relaxation import indicator, initial_activation, net_relaxation
from amphimax.sdg import SdgConfig, approximation_ratio, brute_force_opt, solve
from reference import concave_relaxation

E_COMP = 1.0 - 1.0 / math.e


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def masks(size):
    return [tuple(i for i in range(size) if mask >> i & 1) for mask in range(2**size)]


def test_criterion_01_sandwich_bound(capsys):
    rng = stream(0, "accept", 1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 21))
        M = rng.random((n, m)) * (rng.random((n, m)) < 0.8)
        x = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(m) < 0.5).astype(float)
        f = initial_activation(x, y, M)
        F = concave_relaxation(x, y, M)
        worst = max(
            worst,
            float(((1.0 - 1.0 / math.e) * f - F).max(initial=0.0)),
            float((F - f).max(initial=0.0)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    announce(capsys, 1, "sandwich bound", ok,
             f"1000 cases, worst violation {worst:.2e}, {elapsed:.2f}s (limit 1s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_net_coverage(capsys):
    inst = gen_rank_r(10, 8, 2, social_edge_count=6, edge_prob=0.7, factor_low=0.4,
                      bit_precision=4, seed=2)
    basis = numerical_rank(inst.bipartite)
    assert len(basis) == 2
    details = []
    ok = True
    for eps in (0.25, 0.5, 1.0):
        t0 = time.perf_counter()
        net = build_net(inst.bipartite, basis, eps, inst.bit_precision)
        misses = 0
        for bits in itertools.product((0.0, 1.0), repeat=10):
            target = np.array(bits) @ inst.bipartite
            if not covers(net.points, target, eps, zero_tol=2.0**-4, slack=1e-9).any():
                misses += 1
        elapsed = time.perf_counter() - t0
        bound = math.comb(8, 2) * net.grid_size**2
        ok = ok and misses == 0 and len(net) <= bound and elapsed < 10.0
        details.append(f"eps={eps}: {misses}/1024 misses, {len(net)}<={bound} pts, {elapsed:.2f}s")
        assert misses == 0
        assert len(net) <= bound
        assert elapsed < 10.0
    announce(capsys, 2, "net coverage", ok, "; ".join(details) + " (limit 10s each)")


def test_criterion_03_surrogate_sandwich(capsys):
    t0 = time.perf_counter()
    eps = 0.5
    floor = E_COMP - eps
    checked, worst = 0, 0.0
    for k in range(20):
        inst = gen_rank_r(3, 3, (k % 2) + 1, social_edge_count=2 + k % 2,
                          edge_prob=1.0, factor_low=0.4, bit_precision=4, seed=200 + k)
        basis = numerical_rank(inst.bipartite)
        net = build_net(inst.bipartite, basis, eps, inst.bit_precision)
        for X in masks(3):
            target = indicator(X, 3) @ inst.bipartite
            hits = np.flatnonzero(covers(net.points, target, eps))
            assert hits.size
            s = net.points[hits[0]]
            for Y in masks(3):
                sigma = exact_sigma(inst, X, Y)
                hat = exact_rho_bar(inst, net_relaxation(s, indicator(Y, 3)))
                worst = max(worst, floor * sigma - hat, hat - sigma)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    announce(capsys, 3, "surrogate sandwich", ok,
             f"{checked} (x,y) pairs over 20 instances, worst violation {worst:.2e}, "
             f"{elapsed:.2f}s (limit 30s)")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_04_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    hits = 0
    for k in range(50):
        inst = gen_rank_r(3, 3, 1, social_edge_count=3, edge_prob=1.0,
                          factor_low=0.2, seed=300 + k)
        X, Y = (k % 3,), (0, 1, 2)
        exact = exact_sigma(inst, X, Y)
        est = estimate_sigma(inst, X, Y, 1400, stream(300 + k, "accept", 4))
        if est.std_error == 0.0:
            hits += abs(est.mean - exact) <= 1e-12
        else:
            hits += abs(est.mean - exact) <= 3.0 * est.std_error
    elapsed = time.perf_counter() - t0
    ok = hits >= 47 and elapsed < 30.0
    announce(capsys, 4, "oracle equivalence", ok,
             f"{hits}/50 within 3 std errors (need 47), {elapsed:.2f}s (limit 30s)")
    assert hits >= 47
    assert elapsed < 30.0


def test_criterion_05_exhaustive_submodularity(capsys):
    t0 = time.perf_counter()
    n, m = 3, 4
    violations = 0
    checked = 0

    def audit(values, ground):
        # monotone + diminishing marginals for a table of 2^ground values
        bad = 0
        for b_mask in range(2**ground):
            for v in range(ground):
                if b_mask >> v & 1:
                    continue
                gain_b = values[b_mask | 1 << v] - values[b_mask]
                if gain_b < -1e-12:
                    bad += 1
                a_mask = b_mask
                while True:  # all submasks of b_mask
                    gain_a = values[a_mask | 1 << v] - values[a_mask]
                    if gain_a < gain_b - 1e-12:
                        bad += 1
                    if a_mask == 0:
                        break
                    a_mask = (a_mask - 1) & b_mask
        return bad

    for k in range(20):
        inst = gen_rank_r(n, m, (k % 2) + 1, social_edge_count=k % 9,
                          edge_prob=0.7, factor_low=0.2, seed=400 + k)
        table = {
            (xm, ym): exact_sigma(inst, xs, ys)
            for xm, xs in enumerate(masks(n))
            for ym, ys in enumerate(masks(m))
        }
        for ym in range(2**m):
            violations += audit([table[(xm, ym)] for xm in range(2**n)], n)
            checked += 1
        for xm in range(2**n):
            violations += audit([table[(xm, ym)] for ym in range(2**m)], m)
            checked += 1
        rng = stream(400 + k, "accept", 5)
        z = rng.random(m)
        base = exact_rho_bar(inst, z)
        for alpha in (0.25, 0.5, 0.75):
            if exact_rho_bar(inst, alpha * z) < alpha * base - 1e-12:
                violations += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    announce(capsys, 5, "exhaustive submodularity", ok,
             f"{violations} violations across {checked} audited slices, "
             f"{elapsed:.2f}s (limit 60s)")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_06_end_to_end_guarantee(capsys):
    t0 = time.perf_counter()
    ratio = approximation_ratio(0.3)
    failures = 0
    worst = math.inf
    for k in range(30):
        if k < 4:
            inst = gen_rank_r(4, 3, 2, social_edge_count=2, edge_prob=0.8,
                              factor_low=0.4, bit_precision=4, seed=500 + k)
        else:
            dims = ((3, 3), (4, 3), (3, 4), (4, 4))[k % 4]
            inst = gen_rank_r(*dims, 1, social_edge_count=2 + k % 3, edge_prob=1.0,
                              factor_low=0.3, bit_precision=4, seed=500 + k)
        sol, _ = solve(inst, SdgConfig(epsilon=0.3, delta=0.01, master_seed=k))
        achieved = exact_sigma(inst, sol.providers, sol.consumers)
        _, _, opt = brute_force_opt(inst)
        if achieved < ratio * opt - 1e-9:
            failures += 1
        worst = min(worst, achieved / opt if opt > 0 else 1.0)
    elapsed = time.perf_counter() - t0
    ok = failures <= 1 and elapsed < 300.0
    announce(capsys, 6, "end-to-end guarantee", ok,
             f"{30 - failures}/30 runs reached {ratio:.4f}*OPT (1 miss allowed), "
             f"worst empirical ratio {worst:.3f}, {elapsed:.1f}s (limit 300s)")
    assert failures <= 1
    assert elapsed < 300.0


def test_criterion_07_classic_im_reduction(capsys):
    t0 = time.perf_counter()
    agreements = 0
    for k in range(10):
        rng = stream(k, "accept", 7)
        labels = rng.permutation(30)
        edges, roots, pos = [], [], 0
        for size in (16, 8, 4, 2):
            block = labels[pos:pos + size]
            roots.append(int(block[0]))
            edges.extend((int(block[0]), int(w), 1.0) for w in block[1:])
            pos += size
        inst = gen_classic_im(edges, 30, 3)
        sol, _ = solve(inst, SdgConfig(epsilon=1.0, samples_per_eval=2000, master_seed=k))
        counter = itertools.count()

        def oracle(S, _k=k, _c=counter):
            # the single all-ones provider seeds S with certainty: plain cascade
            return estimate_sigma(inst, (0,), S, 500, stream(_k, "standalone", next(_c)))

        standalone, _ = greedy_max(oracle, range(30), 3)
        agreements += sol.consumers == tuple(sorted(standalone))
        assert sol.consumers == tuple(sorted(standalone))
        assert sol.consumers == tuple(sorted(roots[:3]))
    elapsed = time.perf_counter() - t0
    ok = agreements == 10 and elapsed < 120.0
    announce(capsys, 7, "classic cascade reduction", ok,
             f"{agreements}/10 seed-set agreements with standalone greedy, "
             f"{elapsed:.1f}s (limit 120s)")
    assert elapsed < 120.0


def test_criterion_08_planted_instance_value(capsys):
    t0 = time.perf_counter()
    n, k = 40, 12
    inst, planted = gen_planted_biclique(n, k, seed=0)
    X, Y = planted[: k // 2], planted[k // 2:]
    # no social edges, so the expected spread is the sum of the per-consumer
    # activation probabilities
    sigma = float(
        initial_activation(indicator(X, n), indicator(Y, n), inst.bipartite).sum()
    )
    want = (k / 2) * (1.0 - (1.0 - 1.0 / n**2) ** (k // 2))
    coarse = k**2 / (4.0 * n**2)
    elapsed = time.perf_counter() - t0
    ok = abs(sigma - want) <= 1e-12 and abs(sigma - coarse) <= 0.01 * coarse and elapsed < 1.0
    announce(capsys, 8, "planted instance value", ok,
             f"sigma={sigma:.6f} vs closed form {want:.6f} (|diff|={abs(sigma - want):.1e}), "
             f"within {abs(sigma - coarse) / coarse:.2%} of {coarse}, {elapsed:.2f}s (limit 1s)")
    assert abs(sigma - want) <= 1e-12
    assert abs(sigma - coarse) <= 0.01 * coarse
    assert elapsed < 1.0


def test_criterion_09_scaling(capsys):
    t0 = time.perf_counter()
    over = 0
    combos = 0
    for m in (4, 6, 8):
        for r in (1, 2):
            inst = gen_rank_r(6, m, r, edge_prob=1.0, factor_low=0.3,
                              bit_precision=4, seed=900 + m + r)
            basis = numerical_rank(inst.bipartite)
            assert len(basis) == r
            for eps in (0.3, 0.6, 1.0):
                net = build_net(inst.bipartite, basis, eps, inst.bit_precision)
                bound = math.comb(m, r) * net.grid_size**r
                combos += 1
                if len(net) > bound:
                    over += 1
    inst = gen_rank_r(6, 6, 1, social_edge_count=5, edge_prob=0.7, factor_low=0.4,
                      bit_precision=4, seed=9)
    walls = {}
    for eps in (0.2, 0.8):
        t1 = time.perf_counter()
        solve(inst, SdgConfig(epsilon=eps, samples_per_eval=150, master_seed=3))
        walls[eps] = time.perf_counter() - t1
    # 1/eps shrinks 4x, so cubic growth allows 64x; triple that for timer noise
    wall_ratio = walls[0.2] / max(walls[0.8], 1e-3)
    elapsed = time.perf_counter() - t0
    ok = over == 0 and wall_ratio <= 192.0 and elapsed < 300.0
    announce(capsys, 9, "net size and runtime scaling", ok,
             f"{combos - over}/{combos} size bounds hold, wall ratio "
             f"{wall_ratio:.1f} <= 192 for eps 0.2 vs 0.8, {elapsed:.1f}s (limit 300s)")
    assert over == 0
    assert wall_ratio <= 192.0
    assert elapsed < 300.0


def test_criterion_10_cli_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(serialize_instance(
        gen_rank_r(4, 4, 1, social_edge_count=4, factor_low=0.3, seed=6)
    ))
    f = str(inst_file)
    commands = {
        # ratio is plain text and has no --out flag; everything else also
        # round-trips through the written result file
        "ratio": (["ratio", "--epsilon", "0.1"], False),
        "gen": (["gen", "--family", "rank_r", "--params", "n=4,m=3,r=1,social_edges=2",
                 "--seed", "3"], True),
        "simulate": (["simulate", "--instance", f, "--x", "0,1", "--y", "0,2",
                      "--samples", "300", "--seed", "5"], True),
        "exact": (["exact", "--instance", f, "--x", "0,1", "--y", "0,2"], True),
        "net": (["net", "--instance", f, "--epsilon", "0.5"], True),
        "solve": (["solve", "--instance", f, "--epsilon", "0.8", "--samples", "60",
                   "--seed", "4"], True),
    }
    # the package from this checkout, installed or not, as tests/test_readme.py runs it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    stable = 0
    for name, (args, writes_out) in commands.items():
        outs = []
        for attempt in range(2):
            out_file = tmp_path / f"{name}-{attempt}.json"
            extra = ["--out", str(out_file)] if writes_out else []
            proc = subprocess.run(
                [sys.executable, "-m", "amphimax", *args, *extra],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((proc.stdout, out_file.read_bytes() if writes_out else b""))
        same = outs[0] == outs[1]
        stable += same
        assert same, f"{name} output differs between identical runs"
    elapsed = time.perf_counter() - t0
    ok = stable == len(commands) and elapsed < 60.0
    announce(capsys, 10, "command determinism", ok,
             f"{stable}/{len(commands)} subcommands byte-identical across reruns, "
             f"{elapsed:.1f}s (limit 60s)")
    assert elapsed < 60.0
