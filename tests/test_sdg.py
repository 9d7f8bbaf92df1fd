import math
import tracemalloc

import numpy as np
import pytest

from amphimax import sdg
from amphimax._rng import stream
from amphimax.diffusion import (
    DEFAULT_MC_EPS,
    SpreadEstimate,
    default_sample_count,
    estimate_sigma,
    exact_sigma,
    reverse_reachable_pool,
)
from amphimax.generators import gen_rank_r
from amphimax.greedy import greedy_max
from amphimax.instance import AimInstance, InstanceValidationError
from amphimax.net import NetSizeError, build_net
from amphimax.instance import numerical_rank
from amphimax.sdg import FINAL_FACTOR, MAX_RANK, SdgConfig, approximation_ratio, brute_force_opt, solve


def make_instance(M, edges=(), b1=1, b2=1, lam=20):
    M = np.asarray(M, dtype=float)
    return AimInstance(M.shape[0], M.shape[1], M, tuple(edges), b1, b2, lam)


HALF_PAIR = make_instance([[0.5, 0.5]], edges=[(0, 1, 0.5)], lam=1)


def test_approximation_ratio_values():
    e_comp = 1.0 - 1.0 / math.e
    assert abs(approximation_ratio(1e-12) - e_comp**3) < 1e-11
    assert abs(e_comp**3 - 0.25258) < 5e-6
    assert approximation_ratio(0.1) == (e_comp - 0.1) ** 3
    assert abs(approximation_ratio(0.1) - 0.1506711543243855) < 1e-15
    assert approximation_ratio(e_comp) == 0.0


def test_approximation_ratio_range():
    for eps in (0.0, -0.1, 0.7, 1.0):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            approximation_ratio(eps)


def test_sdg_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        SdgConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="delta"):
        SdgConfig(epsilon=0.5, delta=1.0)
    with pytest.raises(ValueError, match="max_net_points"):
        SdgConfig(epsilon=0.5, max_net_points=0)


def test_sdg_config_rejects_nan_epsilon_and_bad_sample_counts():
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be a positive finite number"):
            SdgConfig(epsilon=eps)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            SdgConfig(epsilon=0.5, samples_per_eval=samples)


def test_brute_force_singleton():
    inst = make_instance([[0.5]], lam=1)
    X, Y, val = brute_force_opt(inst)
    assert X == (0,) and Y == (0,) and abs(val - 0.5) < 1e-15


def test_brute_force_hand_example():
    X, Y, val = brute_force_opt(HALF_PAIR)
    assert Y == (0,)  # v1 reaches v2 half the time; v2 alone is worth only 0.5
    assert abs(val - 0.75) < 1e-15


def test_brute_force_zero_matrix():
    inst = make_instance(np.zeros((2, 2)), lam=1)
    assert brute_force_opt(inst)[2] == 0.0


def test_brute_force_value_is_exact_sigma_of_its_pair():
    inst = gen_rank_r(10, 8, 2, social_edge_count=10, seed=3)
    X, Y, val = brute_force_opt(inst)
    assert (X, Y) == ((0, 3, 9), (1, 6))
    assert abs(val - 2.1766072721491874) < 1e-12
    assert abs(val - exact_sigma(inst, X, Y)) < 1e-12


def test_brute_force_ties_go_to_the_first_pair():
    # every pair is worth exactly 2 * 0.5
    inst = make_instance(np.full((3, 4), 0.5), b1=1, b2=2, lam=1)
    X, Y, val = brute_force_opt(inst)
    assert (X, Y) == ((0,), (0, 1)) and abs(val - 1.0) < 1e-12


def test_brute_force_cap():
    inst = make_instance(np.full((30, 30), 0.5), b1=15, b2=15, lam=1)
    with pytest.raises(ValueError, match="brute-force cap"):
        brute_force_opt(inst)


def test_solve_rejects_invalid_instance():
    bad = make_instance([[1.5]], lam=1)
    with pytest.raises(InstanceValidationError):
        solve(bad, SdgConfig(epsilon=0.5, samples_per_eval=8))


def test_solve_rejects_excess_rank():
    inst = make_instance(np.eye(MAX_RANK + 1) * 0.5, lam=1)
    with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} exceeds the supported max {MAX_RANK}"):
        solve(inst, SdgConfig(epsilon=0.5, samples_per_eval=8))


def test_solve_net_cap():
    inst = gen_rank_r(4, 4, 2, factor_low=0.35, bit_precision=4, seed=1)
    with pytest.raises(NetSizeError, match=r"over the cap 3; raise epsilon or the cap \(--max-net-points\)$"):
        solve(inst, SdgConfig(epsilon=0.5, samples_per_eval=8, max_net_points=3))


@pytest.mark.parametrize("rank", [5, 6])
def test_solve_refuses_high_rank_nets_before_allocating_them(rank):
    # grid^r assignments alone would be tens of millions of rows at rank 5
    # and hundreds of millions at rank 6; the net is sized from integers first
    inst = gen_rank_r(8, 12, rank, seed=3)
    assert numerical_rank(inst.bipartite).rank == rank <= MAX_RANK
    tracemalloc.start()
    try:
        with pytest.raises(NetSizeError, match="raise epsilon$"):
            solve(inst, SdgConfig(epsilon=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_large_rank_two_refusal_stops_counting_column_tuples(monkeypatch):
    # C(3000, 2) = 4.5M column tuples exist; the cell cap trips after a few
    inst = gen_rank_r(20, 3000, 2, social_edge_count=2000, seed=3)
    det = np.linalg.det
    examined = []
    monkeypatch.setattr(np.linalg, "det", lambda block: examined.append(1) or det(block))
    with pytest.raises(NetSizeError, match="raise epsilon$"):
        solve(inst, SdgConfig(epsilon=0.5))
    assert 0 < len(examined) < 100


def test_max_net_points_cannot_lift_the_cell_cap():
    # at m=3,000 and rank 1 the candidates pass the cell cap however large
    # max_net_points is, and the message names the limit that tripped
    inst = gen_rank_r(20, 3000, 1, social_edge_count=2000, seed=3)
    with pytest.raises(NetSizeError, match="cells; raise epsilon$") as info:
        solve(inst, SdgConfig(epsilon=0.5, max_net_points=1_000_000))
    assert "max-net-points" not in str(info.value)


def test_solve_zero_matrix():
    inst = make_instance(np.zeros((2, 3)), b1=1, b2=2, lam=1)
    sol, report = solve(inst, SdgConfig(epsilon=0.5, samples_per_eval=16))
    assert sol.value.mean == 0.0 and sol.value.std_error == 0.0
    assert len(sol.providers) == 1 and len(sol.consumers) == 2
    assert len(report) == 1  # rank-0 net is the zero point alone


def test_solve_budgets_and_report_shape():
    inst = gen_rank_r(4, 4, 1, social_edge_count=4, factor_low=0.3, seed=3, budget_providers=2, budget_consumers=2)
    cfg = SdgConfig(epsilon=0.6, samples_per_eval=60, master_seed=5)
    sol, report = solve(inst, cfg)
    assert len(sol.providers) == 2 and len(sol.consumers) == 2
    assert sol.providers == tuple(sorted(sol.providers))
    net = build_net(inst.bipartite, numerical_rank(inst.bipartite), 0.6, inst.bit_precision)
    assert len(report) == len(net)
    n, m, b1, b2 = 4, 4, 2, 2
    for row in report:
        assert set(row) == {
            "net_point_index", "providers", "consumers", "value",
            "std_error", "evaluations_y", "evaluations_x",
        }
        assert len(row["providers"]) == b1 and len(row["consumers"]) == b2
        assert row["evaluations_y"] <= m * b2 + m + 1
        assert row["evaluations_x"] <= n * b1 + n + 1
    assert sol.net_point_index == max(range(len(report)), key=lambda i: (report[i]["value"], -i))
    assert sol.value.samples == FINAL_FACTOR * 60 and sol.value.stream_path == (5, "report")
    assert sol.rank == 1


def test_solve_reports_a_fresh_unbiased_value():
    # the winner is the maximum of many noisy per-net-point estimates, so its
    # own estimate sits above the truth; the reported value is a fresh draw
    inst = gen_rank_r(4, 3, 1, social_edge_count=2, seed=3)
    gaps = []
    for seed in range(4):
        sol, report = solve(inst, SdgConfig(epsilon=0.5, master_seed=seed))
        winner = report[sol.net_point_index]
        assert (winner["providers"], winner["consumers"]) == (list(sol.providers), list(sol.consumers))
        exact = exact_sigma(inst, sol.providers, sol.consumers)
        gaps.append((sol.value.mean - exact) / sol.value.std_error)
    assert sum(gaps) / len(gaps) < 1.0


def test_solve_is_deterministic():
    inst = gen_rank_r(3, 4, 1, social_edge_count=3, factor_low=0.3, seed=8)
    cfg = SdgConfig(epsilon=0.7, samples_per_eval=50, master_seed=2)
    a_sol, a_rep = solve(inst, cfg)
    b_sol, b_rep = solve(inst, cfg)
    assert a_sol == b_sol
    assert a_rep == b_rep
    c_sol, _ = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50, master_seed=3))
    assert c_sol.providers == a_sol.providers  # tiny instance, stable winner


def test_solve_reaches_guarantee_on_small_instance():
    inst = gen_rank_r(3, 3, 1, social_edge_count=2, factor_low=0.4, seed=4)
    eps = 0.3
    sol, _ = solve(inst, SdgConfig(epsilon=eps, master_seed=1))
    achieved = exact_sigma(inst, sol.providers, sol.consumers)
    _, _, opt = brute_force_opt(inst)
    assert achieved >= approximation_ratio(eps) * opt - 1e-9
    # greedy should in fact land close to the optimum here
    assert achieved >= 0.9 * opt


def _pool_oracle(pool, samples, s):
    """sigma_hat(s, Y) on the pool, computed from scratch for each Y."""
    rr = np.unpackbits(pool, axis=1, count=samples).T.astype(float)
    m = pool.shape[0]

    def oracle(Y):
        weight = rr[:, list(Y)] @ s[list(Y)] if Y else np.zeros(samples)
        return SpreadEstimate(m * float(np.mean(-np.expm1(-weight))), 0.0, samples)

    return oracle


def test_pool_greedy_matches_greedy_max_on_the_same_pool():
    for k in range(12):
        inst = gen_rank_r(2, 9, 1, social_edge_count=6 + k, seed=40 + k)
        pick = np.random.default_rng([k, 3])
        s = 0.05 + pick.random(9)
        # ties: two zero coordinates, and a copy of consumer 1's RR row and
        # s in consumer 6, so that greedy_max must break them the same way
        s[[2, 7]] = 0.0
        s[6] = s[1]
        samples = 64 * (k + 1) + k
        pool = reverse_reachable_pool(inst, samples, stream(k, "greedy-check"))
        pool[6] = pool[1]
        budget = 1 + k % 8  # greedy_max returns the whole ground set at 9
        picks, evaluations = sdg._pool_greedy(pool, samples, s, budget)
        want, _ = greedy_max(_pool_oracle(pool, samples, s), range(9), budget)
        assert picks == want
        assert evaluations == sum(9 - t for t in range(budget)) <= 9 * budget + 9 + 1


def test_pool_greedy_gains_in_row_chunks(monkeypatch):
    inst = gen_rank_r(2, 9, 1, social_edge_count=12, seed=4)
    s = np.linspace(0.1, 1.7, 9)
    pool = reverse_reachable_pool(inst, 500, stream(0, "chunks"))
    whole = sdg._pool_greedy(pool, 500, s, 4)
    # 2 consumer rows of 500 floats per chunk
    monkeypatch.setattr(sdg, "DRAW_BUDGET", 2 * 8 * 500)
    assert sdg._pool_greedy(pool, 500, s, 4) == whole


def test_sample_counts_follow_the_union_bounds():
    inst = gen_rank_r(4, 3, 1, social_edge_count=2, seed=3, budget_providers=2, budget_consumers=2)
    config = SdgConfig(epsilon=0.5, delta=0.01)
    half = config.delta / 2.0
    pool, samples = sdg._auto_samples(inst, config, 73)
    # the pools: every consumer set of size b2, plus one, at each of 73 points
    assert pool == default_sample_count(delta=half / (73 * (math.comb(3, 2) + 1)))
    # the provider phase and the final estimates: their own terms alone
    assert samples == default_sample_count(delta=half / (73 * (4 + 1 + 2 * 4 + 1)))

    # C(3000, 1500) is past the float range: half / C raises OverflowError
    big = make_instance(np.full((1, 3000), 0.5), b1=1, b2=1500, lam=1)
    with pytest.raises(OverflowError):
        half / math.comb(3000, 1500)
    pool, samples = sdg._auto_samples(big, config, 5)
    log_terms = math.log(5) + math.log(math.comb(3000, 1500) + 1)
    want = math.ceil((math.log(2.0 / half) + log_terms) / (2.0 * DEFAULT_MC_EPS**2))
    assert pool == want and 400_000 < pool < 500_000
    assert samples == default_sample_count(delta=half / (5 * 4))


def test_samples_sets_the_pool_size_too(monkeypatch):
    inst = gen_rank_r(3, 4, 1, social_edge_count=3, factor_low=0.3, seed=8)
    sizes = []

    def counting_pool(instance, samples, rng):
        sizes.append(samples)
        return reverse_reachable_pool(instance, samples, rng)

    monkeypatch.setattr(sdg, "reverse_reachable_pool", counting_pool)
    _, report = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50))
    assert sizes == [50] * len(report)


def test_all_consumers_budget_draws_no_pool(monkeypatch):
    inst = gen_rank_r(3, 3, 1, social_edge_count=2, seed=3, budget_consumers=3)
    monkeypatch.setattr(sdg, "reverse_reachable_pool", lambda *a: pytest.fail("pool drawn at b2 = m"))
    sol, report = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50))
    assert sol.consumers == (0, 1, 2)
    assert all(row["evaluations_y"] == 0 for row in report)


def test_independent_pools_reach_the_optimum_on_instance_518():
    # one pool shared by all net points ranked consumer 3 above consumer 2
    # here, and every net point inherited the error (sigma/OPT 0.942)
    inst = gen_rank_r(3, 4, 1, social_edge_count=2, factor_low=0.3, bit_precision=4, seed=518)
    sol, _ = solve(inst, SdgConfig(epsilon=0.3, master_seed=18))
    assert (sol.providers, sol.consumers) == ((1,), (2,))
    assert brute_force_opt(inst)[:2] == ((1,), (2,))


def test_provider_phase_runs_once_per_consumer_set(monkeypatch):
    inst = gen_rank_r(4, 3, 2, social_edge_count=2, seed=3)
    seed = 4
    greedy_runs, x_paths = [], {}

    def counting_greedy(oracle, ground, budget):
        greedy_runs.append(budget)
        return greedy_max(oracle, ground, budget)

    def recording_estimate(instance, X, Y, samples, rng, stream_path=None):
        if stream_path[1] == "x":
            x_paths.setdefault(tuple(sorted(Y)), []).append(stream_path)
        return estimate_sigma(instance, X, Y, samples, rng, stream_path=stream_path)

    monkeypatch.setattr(sdg, "greedy_max", counting_greedy)
    monkeypatch.setattr(sdg, "estimate_sigma", recording_estimate)
    sol, report = solve(inst, SdgConfig(epsilon=0.8, master_seed=seed))
    assert len(report) == 559
    first = {}
    for k, row in enumerate(report):
        first.setdefault(tuple(row["consumers"]), k)
    # one greedy run and one shared record per consumer set
    assert len(greedy_runs) == len(first) == len({id(row) for row in report}) >= 2
    for k, row in enumerate(report):
        assert row is report[first[tuple(row["consumers"])]]
        assert row["net_point_index"] <= k
        assert (row["net_point_index"] == k) == (first[tuple(row["consumers"])] == k)
    # every oracle call for one consumer set draws the same numbers
    assert set(x_paths) == set(first)
    for y, paths in x_paths.items():
        row = report[first[y]]
        assert set(paths) == {(seed, "x", row["net_point_index"])}
        assert len(paths) == row["evaluations_x"]
    assert report[sol.net_point_index]["net_point_index"] == sol.net_point_index


@pytest.mark.parametrize(
    "n, m, r, edges, epsilon", [(4, 3, 1, 2, 0.5), (4, 3, 2, 2, 0.8), (6, 5, 1, 6, 0.6)]
)
def test_solve_returns_the_optimum_on_small_rungs(n, m, r, edges, epsilon):
    inst = gen_rank_r(n, m, r, social_edge_count=edges, seed=3)
    opt = brute_force_opt(inst)[2]
    for seed in range(10):
        sol, _ = solve(inst, SdgConfig(epsilon=epsilon, master_seed=seed))
        assert abs(exact_sigma(inst, sol.providers, sol.consumers) - opt) < 1e-12, seed
