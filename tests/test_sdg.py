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


def _consumer_oracle(pool, samples, s):
    """sigma_hat(s, Y) on the pool, computed from scratch for each Y."""
    rr = np.unpackbits(pool, axis=1, count=samples).T.astype(float)
    m = pool.shape[0]

    def oracle(Y):
        weight = rr[:, list(Y)] @ s[list(Y)] if Y else np.zeros(samples)
        return SpreadEstimate(m * float(np.mean(-np.expm1(-weight))), 0.0, samples)

    return oracle


def _pool_keep(pool, samples, Y, M):
    """q_ik = prod over the members u of RR set k in Y of (1 - M_iu), as an (n, samples) array."""
    rr = np.unpackbits(pool[list(Y)], axis=1, count=samples).astype(bool)
    return np.where(rr[None], 1.0 - M[:, list(Y), None], 1.0).prod(axis=1)


def _provider_oracle(pool, samples, Y, M):
    """sigma(X, Y) on the pool, computed from scratch for each X."""
    keep = _pool_keep(pool, samples, Y, M)
    m = pool.shape[0]

    def oracle(X):
        return SpreadEstimate(m * float(np.mean(1.0 - keep[list(X)].prod(axis=0))), 0.0, samples)

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
        picks, evaluations = sdg._pool_greedy(sdg._consumer_hits(pool, samples, s), 9, samples, budget)
        want, _ = greedy_max(_consumer_oracle(pool, samples, s), range(9), budget)
        assert picks == want
        assert evaluations == sum(9 - t for t in range(budget)) <= 9 * budget + 9 + 1

        # the provider phase, on a 9x7 instance with ties: a zero row, a copy
        # of provider 1's row in provider 6 (and, at odd k, of provider 0's in
        # provider 8), and a certain entry
        base = gen_rank_r(9, 7, 2, social_edge_count=6 + k, seed=60 + k)
        M = base.bipartite.copy()
        M[3] = 0.0
        M[6] = M[1]
        if k % 2:
            M[8] = M[0]
        M[5, k % 7] = 1.0
        inst = make_instance(M, base.social_edges, lam=base.bit_precision)
        Y = tuple(sorted(np.random.default_rng([k, 4]).choice(7, 1 + k % 5, replace=False).tolist()))
        pool = reverse_reachable_pool(inst, samples, stream(k, "provider-check"))
        hits = sdg._provider_hits(pool, samples, Y, M)
        picks, evaluations = sdg._pool_greedy(hits, 9, samples, budget)
        want, _ = greedy_max(_provider_oracle(pool, samples, Y, M), range(9), budget)
        assert picks == want, k
        assert evaluations == sum(9 - t for t in range(budget))
        assert np.allclose(hits(0, 9), 1.0 - _pool_keep(pool, samples, Y, M), rtol=0.0, atol=1e-12)


def test_pool_greedy_gains_in_row_chunks(monkeypatch):
    inst = gen_rank_r(9, 9, 1, social_edge_count=12, seed=4)
    s = np.linspace(0.1, 1.7, 9)
    Y = (0, 2, 3, 5, 8)
    pool = reverse_reachable_pool(inst, 500, stream(0, "chunks"))
    consumers = sdg._pool_greedy(sdg._consumer_hits(pool, 500, s), 9, 500, 4)
    provider_hits = sdg._provider_hits(pool, 500, Y, inst.bipartite)
    providers = sdg._pool_greedy(provider_hits, 9, 500, 4)
    # 2 rows of 500 floats per chunk, in the gains and in the sum over Y
    monkeypatch.setattr(sdg, "DRAW_BUDGET", 2 * 8 * 500)
    assert sdg._pool_greedy(sdg._consumer_hits(pool, 500, s), 9, 500, 4) == consumers
    chunked_hits = sdg._provider_hits(pool, 500, Y, inst.bipartite)
    assert np.allclose(chunked_hits(0, 9), provider_hits(0, 9), rtol=0.0, atol=1e-12)
    assert sdg._pool_greedy(chunked_hits, 9, 500, 4) == providers


def test_pool_estimate_of_sigma_matches_exact_sigma():
    # sigma(X, Y) = m * E_k[1 - prod over i in X of q_ik] on a pool
    samples = 4000
    for k in range(6):
        inst = gen_rank_r(5, 6, 2, social_edge_count=4 + k, seed=30 + k)
        pick = np.random.default_rng([k, 6])
        X = tuple(pick.choice(5, 1 + k % 3, replace=False).tolist())
        Y = tuple(sorted(pick.choice(6, 2 + k % 3, replace=False).tolist()))
        pool = reverse_reachable_pool(inst, samples, stream(k, "sigma-check"))
        hits = sdg._provider_hits(pool, samples, Y, inst.bipartite)(0, 5)
        values = 6.0 * (1.0 - np.prod(1.0 - hits[list(X)], axis=0))
        se = values.std(ddof=1) / math.sqrt(samples)
        want = exact_sigma(inst, X, Y)
        assert se > 0.0
        assert abs(values.mean() - want) <= 3.0 * se, (k, values.mean(), want, se)


def test_provider_phase_memory_is_bounded(monkeypatch):
    # 1,000 consumer rows of 20,000 runs, unpacked whole as floats, would
    # take 160 MB; the pool itself, drawn beforehand, is 7.2 MiB
    inst = gen_rank_r(20, 3000, 2, social_edge_count=2000, seed=3)
    samples = 20_000
    pool = reverse_reachable_pool(inst, samples, stream(0, "big-provider-pool"))
    monkeypatch.setattr(sdg, "reverse_reachable_pool", lambda *args: pool)
    Y = tuple(range(0, 3000, 3))
    tracemalloc.start()
    try:
        picks, _ = sdg._pool_pick(inst, 20, 6, samples, (0, "x", 0), sdg._provider_hits, Y, inst.bipartite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(picks)) == 6
    assert peak < 64 * 2**20


def test_sample_counts_follow_the_union_bounds():
    inst = gen_rank_r(4, 3, 1, social_edge_count=2, seed=3, budget_providers=2, budget_consumers=2)
    config = SdgConfig(epsilon=0.5, delta=0.01)
    half = config.delta / 2.0
    y_samples, x_samples = sdg._auto_samples(inst, config, 73)
    # the consumer pools: every consumer set of size b2, plus one, at each of 73 points
    assert y_samples == default_sample_count(delta=half / (73 * (math.comb(3, 2) + 1)))
    # the provider pools: every provider set of size b1, the optimum and the
    # final estimate, at each point
    assert x_samples == default_sample_count(delta=half / (73 * (math.comb(4, 2) + 2)))

    # the 10x8 rank-2 rung: all 120 provider sets of size 3, not 42 estimates
    rung = gen_rank_r(10, 8, 2, social_edge_count=10, seed=3)
    assert sdg._auto_samples(rung, config, 9035)[1] == default_sample_count(delta=half / (9035 * 122))

    # C(3000, 1500) is past the float range: half / C raises OverflowError
    with pytest.raises(OverflowError):
        half / math.comb(3000, 1500)

    def past_float_range(extra):
        log_terms = math.log(5) + math.log(math.comb(3000, 1500) + extra)
        return math.ceil((math.log(2.0 / half) + log_terms) / (2.0 * DEFAULT_MC_EPS**2))

    consumers = make_instance(np.full((1, 3000), 0.5), b1=1, b2=1500, lam=1)
    providers = make_instance(np.full((3000, 1), 0.5), b1=1500, b2=1, lam=1)
    # the other side has one set of size 1, plus two terms (providers) or one (consumers)
    one_side = default_sample_count(delta=half / (5 * 3)), default_sample_count(delta=half / (5 * 2))
    assert sdg._auto_samples(consumers, config, 5) == (past_float_range(1), one_side[0])
    assert sdg._auto_samples(providers, config, 5) == (one_side[1], past_float_range(2))
    assert 400_000 < past_float_range(1) <= past_float_range(2) < 500_000


def _recording(monkeypatch):
    """Record the stream path of every RR pool that solve draws, in order."""
    paths, pools = {}, []

    def recording_stream(*path):
        rng = stream(*path)
        paths[id(rng)] = (rng, path)
        return rng

    def recording_pool(instance, samples, rng):
        pools.append((paths[id(rng)][1], samples))
        return reverse_reachable_pool(instance, samples, rng)

    monkeypatch.setattr(sdg, "stream", recording_stream)
    monkeypatch.setattr(sdg, "reverse_reachable_pool", recording_pool)
    return pools


def test_samples_sets_the_pool_size_too(monkeypatch):
    inst = gen_rank_r(3, 4, 1, social_edge_count=3, factor_low=0.3, seed=8)
    pools = _recording(monkeypatch)
    sol, report = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50))
    distinct = len({tuple(row["consumers"]) for row in report})
    # one consumer pool per net point and one provider pool per consumer set
    assert [path[1] for path, _ in pools].count("x") == distinct
    assert [samples for _, samples in pools] == [50] * (len(report) + distinct)
    assert sol.value.samples == FINAL_FACTOR * 50


def test_all_consumers_budget_draws_no_pool(monkeypatch):
    inst = gen_rank_r(3, 3, 1, social_edge_count=2, seed=3, budget_consumers=3)
    pools = _recording(monkeypatch)
    sol, report = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50))
    assert sol.consumers == (0, 1, 2)
    assert all(row["evaluations_y"] == 0 for row in report)
    # no consumer pool; the one consumer set still gets its provider pool
    assert [path for path, _ in pools] == [(0, "x", 0)]


def test_all_providers_budget_draws_no_provider_pool(monkeypatch):
    inst = gen_rank_r(3, 3, 1, social_edge_count=2, seed=3, budget_providers=3)
    pools = _recording(monkeypatch)
    sol, report = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50))
    assert sol.providers == (0, 1, 2)
    assert all(row["evaluations_x"] == 0 and row["providers"] == [0, 1, 2] for row in report)
    assert [path for path, _ in pools] == [(0, "pool", i) for i in range(len(report))]


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
    pools = _recording(monkeypatch)
    estimates = []

    def recording_estimate(instance, X, Y, samples, rng, stream_path=None):
        estimates.append(stream_path)
        return estimate_sigma(instance, X, Y, samples, rng, stream_path=stream_path)

    monkeypatch.setattr(sdg, "estimate_sigma", recording_estimate)
    sol, report = solve(inst, SdgConfig(epsilon=0.8, master_seed=seed))
    assert len(report) == 559
    first = {}
    for k, row in enumerate(report):
        first.setdefault(tuple(row["consumers"]), k)
    # one shared record per consumer set
    assert len(first) == len({id(row) for row in report}) >= 2
    for k, row in enumerate(report):
        assert row is report[first[tuple(row["consumers"])]]
        assert row["net_point_index"] <= k
        assert (row["net_point_index"] == k) == (first[tuple(row["consumers"])] == k)
        # b1 = 1 of n = 4 providers: one greedy step over all four
        assert row["evaluations_x"] == 4
    # one provider pool per consumer set, on (seed, "x", i) with i the first
    # point that picked it, right after that point's consumer pool
    starts = sorted(first.values())
    want = []
    for k in range(len(report)):
        want.append((seed, "pool", k))
        if k in starts:
            want.append((seed, "x", k))
    assert [path for path, _ in pools] == want
    # the forward estimator scores pairs only: one per consumer set, then the winner
    assert estimates == [(seed, "final", k) for k in starts] + [(seed, "report")]
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
