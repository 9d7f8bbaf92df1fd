import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from amphimax import diffusion, sdg
from amphimax.diffusion import (
    DEFAULT_MC_EPS,
    DRAW_BUDGET,
    SpreadEstimate,
    default_sample_count,
    estimate_sigma,
    exact_sigma,
    reverse_reachable_pool,
)
from amphimax.generators import gen_from_params, gen_rank_r
from amphimax.greedy import greedy_max
from amphimax.instance import AimInstance, InstanceValidationError, dump_json
from amphimax.net import NetSizeError, build_net, prune_net
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
    # one row per built point; the searched ones are the points prune_net keeps
    searched = [i for i, row in enumerate(report) if not row["pruned"]]
    assert searched == prune_net(net, inst.bipartite, b1, inst.bit_precision).tolist()
    assert 0 < len(searched) < len(report)
    for i in searched:
        row = report[i]
        assert set(row) == {
            "net_point_index", "pruned", "providers", "consumers", "value",
            "std_error", "evaluations_y", "evaluations_x",
        }
        assert len(row["providers"]) == b1 and len(row["consumers"]) == b2
        assert row["evaluations_y"] <= m * b2 + m + 1
        assert row["evaluations_x"] <= n * b1 + n + 1
    pruned = [row for row in report if row["pruned"]]
    assert pruned[0] == {
        "net_point_index": None, "pruned": True, "providers": [], "consumers": [],
        "value": None, "std_error": None, "evaluations_y": 0, "evaluations_x": 0,
    }
    assert sol.net_point_index == max(searched, key=lambda i: (report[i]["value"], -i))
    assert sol.value.samples == FINAL_FACTOR * 60 and sol.value.stream_path == (5, "report")
    assert sol.rank == 1


def test_pruned_rows_are_one_shared_record():
    # the 4x3 rank-2 rung: 559 rows, of which 532 are pruned points; one dict
    # for all of them keeps a report's memory at one row per searched point
    inst = gen_rank_r(4, 3, 2, social_edge_count=2, seed=3)
    _, report = solve(inst, SdgConfig(epsilon=0.8, samples_per_eval=40))
    pruned = [row for row in report if row["pruned"]]
    assert (len(report), len(pruned)) == (559, 532)
    assert len({id(row) for row in pruned}) == 1
    assert pruned[0]["net_point_index"] is None and pruned[0]["value"] is None


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
    """sigma(X, Y) on the pool, computed from scratch for each X.

    Each run's product takes its factors in sorted order, so two providers
    with equal rows give X equal values wherever their indices sort.
    """
    keep = _pool_keep(pool, samples, Y, M)
    m = pool.shape[0]

    def oracle(X):
        return SpreadEstimate(m * float(np.mean(1.0 - np.sort(keep[list(X)], axis=0).prod(axis=0))), 0.0, samples)

    return oracle


def _recording_greedy(monkeypatch):
    """Record every _pool_greedy call as (rows, scale, parts): parts lists every index the greedy read.

    A slice is recorded as the tuple (start, stop) and an index array as the list of its indices.
    """
    calls = []
    greedy = sdg._pool_greedy

    def recording(rows, scale, samples, budget):
        parts = []
        calls.append((rows, scale, parts))

        def recorded(index):
            parts.append((index.start, index.stop) if isinstance(index, slice) else index.tolist())
            return rows(index)

        return greedy(recorded, scale, samples, budget)

    monkeypatch.setattr(sdg, "_pool_greedy", recording)
    return calls


def test_pool_greedy_matches_greedy_max_on_the_same_pool(monkeypatch):
    calls = _recording_greedy(monkeypatch)
    for k in range(12):
        budget = 1 + k % 8  # greedy_max returns the whole ground set at 9
        inst = gen_rank_r(2, 9, 1, social_edge_count=6 + k, seed=40 + k, budget_consumers=budget)
        pick = np.random.default_rng([k, 3])
        s = 0.05 + pick.random(9)
        # ties: two zero coordinates, and a copy of consumer 1's RR row and
        # s in consumer 6, so that greedy_max must break them the same way
        s[[2, 7]] = 0.0
        s[6] = s[1]
        samples = 64 * (k + 1) + k
        pool = reverse_reachable_pool(inst, samples, (k, "greedy-check"), k, 1)
        pool[6] = pool[1]
        monkeypatch.setattr(sdg, "reverse_reachable_pool", lambda *args: pool)
        [picks], evaluations = sdg._consumer_picks(inst, samples, (k, "greedy-check"), k, s[None])
        rows, scale, _ = calls[-1]
        assert rows(slice(None)).dtype == np.uint8
        assert np.array_equal(rows(slice(None))[:, 0], np.unpackbits(pool, axis=1, count=samples))
        assert np.array_equal(scale[:, 0], -np.expm1(-s))
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
        inst = make_instance(M, base.social_edges, b1=budget, lam=base.bit_precision)
        Y = tuple(sorted(np.random.default_rng([k, 4]).choice(7, 1 + k % 5, replace=False).tolist()))
        pool = reverse_reachable_pool(inst, samples, (k, "provider-check"), k, 1)
        monkeypatch.setattr(sdg, "reverse_reachable_pool", lambda *args: pool)
        picks, evaluations = sdg._provider_picks(inst, samples, (k, "provider-check"), k, Y)
        want, _ = greedy_max(_provider_oracle(pool, samples, Y, M), range(9), budget)
        assert picks == want, k
        assert evaluations == sum(9 - t for t in range(budget))
        rows, scale, _ = calls[-1]
        assert np.allclose(rows(slice(None))[:, 0], 1.0 - _pool_keep(pool, samples, Y, M), rtol=0.0, atol=1e-12)
        assert np.array_equal(scale, np.ones((9, 1)))


def test_pool_greedy_gains_in_row_chunks(monkeypatch):
    inst = gen_rank_r(9, 9, 1, social_edge_count=12, seed=4, budget_providers=4, budget_consumers=4)
    s = np.linspace(0.1, 1.7, 9)
    Y = (0, 2, 3, 5, 8)
    pool = reverse_reachable_pool(inst, 500, (0, "chunks"), 0, 1)
    monkeypatch.setattr(sdg, "reverse_reachable_pool", lambda *args: pool)
    calls = _recording_greedy(monkeypatch)

    def phases():
        return sdg._consumer_picks(inst, 500, (0, "pool"), 0, s[None]), sdg._provider_picks(inst, 500, (0, "x"), 0, Y)

    whole = phases()
    # 2 rows of 500 floats per chunk, in the gains and in the sum over Y
    monkeypatch.setattr(diffusion, "DRAW_BUDGET", 2 * 8 * 500)
    assert phases() == whole
    (chunked, ones, _), (whole_hits, _, _) = calls[3], calls[1]
    assert np.allclose(chunked(slice(None)), whole_hits(slice(None)), rtol=0.0, atol=1e-12)
    assert np.array_equal(ones, np.ones((9, 1)))
    ([consumers], _), (providers, _) = whole
    for (_, _, parts), picks in zip(calls[2:], (consumers, providers)):
        # every step reads its gains in chunks of 2 rows, and every step but
        # the last reads the hits of its pick alone
        gains = [(start, min(start + 2, 9)) for start in range(0, 9, 2)]
        assert parts == [part for pick in picks[:3] for part in gains + [[pick]]] + gains


def test_pool_estimate_of_sigma_matches_exact_sigma(monkeypatch):
    # sigma(X, Y) = m * E_k[1 - prod over i in X of q_ik] on a pool
    samples = 4000
    calls = _recording_greedy(monkeypatch)
    for k in range(6):
        inst = gen_rank_r(5, 6, 2, social_edge_count=4 + k, seed=30 + k)
        pick = np.random.default_rng([k, 6])
        X = tuple(pick.choice(5, 1 + k % 3, replace=False).tolist())
        Y = tuple(sorted(pick.choice(6, 2 + k % 3, replace=False).tolist()))
        sdg._provider_picks(inst, samples, (k, "sigma-check"), 0, Y)
        hits = calls[-1][0](slice(None))[:, 0]
        values = 6.0 * (1.0 - np.prod(1.0 - hits[list(X)], axis=0))
        se = values.std(ddof=1) / math.sqrt(samples)
        want = exact_sigma(inst, X, Y)
        assert se > 0.0
        assert abs(values.mean() - want) <= 3.0 * se, (k, values.mean(), want, se)


def test_provider_phase_memory_is_bounded(monkeypatch):
    # 1,000 consumer rows of 20,000 runs, unpacked whole as floats, would
    # take 160 MB; the pool itself, drawn beforehand, is 7.2 MiB
    inst = gen_rank_r(20, 3000, 2, social_edge_count=2000, seed=3, budget_providers=6)
    samples = 20_000
    pool = reverse_reachable_pool(inst, samples, (0, "big-provider-pool"), 0, 1)
    monkeypatch.setattr(sdg, "reverse_reachable_pool", lambda *args: pool)
    Y = tuple(range(0, 3000, 3))
    tracemalloc.start()
    try:
        picks, _ = sdg._provider_picks(inst, samples, (0, "x"), 0, Y)
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
    """Record every batch of RR pools that solve draws, in order: ((*key, i) of each pool i, pool size)."""
    draws = []

    def recording_pool(instance, samples, key, first, count):
        draws.append(([(*key, i) for i in range(first, first + count)], samples))
        return reverse_reachable_pool(instance, samples, key, first, count)

    monkeypatch.setattr(sdg, "reverse_reachable_pool", recording_pool)
    return draws


def _pools(draws):
    """The (*key, i) address of every pool drawn, in order."""
    return [path for batch, _ in draws for path in batch]


def test_samples_sets_the_pool_size_too(monkeypatch):
    inst = gen_rank_r(3, 4, 1, social_edge_count=3, factor_low=0.3, seed=8)
    draws = _recording(monkeypatch)
    sol, report = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50))
    searched = [row for row in report if not row["pruned"]]
    distinct = len({tuple(row["consumers"]) for row in searched})
    # one consumer pool per searched net point and one provider pool per
    # consumer set, all of the given size
    pools = _pools(draws)
    assert [path for path in pools if path[1] == "pool"] == [(0, "pool", j) for j in range(len(searched))]
    assert [path[1] for path in pools].count("x") == distinct
    assert len(pools) == len(searched) + distinct
    assert {samples for _, samples in draws} == {50}
    assert sol.value.samples == FINAL_FACTOR * 50


def test_all_consumers_budget_draws_no_pool(monkeypatch):
    inst = gen_rank_r(3, 3, 1, social_edge_count=2, seed=3, budget_consumers=3)
    draws = _recording(monkeypatch)
    sol, report = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50))
    assert sol.consumers == (0, 1, 2)
    assert all(row["evaluations_y"] == 0 for row in report)
    # no consumer pool; the one consumer set still gets its provider pool, at
    # the first searched point
    first = next(i for i, row in enumerate(report) if not row["pruned"])
    assert draws == [([(0, "x", first)], 50)]


def test_all_providers_budget_draws_no_provider_pool(monkeypatch):
    inst = gen_rank_r(3, 3, 1, social_edge_count=2, seed=3, budget_providers=3)
    draws = _recording(monkeypatch)
    sol, report = solve(inst, SdgConfig(epsilon=0.7, samples_per_eval=50))
    assert sol.providers == (0, 1, 2)
    searched = [row for row in report if not row["pruned"]]
    assert all(row["evaluations_x"] == 0 and row["providers"] == [0, 1, 2] for row in searched)
    assert _pools(draws) == [(0, "pool", j) for j in range(len(searched))]


def _per_point_consumers(inst, config, samples):
    """Sorted consumer picks at every searched net point, each from its own pool and greedy."""
    net = build_net(inst.bipartite, numerical_rank(inst.bipartite), config.epsilon, inst.bit_precision)
    kept = prune_net(net, inst.bipartite, inst.budget_providers, inst.bit_precision)
    picks = []
    for j, s in enumerate(net.points[kept]):
        [chosen], _ = sdg._consumer_picks(inst, samples, (config.master_seed, "pool"), j, s[None])
        picks.append(sorted(chosen))
    return picks


def test_batched_consumer_phase_picks_what_each_point_picks(monkeypatch):
    base = gen_rank_r(4, 5, 1, social_edge_count=7, seed=70)
    cases = {
        "random edges": (base.social_edges, 1),
        "certain edges": (((0, 1, 1.0), (1, 2, 1.0), (3, 2, 0.4), (2, 4, 1.0)), 1),
        "no edges": ((), 1),
        "b2 > 1": (base.social_edges, 3),
        "b2 = m": (base.social_edges, 5),
    }
    for name, (edges, b2) in cases.items():
        inst = make_instance(base.bipartite, edges, b2=b2, lam=base.bit_precision)
        config = SdgConfig(epsilon=0.6, samples_per_eval=100, master_seed=len(name))
        want = _per_point_consumers(inst, config, 100)
        calls = _recording_greedy(monkeypatch)
        # the smallest budget that gives each batch size
        budgets = {}
        for k in range(41):
            monkeypatch.setattr(sdg, "POOL_BUDGET", 1 << k)
            budgets.setdefault(sdg._pool_batch(inst, 100), 1 << k)
        assert min(budgets) == 1 and max(budgets) >= len(want)
        # one point per batch, a last batch cut short inside the net, one batch
        # for the net, and that last batch size with gains in chunks of 2 rows
        inside = min(size for size in budgets if 1 < size < len(want) and len(want) % size)
        for size, rows in ((1, None), (inside, None), (max(budgets), None), (inside, 2)):
            monkeypatch.setattr(sdg, "POOL_BUDGET", budgets[size])
            monkeypatch.setattr(diffusion, "DRAW_BUDGET", rows * 8 * size * 100 if rows else DRAW_BUDGET)
            calls.clear()
            _, report = solve(inst, config)
            searched = [row for row in report if not row["pruned"]]
            assert [row["consumers"] for row in searched] == want, (name, size)
            # the consumer greedy runs over 5 consumer rows, the provider greedy over 4 providers
            parts = [part for _, scale, reads in calls if scale.shape[0] == 5 for part in reads]
            # the gains went in chunks of 2 rows exactly when asked to
            assert ((0, 2) in parts) == (rows is not None and b2 < 5), (name, size)
            assert {row["evaluations_y"] for row in searched} == {sum(5 - t for t in range(b2)) if b2 < 5 else 0}
        monkeypatch.undo()


def test_batched_solve_memory_is_bounded():
    # the 4x3 rank-2 rung: 559 net points, drawn and searched in batches
    # under POOL_BUDGET (one point at a time peaked at 0.29 MiB)
    inst = gen_rank_r(4, 3, 2, social_edge_count=2, seed=3)
    tracemalloc.start()
    try:
        _, report = solve(inst, SdgConfig(epsilon=0.8, master_seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report) == 559
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("m, edges, samples", [(3, 2, 2740), (3, 2, 300), (20, 40, 1000), (60, 100, 300)])
def test_one_batch_of_pools_stays_in_the_pool_budget(m, edges, samples):
    # the draw and the greedy of one batch of the size _pool_batch picks stay
    # under POOL_BUDGET plus one chunk of raw words, a single pool's window
    inst = gen_rank_r(4, m, 2, social_edge_count=edges, seed=3, budget_consumers=2)
    batch = sdg._pool_batch(inst, samples)
    assert batch > 1
    points = np.random.default_rng(m).random((batch, m))
    chunk = 8 * diffusion._window(inst, samples)
    diffusion._reversed_edges(inst)  # cached arrays are not the batch's
    tracemalloc.start()
    try:
        picks, _ = sdg._consumer_picks(inst, samples, (0, "pool"), 0, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(picks) == batch
    assert peak < sdg.POOL_BUDGET + chunk


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
    draws = _recording(monkeypatch)
    estimates = []

    def recording_estimate(instance, X, Y, samples, rng, stream_path=None):
        estimates.append(stream_path)
        return estimate_sigma(instance, X, Y, samples, rng, stream_path=stream_path)

    monkeypatch.setattr(sdg, "estimate_sigma", recording_estimate)
    sol, report = solve(inst, SdgConfig(epsilon=0.8, master_seed=seed))
    assert len(report) == 559
    searched = [k for k, row in enumerate(report) if not row["pruned"]]
    first = {}
    for k in searched:
        first.setdefault(tuple(report[k]["consumers"]), k)
    # one shared record per consumer set, and one for every pruned point
    assert len(first) + 1 == len({id(row) for row in report}) >= 3
    for k in searched:
        row = report[k]
        assert row is report[first[tuple(row["consumers"])]]
        assert row["net_point_index"] <= k
        assert (row["net_point_index"] == k) == (first[tuple(row["consumers"])] == k)
        # b1 = 1 of n = 4 providers: one greedy step over all four
        assert row["evaluations_x"] == 4
    # the consumer pools of every searched point, in order, in batches of the
    # size _pool_batch gives; one provider pool per consumer set, on
    # (seed, "x", i) with i the first point that picked it, drawn after the
    # batch that holds that point's consumer pool
    starts = sorted(first.values())
    consumers = [paths for paths, _ in draws if paths[0][1] == "pool"]
    count = len(searched)
    size = sdg._pool_batch(inst, sdg._auto_samples(inst, SdgConfig(epsilon=0.8), count)[0])
    assert 1 < size < count
    assert [len(paths) for paths in consumers] == [min(size, count - j) for j in range(0, count, size)]
    assert [path for paths in consumers for path in paths] == [(seed, "pool", j) for j in range(count)]
    assert [paths for paths, _ in draws if paths[0][1] == "x"] == [[(seed, "x", k)] for k in starts]
    drawn = _pools(draws)
    assert all(drawn.index((seed, "x", k)) > drawn.index((seed, "pool", searched.index(k))) for k in starts)
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


# SHA-256 of dump_json over a solve's sets, value, net point and report, by
# (instance, master seed); the same bytes whatever size the chunks have
GOLDEN_INSTANCES = {
    "4x3r1": (lambda: gen_rank_r(4, 3, 1, social_edge_count=2, seed=3), 0.5),
    "4x3r2": (lambda: gen_rank_r(4, 3, 2, social_edge_count=2, seed=3), 0.8),
    "6x5r1": (lambda: gen_rank_r(6, 5, 1, social_edge_count=6, seed=3), 0.6),
    "classic_im": (lambda: gen_from_params("classic_im", {"m": 50, "edge_count": 150, "b2": 3}, 3)[0], 1.0),
    "10x8r2": (lambda: gen_rank_r(10, 8, 2, social_edge_count=10, seed=3), 0.7),
    "9x12r2b4": (lambda: gen_rank_r(9, 12, 2, social_edge_count=20, seed=5, budget_consumers=4), 0.6),
}
GOLDEN_DIGESTS = {
    ("4x3r1", 0): "71f2728fe4e844ba39c57ad4ca4bd3a377ef128e131f69e7804629d976f768ca",
    ("4x3r1", 1): "438f345d301b46fdf0ef565ef75d6ed4a369beb4c12472e50c2850cda25c3a52",
    ("4x3r2", 0): "df273b075867d3382dabdfe7103259bbb25296f8aa972728f11328151a6888fe",
    ("4x3r2", 1): "69cd883fb7f25ee680db35a204015746e37f9627c0d4d6456aa66c7f5b95e739",
    ("6x5r1", 0): "836ecf0f0c2f8d7939a8eae3adb9ac2e36f50ca38904ebb30c5b5bc4e973e336",
    ("6x5r1", 1): "f395b0734c4fdddaf492f0272f991a00fd4741da1a73ea450a8ea249ce6f2bfe",
    ("classic_im", 0): "eefbcf9ebab3efa6b05cb06aa867c1631de56d00d574c20cc72c5706384a04d1",
    ("classic_im", 1): "52d95eeb00ca8f7a0bd2a69a263a03332008b860cf6f86e0267cf323885d2495",
    ("10x8r2", 0): "a5dd3597c60e3e50032c74d5f35904d2a59f0efe802574d728e7b9f74cb5abab",
    ("10x8r2", 1): "a95dc37d883a7ef68c8bc766c838a5d356f245d5108cc33a74675c0d45173458",
    ("9x12r2b4", 0): "4fc4a292ad14e0d242bae1248a3cdef90cce6d4435a64e88f04c86bf549be47f",
    ("9x12r2b4", 1): "88bec7d67868c484207d751fff6840cf2f740fbb4c5a6de183926ccb9e95f53c",
}


@pytest.mark.parametrize("draw_budget", [DRAW_BUDGET, 8 * 1024])
@pytest.mark.parametrize("name, seed", sorted(GOLDEN_DIGESTS))
def test_solve_writes_the_golden_bytes(monkeypatch, name, seed, draw_budget):
    # 8 KiB holds less than one float row of the 1,060 runs an auto-sized
    # pool has at the least, so every greedy reads its gains a row at a time
    make, epsilon = GOLDEN_INSTANCES[name]
    monkeypatch.setattr(diffusion, "DRAW_BUDGET", draw_budget)
    calls = _recording_greedy(monkeypatch)
    sol, report = solve(make(), SdgConfig(epsilon=epsilon, master_seed=seed))
    v = sol.value
    doc = {
        "providers": sol.providers,
        "consumers": sol.consumers,
        "value": [v.mean, v.std_error, v.samples, v.stream_path],
        "net_point_index": sol.net_point_index,
        "report": report,
    }
    assert hashlib.sha256(dump_json(doc).encode()).hexdigest() == GOLDEN_DIGESTS[name, seed]
    widths = {part[1] - part[0] for _, _, parts in calls for part in parts if isinstance(part, tuple)}
    assert calls and (widths == {1}) == (draw_budget < DRAW_BUDGET)
