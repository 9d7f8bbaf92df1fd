import math
import tracemalloc

import numpy as np
import pytest

from amphimax.diffusion import exact_sigma
from amphimax.generators import gen_rank_r
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
