import hashlib
import itertools
import math

import numpy as np
import pytest

from amphimax._rng import stream
from amphimax.diffusion import exact_sigma
from amphimax.generators import (
    gen_classic_im,
    gen_from_params,
    gen_planted_biclique,
    gen_rank_r,
    gen_three_layer,
    random_digraph,
)
from amphimax.instance import (
    EDGE_DTYPE,
    InstanceFormatError,
    InstanceValidationError,
    numerical_rank,
    parse_instance,
    serialize_instance,
    validate,
)


def test_rank_r_rank_property_across_seeds():
    for r in (1, 2, 3):
        for seed in range(50):
            inst = gen_rank_r(6, 8, r, seed=seed)
            assert len(numerical_rank(inst.bipartite)) == r
            assert validate(inst) == []


def test_rank_r_is_seed_deterministic():
    a = gen_rank_r(5, 7, 2, social_edge_count=6, seed=123)
    b = gen_rank_r(5, 7, 2, social_edge_count=6, seed=123)
    assert a == b
    assert a != gen_rank_r(5, 7, 2, social_edge_count=6, seed=124)


def test_rank_r_social_edge_probabilities():
    inst = gen_rank_r(4, 9, 1, social_edge_count=20, seed=5)
    assert len(inst.social_edges) == 20
    assert len({(u, w) for u, w, _ in inst.social_edges}) == 20
    for u, w, p in inst.social_edges:
        assert u != w and 0.0 < p <= 0.5


def test_rank_r_entries_never_clamp():
    for seed in range(10):
        inst = gen_rank_r(8, 8, 3, seed=seed)
        assert inst.bipartite.max() <= 1.0
        assert inst.bipartite.min() >= 0.0


def test_rank_r_sparsification_keeps_rank_bound():
    inst = gen_rank_r(8, 6, 2, edge_prob=0.6, factor_low=0.4, bit_precision=4, seed=2)
    assert len(numerical_rank(inst.bipartite)) <= 2
    assert validate(inst) == []


def test_rank_r_parameter_validation():
    with pytest.raises(ValueError, match="rank"):
        gen_rank_r(3, 3, 4)
    with pytest.raises(ValueError, match="factor_low"):
        gen_rank_r(3, 3, 1, factor_low=1.0)
    # seed 1 yields a minimum entry near 0.004, far below a 2^-4 floor
    with pytest.raises(ValueError, match="bit_precision 4 too coarse"):
        gen_rank_r(3, 3, 1, bit_precision=4, seed=1)
    # the bound of validate: 1020 at 4 providers
    assert gen_rank_r(4, 3, 1, bit_precision=1020, seed=3).bit_precision == 1020
    for lam in (1021, 5000):
        with pytest.raises(InstanceValidationError, match=rf"^invalid instance: bit_precision {lam} exceeds 1020: .* 2\^1023$"):
            gen_rank_r(4, 3, 1, bit_precision=lam, seed=3)
    # lambda is converted by the constructor's rule before the coarseness check
    for lam in (np.int64(8), 8.0):
        inst = gen_rank_r(4, 3, 1, social_edge_count=2, seed=3, bit_precision=lam)
        assert type(inst.bit_precision) is int
        assert inst == gen_rank_r(4, 3, 1, social_edge_count=2, seed=3, bit_precision=8)
    with pytest.raises(InstanceFormatError, match=r"^bit_precision must be an integer, got 8\.5$"):
        gen_rank_r(4, 3, 1, social_edge_count=2, seed=3, bit_precision=8.5)
    for edge_prob in (-0.5, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"edge_prob must lie in \[0,1\]"):
            gen_rank_r(3, 3, 1, edge_prob=edge_prob)
    # at both ends of the range: every entry of A dropped, or none
    assert not gen_rank_r(3, 3, 1, edge_prob=0.0).bipartite.any()
    assert gen_rank_r(3, 3, 1, edge_prob=1.0, seed=2) == gen_rank_r(3, 3, 1, seed=2)


def loop_random_digraph(m, edge_count, rng):
    """Reference: the per-edge loop random_digraph replaced, same draws."""
    if edge_count == 0:
        return ()
    codes = rng.choice(m * (m - 1), size=edge_count, replace=False)
    probs = 0.5 * (1.0 - rng.random(edge_count))
    edges = []
    for code, p in zip(sorted(int(c) for c in codes), probs):
        u, rest = divmod(code, m - 1)
        w = rest + (rest >= u)
        edges.append((u, w, float(p)))
    return tuple(edges)


@pytest.mark.parametrize(
    "m, edge_count, seed", [(2, 0, 0), (2, 1, 1), (2, 2, 2), (5, 20, 3), (9, 17, 4), (300, 5000, 5)]
)
def test_random_digraph_matches_loop_reference(m, edge_count, seed):
    got = random_digraph(m, edge_count, stream(seed, "t"))
    want = loop_random_digraph(m, edge_count, stream(seed, "t"))
    assert got.dtype == EDGE_DTYPE and got.tolist() == list(want)
    assert [tuple(map(type, e)) for e in got.tolist()] == [(int, int, float)] * edge_count


def test_random_digraph_impossible_count():
    with pytest.raises(ValueError, match="cannot place"):
        random_digraph(3, 7, stream(0, "t"))


def test_planted_closed_form_matches_exact_sigma():
    inst, planted = gen_planted_biclique(6, 4, seed=11)
    assert validate(inst) == []
    X, Y = planted[:2], planted[2:]
    want = 2.0 * (1.0 - (1.0 - 1.0 / 36.0) ** 2)
    assert abs(exact_sigma(inst, X, Y) - want) < 1e-12


def test_planted_structure():
    inst, planted = gen_planted_biclique(12, 6, seed=3)
    assert len(planted) == 6 and len(set(planted)) == 6
    M = inst.bipartite
    assert inst.social_edges.tolist() == []
    assert inst.budget_providers == inst.budget_consumers == 3
    # planted block fully connected off-diagonal at 1/n^2
    for u in planted:
        for v in planted:
            if u != v:
                assert M[u, v] == 1.0 / 144.0
    assert np.all(np.diag(M) == 0.0)
    # symmetric base graph
    assert np.array_equal(M, M.T)


def test_planted_k_equals_n_gives_complete_base_graph():
    inst, planted = gen_planted_biclique(6, 6, seed=0)
    M = inst.bipartite
    off = ~np.eye(6, dtype=bool)
    assert np.all(M[off] == 1.0 / 36.0)
    assert planted == tuple(range(6))


def test_planted_spread_bounded_by_consumer_budget():
    inst, planted = gen_planted_biclique(8, 4, seed=7)
    for Y in itertools.combinations(range(8), 2):
        assert exact_sigma(inst, planted[:2], Y) <= 2.0 + 1e-12


def test_planted_parity_validation():
    with pytest.raises(ValueError, match="even"):
        gen_planted_biclique(6, 3)
    with pytest.raises(ValueError, match="even"):
        gen_planted_biclique(4, 6)


def test_classic_im_shape_and_reduction():
    edges = ((0, 1, 0.5), (1, 2, 1.0), (3, 0, 0.25))
    inst = gen_classic_im(edges, 4, b2=2)
    assert validate(inst) == []
    assert inst.n_providers == 1 and inst.budget_providers == 1
    assert len(numerical_rank(inst.bipartite)) == 1
    assert np.all(inst.bipartite == 1.0)
    # with the single provider chosen, sigma is exactly the classic spread,
    # worked by hand over the two stochastic edges 0->1 and 3->0
    classic = {
        (0,): 2.0, (1,): 2.0, (2,): 1.0, (3,): 1.5, (0, 1): 3.0,
        (0, 2): 2.5, (0, 3): 3.0, (1, 2): 2.0, (1, 3): 3.25, (2, 3): 2.375,
    }
    for Y, want in classic.items():
        assert abs(exact_sigma(inst, (0,), Y) - want) < 1e-12


def test_three_layer_structure():
    inst = gen_three_layer(k=3, groups=2, bottom_per_group=2)
    assert validate(inst) == []
    assert inst.n_providers == 6 and inst.n_consumers == 6
    assert inst.budget_providers == 3 and inst.budget_consumers == 2
    M = inst.bipartite
    nz = M[M > 0]
    assert np.all(nz == 1.0 / 3.0)
    # bottom consumers take no provider edges, only probability-1 social ones
    middles = {0, 3}
    for j in range(6):
        if j not in middles:
            assert np.all(M[:, j] == 0.0)
    for u, w, p in inst.social_edges:
        assert u in middles and w not in middles and p == 1.0


def test_three_layer_activation_closed_form():
    k, bottoms = 3, 2
    inst = gen_three_layer(k=k, groups=2, bottom_per_group=bottoms)
    X = tuple(range(k))  # all providers of group 0
    Y = (0,)  # group 0's middle consumer
    p_mid = 1.0 - (1.0 - 1.0 / k) ** k
    want = p_mid * (1 + bottoms)
    assert abs(exact_sigma(inst, X, Y) - want) < 1e-12


def test_three_layer_validation():
    with pytest.raises(ValueError, match="layer sizes"):
        gen_three_layer(k=0, groups=1, bottom_per_group=1)


def test_gen_from_params_round_trips():
    inst, extras = gen_from_params("rank_r", {"n": 5, "m": 4, "r": 2, "social_edges": 3}, seed=9)
    assert extras == {}
    assert inst == gen_rank_r(5, 4, 2, social_edge_count=3, seed=9)

    inst, extras = gen_from_params("planted", {"n": 8, "k": 4}, seed=9)
    direct, planted = gen_planted_biclique(8, 4, seed=9)
    assert inst == direct and extras == {"planted": list(planted)}

    inst, extras = gen_from_params("classic_im", {"m": 6, "b2": 2, "edge_count": 5}, seed=9)
    assert inst.n_providers == 1 and len(inst.social_edges) == 5

    inst, extras = gen_from_params("three_layer", {"k": 2, "groups": 2, "bottom": 1}, seed=9)
    assert inst == gen_three_layer(k=2, groups=2, bottom_per_group=1)

    with pytest.raises(ValueError, match="unknown family"):
        gen_from_params("nope", {}, seed=0)
    # a misspelled key is refused, not dropped, and the accepted keys are named
    with pytest.raises(ValueError, match=r"unknown parameter 'edges' for family classic_im \(required: m, b2; optional: edge_count\)"):
        gen_from_params("classic_im", {"m": 5, "b2": 2, "edges": 4}, seed=0)
    with pytest.raises(ValueError, match="missing parameter 'm' for family rank_r"):
        gen_from_params("rank_r", {"n": 6}, seed=0)


def test_generators_validate_clean_across_families():
    cases = [
        gen_rank_r(7, 5, 3, social_edge_count=8, seed=1),
        gen_planted_biclique(10, 4, seed=1)[0],
        gen_classic_im(random_digraph(5, 6, stream(1, "g")), 5, 2),
        gen_three_layer(k=2, groups=3, bottom_per_group=1),
    ]
    for inst in cases:
        assert validate(inst) == []
        assert parse_instance(serialize_instance(inst)) == inst
        assert 2.0**-inst.bit_precision <= (
            inst.bipartite[inst.bipartite > 0].min() if (inst.bipartite > 0).any() else 1.0
        )


# SHA-256 of serialize_instance for the instances the benchmark workloads
# (the small_ladder rungs, classic_im, simulate_large) and CI's 10x8 rung
# generate: the generators draw from Philox streams whose words stay fixed,
# so these bytes hold whatever generator the solver draws from
PINNED_INSTANCES = {
    "4x3r1": (
        lambda: gen_rank_r(4, 3, 1, social_edge_count=2, seed=3),
        "f95c7aaec3dec8cb7e58aa07263f101e155ff86d66a25192861165c0970ae5a9",
    ),
    "4x3r2": (
        lambda: gen_rank_r(4, 3, 2, social_edge_count=2, seed=3),
        "0b9bfc859eedbba3842e14b6dd440b47dd43962488acc60e138d32f75ec06ade",
    ),
    "6x5r1": (
        lambda: gen_rank_r(6, 5, 1, social_edge_count=6, seed=3),
        "5f68175ff2c309de09d6e09c64512bfc931f828237f00c01f6120f15c0607015",
    ),
    "classic_im": (
        lambda: gen_from_params("classic_im", {"m": 50, "edge_count": 150, "b2": 3}, 3)[0],
        "55bcc4a6c46de5bdb6efdea446c7b62a40455cd92acd109d4f09a1ed7586a643",
    ),
    "20x3000r2": (
        lambda: gen_rank_r(20, 3000, 2, social_edge_count=20_000, seed=3),
        "915ddb8a4e5a10ec6f110d5f0e4c2d8ac95ba8d196820500a59e39848c3755b4",
    ),
    "10x8r2": (
        lambda: gen_from_params("rank_r", {"n": 10, "m": 8, "r": 2, "social_edges": 10}, 3)[0],
        "d36600a2e1cfd3ed04a7c23fe46b60d017ebc66ed0c0ca78c4d95093e76adc57",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_generated_instances_keep_their_bytes(name):
    make, digest = PINNED_INSTANCES[name]
    assert hashlib.sha256(serialize_instance(make()).encode()).hexdigest() == digest
