import math
import re

import numpy as np
import pytest

from amphimax.diffusion import exact_sigma
from amphimax.generators import gen_rank_r
from amphimax.relaxation import indicator, initial_activation, net_relaxation
from reference import concave_relaxation

E_COMPLEMENT = 1.0 - 1.0 / math.e


def reference_activation(x, y, M):
    # independent per-provider coin misses, written out longhand
    n, m = M.shape
    out = np.zeros(m)
    for j in range(m):
        miss = 1.0
        for i in range(n):
            if x[i]:
                miss *= 1.0 - M[i][j]
        out[j] = y[j] * (1.0 - miss)
    return out


def test_indicator():
    assert np.array_equal(indicator((0, 2), 4), [1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(indicator((), 3), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="out of range"):
        indicator((3,), 3)


def test_indicator_refuses_indices_it_would_truncate():
    for bad in (1.7, True, np.bool_(True), "1", float("nan"), np.float64(0.5)):
        with pytest.raises(ValueError, match=re.escape(f"index {bad!r} is not a whole number")):
            indicator([bad], 3)
    assert indicator([np.int64(1), np.uint8(0), 2.0], 3).tolist() == [1.0, 1.0, 1.0]
    # before, this read X = [1], Y = [0, 2] and returned that pair's sigma
    inst = gen_rank_r(4, 3, 1, social_edge_count=2, seed=3)
    with pytest.raises(ValueError, match="index 1.7 is not a whole number"):
        exact_sigma(inst, [1.7], [0, 2.9])


def test_activation_two_halves_example():
    # two providers at 0.5 each on one chosen consumer: 1 - 0.25
    M = np.array([[0.5], [0.5]])
    f = initial_activation([1.0, 1.0], [1.0], M)
    assert abs(f[0] - 0.75) < 1e-15


def test_activation_empty_and_unchosen():
    M = np.array([[0.5, 0.9], [0.25, 0.1]])
    assert np.array_equal(initial_activation([0.0, 0.0], [1.0, 1.0], M), [0.0, 0.0])
    f = initial_activation([1.0, 1.0], [0.0, 1.0], M)
    assert f[0] == 0.0 and f[1] > 0.0


def test_activation_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, m = rng.integers(1, 7), rng.integers(1, 7)
        M = rng.random((n, m))
        x = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(m) < 0.5).astype(float)
        got = initial_activation(x, y, M)
        assert np.abs(got - reference_activation(x, y, M)).max() < 1e-12


def test_activation_fractional_x_follows_its_formula():
    # y_j * (1 - prod_i (1 - x_i M_ij)): a half-chosen certain provider gives 0.5
    assert initial_activation([0.5], [1.0], [[1.0]])[0] == 0.5
    rng = np.random.default_rng(8)
    M = rng.random((3, 4))
    x = np.array([0.25, 0.0, 0.7])
    y = np.array([1.0, 0.0, 1.0, 1.0])
    want = y * (1.0 - np.array([math.prod(1.0 - x[i] * M[i, j] for i in range(3)) for j in range(4)]))
    assert np.abs(initial_activation(x, y, M) - want).max() < 1e-15


def test_activation_on_0_1_vectors_is_the_product_over_chosen_rows():
    # bit for bit what the solver's estimates were computed with: a product
    # over the chosen rows only
    rng = np.random.default_rng(12)
    for _ in range(500):
        n, m = rng.integers(1, 9), rng.integers(1, 9)
        M = rng.random((n, m)) * (rng.random((n, m)) < 0.8)
        M[rng.random((n, m)) < 0.1] = 1.0
        x = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(m) < 0.5).astype(float)
        want = y * (1.0 - np.prod(1.0 - M[np.flatnonzero(x)], axis=0))
        assert np.array_equal(initial_activation(x, y, M), want)


def test_activation_monte_carlo_cross_check():
    rng = np.random.default_rng(17)
    M = rng.random((3, 4)) * 0.8
    x = np.array([1.0, 0.0, 1.0])
    y = np.array([1.0, 1.0, 0.0, 1.0])
    f = initial_activation(x, y, M)
    trials = 40000
    coins = rng.random((trials, 3, 4)) < M
    landed = (coins & (x[:, None] > 0)).any(axis=1) & (y > 0)
    freq = landed.mean(axis=0)
    se = np.sqrt(f * (1 - f) / trials)
    assert np.all(np.abs(freq - f) <= 4 * se + 1e-9)


def test_concave_relaxation_unit_sum_example():
    # column sums to 1: F = 1 - e^{-1}
    M = np.array([[0.5], [0.5]])
    F = concave_relaxation([1.0, 1.0], [1.0], M)
    assert abs(F[0] - (1.0 - math.exp(-1.0))) < 1e-15


def test_sandwich_on_the_frozen_example():
    M = np.array([[0.5], [0.5]])
    f = initial_activation([1.0, 1.0], [1.0], M)[0]
    F = concave_relaxation([1.0, 1.0], [1.0], M)[0]
    assert abs(f - 0.75) < 1e-15
    assert abs(F - 0.6321205588285577) < 1e-15
    assert E_COMPLEMENT * f <= F <= f
    assert abs(E_COMPLEMENT * f - 0.4740904191214183) < 1e-12


def test_sandwich_random_sweep():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n, m = rng.integers(1, 21), rng.integers(1, 21)
        M = rng.random((n, m))
        x = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(m) < 0.5).astype(float)
        f = initial_activation(x, y, M)
        F = concave_relaxation(x, y, M)
        assert np.all(E_COMPLEMENT * f <= F + 1e-12)
        assert np.all(F <= f + 1e-12)


def test_net_relaxation_values():
    y = np.array([1.0, 1.0, 0.0])
    got = net_relaxation([0.0, 1.0, 1.0], y)
    assert got[0] == 0.0
    assert abs(got[1] - (1.0 - math.exp(-1.0))) < 1e-15
    assert got[2] == 0.0  # y masks the coordinate


def test_net_relaxation_agrees_with_concave_form():
    rng = np.random.default_rng(23)
    for _ in range(30):
        M = rng.random((4, 5))
        x = (rng.random(4) < 0.5).astype(float)
        y = (rng.random(5) < 0.5).astype(float)
        s = x @ M
        assert np.abs(net_relaxation(s, y) - concave_relaxation(x, y, M)).max() < 1e-12


def test_net_relaxation_negative_handling():
    y = np.ones(2)
    # tiny negatives are solver noise and clamp to zero
    assert net_relaxation([-1e-10, 0.5], y)[0] == 0.0
    with pytest.raises(ValueError, match="negative coordinate at 0"):
        net_relaxation([-1e-6, 0.5], y)


def test_activation_monotone_and_submodular_in_x():
    # exhaustive over subsets at n <= 4: growing the provider set never hurts
    # and marginal gains shrink as the base set grows
    rng = np.random.default_rng(31)
    for _ in range(10):
        n, m = 4, 3
        M = rng.random((n, m))
        y = np.ones(m)
        vals = {}
        for mask in range(1 << n):
            x = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
            vals[mask] = initial_activation(x, y, M)
        for a in range(1 << n):
            for b in range(1 << n):
                if a & b == a and a != b:
                    assert np.all(vals[a] <= vals[b] + 1e-12)
        for a in range(1 << n):
            for b in range(1 << n):
                if a & b != a:
                    continue
                for i in range(n):
                    if (b >> i) & 1:
                        continue
                    gain_small = vals[a | (1 << i)] - vals[a]
                    gain_large = vals[b | (1 << i)] - vals[b]
                    assert np.all(gain_small >= gain_large - 1e-12)


def test_length_validation():
    M = np.zeros((2, 3))
    with pytest.raises(ValueError, match="x has length"):
        initial_activation([1.0], [1.0, 0.0, 0.0], M)
    with pytest.raises(ValueError, match="y has length"):
        net_relaxation([0.0, 0.0, 0.0], [1.0])
