import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from amphimax._rng import stream
from amphimax.greedy import greedy_max


@dataclass(frozen=True)
class Value:
    mean: float


def exact_oracle(fn):
    return lambda S: Value(float(fn(frozenset(S))))


def plain_greedy(fn, ground, budget):
    """Reference: no laziness, full re-evaluation each round, lowest index wins ties."""
    chosen = []
    for _ in range(budget):
        best = None
        for e in ground:
            if e in chosen:
                continue
            val = fn(frozenset(chosen + [e]))
            if best is None or val > best[1] + 1e-15:
                best = (e, val)
        chosen.append(best[0])
    return chosen


def test_modular_objective_picks_top_k():
    weights = {0: 1.0, 1: 5.0, 2: 3.0, 3: 4.0, 4: 2.0}
    fn = lambda S: sum(weights[e] for e in S)
    picks, trace = greedy_max(exact_oracle(fn), range(5), 3)
    assert picks == [1, 3, 2]
    assert [e for e, _ in trace.picks] == [1, 3, 2]
    gains = [g for _, g in trace.picks]
    assert gains == [5.0, 4.0, 3.0]


def test_coverage_instance_reaches_opt():
    sets = {0: {"a", "b"}, 1: {"b", "c"}, 2: {"c"}}
    fn = lambda S: len(set().union(*(sets[e] for e in S))) if S else 0
    picks, _ = greedy_max(exact_oracle(fn), range(3), 2)
    covered = set().union(*(sets[e] for e in picks))
    assert len(covered) == 3  # OPT here, and >= (1-1/e)*OPT


def test_full_budget_shortcut():
    calls = []

    def fn(S):
        calls.append(S)
        return len(S)

    picks, trace = greedy_max(exact_oracle(fn), (3, 1, 2), 3)
    assert picks == [1, 2, 3]
    assert trace.evaluations == 0 and calls == []


def test_budget_validation():
    oracle = exact_oracle(len)
    with pytest.raises(ValueError, match="exceeds ground set"):
        greedy_max(oracle, range(3), 4)
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_max(oracle, range(3), -1)


def random_monotone_submodular(rng, ground_size):
    # weighted coverage: element -> random subset of a universe, item weights.
    # dyadic weights keep every subset sum exact, so the oracle is perfectly
    # self-consistent and ties are real ties
    universe = rng.integers(3, 9)
    weights = rng.integers(13, 128, size=universe) / 128.0
    covers = [np.flatnonzero(rng.random(universe) < 0.45) for _ in range(ground_size)]

    def fn(S):
        hit = set()
        for e in S:
            hit.update(int(u) for u in covers[e])
        return float(sum(weights[u] for u in hit))

    return fn


def test_matches_plain_greedy_with_exact_oracles():
    rng = np.random.default_rng(10)
    for trial in range(40):
        g = int(rng.integers(3, 10))
        k = int(rng.integers(1, g))  # keep below the full-budget shortcut
        fn = random_monotone_submodular(rng, g)
        lazy, _ = greedy_max(exact_oracle(fn), range(g), k)
        assert lazy == plain_greedy(fn, range(g), k)


def test_value_at_least_1_minus_1_over_e_of_opt():
    rng = np.random.default_rng(20)
    bound = 1.0 - 1.0 / math.e
    for trial in range(25):
        g = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(5, g)))
        fn = random_monotone_submodular(rng, g)
        picks, _ = greedy_max(exact_oracle(fn), range(g), k)
        opt = max(fn(frozenset(c)) for c in itertools.combinations(range(g), k))
        assert fn(frozenset(picks)) >= bound * opt - 1e-12


def test_tie_break_prefers_lowest_index():
    fn = lambda S: float(len(S))  # every element identical
    picks, _ = greedy_max(exact_oracle(fn), range(6), 3)
    assert picks == [0, 1, 2]


def test_oracle_call_bound():
    rng = np.random.default_rng(30)
    for trial in range(20):
        g = int(rng.integers(3, 12))
        k = int(rng.integers(1, g))
        fn = random_monotone_submodular(rng, g)
        _, trace = greedy_max(exact_oracle(fn), range(g), k)
        assert trace.evaluations <= g * k + g


def test_noisy_oracle_is_deterministic_per_stream():
    def make_oracle(seed):
        counter = itertools.count()

        def oracle(S):
            rng = stream(seed, "noise", next(counter))
            return Value(len(S) * 1.0 + rng.normal(0.0, 0.05))

        return oracle

    a = greedy_max(make_oracle(4), range(6), 2)
    b = greedy_max(make_oracle(4), range(6), 2)
    assert a[0] == b[0]
    assert a[1].picks == b[1].picks


def test_trace_shape():
    fn = random_monotone_submodular(np.random.default_rng(1), 7)
    picks, trace = greedy_max(exact_oracle(fn), range(7), 3)
    assert len(trace.picks) == 3
    assert [e for e, _ in trace.picks] == picks
    # recorded gains telescope to the final value
    total = sum(g for _, g in trace.picks)
    assert abs(total - fn(frozenset(picks))) < 1e-12
