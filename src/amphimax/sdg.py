"""Net-enumerating double greedy solver."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .diffusion import (
    DRAW_BUDGET,
    SpreadEstimate,
    default_sample_count,
    estimate_sigma,
    estimate_sigma_hat,  # noqa: F401 -- unused here; the traced benchmark wraps this name
    exact_rho_bar,
    reverse_reachable_pool,
)
from .greedy import greedy_max  # noqa: F401 -- unused here; the traced benchmark wraps this name
from .instance import InstanceValidationError, numerical_rank, validate
from .net import MAX_NET_POINTS, build_net
from .relaxation import indicator, initial_activation, net_relaxation

E_COMPLEMENT = 1.0 - 1.0 / math.e
BRUTE_FORCE_CAP = 10_000
MAX_RANK = 6
# provider pool size multiplier for the per-consumer-set estimates and the reported value
FINAL_FACTOR = 4


@dataclass(frozen=True)
class SdgConfig:
    """Solver configuration.

    samples_per_eval, when set, replaces the automatic Hoeffding sizing of
    both the consumer pools and the provider pools; the final estimates
    take FINAL_FACTOR times it.
    """

    epsilon: float
    delta: float = 0.01
    samples_per_eval: int = None
    master_seed: int = 0
    max_net_points: int = MAX_NET_POINTS

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be a positive finite number, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if self.max_net_points < 1:
            raise ValueError("max_net_points must be at least 1")
        if self.samples_per_eval is not None and self.samples_per_eval < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples_per_eval}")


@dataclass(frozen=True)
class SeedSolution:
    """Chosen provider and consumer sets with a fresh estimate of their spread.

    net_point_index is the first net point whose consumer greedy picked the
    consumer set, the one that ran the provider phase for it; rank is the
    numerical rank of the bipartite matrix.
    """

    providers: tuple
    consumers: tuple
    value: SpreadEstimate
    net_point_index: int
    rank: int


def approximation_ratio(epsilon):
    """Worst-case fraction of the optimum the solver is guaranteed to reach."""
    if not 0.0 < epsilon <= E_COMPLEMENT:
        raise ValueError(f"epsilon must lie in (0, 1-1/e], got {epsilon}")
    return (E_COMPLEMENT - epsilon) ** 3


def _auto_samples(instance, config, net_size):
    """(consumer pool size, provider pool size), each Hoeffding-sized for its phase.

    Each phase gets half of delta, union-bounded at each of the net_size
    points over the C(size, budget) sets its greedy can return plus one term
    (consumers) or two, the optimum and the final estimate (providers), in
    log space: C(m, b2) is past the float range at m in the thousands.
    """
    counts = []
    for size, budget, extra in (
        (instance.n_consumers, instance.budget_consumers, 1.0),
        (instance.n_providers, instance.budget_providers, 2.0),
    ):
        log_sets = math.lgamma(size + 1) - math.lgamma(budget + 1) - math.lgamma(size - budget + 1)
        terms = math.log(net_size) + log_sets + math.log1p(extra * math.exp(-log_sets))
        counts.append(default_sample_count(config.delta / 2.0, terms))
    return tuple(counts)


def _pool_greedy(hits, count, samples, budget):
    """Plain greedy for m * mean_k[1 - prod_{e in picks} (1 - hit_ek)] on one RR pool.

    hits(start, stop) is a float array of rows e, columns k. Each step
    computes every gain as sum_k hit_ek * miss_k, in row chunks under
    DRAW_BUDGET bytes, takes the largest (ties toward the lowest index, as
    greedy_max) and multiplies miss by its 1 - hit. Returns (picks, gains computed).
    """
    rows = max(1, DRAW_BUDGET // (8 * samples))
    miss = np.ones(samples)
    picks, evaluations = [], 0
    for _ in range(budget):
        gains = np.empty(count)
        for start in range(0, count, rows):
            # each gain is its own sum over k, so elements with equal hit rows get equal gains
            gains[start : start + rows] = np.einsum("ek,k->e", hits(start, min(start + rows, count)), miss)
        gains[picks] = -1.0
        evaluations += count - len(picks)
        j = int(np.argmax(gains))
        picks.append(j)
        miss *= 1.0 - hits(j, j + 1)[0]
    return picks, evaluations


def _consumer_hits(pool, samples, s):
    """Consumer hits for sigma_hat(s, .): u hits RR set k with chance RR_uk * (1 - exp(-s_u))."""
    scale = net_relaxation(s, np.ones(pool.shape[0]))[:, None]
    return lambda start, stop: np.unpackbits(pool[start:stop], axis=1, count=samples) * scale[start:stop]


def _provider_hits(pool, samples, y_set, M):
    """Provider hits for sigma(., Y): i hits RR set k with chance 1 - q_ik.

    q_ik = prod_{u in RR_k and Y} (1 - M_iu); log q sums Y's pool rows in
    chunks under DRAW_BUDGET bytes, so Y is never unpacked whole.
    """
    ys = np.asarray(y_set, dtype=np.intp)
    # log 0 clamps to log(tiny): its exp is below 1e-300, far under rounding
    log_keep = np.log(np.maximum(1.0 - M[:, ys], np.finfo(float).tiny))
    log_q = np.zeros((M.shape[0], samples))
    rows = max(1, DRAW_BUDGET // (8 * samples))
    for start in range(0, ys.size, rows):
        bits = np.unpackbits(pool[ys[start : start + rows]], axis=1, count=samples)
        log_q += log_keep[:, start : start + rows] @ bits.astype(float)
    hit = -np.expm1(log_q)
    return lambda start, stop: hit[start:stop]


def _pool_pick(instance, count, budget, samples, rng_path, hits, *args):
    """Greedy for `budget` of `count` elements with hits(pool, samples, *args) on a fresh
    RR pool from stream(*rng_path); budget = count picks all and draws no pool."""
    if budget == count:
        return list(range(count)), 0
    pool = reverse_reachable_pool(instance, samples, stream(*rng_path))
    return _pool_greedy(hits(pool, samples, *args), count, samples, budget)


def solve(instance, config):
    """Run the full pipeline; returns (best SeedSolution, per-net-point report).

    Builds the one-sided net; at every net point i a greedy picks consumers
    for the surrogate on an RR pool from (seed, "pool", i). The provider
    phase depends on the consumer set alone, so it runs once per distinct
    set, at the first point i that picks it: a greedy for the real
    objective on an RR pool from (seed, "x", i), then a forward estimate of
    the pair on (seed, "final", i). Rows of points that picked the same
    consumer set are one shared dict, whose net_point_index names the point
    that computed it and whose evaluations count that point's gains. The
    largest estimate wins (the first point on a tie) and is estimated once
    more on (seed, "report"): the maximum of many noisy estimates is biased
    upward, a fresh draw is not.
    """
    violations = validate(instance)
    if violations:
        raise InstanceValidationError(violations)
    basis = numerical_rank(instance.bipartite)
    if basis.rank > MAX_RANK:
        raise ValueError(f"matrix rank {basis.rank} exceeds the supported max {MAX_RANK}")
    net = build_net(instance.bipartite, basis, config.epsilon, instance.bit_precision, config.max_net_points)
    count = len(net)
    if config.samples_per_eval:
        y_samples = x_samples = config.samples_per_eval
    else:
        y_samples, x_samples = _auto_samples(instance, config, count)
    seed = config.master_seed
    n, m = instance.n_providers, instance.n_consumers
    b1, b2 = instance.budget_providers, instance.budget_consumers

    report = []
    rows = {}
    best = None
    for i in range(count):
        y_set, evaluations_y = _pool_pick(instance, m, b2, y_samples, (seed, "pool", i), _consumer_hits, net.points[i])
        key = tuple(sorted(y_set))
        if key not in rows:
            x_set, evaluations_x = _pool_pick(
                instance, n, b1, x_samples, (seed, "x", i), _provider_hits, key, instance.bipartite
            )
            final_path = (seed, "final", i)
            value = estimate_sigma(
                instance, x_set, key, FINAL_FACTOR * x_samples, stream(*final_path), stream_path=final_path
            )
            rows[key] = {
                "net_point_index": i,
                "providers": sorted(x_set),
                "consumers": list(key),
                "value": value.mean,
                "std_error": value.std_error,
                "evaluations_y": evaluations_y,
                "evaluations_x": evaluations_x,
            }
            if best is None or value.mean > best[3].mean:
                best = (i, x_set, key, value)
        report.append(rows[key])

    i, x_set, y_set, _ = best
    report_path = (seed, "report")
    value = estimate_sigma(
        instance, x_set, y_set, FINAL_FACTOR * x_samples, stream(*report_path), stream_path=report_path
    )
    solution = SeedSolution(
        providers=tuple(sorted(x_set)),
        consumers=tuple(sorted(y_set)),
        value=value,
        net_point_index=i,
        rank=basis.rank,
    )
    return solution, report


def brute_force_opt(instance):
    """Exact optimum over all budget-sized seed pairs by enumeration.

    Ties resolve to the first pair in lexicographic combination order.
    """
    n, m = instance.n_providers, instance.n_consumers
    b1, b2 = instance.budget_providers, instance.budget_consumers
    pairs = math.comb(n, b1) * math.comb(m, b2)
    if pairs > BRUTE_FORCE_CAP:
        raise ValueError(f"{pairs} candidate pairs exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    ys = list(itertools.combinations(range(m), b2))
    y_rows = np.array([indicator(Y, m) for Y in ys])
    best = None
    for X in itertools.combinations(range(n), b1):
        # row k is initial_activation(X, ys[k]): y_j times the same direct hit chance
        hit = initial_activation(indicator(X, n), np.ones(m), instance.bipartite)
        values = exact_rho_bar(instance, y_rows * hit)
        k = int(np.argmax(values))
        if best is None or values[k] > best[2]:
            best = (X, ys[k], float(values[k]))
    return best
