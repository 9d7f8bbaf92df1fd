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
from .greedy import greedy_max
from .instance import InstanceValidationError, numerical_rank, validate
from .net import MAX_NET_POINTS, build_net
from .relaxation import indicator, initial_activation, net_relaxation

E_COMPLEMENT = 1.0 - 1.0 / math.e
BRUTE_FORCE_CAP = 10_000
MAX_RANK = 6
# sample count multiplier for the per-net-point re-estimates and the reported value
FINAL_FACTOR = 4


@dataclass(frozen=True)
class SdgConfig:
    """Solver configuration.

    samples_per_eval, when set, replaces the automatic Hoeffding sizing of
    both the consumer pools and the per-estimate sample count.
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
    """(pool size, per-estimate sample count), each Hoeffding-sized for its own phase.

    Half the failure budget goes to the consumer pools, union-bounded over
    every budget-sized consumer set plus one more term at each of the
    net_size points; the other half to the provider-phase estimates and the
    final re-estimates. Counts are taken in log space, since C(m, b2) is
    past the float range at m in the thousands.
    """
    n, m = instance.n_providers, instance.n_consumers
    b1, b2 = instance.budget_providers, instance.budget_consumers
    log_sets = math.lgamma(m + 1) - math.lgamma(b2 + 1) - math.lgamma(m - b2 + 1)
    pool_terms = math.log(net_size) + log_sets + math.log1p(math.exp(-log_sets))
    x_terms = math.log(max(1, net_size * (n + 1 + b1 * n + 1)))
    half = config.delta / 2.0
    return default_sample_count(half, pool_terms), default_sample_count(half, x_terms)


def _pool_greedy(pool, samples, s, budget):
    """Plain greedy for the surrogate sigma_hat(s, Y) on one RR pool.

    On the pool, sigma_hat(s, Y) = m * mean_k[1 - exp(-A_k)], with A_k the
    sum of s_u over the members u of RR set k in Y. The gain of consumer u
    is then proportional to (RR^T exp(-A))_u * (1 - exp(-s_u)); every step
    computes all gains at once, in chunks of consumer rows whose floats stay
    under DRAW_BUDGET bytes, takes the largest (ties toward the lowest
    index, as greedy_max), and adds the pick's s to A on its RR sets.
    Returns (picks, number of gains computed).
    """
    scale = net_relaxation(s, np.ones(len(s)))
    s = np.maximum(s, 0.0)
    m = pool.shape[0]
    rows = max(1, DRAW_BUDGET // (8 * samples))
    weight = np.zeros(samples)
    picks, evaluations = [], 0
    for _ in range(budget):
        miss = np.exp(-weight)
        gains = np.empty(m)
        for start in range(0, m, rows):
            bits = np.unpackbits(pool[start : start + rows], axis=1, count=samples)
            # a row-wise sum, so consumers with equal RR rows get equal gains
            gains[start : start + rows] = (bits * miss).sum(axis=1)
        gains *= scale
        gains[picks] = -1.0
        evaluations += m - len(picks)
        j = int(np.argmax(gains))
        picks.append(j)
        weight += np.unpackbits(pool[j], count=samples) * s[j]
    return picks, evaluations


def _pick_consumers(instance, s, samples, rng_path):
    """Consumer phase at net point s: greedy on a fresh RR pool of `samples` runs.

    The pool is drawn from stream(*rng_path) and released on return. With
    b2 = m every consumer is picked and no pool is drawn.
    """
    m, b2 = instance.n_consumers, instance.budget_consumers
    if b2 == m:
        return list(range(m)), 0
    pool = reverse_reachable_pool(instance, samples, stream(*rng_path))
    return _pool_greedy(pool, samples, s, b2)


def _pick_providers(instance, y_set, samples, seed, i):
    """Provider phase for consumer set y_set, run at net point i.

    Every oracle call of the greedy draws from the one stream (seed, "x", i),
    so the candidate sets it compares share their random numbers (common
    random numbers): the noise in a marginal gain is then that of one
    difference, not of two independent estimates. The pair is then
    re-estimated at FINAL_FACTOR times the samples on (seed, "final", i).
    Returns (providers, oracle calls, final estimate).
    """
    x_path = (seed, "x", i)

    def x_oracle(S):
        return estimate_sigma(instance, S, y_set, samples, stream(*x_path), stream_path=x_path)

    x_set, x_trace = greedy_max(x_oracle, range(instance.n_providers), instance.budget_providers)
    final_path = (seed, "final", i)
    value = estimate_sigma(
        instance, x_set, y_set, FINAL_FACTOR * samples, stream(*final_path), stream_path=final_path
    )
    return x_set, x_trace.evaluations, value


def solve(instance, config):
    """Run the full pipeline; returns (best SeedSolution, per-net-point report).

    Builds the one-sided net, then for every net point greedily picks
    consumers against the surrogate objective, on a reverse-reachable pool
    of its own. The provider phase depends on the consumer set alone, so it
    runs once per distinct set, at the first net point that picks it: a
    greedy against the real objective, then a re-estimate of the pair at a
    higher sample count. The report has one row per net point, and the rows
    of net points that picked the same consumer set are one shared dict,
    whose net_point_index names the point that computed it and whose
    evaluations_y and evaluations_x count that point's calls. The pair with
    the largest re-estimate wins (the first net point on a tie), and its
    value is estimated once more on its own stream: the maximum of many
    noisy re-estimates is biased upward, a fresh draw is not.
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
        pool_samples = samples = config.samples_per_eval
    else:
        pool_samples, samples = _auto_samples(instance, config, count)
    seed = config.master_seed

    report = []
    rows = {}
    best = None
    for i in range(count):
        y_set, evaluations_y = _pick_consumers(instance, net.points[i], pool_samples, (seed, "pool", i))
        key = tuple(sorted(y_set))
        if key not in rows:
            x_set, evaluations_x, value = _pick_providers(instance, y_set, samples, seed, i)
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
                best = (i, x_set, y_set, value)
        report.append(rows[key])

    i, x_set, y_set, _ = best
    report_path = (seed, "report")
    value = estimate_sigma(
        instance, x_set, y_set, FINAL_FACTOR * samples, stream(*report_path), stream_path=report_path
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
