"""Net-enumerating double greedy solver."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .diffusion import (
    DRAW_BUDGET,
    SpreadEstimate,
    _chunks,
    _window,
    _word_bytes,
    default_sample_count,
    estimate_sigma,
    estimate_sigma_hat,  # noqa: F401 -- unused here; the traced benchmark wraps this name
    exact_rho_bar,
    reverse_reachable_pool,
)
from .greedy import greedy_max  # noqa: F401 -- unused here; the traced benchmark wraps this name
from .instance import InstanceValidationError, numerical_rank, validate
from .net import MAX_NET_POINTS, build_net, prune_net
from .relaxation import indicator, initial_activation, net_relaxation

E_COMPLEMENT = 1.0 - 1.0 / math.e
BRUTE_FORCE_CAP = 10_000
MAX_RANK = 6
# provider pool size multiplier for the per-consumer-set estimates and the reported value
FINAL_FACTOR = 4
# bytes the consumer pools of one batch of net points hold together: raw
# words, live-edge bits, pools, unpacked RR bits and miss (at least one point)
POOL_BUDGET = DRAW_BUDGET // 16


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
    searched points over the C(size, budget) sets its greedy can return plus one term
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


def _pool_greedy(rows, scale, samples, budget):
    """Plain greedy for m * mean_k[1 - prod_{e in picks} (1 - hit_ebk)] on each of a batch of RR pools.

    scale has shape (elements, batch), and rows(index) returns the rows of
    the elements `index`, a slice or an index array, as an (elements, batch,
    samples) array of any numeric dtype: element e hits RR set k of pool b
    with chance scale[e, b] * rows[e, b, k]. Each step computes every gain
    as scale_eb * sum_k rows_ebk * miss_bk, reading rows in _chunks of
    elements, takes the largest in each pool (ties toward the lowest index,
    as greedy_max) and multiplies that pool's miss by its 1 - hit, reading
    the rows of the distinct picks once. Returns (picks, one list per pool;
    gains computed per pool).
    """
    count, batch = scale.shape
    members = np.arange(batch)
    miss = np.ones((batch, samples))
    picks = np.zeros((batch, budget), dtype=np.intp)
    for step in range(budget):
        gains = np.empty((batch, count))
        for part in _chunks(count, 8 * batch * samples):
            # each gain is its own sum over k, so elements with equal rows and scales get equal gains
            gains[:, part] = np.einsum("ebk,bk->be", rows(part), miss)
        gains *= scale.T
        gains[members[:, None], picks[:, :step]] = -1.0
        picks[:, step] = gains.argmax(axis=1)
        if step + 1 < budget:
            distinct, which = np.unique(picks[:, step], return_inverse=True)
            miss *= 1.0 - scale[picks[:, step], members, None] * rows(distinct)[which, members]
    return picks.tolist(), sum(count - t for t in range(budget))


def _consumer_picks(instance, samples, key, first, points):
    """Consumer greedy for sigma_hat(s, .) at every row s of a (batch, m) stack of net points.

    Row b runs on RR pool first + b at key. The batch draws its pools in one
    call (see reverse_reachable_pool), pool first + b holding runs
    [b * samples, (b + 1) * samples) of every row, and u hits its RR set k
    with chance RR_uk * (1 - exp(-s_bu)). The uint8 RR bits are unpacked
    once when one of the greedy's _chunks holds every row, and a chunk at a
    time at every step otherwise. Returns (picks, one list per point; gains
    computed per point); b2 = m picks all and draws no pool.
    """
    batch, m = points.shape
    b2 = instance.budget_consumers
    if b2 == m:
        return [list(range(m))] * batch, 0
    pool = reverse_reachable_pool(instance, samples, key, first, batch)

    def unpack(index):
        return np.unpackbits(pool[index], axis=1, count=batch * samples).reshape(-1, batch, samples)

    rows = unpack
    if next(_chunks(m, 8 * batch * samples)).stop == m:
        rows = unpack(slice(None)).__getitem__
    scale = net_relaxation(points.ravel(), np.ones(points.size)).reshape(batch, m).T
    return _pool_greedy(rows, scale, samples, b2)


def _provider_picks(instance, samples, key, point, y_set):
    """Provider greedy for sigma(., Y) on RR pool `point` at key: i hits RR set k with chance 1 - q_ik, at scale 1.

    q_ik = prod_{u in RR_k and Y} (1 - M_iu); log q sums Y's pool rows in
    _chunks, so Y is never unpacked whole. Returns (picks, gains computed);
    b1 = n picks all and draws no pool.
    """
    n, b1, M = instance.n_providers, instance.budget_providers, instance.bipartite
    if b1 == n:
        return list(range(n)), 0
    pool = reverse_reachable_pool(instance, samples, key, point, 1)
    ys = np.asarray(y_set, dtype=np.intp)
    # log 0 clamps to log(tiny): its exp is below 1e-300, far under rounding
    log_keep = np.log(np.maximum(1.0 - M[:, ys], np.finfo(float).tiny))
    log_q = np.zeros((n, samples))
    for part in _chunks(ys.size, 8 * samples):
        bits = np.unpackbits(pool[ys[part]], axis=1, count=samples)
        log_q += log_keep[:, part] @ bits.astype(float)
    hit = -np.expm1(log_q)[:, None]
    [picks], evaluations = _pool_greedy(hit.__getitem__, np.ones((n, 1)), samples, b1)
    return picks, evaluations


def _pool_batch(instance, samples):
    """Net points whose consumer pools fit in POOL_BUDGET bytes together (at least one).

    Counts per point: the raw words of its window, its live-edge bits packed
    and as bytes, its pool, its one-hot targets and RR bits unpacked as
    bytes, its miss vector and the two float rows of a miss update.
    """
    row = _word_bytes(samples)
    edges, m = len(instance.social_edges), instance.n_consumers
    per_point = 8 * _window(instance, samples) + edges * (row + samples) + m * (row + 2 * samples) + 24 * samples
    return max(1, POOL_BUDGET // per_point)


def solve(instance, config):
    """Run the full pipeline; returns (best SeedSolution, per-net-point report).

    Builds the one-sided net and searches only the points prune_net keeps,
    the ones that can bracket the image of a budget-sized provider set: the
    guarantee rests on one such point. At the j-th kept point i a greedy
    picks consumers for the surrogate on RR pool j at key (seed, "pool"),
    the j-th window of that stream (see reverse_reachable_pool). The points
    go in batches of _pool_batch: a batch draws its pools in one call and
    runs one greedy over all of them, and each point still picks what it
    would pick alone. The provider phase depends on the consumer set alone,
    so it runs once per distinct set, at the first point i that picks it: a
    greedy for the real objective on RR pool i at key (seed, "x"), then a
    forward estimate of the pair on stream(seed, "final", i).

    The report has one row per built net point. Rows of points that picked
    the same consumer set are one shared dict, whose net_point_index names
    the point that computed it and whose evaluations count that point's
    gains; every pruned point's row is one shared record with "pruned" true,
    net_point_index None and empty sets. The largest estimate wins (the
    first point on a tie) and is estimated once more on (seed, "report"):
    the maximum of many noisy estimates is biased upward, a fresh draw is not.
    """
    violations = validate(instance)
    if violations:
        raise InstanceValidationError(violations)
    basis = numerical_rank(instance.bipartite)
    if basis.rank > MAX_RANK:
        raise ValueError(f"matrix rank {basis.rank} exceeds the supported max {MAX_RANK}")
    net = build_net(instance.bipartite, basis, config.epsilon, instance.bit_precision, config.max_net_points)
    kept = prune_net(net, instance.bipartite, instance.budget_providers, instance.bit_precision)
    count = len(kept)
    if config.samples_per_eval:
        y_samples = x_samples = config.samples_per_eval
    else:
        y_samples, x_samples = _auto_samples(instance, config, count)
    seed = config.master_seed

    pruned = {
        "net_point_index": None,
        "pruned": True,
        "providers": [],
        "consumers": [],
        "value": None,
        "std_error": None,
        "evaluations_y": 0,
        "evaluations_x": 0,
    }
    report = [pruned] * len(net)
    rows = {}
    best = None
    batch = _pool_batch(instance, y_samples)
    for first in range(0, count, batch):
        indices = kept[first : first + batch]
        y_sets, evaluations_y = _consumer_picks(instance, y_samples, (seed, "pool"), first, net.points[indices])
        for i, y_set in zip(indices.tolist(), y_sets):
            key = tuple(sorted(y_set))
            if key not in rows:
                x_set, evaluations_x = _provider_picks(instance, x_samples, (seed, "x"), i, key)
                final_path = (seed, "final", i)
                value = estimate_sigma(
                    instance, x_set, key, FINAL_FACTOR * x_samples, stream(*final_path), stream_path=final_path
                )
                rows[key] = {
                    "net_point_index": i,
                    "pruned": False,
                    "providers": sorted(x_set),
                    "consumers": list(key),
                    "value": value.mean,
                    "std_error": value.std_error,
                    "evaluations_y": evaluations_y,
                    "evaluations_x": evaluations_x,
                }
                if best is None or value.mean > best[3].mean:
                    best = (i, x_set, key, value)
            report[i] = rows[key]

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
