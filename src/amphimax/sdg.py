"""Net-enumerating double greedy solver."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .diffusion import (
    SpreadEstimate,
    default_sample_count,
    estimate_sigma,
    estimate_sigma_hat,
    exact_rho_bar,
)
from .greedy import greedy_max
from .instance import InstanceValidationError, numerical_rank, validate
from .net import MAX_NET_POINTS, build_net
from .relaxation import indicator, initial_activation

E_COMPLEMENT = 1.0 - 1.0 / math.e
BRUTE_FORCE_CAP = 10_000
MAX_RANK = 6
# sample count multiplier for the per-net-point re-estimates and the reported value
FINAL_FACTOR = 4


@dataclass(frozen=True)
class SdgConfig:
    """Solver configuration.

    samples_per_eval overrides the automatic Hoeffding sizing when set.
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

    net_point_index is the net point whose greedy run produced the sets; rank
    is the numerical rank of the bipartite matrix.
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
    """Per-estimate sample count union-bounded over everything a run estimates.

    Half the failure budget goes to consumer-phase estimates, half to the
    provider phase plus final selection; the larger of the two Hoeffding
    requirements is used everywhere.
    """
    n, m = instance.n_providers, instance.n_consumers
    b1, b2 = instance.budget_providers, instance.budget_consumers
    evals_y = max(1, net_size * (m + 1 + b2 * m))
    evals_x = max(1, net_size * (n + 1 + b1 * n + 1))
    need = 1
    for count in (evals_y, evals_x):
        per = (config.delta / 2.0) / count
        need = max(need, default_sample_count(delta=per))
    return need


def solve(instance, config):
    """Run the full pipeline; returns (best SeedSolution, per-net-point report).

    Builds the one-sided net, then for every net point greedily picks
    consumers against the surrogate objective and providers against the real
    one, re-estimates each candidate pair at a higher sample count, and
    returns the best. The winner's value is estimated once more on its own
    stream: the maximum of many noisy re-estimates is biased upward, a fresh
    draw is not.
    """
    violations = validate(instance)
    if violations:
        raise InstanceValidationError(violations)
    basis = numerical_rank(instance.bipartite)
    if basis.rank > MAX_RANK:
        raise ValueError(f"matrix rank {basis.rank} exceeds the supported max {MAX_RANK}")
    net = build_net(instance.bipartite, basis, config.epsilon, instance.bit_precision, config.max_net_points)
    count = len(net)
    samples = config.samples_per_eval or _auto_samples(instance, config, count)
    seed = config.master_seed
    n, m = instance.n_providers, instance.n_consumers

    report = []
    best = None
    for i in range(count):
        point = net.points[i]
        y_counter = itertools.count()

        def y_oracle(S, _p=point, _i=i, _c=y_counter):
            path = (seed, "y", _i, next(_c))
            return estimate_sigma_hat(instance, _p, S, samples, stream(*path), stream_path=path)

        y_set, y_trace = greedy_max(y_oracle, range(m), instance.budget_consumers)
        x_counter = itertools.count()

        def x_oracle(S, _y=tuple(y_set), _i=i, _c=x_counter):
            path = (seed, "x", _i, next(_c))
            return estimate_sigma(instance, S, _y, samples, stream(*path), stream_path=path)

        x_set, x_trace = greedy_max(x_oracle, range(n), instance.budget_providers)
        final_path = (seed, "final", i)
        value = estimate_sigma(
            instance,
            x_set,
            y_set,
            FINAL_FACTOR * samples,
            stream(*final_path),
            stream_path=final_path,
        )
        report.append(
            {
                "net_point_index": i,
                "providers": sorted(x_set),
                "consumers": sorted(y_set),
                "value": value.mean,
                "std_error": value.std_error,
                "evaluations_y": y_trace.evaluations,
                "evaluations_x": x_trace.evaluations,
            }
        )
        if best is None or value.mean > best[3].mean:
            best = (i, x_set, y_set, value)

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
