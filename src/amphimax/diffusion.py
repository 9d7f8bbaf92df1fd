"""Cascade sampling, spread estimation, and exact oracles for small instances."""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import stream
from .relaxation import indicator, initial_activation, net_relaxation

EXACT_EDGE_LIMIT = 22
DEFAULT_MC_EPS = 0.05
DEFAULT_MC_DELTA = 0.01
# bytes of uniform floats drawn at once by the cascade kernel (at least 8 rows)
DRAW_BUDGET = 1 << 24


def default_sample_count(mc_eps=DEFAULT_MC_EPS, delta=DEFAULT_MC_DELTA):
    """Sample count for additive error mc_eps (of the consumer count) at confidence 1-delta.

    Hoeffding on spread/m in [0,1]: ceil(ln(2/delta) / (2 mc_eps^2)). The
    defaults give 1060.
    """
    return math.ceil(math.log(2.0 / delta) / (2.0 * mc_eps * mc_eps))


@dataclass(frozen=True)
class SpreadEstimate:
    """Monte Carlo estimate of an expected spread.

    stream_path, when set, records the (master_seed, *path) address of the
    random stream that produced the estimate.
    """

    mean: float
    std_error: float
    samples: int
    stream_path: tuple = None


@lru_cache(maxsize=256)
def _edge_arrays(instance):
    """Social edges grouped by target.

    Returns (src, prob, order, heads, cuts): `prob` in instance order, `order`
    the stable permutation that sorts edges by target, `src` the sources in
    that order, and `heads[k]` the target whose edges start at row `cuts[k]`.
    """
    edges = instance.social_edges
    dst = np.array([e[1] for e in edges], dtype=np.intp)
    prob = np.array([e[2] for e in edges], dtype=float)
    order = np.argsort(dst, kind="stable")
    src = np.array([e[0] for e in edges], dtype=np.intp)[order]
    heads, cuts = np.unique(dst[order], return_index=True)
    return src, prob, order, heads, cuts


def _packed_draws(rng, samples, probs, order=None):
    """Bernoulli(probs) for `samples` runs, packed 8 runs per byte.

    Same draws as `rng.random((samples, probs.size)) < probs`, taken in row
    chunks that keep the floats under DRAW_BUDGET bytes (consecutive calls
    continue one stream). Row k of the (probs.size, ceil(samples/8)) result
    is column order[k] of that matrix; padding bits past `samples` are 0.
    """
    width = probs.size
    out = np.empty((width, (samples + 7) // 8), dtype=np.uint8)
    rows = max(8, DRAW_BUDGET // (8 * width) // 8 * 8)
    for start in range(0, samples, rows):
        bits = rng.random((min(rows, samples - start), width)) < probs
        if order is not None:
            bits = bits[:, order]
        chunk = np.packbits(bits.T, axis=1)
        out[:, start // 8 : start // 8 + chunk.shape[1]] = chunk
    return out


def _batch_spread(instance, init_probs, samples, rng):
    """Mean and standard error of cascade size over `samples` independent runs.

    Seeds each consumer independently with its init probability, then flips
    every social edge once per run and propagates over live edges; that
    matches the flip-on-first-activation process in distribution, since an
    edge's coin only matters the first time its source activates.

    Runs are bit-parallel: each consumer and each edge holds one bit per run,
    so memory is O((m + E) * samples / 8) plus one bounded draw chunk. Each
    round only the newly activated frontier pushes along live edges.
    """
    active = _packed_draws(rng, samples, init_probs)
    src, prob, order, heads, cuts = _edge_arrays(instance)
    if src.size:
        live = _packed_draws(rng, samples, prob, order)
        frontier = active.copy()
        hit = np.zeros_like(active)
        while True:
            push = frontier[src]
            push &= live
            hit[heads] = np.bitwise_or.reduceat(push, cuts, axis=0)
            np.bitwise_and(hit, ~active, out=frontier)
            if not frontier.any():
                break
            active |= frontier
    totals = np.unpackbits(active, axis=1, count=samples).sum(axis=0).astype(float)
    mean = float(totals.mean())
    std_error = float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, std_error


def estimate_sigma(instance, X, Y, samples=None, rng=None, stream_path=None):
    """Monte Carlo estimate of the expected spread for provider set X, consumer set Y."""
    samples = samples or default_sample_count()
    rng = rng if rng is not None else stream(0, "sigma")
    f = initial_activation(
        indicator(X, instance.n_providers), indicator(Y, instance.n_consumers), instance.bipartite
    )
    mean, se = _batch_spread(instance, f, samples, rng)
    return SpreadEstimate(mean=mean, std_error=se, samples=samples, stream_path=stream_path)


def estimate_sigma_hat(instance, s, Y, samples=None, rng=None, stream_path=None):
    """Monte Carlo estimate of the surrogate spread at net point s.

    Each consumer in Y starts active independently with probability
    1 - exp(-s_j), then the cascade runs as usual.
    """
    samples = samples or default_sample_count()
    rng = rng if rng is not None else stream(0, "sigma_hat")
    init = net_relaxation(s, indicator(Y, instance.n_consumers))
    mean, se = _batch_spread(instance, init, samples, rng)
    return SpreadEstimate(mean=mean, std_error=se, samples=samples, stream_path=stream_path)


def estimate_ic_spread(instance, Z, samples=None, rng=None, stream_path=None):
    """Monte Carlo estimate of the plain cascade spread of consumer seed set Z."""
    samples = samples or default_sample_count()
    rng = rng if rng is not None else stream(0, "ic")
    init = indicator(Z, instance.n_consumers)
    mean, se = _batch_spread(instance, init, samples, rng)
    return SpreadEstimate(mean=mean, std_error=se, samples=samples, stream_path=stream_path)


def _split_edges(instance):
    det = [[] for _ in range(instance.n_consumers)]
    stoch = []
    for u, w, p in instance.social_edges:
        if p >= 1.0:
            det[u].append(w)
        else:
            stoch.append((u, w, p))
    return det, stoch


def _reach(det, extra, seeds):
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for w in det[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
            for w in extra.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def exact_ic_spread(instance, Z):
    """Exact expected cascade size from consumer seed set Z.

    Enumerates live/blocked assignments of the stochastic social edges;
    probability-1 edges are always live. Results are cached per (instance, Z).
    """
    Z = frozenset(int(v) for v in Z)
    for v in Z:
        if not 0 <= v < instance.n_consumers:
            raise ValueError(f"seed {v} out of range")
    return _exact_ic_cached(instance, Z)


@lru_cache(maxsize=1_000_000)
def _exact_ic_cached(instance, zset):
    det, stoch = _split_edges(instance)
    ne = len(stoch)
    if ne > EXACT_EDGE_LIMIT:
        raise ValueError(
            f"exact cascade enumeration limited to {EXACT_EDGE_LIMIT} stochastic edges, got {ne}"
        )
    if not zset:
        return 0.0
    total = 0.0
    for mask in range(1 << ne):
        weight = 1.0
        extra = {}
        for e in range(ne):
            u, w, p = stoch[e]
            if mask >> e & 1:
                weight *= p
                extra.setdefault(u, []).append(w)
            else:
                weight *= 1.0 - p
        total += weight * len(_reach(det, extra, zset))
    return total


def _enumerate_products(probs):
    """Yield (subset tuple, probability) over independent inclusion of each index."""
    forced = [j for j, p in probs if p >= 1.0]
    free = [(j, p) for j, p in probs if p < 1.0]
    for picks in itertools.product((0, 1), repeat=len(free)):
        weight = 1.0
        subset = list(forced)
        for bit, (j, p) in zip(picks, free):
            if bit:
                weight *= p
                subset.append(j)
            else:
                weight *= 1.0 - p
        if weight > 0.0:
            yield tuple(sorted(subset)), weight


def exact_sigma(instance, X, Y):
    """Exact expected spread for provider set X and consumer set Y.

    Enumerates the direct-activation outcomes (independent per consumer) and
    weights exact cascade sizes. Guarded: the count of nonzero matrix entries
    from X to Y plus the social edge count must stay within the enumeration
    limit.
    """
    X = sorted(set(int(i) for i in X))
    Y = sorted(set(int(j) for j in Y))
    mat = instance.bipartite
    bip_edges = int((mat[np.ix_(X, Y)] > 0).sum()) if X and Y else 0
    relevant = bip_edges + len(instance.social_edges)
    if relevant > EXACT_EDGE_LIMIT:
        raise ValueError(
            f"exact spread enumeration limited to {EXACT_EDGE_LIMIT} relevant edges, got {relevant}"
        )
    if not X or not Y:
        return 0.0
    f = initial_activation(
        indicator(X, instance.n_providers), indicator(Y, instance.n_consumers), mat
    )
    probs = [(j, float(f[j])) for j in np.flatnonzero(f > 0.0)]
    total = 0.0
    for subset, weight in _enumerate_products(probs):
        total += weight * exact_ic_spread(instance, subset)
    return total


def exact_rho_bar(instance, zbar):
    """Exact expected cascade size when consumer j seeds independently with probability zbar_j."""
    zbar = np.asarray(zbar, dtype=float).ravel()
    m = instance.n_consumers
    if zbar.size != m:
        raise ValueError(f"zbar has length {zbar.size}, expected {m}")
    if (zbar < 0).any() or (zbar > 1).any():
        raise ValueError("zbar entries must lie in [0,1]")
    if m + len(instance.social_edges) > EXACT_EDGE_LIMIT:
        raise ValueError(
            f"exact extension limited to consumer count plus social edges <= {EXACT_EDGE_LIMIT}"
        )
    probs = [(int(j), float(zbar[j])) for j in np.flatnonzero(zbar > 0.0)]
    total = 0.0
    for subset, weight in _enumerate_products(probs):
        total += weight * exact_ic_spread(instance, subset)
    return total
