"""Cascade sampling, spread estimation, and exact oracles for small instances."""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import stream, window_words
from .relaxation import indicator, initial_activation, net_relaxation

EXACT_EDGE_LIMIT = 22
DEFAULT_MC_EPS = 0.05
DEFAULT_MC_DELTA = 0.01
# bytes of raw generator words, unpacked runs or float hits that one chunk of
# the kernel or of the pool greedy holds (at least one row; see _chunks)
DRAW_BUDGET = 1 << 24


def default_sample_count(delta=DEFAULT_MC_DELTA, log_terms=0.0):
    """Hoeffding sample count for exp(log_terms) estimates of a spread in [0, m].

    All of them land within DEFAULT_MC_EPS * m of their means, except with
    probability at most delta: ceil((ln(2/delta) + log_terms) / (2 eps^2)).
    The defaults, one estimate at delta 0.01, give 1060.
    """
    return math.ceil((math.log(2.0 / delta) + log_terms) / (2.0 * DEFAULT_MC_EPS * DEFAULT_MC_EPS))


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

    Returns (src, prob, heads, cuts): edges in the stable order of their
    targets, `src` and `prob` their sources and probabilities in that order,
    and `heads[k]` the target whose edges start at row `cuts[k]`.
    """
    edges = instance.social_edges
    # one pass over all triples (np.array on the tuples converts slower); consumer
    # indices are far below 2**53, so they round-trip through float exactly
    flat = np.fromiter(itertools.chain.from_iterable(edges), dtype=float, count=3 * len(edges))
    src, dst, prob = flat.reshape(-1, 3).T
    order = np.argsort(dst, kind="stable")
    heads, cuts = np.unique(dst[order].astype(np.intp), return_index=True)
    return src[order].astype(np.intp), prob[order], heads, cuts


@lru_cache(maxsize=256)
def _reversed_edges(instance):
    """Social edges reversed, in the layout of _edge_arrays.

    Edge u -> v becomes v -> u, so `src` holds original targets and `heads`
    the original sources. Cached apart from _edge_arrays: only
    reverse_reachable_pool needs it.
    """
    src, prob, heads, cuts = _edge_arrays(instance)
    dst = np.repeat(heads, np.diff(np.append(cuts, src.size)))
    by_src = np.argsort(src, kind="stable")
    rev_heads, rev_cuts = np.unique(src[by_src], return_index=True)
    return dst[by_src], prob[by_src], rev_heads, rev_cuts


def _chunks(count, row_bytes):
    """Slices covering range(count) in order, of at least one row and at most DRAW_BUDGET bytes each."""
    rows = max(1, DRAW_BUDGET // row_bytes)
    for start in range(0, count, rows):
        yield slice(start, min(start + rows, count))


def _word_bytes(runs):
    """Bytes per packed row of `runs` runs, rounded up to whole 64-bit words."""
    return 8 * ((runs + 63) // 64)


def _pack_runs(bits):
    """np.packbits(bits, axis=1) with zero padding bytes up to whole 64-bit words."""
    out = np.zeros((bits.shape[0], _word_bytes(bits.shape[1])), dtype=np.uint8)
    packed = np.packbits(bits, axis=1)
    out[:, : packed.shape[1]] = packed
    return out


def _bernoulli_rows(probs, runs):
    """Packed rows of `runs` Bernoulli(p) runs for p = probs[k], before any draw.

    Returns (out, drawn, thresholds): out has the rows with p >= 1 set and
    all others clear, drawn indexes the rows with 0 < p < 1 that still draw,
    and run j of drawn row k fires when its 32-bit half is below
    thresholds[k] = floor(p * 2**32): p is rounded down to a multiple of
    2**-32, so a p below 2**-32 never fires.
    """
    out = np.zeros((probs.size, _word_bytes(runs)), dtype=np.uint8)
    out[probs >= 1.0] = _pack_runs(np.ones((1, runs), dtype=bool))
    drawn = np.flatnonzero((probs > 0.0) & (probs < 1.0))
    # exact for p in (0, 1): scaling by 2**32 is exact and the cast truncates
    return out, drawn, (probs[drawn] * 2.0**32).astype(np.uint32)


def _packed_draws(rng, samples, probs):
    """Bernoulli(p) bits for `samples` runs, packed 8 runs per byte, 64 per word.

    Row k of the result holds the runs of p = probs[k], packed as by
    _pack_runs and set up by _bernoulli_rows. Every drawn row, in row order,
    takes ceil(samples/2) raw 64-bit words of rng.bit_generator, split into
    32-bit halves in memory order, run j reading half j. Rows go in _chunks
    of their raw words, and a chunk's fired bits take one byte per run; the
    bits do not depend on the chunk size, and consecutive calls continue
    the generator's stream.
    """
    out, drawn, thresholds = _bernoulli_rows(probs, samples)
    words = (samples + 1) // 2
    for part in _chunks(drawn.size, 8 * words):
        halves = rng.bit_generator.random_raw((part.stop - part.start) * words).view(np.uint32)
        out[drawn[part]] = _pack_runs(halves.reshape(-1, 2 * words)[:, :samples] < thresholds[part, None])
    return out


def _propagate(active, live, src, heads, cuts):
    """Close the packed active sets under live edges, in place.

    `active` holds one row per consumer and `live` one row per edge in target
    order (see _edge_arrays), one bit per run, in uint8 rows padded to whole
    64-bit words (see _pack_runs); the loop runs on uint64 views of them, 64
    runs per word. Each round only the newly activated frontier pushes along
    live edges; with no edges there is nothing to push.
    """
    if not src.size:
        return
    active = active.view(np.uint64)
    live = live.view(np.uint64)
    frontier = active.copy()
    hit = np.zeros_like(active)
    while True:
        push = frontier[src]
        push &= live
        hit[heads] = np.bitwise_or.reduceat(push, cuts, axis=0)
        np.bitwise_and(hit, ~active, out=frontier)
        if not frontier.any():
            return
        active |= frontier


def _batch_spread(instance, init_probs, samples, rng):
    """Mean and standard error of cascade size over `samples` independent runs.

    Seeds each consumer independently with its init probability, then flips
    every social edge once per run and propagates over live edges; that
    matches the flip-on-first-activation process in distribution, since an
    edge's coin only matters the first time its source activates.

    Runs are bit-parallel: each consumer and each edge holds one bit per run,
    64 runs per word, drawn by _packed_draws (the seeds one row per
    consumer, then the edges one row per edge in target order). Memory is
    O((m + E) * ceil(samples/64) * 8) bytes plus one chunk under
    DRAW_BUDGET bytes: the draws go in _chunks of rows, and so does the
    count of each run's total, which unpacks the consumer rows a chunk at a
    time (one byte per run and row). When every init probability is 0 no
    run seeds anyone, so the call returns (0.0, 0.0) without drawing and
    does not advance `rng`.
    """
    if not init_probs.any():
        return 0.0, 0.0
    active = _packed_draws(rng, samples, init_probs)
    src, prob, heads, cuts = _edge_arrays(instance)
    _propagate(active, _packed_draws(rng, samples, prob), src, heads, cuts)
    totals = np.zeros(samples)
    for part in _chunks(active.shape[0], samples):
        totals += np.unpackbits(active[part], axis=1, count=samples).sum(axis=0)
    mean = float(totals.mean())
    std_error = float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, std_error


def _window(instance, samples):
    """Raw words per RR pool window of `samples` runs: ceil(samples/2) for the
    targets and for each social edge with 0 < p < 1, in whole 4-word blocks."""
    prob = _edge_arrays(instance)[1]
    drawn = np.count_nonzero((prob > 0.0) & (prob < 1.0))
    return 4 * -(-((samples + 1) // 2) * (1 + drawn) // 4)


def reverse_reachable_pool(instance, samples, key, first, count):
    """Packed reverse-reachable (RR) sets: pools first, ..., first + count - 1 of `samples` runs each.

    Run k picks a uniform target consumer, flips every social edge once, and
    collects the consumers that reach the target over live edges (Borgs et
    al., SODA 2014). Pool i reads the fixed window [i * L, (i + 1) * L) of
    the raw words of stream(*key) (see window_words and _window), split into
    32-bit halves in memory order: the first ceil(samples/2) words give
    target k as (half_k * m) >> 32, within 2**-32 of 1/m for every consumer,
    and each edge with 0 < p < 1, in the order of _reversed_edges (by
    original source, then target), takes the next ceil(samples/2) words,
    run k live when half k is below floor(p * 2**32), as in _packed_draws.
    Edges with p <= 0 stay blocked and p >= 1 live, drawing nothing. The
    pools share one run axis: pool first + b holds runs [b * samples,
    (b + 1) * samples) of every row, and all of them go through one
    _propagate on the reversed edges, seeded one-hot at the targets. Rows
    go in _chunks of their raw words for the whole batch, one read per pool
    and chunk, or one read for the batch when one chunk holds every row.
    Bit b * samples + k in row u of the (m, W) uint8 result, packed as by
    _pack_runs, is set when u is in RR set k of pool first + b; a pool's
    bits depend on neither the batch nor the chunk size. Seeding each
    consumer u independently with probability p_u then spreads to
    m * E_k[1 - prod_{u in RR_k} (1 - p_u)] in expectation.
    """
    m = instance.n_consumers
    src, prob, heads, cuts = _reversed_edges(instance)
    runs, words = count * samples, (samples + 1) // 2
    live, drawn, thresholds = _bernoulli_rows(prob, runs)
    window = _window(instance, samples)
    # row 0 of every window holds the targets, row 1 + r the drawn edge r
    for part in _chunks(1 + drawn.size, 8 * words * count):
        rows = part.stop - part.start
        if rows == 1 + drawn.size:
            raw = window_words(key, first * window, count * window).reshape(count, window)[:, : rows * words]
        else:
            starts = range(first * window + part.start * words, (first + count) * window, window)
            raw = np.stack([window_words(key, start, rows * words) for start in starts])
        # [r, b, k]: half k of row part.start + r in the window of pool first + b
        halves = raw.reshape(count, rows, words).view(np.uint32)[:, :, :samples].transpose(1, 0, 2)
        if part.start == 0:
            targets = (np.multiply(halves[0], m, dtype=np.uint64) >> 32).view(np.intp).ravel()
            halves = halves[1:]
        cut = slice(max(part.start, 1) - 1, part.stop - 1)
        fired = np.empty((halves.shape[0], runs), dtype=bool)
        np.less(halves, thresholds[cut, None, None], out=fired.reshape(-1, count, samples))
        live[drawn[cut]] = _pack_runs(fired)
        del raw, halves  # free these words before the next chunk reads its own
    pool = np.empty((m, _word_bytes(runs)), dtype=np.uint8)
    for part in _chunks(m, runs):
        pool[part] = _pack_runs(np.arange(part.start, part.stop)[:, None] == targets)
    _propagate(pool, live, src, heads, cuts)
    return pool


def _sample_count(samples):
    if samples is None:
        return default_sample_count()
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return samples


def estimate_sigma(instance, X, Y, samples=None, rng=None, stream_path=None):
    """Monte Carlo estimate of the expected spread for provider set X, consumer set Y."""
    samples = _sample_count(samples)
    rng = rng if rng is not None else stream(0, "sigma")
    f = initial_activation(
        indicator(X, instance.n_providers), indicator(Y, instance.n_consumers), instance.bipartite
    )
    mean, se = _batch_spread(instance, f, samples, rng)
    return SpreadEstimate(mean=mean, std_error=se, samples=samples, stream_path=stream_path)


def estimate_sigma_hat(instance, s, Y, samples=None, rng=None, stream_path=None):
    """Forward Monte Carlo estimate of the surrogate spread at net point s.

    Each consumer in Y starts active independently with probability
    1 - exp(-s_j), then the cascade runs as usual. The solver evaluates the
    surrogate on reverse-reachable pools instead.
    """
    samples = _sample_count(samples)
    rng = rng if rng is not None else stream(0, "sigma_hat")
    init = net_relaxation(s, indicator(Y, instance.n_consumers))
    mean, se = _batch_spread(instance, init, samples, rng)
    return SpreadEstimate(mean=mean, std_error=se, samples=samples, stream_path=stream_path)


def _exact_spread(instance, F):
    """Exact expected cascade size for each row of the (B, m) stack F.

    Consumer u seeds independently with probability F[b, u]. The social edges
    with probability below 1 (at most EXACT_EDGE_LIMIT of them) are
    enumerated live or blocked, the others are always live. In each such
    live-edge world consumer v ends active with probability
    1 - prod_{u reaches v} (1 - F[b, u]) (Kempe, Kleinberg & Tardos, KDD 2003).
    Every (world, seed) pair is one packed run of _propagate; worlds go in
    _chunks that keep the working arrays near DRAW_BUDGET bytes.
    """
    src, prob, heads, cuts = _edge_arrays(instance)
    stoch = np.flatnonzero(prob < 1.0)
    k = stoch.size
    if k > EXACT_EDGE_LIMIT:
        raise ValueError(
            f"exact spread enumeration limited to {EXACT_EDGE_LIMIT} social edges "
            f"with probability below 1, got {k}"
        )
    m = instance.n_consumers
    seeds = np.flatnonzero((F > 0.0).any(axis=0))
    total = np.zeros(F.shape[0])
    if not seeds.size:
        return total
    # log 0 clamps to log(tiny): its exp is below 1e-300, far under rounding
    logq = np.log(np.maximum(1.0 - F[:, seeds], np.finfo(float).tiny)).T
    start = np.zeros((m, seeds.size), dtype=bool)
    start[seeds, np.arange(seeds.size)] = True
    # bytes per world: reach as floats, two (m, B) float arrays, unpacked live
    # bits, and the world's edge bits and factors
    per_world = 8 * (m * (seeds.size + 2 * F.shape[0]) + src.size * seeds.size + 2 * k)
    for part in _chunks(1 << k, per_world):
        worlds = np.arange(part.start, part.stop)
        bits = ((worlds[:, None] >> np.arange(k)) & 1).astype(bool)
        weight = np.where(bits, prob[stoch], 1.0 - prob[stoch]).prod(axis=1)
        active = _pack_runs(np.tile(start, worlds.size))
        live = np.ones((src.size, worlds.size), dtype=bool)
        live[stoch] = bits.T
        live = _pack_runs(np.repeat(live, seeds.size, axis=1))
        _propagate(active, live, src, heads, cuts)
        reach = np.unpackbits(active, axis=1, count=worlds.size * seeds.size)
        logmiss = reach.reshape(m * worlds.size, seeds.size) @ logq
        covered = -np.expm1(logmiss).reshape(m, worlds.size, -1).sum(axis=0)
        total += weight @ covered
    return total


def exact_sigma(instance, X, Y):
    """Exact expected spread for provider set X and consumer set Y.

    Limited to EXACT_EDGE_LIMIT social edges with probability below 1; the
    working memory stays near DRAW_BUDGET bytes.
    """
    f = initial_activation(
        indicator(X, instance.n_providers), indicator(Y, instance.n_consumers), instance.bipartite
    )
    return float(_exact_spread(instance, f[None])[0])


def exact_rho_bar(instance, zbar):
    """Exact expected cascade size when consumer j seeds independently with probability zbar_j.

    zbar is one vector of length m, giving a float, or a (B, m) stack of
    them, giving an array of B values. Same limit as exact_sigma.
    """
    z = np.asarray(zbar, dtype=float)
    m = instance.n_consumers
    if z.ndim not in (1, 2) or z.shape[-1] != m:
        raise ValueError(f"zbar has shape {z.shape}, expected rows of length {m}")
    if not ((z >= 0.0) & (z <= 1.0)).all():
        raise ValueError("zbar entries must lie in [0,1]")
    spread = _exact_spread(instance, np.atleast_2d(z))
    return float(spread[0]) if z.ndim == 1 else spread
