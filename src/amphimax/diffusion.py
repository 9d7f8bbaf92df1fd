"""Cascade sampling, spread estimation, and exact oracles for small instances."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import window_reader
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


def _grouped(keys, *columns):
    """`columns` in the stable order of `keys`, then (heads, cuts): `heads[k]` the key whose rows start at `cuts[k]`.

    The stable sort runs on the narrowest unsigned dtype that holds the largest key present, a radix sort up
    to 16 bits; a negative key fails in bincount.
    """
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))), kind="stable")
    counts = np.bincount(keys)
    heads = np.flatnonzero(counts)
    return *(c[order] for c in columns), heads, (np.cumsum(counts) - counts)[heads]


@lru_cache(maxsize=256)
def _edge_arrays(instance):
    """Social edges grouped by target (see _grouped): (src, prob, heads, cuts), `heads` holding targets."""
    return _grouped(*(instance.social_edges[field] for field in ("target", "source", "prob")))


def _reversed_edges(instance):
    """Social edges reversed, u -> v to v -> u, in the layout of _edge_arrays: `src` holds targets, `heads` sources."""
    src, prob, heads, cuts = _edge_arrays(instance)
    return _grouped(src, np.repeat(heads, np.diff(np.append(cuts, src.size))), prob)


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


def _draw_rows(probs, samples, count, raw):
    """Bernoulli(p) rows for `count` blocks of `samples` runs on one run axis, packed as by _pack_runs.

    Row k holds the runs of p = probs[k], block b as runs b * samples to (b + 1) * samples - 1. Rows
    with p <= 0 stay clear and rows with p >= 1 are set, drawing nothing. Every other row is drawn:
    raw(first, rows) returns the raw 64-bit words of drawn rows [first, first + rows), in [block, row,
    word] order with ceil(samples/2) words per row and block, split into 32-bit halves in memory order;
    run j of a block fires when its half j is below floor(p * 2**32), so p is rounded down to a multiple
    of 2**-32 and a p below 2**-32 never fires. Drawn rows go in _chunks of their raw words or fired
    bits, whichever is larger, one call of raw per chunk. Fired bits take one byte per run, padded to
    whole words, so one flat packbits packs a chunk (on rows of 20 runs, about seven times faster than
    packbits along rows). The bits depend on neither the chunk size nor the other blocks.
    """
    runs, width = count * samples, _word_bytes(count * samples)
    out = np.zeros((probs.size, width), dtype=np.uint8)
    out[probs >= 1.0, : (runs + 7) // 8] = np.packbits(np.ones(runs, dtype=bool))
    drawn = np.flatnonzero((probs > 0.0) & (probs < 1.0))
    # exact for p in (0, 1): scaling by 2**32 is exact and the cast truncates
    thresholds = (probs[drawn] * 2.0**32).astype(np.uint32)
    words = (samples + 1) // 2
    for part in _chunks(drawn.size, max(8 * words * count, 8 * width)):
        rows = part.stop - part.start
        # [b, r, j]: half j of drawn row part.start + r in block b
        halves = raw(part.start, rows).reshape(count, rows, words).view(np.uint32)[:, :, :samples]
        fired = np.empty((rows, 8 * width), dtype=bool)
        fired[:, runs:] = False
        blocks = fired[:, :runs].reshape(rows, count, samples)  # a view: only the last axis splits
        np.less(halves.transpose(1, 0, 2), thresholds[part, None, None], out=blocks)
        del halves  # free these words before the next chunk reads its own
        out[drawn[part]] = np.packbits(fired).reshape(rows, width)
    return out


def _propagate(active, live, src, heads, cuts):
    """Close the packed active sets under live edges, in place.

    `active` holds one row per consumer and `live` one row per edge in target order (see _edge_arrays), one
    bit per run, in uint8 rows padded to whole 64-bit words (see _pack_runs); the loop runs on uint64 views
    of them, 64 runs per word, and on 1-D views when rows are one word (the gather and reduceat run about
    three times faster so). Each round only the newly activated frontier pushes along live edges; with no
    edges there is nothing to push.
    """
    if not src.size:
        return
    words = slice(None) if active.shape[1] > 8 else 0
    active, live = (rows.view(np.uint64)[:, words] for rows in (active, live))
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
    64 runs per word, drawn by _draw_rows from the generator's raw words in
    order (the seeds one row per consumer, then the edges one row per edge
    in target order), so consecutive calls continue its stream. Memory is
    O((m + E) * ceil(samples/64) * 8) bytes plus one chunk under
    DRAW_BUDGET bytes: the draws go in _chunks of rows, and so does the
    count of each run's total, which unpacks the consumer rows a chunk at a
    time (one byte per run and row). When every init probability is 0 no
    run seeds anyone, so the call returns (0.0, 0.0) without drawing and
    does not advance `rng`.
    """
    if not init_probs.any():
        return 0.0, 0.0

    def raw(first, rows):
        return rng.bit_generator.random_raw(rows * ((samples + 1) // 2))

    active = _draw_rows(init_probs, samples, 1, raw)
    src, prob, heads, cuts = _edge_arrays(instance)
    _propagate(active, _draw_rows(prob, samples, 1, raw), src, heads, cuts)
    totals = np.zeros(samples)
    for part in _chunks(active.shape[0], samples):
        totals += np.unpackbits(active[part], axis=1, count=samples).sum(axis=0)
    mean = float(totals.mean())
    std_error = float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, std_error


def _window(instance, samples):
    """Raw words per RR pool window: ceil(samples/2) for the targets and each edge with 0 < p < 1."""
    prob = _edge_arrays(instance)[1]
    drawn = np.count_nonzero((prob > 0.0) & (prob < 1.0))
    return (samples + 1) // 2 * (1 + drawn)


def rr_sampler(instance, samples, key):
    """draw(first, count): packed reverse-reachable (RR) sets, pools first to first + count - 1 of `samples` runs each.

    Run k picks a uniform target consumer, flips every social edge once, and
    collects the consumers that reach the target over live edges (Borgs et
    al., SODA 2014). The sampler sets up once the reversed edges, the window
    length L (see _window) and one window_reader at key. Pool i reads the
    fixed window [i * L, (i + 1) * L) of the raw PCG64DXSM words of
    stream(*key): its first ceil(samples/2) words, split into 32-bit halves
    in memory order, give target k as (half_k * m) >> 32, within 2**-32 of
    1/m for every consumer, and the rest are the raw words of _draw_rows
    for the reversed edges, in the order of _reversed_edges (by original
    source, then target). Pool first + b is block b of the draw: bit
    b * samples + k of row u in the (m, W) uint8 result, packed as by
    _pack_runs, is set when u is in RR set k of that pool, and all of them
    go through one _propagate on the reversed edges, seeded one-hot at the
    targets. The batch's windows are read at once when one chunk of
    _draw_rows holds every window row, else per pool: the targets, then
    each chunk of edge rows; a pool's bits depend on neither the batch nor
    the chunk size. Seeding each consumer u independently with probability
    p_u then spreads to m * E_k[1 - prod_{u in RR_k} (1 - p_u)] in expectation.
    """
    m = instance.n_consumers
    src, prob, heads, cuts = _reversed_edges(instance)
    words = (samples + 1) // 2
    window = _window(instance, samples)
    read = window_reader(key)

    def draw(first, count):
        # rows [row, row + rows) of every window in the batch: row 0 holds the targets, row 1 + r drawn edge r
        if window // words <= max(1, DRAW_BUDGET // (8 * words * count)):
            def raw(row, rows, batch=read(first * window, count * window).reshape(count, window)):
                return batch[:, row * words : (row + rows) * words]
        else:
            def raw(row, rows):
                return np.stack([read((first + b) * window + row * words, rows * words) for b in range(count)])

        halves = raw(0, 1).view(np.uint32)[:, :samples]
        targets = (np.multiply(halves, m, dtype=np.uint64) >> 32).view(np.intp).ravel()
        live = _draw_rows(prob, samples, count, lambda row, rows: raw(1 + row, rows))
        del raw, halves  # free the window words (a batch read is raw's default) before the pool is built
        runs = count * samples
        pool = np.empty((m, _word_bytes(runs)), dtype=np.uint8)
        for part in _chunks(m, runs):
            pool[part] = _pack_runs(np.arange(part.start, part.stop)[:, None] == targets)
        _propagate(pool, live, src, heads, cuts)
        return pool

    return draw


def _sample_count(samples):
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return samples


def estimate_sigma(instance, X, Y, samples, rng, stream_path=None):
    """Monte Carlo estimate of the expected spread for provider set X, consumer set Y."""
    samples = _sample_count(samples)
    f = initial_activation(
        indicator(X, instance.n_providers), indicator(Y, instance.n_consumers), instance.bipartite
    )
    mean, se = _batch_spread(instance, f, samples, rng)
    return SpreadEstimate(mean=mean, std_error=se, samples=samples, stream_path=stream_path)


def estimate_sigma_hat(instance, s, Y, samples, rng, stream_path=None):
    """Forward Monte Carlo estimate of the surrogate spread at net point s.

    Each consumer in Y starts active independently with probability
    1 - exp(-s_j), then the cascade runs as usual. The solver evaluates the
    surrogate on reverse-reachable pools instead.
    """
    samples = _sample_count(samples)
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
    return exact_rho_bar(instance, f)


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
