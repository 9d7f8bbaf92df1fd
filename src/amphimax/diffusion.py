"""Cascade sampling, spread estimation, and exact oracles for small instances."""

import math
from collections import namedtuple
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
# in-edge columns that _propagate ORs as slices; the rest of a hub's in-edges go through one reduceat
SLICE_COLUMNS = 8
_Layout = namedtuple("_Layout", "prob pos src perm columns cuts")


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


def _stable_order(keys):
    """np.argsort(keys, kind="stable") for keys >= 0, on their narrowest unsigned dtype: a radix sort up to 16 bits."""
    return np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))), kind="stable")


@lru_cache(maxsize=256)
def _edge_arrays(instance, reverse=False):
    """The social edges, drawn by target with ties in instance order, as _Layout(prob, pos, src, perm, columns, cuts).

    With reverse, u -> v is v -> u, drawn by (u, v). The k-th drawn has probability prob[k] and position pos[k];
    perm[l] is the consumer labelled l by descending in-degree, src[i] the source label at position i. Column c
    holds the c-th in-edge of each consumer with more than c at its label, so its targets are labels 0 to n_c - 1:
    columns lists (start, n_c) of the first SLICE_COLUMNS in turn, and later in-edges follow by label from cuts on.
    """
    edges = instance.social_edges
    order = _stable_order(edges["target"])
    if reverse:
        order = order[_stable_order(edges["source"][order])]
    # kept arrays first: made after the temporaries, they pinned the heap top (+2 MiB simulate_large RSS)
    prob, pos, src = edges["prob"][order], np.empty_like(order), np.empty_like(order)
    t, m = edges["source" if reverse else "target"][order], instance.n_consumers
    degree = np.bincount(t, minlength=m)
    perm = _stable_order(degree.max(initial=0) - degree)
    label = _stable_order(perm)
    # each edge's rank among its target's in-edges, which t lists together in ascending order
    rank = np.arange(t.size) - (np.cumsum(degree) - degree)[t]
    column = np.minimum(rank, SLICE_COLUMNS)
    sizes = np.bincount(column, minlength=SLICE_COLUMNS + 1)
    starts = np.cumsum(sizes) - sizes
    extra = np.maximum(degree[perm] - SLICE_COLUMNS, 0)
    tails = np.cumsum(extra) - extra
    hubs = np.flatnonzero(column == SLICE_COLUMNS)
    np.take(label, t, out=pos)
    pos[hubs] = tails[pos[hubs]] + rank[hubs] - SLICE_COLUMNS
    pos += starts[column]
    src[pos] = label[edges["target" if reverse else "source"][order]]
    columns = tuple((start, n) for start, n in zip(starts.tolist(), sizes[:-1].tolist()) if n)
    return _Layout(prob, pos, src, perm, columns, starts[-1] + tails[: np.count_nonzero(extra)])


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


def _draw_rows(probs, samples, count, raw, at=None):
    """Bernoulli(p) rows for `count` blocks of `samples` runs on one run axis, packed as by _pack_runs.

    Row k holds the runs of p = probs[k], block b as runs b * samples to (b + 1) * samples - 1, as row at[k]
    of the result (row k when `at` is None). Rows with p <= 0 stay clear and rows with p >= 1 are set,
    drawing nothing. Every other row is drawn, in the order of `probs`: raw(first, rows) returns the raw
    64-bit words of drawn rows [first, first + rows), in [block, row, word] order with ceil(samples/2) words
    per row and block, split into 32-bit halves in memory order; run j of a block fires when its half j is
    below floor(p * 2**32), so p is rounded down to a multiple of 2**-32 and a p below 2**-32 never fires.
    Drawn rows go in _chunks of their raw words or fired bits, whichever is larger, one call of raw per
    chunk. Fired bits take one byte per run, padded to whole words (one fill clears a mostly padding
    buffer), so one flat packbits packs a chunk (on rows of 20 runs, about seven times faster than packbits
    along rows) into 64-bit words. The bits depend on neither the chunk size nor the other blocks.
    """
    runs, width = count * samples, _word_bytes(count * samples)
    certain, drawn = probs >= 1.0, np.flatnonzero((probs > 0.0) & (probs < 1.0))
    # exact for p in (0, 1): scaling by 2**32 is exact and the cast truncates
    thresholds = (probs[drawn] * 2.0**32).astype(np.uint32)
    certain, drawn = (certain, drawn) if at is None else (at[certain], at[drawn])
    out = np.zeros((probs.size, width // 8), dtype=np.uint64)
    out.view(np.uint8)[certain, : (runs + 7) // 8] = np.packbits(np.ones(runs, dtype=bool))
    words = (samples + 1) // 2
    for part in _chunks(drawn.size, max(8 * words * count, 8 * width)):
        rows = part.stop - part.start
        # [b, r, j]: half j of drawn row part.start + r in block b
        halves = raw(part.start, rows).reshape(count, rows, words).view(np.uint32)[:, :, :samples]
        fired = np.empty((rows, 8 * width), dtype=bool)
        (fired if 2 * runs < 8 * width else fired[:, runs:]).fill(False)
        blocks = fired[:, :runs].reshape(rows, count, samples)  # a view: only the last axis splits
        np.less(halves.transpose(1, 0, 2), thresholds[part, None, None], out=blocks)
        del halves  # free these words before the next chunk reads its own
        out[drawn[part]] = np.packbits(fired).view(np.uint64).reshape(rows, -1)
    return out.view(np.uint8)


def _propagate(active, live, layout):
    """Close the packed active sets under the live edges of an _edge_arrays layout, in place.

    `active` holds one row per consumer and `live` one per layout position, one bit per run, in uint8 rows
    padded to whole 64-bit words (see _pack_runs), seen as uint64, 1-D when rows are one word, the active rows in
    label order. Each round gathers the frontier's bits at every position's source (a consumer without in-edges
    repeats its first push, to no effect), keeps the live ones, ORs the sliced columns into column 0 as slices
    and the later in-edges by one reduceat; the targets' bits not yet active are the next frontier.
    """
    if not layout.src.size:
        return
    words = slice(None) if active.shape[1] > 8 else 0
    active, live = (rows.view(np.uint64)[:, words] for rows in (active, live))
    (_, targets), *columns = layout.columns
    frontier = active[layout.perm]
    inactive, joined, push = ~frontier[:targets], frontier[:targets], np.empty_like(live)
    while True:
        np.take(frontier, layout.src, axis=0, out=push, mode="clip")  # "raise" would buffer `out`
        push &= live
        for start, n in columns:
            push[:n] |= push[start : start + n]
        if layout.cuts.size:
            push[: layout.cuts.size] |= np.bitwise_or.reduceat(push, layout.cuts, axis=0)
        np.bitwise_and(push[:targets], inactive, out=joined)
        if not joined.any():
            break
        inactive ^= joined
    active[layout.perm[:targets]] = ~inactive  # its padding bits stay set, so these stay clear


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
    layout = _edge_arrays(instance)
    _propagate(active, _draw_rows(layout.prob, samples, 1, raw, layout.pos), layout)
    totals = np.zeros(samples)
    for part in _chunks(active.shape[0], samples):
        totals += np.unpackbits(active[part], axis=1, count=samples).sum(axis=0)
    mean = float(totals.mean())
    std_error = float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, std_error


def _window(instance, samples):
    """Raw words per RR pool window: ceil(samples/2) for the targets and each edge with 0 < p < 1."""
    prob = _edge_arrays(instance).prob
    return (samples + 1) // 2 * (1 + np.count_nonzero((prob > 0.0) & (prob < 1.0)))


def rr_sampler(instance, samples, key):
    """draw(first, count): packed reverse-reachable (RR) sets, pools first to first + count - 1 of `samples` runs each.

    Run k picks a uniform target consumer, flips every social edge once, and
    collects the consumers that reach the target over live edges (Borgs et al.,
    SODA 2014). The sampler sets up once the reversed edges, the window length L
    (see _window) and one window_reader at key. Pool i reads the fixed window
    [i * L, (i + 1) * L) of the raw PCG64DXSM words of stream(*key): its first
    ceil(samples/2) words, split into 32-bit halves in memory order, give target
    k as (half_k * m) >> 32, within 2**-32 of 1/m for every consumer, and the
    rest are the raw words of _draw_rows for the reversed edges, in their draw
    order (by original source, then target). Pool first + b is block b of the
    draw: bit b * samples + k of row u in the (m, W) uint8 result, packed as by
    _pack_runs, is set when u is in RR set k of that pool, and all of them go
    through one _propagate on the reversed edges, seeded one-hot at the targets.
    The batch's windows are read at once when one chunk of _draw_rows holds
    every window row, else per pool: the targets, then each chunk of edge rows;
    a pool's bits depend on neither the batch nor the chunk size. Seeding each
    consumer u independently with probability p_u then spreads to
    m * E_k[1 - prod_{u in RR_k} (1 - p_u)] in expectation.
    """
    m = instance.n_consumers
    layout = _edge_arrays(instance, True)
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
        live = _draw_rows(layout.prob, samples, count, lambda row, rows: raw(1 + row, rows), layout.pos)
        del raw, halves  # free the window words (a batch read is raw's default) before the pool is built
        runs = count * samples
        pool = np.empty((m, _word_bytes(runs)), dtype=np.uint8)
        for part in _chunks(m, runs):
            pool[part] = _pack_runs(np.arange(part.start, part.stop)[:, None] == targets)
        _propagate(pool, live, layout)
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
    prob = (layout := _edge_arrays(instance)).prob
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
    per_world = 8 * (m * (seeds.size + 2 * F.shape[0]) + prob.size * seeds.size + 2 * k)
    for part in _chunks(1 << k, per_world):
        worlds = np.arange(part.start, part.stop)
        bits = ((worlds[:, None] >> np.arange(k)) & 1).astype(bool)
        weight = np.where(bits, prob[stoch], 1.0 - prob[stoch]).prod(axis=1)
        active = _pack_runs(np.tile(start, worlds.size))
        live = np.ones((prob.size, worlds.size), dtype=bool)
        live[layout.pos[stoch]] = bits.T
        live = _pack_runs(np.repeat(live, seeds.size, axis=1))
        _propagate(active, live, layout)
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
