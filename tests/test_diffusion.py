import itertools
import math
import tracemalloc

import numpy as np
import pytest

from amphimax import diffusion
from amphimax._rng import stream
from amphimax.diffusion import (
    DEFAULT_MC_EPS,
    default_sample_count,
    estimate_sigma,
    estimate_sigma_hat,
    exact_rho_bar,
    exact_sigma,
)
from amphimax.generators import gen_rank_r, random_digraph
from amphimax.instance import AimInstance
from amphimax.relaxation import indicator, initial_activation, net_relaxation
from reference import closure


def make_instance(M, edges=(), b1=1, b2=1, lam=20):
    M = np.asarray(M, dtype=float)
    return AimInstance(M, tuple(edges), b1, b2, lam)


def adjacency(instance):
    """Out-edge lists [(target, probability), ...] indexed by source consumer."""
    out = [[] for _ in range(instance.n_consumers)]
    for u, w, p in instance.social_edges:
        out[u].append((w, p))
    return out


def sample_initial_set(x, y, M, rng):
    """One draw of the directly activated consumer set."""
    probs = initial_activation(x, y, M)
    return np.flatnonzero(rng.random(probs.size) < probs)


def simulate_ic(adj, initial, rng):
    """Reference cascade run over lazily sampled out-edges.

    Forward exploration from the initial set; each out-edge of a node is
    flipped exactly once, when its source first activates. The vectorized
    estimators flip every edge up front instead and are checked against this.
    """
    active = set(int(v) for v in initial)
    frontier = list(active)
    while frontier:
        nxt = []
        for v in frontier:
            for w, p in adj[v]:
                if w not in active and rng.random() < p:
                    active.add(w)
                    nxt.append(w)
        frontier = nxt
    return active


def reference_draws(rng, samples, probs):
    """(samples, probs.size) bool draws, taken as the packed kernel takes them.

    Column by column: p <= 0 never fires and p >= 1 always fires, neither
    drawing; any other p takes ceil(samples/2) raw 64-bit words of its own,
    read as 32-bit halves, and run j fires when half j is below
    floor(p * 2**32).
    """
    out = np.zeros((samples, len(probs)), dtype=bool)
    for k, p in enumerate(probs):
        if p >= 1.0:
            out[:, k] = True
        elif p > 0.0:
            halves = rng.bit_generator.random_raw((samples + 1) // 2).view(np.uint32)
            out[:, k] = halves[:samples] < math.floor(p * 2**32)
    return out


def dense_batch_spread(instance, init_probs, samples, rng):
    """Reference kernel: boolean runs x consumers, one dense matmul per round.

    Draws seeds then live edges exactly as the bit-packed kernel does, the
    edges grouped by target (stable), and pushes from every active consumer
    through an E x m incidence array.
    """
    edges = instance.social_edges
    src = np.array([e[0] for e in edges], dtype=np.intp)
    dst = np.array([e[1] for e in edges], dtype=np.intp)
    prob = np.array([e[2] for e in edges], dtype=float)
    inc = np.zeros((len(edges), instance.n_consumers), dtype=np.float32)
    if len(edges):
        inc[np.arange(len(edges)), dst] = 1.0
    active = reference_draws(rng, samples, init_probs)
    if src.size:
        by_target = np.argsort(dst, kind="stable")
        live = np.empty((samples, src.size), dtype=bool)
        live[:, by_target] = reference_draws(rng, samples, prob[by_target])
        while True:
            push = active[:, src] & live
            counts = push.astype(np.float32) @ inc
            new = (counts > 0.0) & ~active
            if not new.any():
                break
            active |= new
    totals = active.sum(axis=1).astype(float)
    mean = float(totals.mean())
    std_error = float(totals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, std_error


def spread_by_full_enumeration(instance, Z):
    """Independent oracle: enumerate live/blocked for every edge, p=1 included."""
    edges = instance.social_edges
    total = 0.0
    for mask in range(1 << len(edges)):
        weight = 1.0
        out = {}
        for k, (u, w, p) in enumerate(edges):
            if mask >> k & 1:
                weight *= p
                out.setdefault(u, []).append(w)
            else:
                weight *= 1.0 - p
        if weight == 0.0:
            continue
        seen = set(Z)
        frontier = list(seen)
        while frontier:
            nxt = [w for v in frontier for w in out.get(v, ()) if w not in seen]
            seen.update(nxt)
            frontier = nxt
        total += weight * len(seen)
    return total


HALF_PAIR = make_instance([[0.5, 0.5]], edges=[(0, 1, 0.5)], lam=1)

KERNEL_CASES = {
    "no_edges": make_instance(np.full((1, 4), 0.5), lam=1),
    "certain_chain": make_instance(np.full((1, 4), 0.5), edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], lam=1),
    "cycle": make_instance(np.full((1, 4), 0.5), edges=[(0, 1, 0.7), (1, 2, 0.6), (2, 3, 0.8), (3, 0, 0.9)], lam=1),
    # consumer 4 has four in-edges; consumer 5 has none and only points out
    "fan_in": make_instance(
        np.full((1, 6), 0.5),
        edges=[(5, 0, 0.5), (0, 4, 0.3), (1, 4, 0.2), (2, 4, 1.0), (3, 4, 0.4), (4, 1, 0.5)],
        lam=1,
    ),
    "rank_r": gen_rank_r(3, 12, 2, social_edge_count=40, seed=4),
    # consumers 3 and 12 have 11 and 9 in-edges, past the 8 sliced columns; 15 has no edges
    "hubs": make_instance(
        np.full((1, 16), 0.5),
        edges=[(u, 3, 0.1 + 0.07 * u) for u in (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11)]
        + [(u, 12, 1.0 if u % 4 == 0 else 0.3) for u in range(9)]
        + [(3, 13, 0.5), (13, 14, 1.0), (14, 0, 0.4)],
        lam=1,
    ),
}


def _init_probs(m, seed):
    rng = np.random.default_rng([seed, 99])
    init = rng.random(m) * (rng.random(m) < 0.5)
    init[rng.random(m) < 0.2] = 1.0
    return init


def test_default_sample_count():
    assert default_sample_count() == 1060
    assert default_sample_count(0.05) == math.ceil(math.log(40.0) / (2 * DEFAULT_MC_EPS**2))


def exact_ic(instance, Z):
    """Exact plain cascade spread of seed set Z: the extension at a 0/1 vector."""
    return exact_rho_bar(instance, indicator(Z, instance.n_consumers))


def test_exact_ic_deterministic_path():
    inst = make_instance([[1.0, 1.0, 1.0]], edges=[(0, 1, 1.0), (1, 2, 1.0)], lam=1)
    assert exact_ic(inst, {0}) == 3.0
    assert exact_ic(inst, {2}) == 1.0
    assert exact_ic(inst, ()) == 0.0


def test_exact_ic_matches_full_enumeration():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        count = int(rng.integers(0, min(6, m * (m - 1)) + 1))
        pairs = [(u, w) for u in range(m) for w in range(m) if u != w]
        idx = rng.choice(len(pairs), size=count, replace=False)
        edges = []
        for k in idx:
            p = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.1, 0.9))
            edges.append((*pairs[k], p))
        inst = make_instance(np.full((1, m), 0.5), edges=edges, lam=1)
        for _ in range(4):
            Z = tuple(np.flatnonzero(rng.random(m) < 0.5))
            got = exact_ic(inst, Z)
            want = spread_by_full_enumeration(inst, Z)
            assert abs(got - want) < 1e-12


PAIRS_OF_6 = [(u, w) for u in range(6) for w in range(6) if u != w]
# one edge below probability 1 over the exact oracles' limit
TOO_MANY_EDGES = make_instance(np.full((1, 6), 0.5), edges=[(u, w, 0.5) for u, w in PAIRS_OF_6[:23]], lam=1)
GUARD = "limited to 22 social edges with probability below 1, got 23"


def test_exact_ic_guard():
    with pytest.raises(ValueError, match=GUARD):
        exact_ic(TOO_MANY_EDGES, {0})
    # only edges below probability 1 count: 30 certain edges make 0..5 one
    # block, then 0 -> 6 -> 7 at 0.5 each
    edges = [(u, w, 1.0) for u, w in PAIRS_OF_6] + [(0, 6, 0.5), (6, 7, 0.5)]
    inst = make_instance(np.full((1, 8), 0.5), edges=edges, lam=1)
    assert abs(exact_ic(inst, {3}) - 6.75) < 1e-12


def test_exact_ic_seed_range_check():
    for X, Y in [((0,), (5,)), ((9,), (0,))]:
        with pytest.raises(ValueError, match="out of range"):
            exact_sigma(HALF_PAIR, X, Y)


def test_exact_sigma_hand_computed_example():
    # one provider at 0.5 on v1, edge v1->v2 at 0.5: 0.5 + 0.25
    assert abs(exact_sigma(HALF_PAIR, (0,), (0,)) - 0.75) < 1e-15
    assert abs(exact_sigma(HALF_PAIR, (0,), (1,)) - 0.5) < 1e-15


def test_exact_sigma_trivial_cases():
    assert exact_sigma(HALF_PAIR, (), (0, 1)) == 0.0
    assert exact_sigma(HALF_PAIR, (0,), ()) == 0.0
    det = make_instance([[1.0, 1.0]], edges=[(0, 1, 1.0)], lam=1)
    assert exact_sigma(det, (0,), (0,)) == 2.0


def test_exact_sigma_guard_message():
    # bipartite entries do not count toward the limit
    inst = make_instance(np.full((6, 4), 0.5), lam=1)
    assert abs(exact_sigma(inst, range(6), range(4)) - 4 * (1 - 0.5**6)) < 1e-12
    with pytest.raises(ValueError, match=GUARD):
        exact_sigma(TOO_MANY_EDGES, (0,), (0,))


def test_exact_sigma_classic_im_reduction():
    # all-ones matrix: direct activation is certain, so sigma equals the
    # plain cascade spread of Y
    inst = make_instance(np.ones((2, 3)), edges=[(0, 1, 0.4), (2, 0, 0.7)], lam=1)
    for size in (1, 2):
        for Y in itertools.combinations(range(3), size):
            assert abs(exact_sigma(inst, (0,), Y) - spread_by_full_enumeration(inst, Y)) < 1e-12


def test_exact_sigma_against_independent_activation_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(5):
        M = rng.uniform(0.1, 0.9, size=(2, 3))
        edges = [(0, 1, float(rng.uniform(0.2, 0.8))), (1, 2, 1.0)]
        inst = make_instance(M, edges=edges, lam=4)
        X, Y = (0, 1), (0, 2)
        f = initial_activation(indicator(X, 2), indicator(Y, 3), M)
        want = 0.0
        for bits in itertools.product((0, 1), repeat=3):
            w = math.prod(f[j] if bits[j] else 1.0 - f[j] for j in range(3))
            want += w * spread_by_full_enumeration(inst, [j for j in range(3) if bits[j]])
        assert abs(exact_sigma(inst, X, Y) - want) < 1e-12


def test_exact_rho_bar_degenerate_and_zero():
    assert exact_rho_bar(HALF_PAIR, [1.0, 0.0]) == 1.5
    assert exact_rho_bar(HALF_PAIR, [0.0, 0.0]) == 0.0


def test_exact_rho_bar_scaling_property():
    rng = np.random.default_rng(44)
    inst = make_instance(np.full((1, 4), 0.5), edges=[(0, 1, 0.5), (2, 3, 0.8), (1, 2, 1.0)], lam=1)
    for _ in range(20):
        z = rng.random(4)
        base = exact_rho_bar(inst, z)
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert exact_rho_bar(inst, alpha * z) >= alpha * base - 1e-12


def test_exact_rho_bar_validation():
    with pytest.raises(ValueError, match="length"):
        exact_rho_bar(HALF_PAIR, [0.5])
    with pytest.raises(ValueError, match="length"):
        exact_rho_bar(HALF_PAIR, np.full((2, 2, 2), 0.5))
    for bad in ([0.5, 1.5], [0.5, float("nan")], [[0.5, 0.5], [-0.1, 0.5]]):
        with pytest.raises(ValueError, match="lie in \\[0,1\\]"):
            exact_rho_bar(HALF_PAIR, bad)
    with pytest.raises(ValueError, match=GUARD):
        exact_rho_bar(TOO_MANY_EDGES, np.full(6, 0.5))


def test_exact_rho_bar_counts_no_consumers_toward_the_limit():
    big = make_instance(np.full((1, 23), 0.5), lam=1)
    assert abs(exact_rho_bar(big, np.full(23, 0.5)) - 11.5) < 1e-12


def test_exact_rho_bar_stack_matches_rows():
    inst = KERNEL_CASES["fan_in"]
    Z = np.random.default_rng(3).random((5, 6))
    Z[1] = 0.0
    Z[2, :3] = 1.0
    # 32 worlds of the five edges below probability 1: six seed columns fill
    # three whole 64-run words, five leave the last word partly padding
    partial = Z.copy()
    partial[:, 5] = 0.0
    for stack in (Z, partial):
        got = exact_rho_bar(inst, stack)
        assert got.shape == (5,) and got[1] == 0.0
        for row, value in zip(stack, got):
            assert abs(exact_rho_bar(inst, row) - value) < 1e-12


def test_exact_spread_in_small_world_chunks(monkeypatch):
    # "cycle" has 4 edges below probability 1: 16 worlds, one chunk by default
    inst = KERNEL_CASES["cycle"]
    z = _init_probs(4, 1)
    want = exact_rho_bar(inst, z)
    calls = []
    propagate = diffusion._propagate

    def counting(*args):
        calls.append(args)
        propagate(*args)

    monkeypatch.setattr(diffusion, "_propagate", counting)
    assert exact_rho_bar(inst, z) == want and len(calls) == 1
    monkeypatch.setattr(diffusion, "DRAW_BUDGET", 1)
    calls.clear()
    assert abs(exact_rho_bar(inst, z) - want) < 1e-12
    assert len(calls) == 16


def test_simulate_ic_deterministic_and_empty():
    inst = make_instance([[1.0, 1.0, 1.0]], edges=[(0, 1, 1.0), (1, 2, 1.0)], lam=1)
    adj = adjacency(inst)
    rng = stream(0, "sim")
    assert simulate_ic(adj, [0], rng) == {0, 1, 2}
    assert simulate_ic(adj, [], rng) == set()


def test_simulate_ic_single_edge_frequency():
    adj = adjacency(HALF_PAIR)
    rng = stream(1, "freq")
    runs = 20000
    hits = sum(len(simulate_ic(adj, [0], rng)) == 2 for _ in range(runs))
    se = math.sqrt(0.25 / runs)
    assert abs(hits / runs - 0.5) <= 4 * se


def test_sample_initial_set():
    M = np.array([[0.5, 0.5]])
    rng = stream(2, "init")
    assert sample_initial_set(np.zeros(1), np.ones(2), M, rng).size == 0
    ones = np.ones((1, 2))
    z = sample_initial_set(np.ones(1), np.array([1.0, 0.0]), ones, rng)
    assert np.array_equal(z, [0])
    hits = sum(0 in sample_initial_set(np.ones(1), np.ones(2), M, rng) for _ in range(20000))
    assert abs(hits / 20000 - 0.5) <= 4 * math.sqrt(0.25 / 20000)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
@pytest.mark.parametrize("samples", [1, 7, 8, 9, 63, 64, 65, 129, 1001])
def test_packed_kernel_equals_dense_reference(case, samples):
    inst = KERNEL_CASES[case]
    for seed in range(3):
        init = _init_probs(inst.n_consumers, seed)
        got = diffusion._batch_spread(inst, init, samples, np.random.default_rng(seed))
        want = dense_batch_spread(inst, init, samples, np.random.default_rng(seed))
        assert got == want


def check_layout(layout, sources, targets, probs, m):
    """The _edge_arrays layout holds sources[k] -> targets[k] (k in draw order) once each, in in-degree columns."""
    E = sources.size
    assert np.array_equal(layout.prob, probs) and layout.prob.dtype == float
    assert np.array_equal(np.sort(layout.perm), np.arange(m))
    assert np.array_equal(np.sort(layout.pos), np.arange(E))
    # labels run by descending in-degree, ties by node
    degree = np.bincount(targets, minlength=m)[layout.perm]
    assert np.all((np.diff(degree) < 0) | ((np.diff(degree) == 0) & (np.diff(layout.perm) > 0)))
    # column c holds the first n_c target labels, the columns follow one another, n_c shrinking
    label_at = np.full(E, -1)
    start = 0
    for c, (first, n) in enumerate(layout.columns):
        assert first == start and n == np.count_nonzero(degree > c)
        label_at[first : first + n] = np.arange(n)
        start += n
    assert len(layout.columns) == min(diffusion.SLICE_COLUMNS, degree.max(initial=0))
    # the later in-edges of each hub, grouped by label from the cuts on
    hubs = np.count_nonzero(degree > diffusion.SLICE_COLUMNS)
    assert layout.cuts.size == hubs
    bounds = [*layout.cuts.tolist(), E]
    assert bounds[0] == start
    for label in range(hubs):
        assert bounds[label + 1] - bounds[label] == degree[label] - diffusion.SLICE_COLUMNS
        label_at[bounds[label] : bounds[label + 1]] = label
    assert (label_at >= 0).all()
    # each edge sits at its position once, its source given as a label
    assert np.array_equal(layout.perm[layout.src[layout.pos]], sources)
    assert np.array_equal(layout.perm[label_at[layout.pos]], targets)
    # a target's columns, then its group, hold its in-edges in draw order
    drawn = np.argsort(layout.pos)
    for label in range(np.count_nonzero(degree)):
        slots = [first + label for first, n in layout.columns if label < n]
        slots += list(range(bounds[label], bounds[label + 1])) if label < hubs else []
        assert np.all(np.diff(drawn[slots]) > 0)
    for a in layout[:4]:
        assert a.flags.c_contiguous


# endpoints at or above 65,536 no longer fit a 16-bit sort key; ties keep their order
LAYOUT_CASES = {
    **KERNEL_CASES,
    "wide": make_instance(
        np.full((1, 70_000), 0.5),
        edges=[(69_999, 65_536, 0.5), (3, 65_536, 0.25), (65_536, 3, 0.5), (65_535, 69_999, 1.0),
               (0, 65_535, 0.5), (69_998, 69_999, 0.75), (65_536, 0, 0.3)],
        lam=1,
    ),
    "wide_no_edges": make_instance(np.full((1, 70_000), 0.5), lam=1),
    "large": gen_rank_r(4, 300, 1, social_edge_count=3000, seed=5),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_edge_arrays_equal_the_per_edge_build(case):
    # edges are drawn by target, ties in instance order
    inst = LAYOUT_CASES[case]
    edges = inst.social_edges
    src = np.array([e[0] for e in edges], dtype=np.intp)
    dst = np.array([e[1] for e in edges], dtype=np.intp)
    order = np.argsort(dst, kind="stable")
    probs = np.array([e[2] for e in edges], dtype=float)[order]
    check_layout(diffusion._edge_arrays.__wrapped__(inst), src[order], dst[order], probs, inst.n_consumers)


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_reversed_edges_equal_the_per_edge_build(case):
    inst = LAYOUT_CASES[case]
    edges = inst.social_edges
    src = np.array([e[0] for e in edges], dtype=np.intp)
    dst = np.array([e[1] for e in edges], dtype=np.intp)
    # edge u -> v becomes v -> u, drawn by (u, v); the graph is simple, so
    # (u, v) orders the edges completely
    order = np.lexsort((dst, src))
    probs = np.array([e[2] for e in edges], dtype=float)[order]
    check_layout(diffusion._edge_arrays.__wrapped__(inst, True), dst[order], src[order], probs, inst.n_consumers)


def propagate_cases():
    """(name, instance) pairs: random graphs, one with a hub past the sliced columns, one without edges."""
    rng = np.random.default_rng(31)
    hub = [(u, 7, 0.5) for u in range(40) if u != 7] + [(7, v, 0.5) for v in range(40, 60)]
    hub += [e for e in random_digraph(60, 90, rng).tolist() if 7 not in e[:2]]
    return {
        "sparse": make_instance(np.full((1, 30), 0.5), random_digraph(30, 45, rng).tolist(), lam=1),
        "dense": make_instance(np.full((1, 25), 0.5), random_digraph(25, 300, rng).tolist(), lam=1),
        "hub": make_instance(np.full((1, 60), 0.5), hub, lam=1),
        "no_edges": make_instance(np.full((1, 12), 0.5), lam=1),
    }


@pytest.mark.parametrize("case", sorted(propagate_cases()))
@pytest.mark.parametrize("runs", [1, 20, 64, 65, 200])
@pytest.mark.parametrize("reverse", [False, True])
def test_propagate_equals_a_per_run_closure(case, runs, reverse):
    # one-word rows (up to 64 runs) and multi-word rows, over both layouts
    inst = propagate_cases()[case]
    m, edges = inst.n_consumers, inst.social_edges
    layout = diffusion._edge_arrays.__wrapped__(inst, reverse)
    pairs = np.array([(e[0], e[1]) for e in edges], dtype=np.intp).reshape(-1, 2)
    if reverse:
        pairs = pairs[:, ::-1][np.lexsort((pairs[:, 1], pairs[:, 0]))]
    else:
        pairs = pairs[np.argsort(pairs[:, 1], kind="stable")]
    rng = np.random.default_rng([runs, len(edges)])
    for density in (0.02, 0.3):
        live = rng.random((len(edges), runs)) < 0.6
        seeds = rng.random((m, runs)) < density
        placed = np.empty((len(edges), diffusion._word_bytes(runs)), dtype=np.uint8)
        placed[layout.pos] = diffusion._pack_runs(live)
        active = diffusion._pack_runs(seeds)
        diffusion._propagate(active, placed, layout)
        bits = np.unpackbits(active, axis=1)
        assert np.array_equal(bits[:, :runs], closure(m, pairs.tolist(), live, seeds))
        assert not bits[:, runs:].any()


def test_a_hub_propagates_through_its_later_in_edges():
    # consumer 0's only live in-edge is its last, past the sliced columns
    edges = [(u, 0, 0.5) for u in range(1, 12)]
    inst = make_instance(np.full((1, 12), 0.5), edges, lam=1)
    layout = diffusion._edge_arrays.__wrapped__(inst)
    assert layout.cuts.size == 1
    live = np.zeros((11, 1), dtype=bool)
    live[10] = True  # the edge 11 -> 0, drawn last
    placed = np.empty((11, 8), dtype=np.uint8)
    placed[layout.pos] = diffusion._pack_runs(live)
    active = diffusion._pack_runs(np.eye(12, 1, -11, dtype=bool))  # consumer 11 alone
    diffusion._propagate(active, placed, layout)
    assert np.flatnonzero(np.unpackbits(active, axis=1)[:, 0]).tolist() == [0, 11]


@pytest.mark.parametrize("case", ["fan_in", "rank_r", "large"])
@pytest.mark.parametrize("samples, count", [(1, 1), (20, 1), (20, 3), (65, 2), (300, 1)])
def test_rows_drawn_into_the_layout_are_the_draw_order_rows_moved(case, samples, count):
    layout = diffusion._edge_arrays(LAYOUT_CASES[case])
    words = raw_words(np.random.default_rng(samples), count, layout.prob, samples)

    def raw(first, rows):
        return words[:, first : first + rows]

    rows = diffusion._draw_rows(layout.prob, samples, count, raw)
    placed = diffusion._draw_rows(layout.prob, samples, count, raw, layout.pos)
    assert placed.dtype == np.uint8 and np.array_equal(placed[layout.pos], rows)


def reference_pool(instance, samples, rng):
    """RR sets as a (m, samples) bool array, one backward search per run.

    Takes the words an rr_sampler draw reads from a pool's window, from
    an `rng` whose raw words start at that window: ceil(samples/2) words
    whose 32-bit halves give the targets as (half * m) >> 32, then the live
    edges as reference_draws takes them, edges ordered by (source, target).
    """
    m, edges = instance.n_consumers, instance.social_edges.tolist()
    halves = rng.bit_generator.random_raw((samples + 1) // 2).view(np.uint32)[:samples]
    targets = [int(half) * m >> 32 for half in halves]
    live = np.empty((samples, len(edges)), dtype=bool)
    if edges:
        by_source = np.lexsort(([e[1] for e in edges], [e[0] for e in edges]))
        live[:, by_source] = reference_draws(rng, samples, np.array([e[2] for e in edges])[by_source])
    into = [[] for _ in range(m)]
    for k, (u, v, _) in enumerate(edges):
        into[v].append((u, k))
    out = np.zeros((m, samples), dtype=bool)
    for run, target in enumerate(targets):
        seen, frontier = {target}, [target]
        while frontier:
            frontier = [u for v in frontier for u, k in into[v] if live[run, k] and u not in seen]
            seen.update(frontier)
        out[sorted(seen), run] = True
    return out


def window_length(instance, samples):
    """Raw words per pool window: the targets' and every drawn edge's ceil(samples/2)."""
    drawn = sum(0.0 < p < 1.0 for _, _, p in instance.social_edges)
    return (samples + 1) // 2 * (1 + drawn)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
@pytest.mark.parametrize("samples", [1, 9, 63, 64, 65, 300])
def test_reverse_reachable_pool_equals_a_backward_search(case, samples):
    inst = KERNEL_CASES[case]
    for seed in range(3):
        # pool `seed` at the key: the window after `seed` earlier ones
        key = (seed, "rr-check")
        pool = diffusion.rr_sampler(inst, samples, key)(seed, 1)
        rng = stream(*key)
        rng.bit_generator.random_raw(seed * window_length(inst, samples))
        want = reference_pool(inst, samples, rng)
        assert pool.dtype == np.uint8 and pool.shape == (inst.n_consumers, 8 * ((samples + 63) // 64))
        bits = np.unpackbits(pool, axis=1)
        assert np.array_equal(bits[:, :samples], want)
        assert not bits[:, samples:].any()  # padding stays clear for _propagate


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
@pytest.mark.parametrize("samples", [1, 63, 65, 300])
def test_each_pool_of_a_batch_equals_its_own_draw(monkeypatch, case, samples):
    # pool i reads its own window whatever is read with it: drawn alone by
    # a sampler of its own, by one sampler after other windows, in a batch
    # of 5 on one run axis and through one _propagate, and with the window
    # rows read in chunks of one row; every read goes through the reader
    inst = KERNEL_CASES[case]
    key = (3, "batch-check")
    alone = [diffusion.rr_sampler(inst, samples, key)(i, 1) for i in range(2, 7)]
    reads = []
    window_reader = diffusion.window_reader

    def counting_reader(address):
        read = window_reader(address)
        return lambda start, count: reads.append((address, start, count)) or read(start, count)

    monkeypatch.setattr(diffusion, "window_reader", counting_reader)
    draw = diffusion.rr_sampler(inst, samples, key)
    for budget in (1, diffusion.DRAW_BUDGET):
        monkeypatch.setattr(diffusion, "DRAW_BUDGET", budget)
        for i, pool in enumerate(alone, start=2):
            assert np.array_equal(draw(i, 1), pool), (budget, i)
        reads.clear()
        pools = draw(2, 5)
        assert pools.dtype == np.uint8 and pools.shape == (inst.n_consumers, 8 * ((5 * samples + 63) // 64))
        bits = np.unpackbits(pools, axis=1)
        assert not bits[:, 5 * samples :].any()  # padding stays clear for _propagate
        for k, pool in enumerate(alone):
            want = np.unpackbits(pool, axis=1, count=samples)
            assert np.array_equal(bits[:, k * samples : (k + 1) * samples], want), (budget, k)
        # one read of the 5 adjacent windows when one chunk holds every row,
        # else one read per pool and row
        window = window_length(inst, samples)
        rows = 1 + sum(0.0 < p < 1.0 for _, _, p in inst.social_edges)
        if budget > 1 or rows == 1:
            assert reads == [(key, 2 * window, 5 * window)]
        else:
            words = (samples + 1) // 2
            assert reads == [(key, i * window + r * words, words) for r in range(rows) for i in range(2, 7)]


@pytest.mark.parametrize("m", [3, 7])
def test_targets_are_uniform(m):
    # no edges: every RR set is its target alone, so row u counts the runs
    # that picked u; 2**20 runs put each count within 5 standard errors of
    # runs / m
    inst = make_instance(np.full((1, m), 0.5), lam=1)
    runs = 1 << 20
    pool = diffusion.rr_sampler(inst, runs, (0, "uniform", m))(0, 1)
    counts = np.unpackbits(pool, axis=1).sum(axis=1)
    assert counts.sum() == runs
    se = math.sqrt(runs * (1.0 / m) * (1.0 - 1.0 / m))
    assert np.all(np.abs(counts - runs / m) < 5.0 * se), counts


def test_pool_surrogate_matches_exact_rho_bar():
    # sigma_hat(s, Y) = m * E_k[1 - exp(-sum of s over RR_k and Y)] on a pool
    samples = 4000
    for k in range(6):
        inst = gen_rank_r(3, 6, 1, social_edge_count=4 + k, seed=20 + k)
        pick = np.random.default_rng([k, 5])
        s = 0.1 + 2.0 * pick.random(6)
        s[k] = 0.0  # a zero coordinate seeds nobody
        y = indicator(pick.choice(6, 3, replace=False), 6)
        pool = diffusion.rr_sampler(inst, samples, (k, "pool-check"))(0, 1)
        rr = np.unpackbits(pool, axis=1, count=samples).T
        values = 6.0 * -np.expm1(-(rr @ (s * y)))
        se = values.std(ddof=1) / math.sqrt(samples)
        want = exact_rho_bar(inst, net_relaxation(s, y))
        assert se > 0.0
        assert abs(values.mean() - want) <= 3.0 * se, (k, values.mean(), want, se)


def test_pool_memory_is_bounded_on_a_large_graph():
    # m=3,000, E=20,000: unpacked, the live edges alone would be E x 4,000
    # bools (76 MiB) and their uniforms 610 MiB; packed they are 9.8 MiB
    inst = gen_rank_r(20, 3000, 2, social_edge_count=20000, seed=3)
    tracemalloc.start()
    try:
        pool = diffusion.rr_sampler(inst, 4000, (0, "big-pool"))(0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pool.shape == (3000, 8 * 63)
    assert peak < 64 * 2**20


class CountingRng:
    """A generator that counts the raw-word draws taken from it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0
        self.bit_generator = self

    def random_raw(self, size):
        self.calls += 1
        return self.rng.bit_generator.random_raw(size)


def raw_words(rng, count, probs, samples):
    """Raw words of rng as the drawn rows of `count` blocks take them: a (count, drawn rows, ceil(samples/2)) array."""
    drawn = np.count_nonzero((probs > 0.0) & (probs < 1.0))
    return rng.bit_generator.random_raw((count, drawn, (samples + 1) // 2))


def draw_blocks(probs, samples, count, words, calls=None):
    """_draw_rows of `count` blocks on the raw words `words` (see raw_words).

    raw(first, rows) hands out rows [first, first + rows) of every block and
    appends (first, rows) to `calls`. Block b of the result must equal a
    draw of one block on words[b] alone.
    """

    def raw_of(block_words, log):
        def raw(first, rows):
            log.append((first, rows))
            return block_words[:, first : first + rows]

        return raw

    out = diffusion._draw_rows(probs, samples, count, raw_of(words, [] if calls is None else calls))
    bits = np.unpackbits(out, axis=1)
    for b in range(count):
        alone = np.unpackbits(diffusion._draw_rows(probs, samples, 1, raw_of(words[b : b + 1], [])), axis=1)
        assert np.array_equal(bits[:, b * samples : (b + 1) * samples], alone[:, :samples]), b
    return out


def test_chunks_cover_the_range_in_order(monkeypatch):
    monkeypatch.setattr(diffusion, "DRAW_BUDGET", 100)
    for count in (0, 1, 7, 100, 101):
        for row_bytes in (1, 3, 30, 99, 100, 101, 10**6):
            parts = list(diffusion._chunks(count, row_bytes))
            assert [i for part in parts for i in range(count)[part]] == list(range(count))
            rows = [part.stop - part.start for part in parts]
            # at least one row each, and at most the budget unless one row passes it
            assert all(r == 1 or r * row_bytes <= 100 for r in rows) and min(rows, default=1) >= 1
            # as many rows per chunk as the budget holds
            assert len(parts) == math.ceil(count / max(1, 100 // row_bytes))
    assert list(diffusion._chunks(0, 1)) == []


@pytest.mark.parametrize("samples", [65, 1001])
def test_packed_draws_do_not_depend_on_the_chunk_size(monkeypatch, samples):
    # fan_in: 6 consumer rows and 6 edge rows, of which `drawn` are neither
    # 0 nor 1; at 65 runs a 1000-byte budget holds 3 rows of 33 words, and
    # a 2400-byte budget 3 rows of 3 blocks
    inst = KERNEL_CASES["fan_in"]
    init = _init_probs(inst.n_consumers, 0)
    prob = diffusion._edge_arrays(inst).prob
    want = dense_batch_spread(inst, init, samples, np.random.default_rng(5))
    words = {c: [raw_words(np.random.default_rng([5, c]), c, p, samples) for p in (init, prob)] for c in (1, 3)}
    bits = {}
    for budget in (1, 1000, 2400, diffusion.DRAW_BUDGET):
        monkeypatch.setattr(diffusion, "DRAW_BUDGET", budget)
        assert diffusion._batch_spread(inst, init, samples, CountingRng(5)) == want
        for count in (1, 3):
            calls = []
            drawn = [draw_blocks(p, samples, count, w, calls) for p, w in zip((init, prob), words[count])]
            bits[count, budget] = np.vstack(drawn)
            rows = max(1, budget // (8 * ((samples + 1) // 2) * count))
            assert len(calls) == sum(math.ceil(w.shape[1] / rows) for w in words[count])
    assert all(np.array_equal(b, bits[count, 1]) for (count, _), b in bits.items())


def test_certain_rows_draw_nothing():
    # p = 0 never fires and p = 1 always fires, and neither takes raw words:
    # the one drawn row equals a draw of that row alone
    samples = 100
    probs = np.array([0.0, 1.0, 0.3, 1.0, 0.0])
    for count in (1, 3):
        words, calls = raw_words(np.random.default_rng(3), count, probs, samples), []
        bits = np.unpackbits(draw_blocks(probs, samples, count, words, calls), axis=1, count=count * samples)
        assert len(calls) == 1
        assert not bits[[0, 4]].any() and bits[[1, 3]].all()
        assert np.array_equal(bits[2, :samples], reference_draws(np.random.default_rng(3), samples, [0.3])[:, 0])
        calls = []
        draw_blocks(probs[[0, 1, 3, 4]], samples, count, words[:, :0], calls)
        assert calls == []


@pytest.mark.parametrize("samples", [1, 63, 64, 65, 1001])
def test_padding_bits_stay_clear(samples):
    probs = np.array([0.0, 0.3, 0.999, 1.0])
    for count in (1, 3):
        runs = count * samples
        out = draw_blocks(probs, samples, count, raw_words(np.random.default_rng(samples), count, probs, samples))
        assert out.dtype == np.uint8 and out.shape == (4, 8 * ((runs + 63) // 64))
        bits = np.unpackbits(out, axis=1)
        assert not bits[:, runs:].any()
        assert bits[3, :runs].all()


@pytest.mark.parametrize("p", [1e-3, 0.25, 0.5, 0.999])
def test_row_frequencies_match_their_probabilities(p):
    samples = 1 << 20
    probs = np.array([p])
    for count in (1, 3):
        runs = count * samples
        out = draw_blocks(probs, samples, count, raw_words(stream(0, "freq", str(p)), count, probs, samples))
        hits = int(np.unpackbits(out).sum())
        assert abs(hits / runs - p) <= 5.0 * math.sqrt(p * (1.0 - p) / runs)


def test_thresholds_round_down_to_multiples_of_two_to_the_minus_32():
    # run j fires when its 32-bit half is below floor(p * 2**32): on all-zero
    # halves a p below 2**-32 stays clear, 2**-32 fires; on all-ones halves
    # 1 - 2**-33 stays clear; on halves of 2**31, p = 0.5 stays clear and the
    # next multiple of 2**-32 fires (a threshold scaled by 2**31 would not)
    cases = [
        (0, [2.0**-33, 2.0**-32, 0.5], [False, True, True]),
        (2**64 - 1, [1.0 - 2.0**-33, 0.5], [False, False]),
        (0x8000_0000_8000_0000, [0.5, 0.5 + 2.0**-32], [False, True]),
    ]
    for word, probs, fires in cases:
        for count in (1, 3):
            out = draw_blocks(np.array(probs), 9, count, np.full((count, len(probs), 5), word, dtype=np.uint64))
            for row, fire in zip(np.unpackbits(out, axis=1, count=9 * count), fires, strict=True):
                assert row.all() if fire else not row.any()


def test_estimate_sigma_empty_x():
    # with no provider, or no consumer, nobody can seed: zero without a draw
    for X, Y in (((), (0, 1)), ((0,), ())):
        rng = CountingRng(0)
        est = estimate_sigma(HALF_PAIR, X, Y, samples=64, rng=rng)
        assert (est.mean, est.std_error, est.samples) == (0.0, 0.0, 64)
        assert rng.calls == 0


def test_estimate_sigma_deterministic_three_chain():
    inst = make_instance(np.ones((2, 3)), edges=[(0, 1, 1.0), (1, 2, 1.0)], lam=1)
    est = estimate_sigma(inst, (0,), (0,), samples=200, rng=stream(0, "t"))
    assert est.mean == 3.0 and est.std_error == 0.0


def test_estimate_sigma_unbiased_on_hand_example():
    est = estimate_sigma(HALF_PAIR, (0,), (0,), samples=4000, rng=stream(3, "t"))
    assert abs(est.mean - 0.75) <= 3 * est.std_error
    assert est.std_error > 0


def test_estimate_sigma_matches_lazy_simulation_statistically():
    inst = gen_rank_r(3, 4, 2, social_edge_count=5, seed=9, factor_low=0.2)
    X, Y = (0, 2), (0, 1, 3)
    samples = 6000
    batch = estimate_sigma(inst, X, Y, samples=samples, rng=stream(5, "batch"))
    adj = adjacency(inst)
    rng = stream(5, "lazy")
    xb, yb = indicator(X, 3), indicator(Y, 4)
    vals = [
        len(simulate_ic(adj, sample_initial_set(xb, yb, inst.bipartite, rng), rng))
        for _ in range(samples)
    ]
    lazy_mean = float(np.mean(vals))
    lazy_se = float(np.std(vals, ddof=1) / math.sqrt(samples))
    joint = math.hypot(batch.std_error, lazy_se)
    assert abs(batch.mean - lazy_mean) <= 4 * joint


def test_estimate_sigma_hat_zero_point():
    est = estimate_sigma_hat(HALF_PAIR, np.zeros(2), (0, 1), samples=64, rng=stream(0, "t"))
    assert est.mean == 0.0 and est.std_error == 0.0


def test_estimate_sigma_hat_saturated_point():
    inst = make_instance(np.full((2, 3), 0.5), lam=1)
    est = estimate_sigma_hat(inst, np.full(3, 50.0), (0, 1, 2), samples=400, rng=stream(0, "t"))
    assert est.mean == 3.0


def test_estimate_sigma_hat_matches_exact_extension():
    s = np.array([0.4, 1.1])
    zbar = indicator((0, 1), 2) * (1.0 - np.exp(-s))
    want = exact_rho_bar(HALF_PAIR, zbar)
    est = estimate_sigma_hat(HALF_PAIR, s, (0, 1), samples=8000, rng=stream(7, "t"))
    assert abs(est.mean - want) <= 3 * est.std_error


def test_exact_memory_is_bounded_at_20_stochastic_edges():
    # 2**20 worlds x 8 consumers x 3 seeds as floats would be 192 MiB at once
    inst = gen_rank_r(3, 8, 2, social_edge_count=20, seed=3)
    assert all(p < 1.0 for _, _, p in inst.social_edges)
    tracemalloc.start()
    try:
        value = exact_sigma(inst, (0, 1), (0, 2, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value <= 8.0
    assert peak < 64 * 2**20


def test_estimate_ic_spread_agrees_with_exact():
    # an all-ones provider row seeds Y with certainty: the plain cascade
    inst = make_instance([[1.0, 1.0]], edges=[(0, 1, 0.5)], lam=1)
    est = estimate_sigma(inst, (0,), (0,), samples=8000, rng=stream(8, "t"))
    assert abs(est.mean - 1.5) <= 3 * est.std_error


@pytest.mark.parametrize("samples", [0, -3])
def test_estimates_reject_bad_sample_counts(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        estimate_sigma(HALF_PAIR, (0,), (0,), samples, stream(0, "t"))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        estimate_sigma_hat(HALF_PAIR, np.ones(2), (0,), samples, stream(0, "t"))


def test_estimates_carry_stream_path():
    est = estimate_sigma(HALF_PAIR, (0,), (0,), samples=16, rng=stream(0, "t"), stream_path=(0, "t"))
    assert est.stream_path == (0, "t")


def test_estimate_memory_is_bounded_on_a_large_graph():
    # m=3,000, E=20,000: a dense E x m float32 incidence array alone would be
    # 229 MiB; the packed kernel holds (m + E) x ceil(1,000/64) 64-bit words
    # (2.8 MiB) plus one draw chunk
    inst = gen_rank_r(20, 3000, 2, social_edge_count=20000, seed=3)
    tracemalloc.start()
    try:
        est = estimate_sigma(inst, (0, 1), range(0, 3000, 10), samples=1000, rng=stream(0, "big"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == 1000
    assert peak < 64 * 2**20


def test_run_totals_are_counted_in_bounded_chunks():
    # 50,000 runs over 3,000 consumers: unpacked at once, the per-run totals
    # would take a 143 MiB array; packed, the consumers hold 18 MiB
    inst = gen_rank_r(20, 3000, 2, social_edge_count=0, seed=3)
    tracemalloc.start()
    try:
        est = estimate_sigma(inst, (0, 1), range(0, 3000, 10), samples=50_000, rng=stream(0, "totals"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == 50_000 and est.std_error > 0.0
    assert peak < 64 * 2**20
