import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from amphimax import net as net_module
from amphimax.generators import gen_rank_r
from amphimax.instance import numerical_rank
from amphimax.net import NetSizeError, build_grid, build_net, covers, independent_column_tuples, prune_net


def membership_residuals(net, basis):
    """Max-abs residual of every net point against the span of the basis rows."""
    if len(basis) == 0:
        return np.abs(net.points).max(axis=1) if len(net) else np.zeros(0)
    sol, *_ = np.linalg.lstsq(basis.T, net.points.T, rcond=None)
    resid = net.points - (sol.T @ basis)
    return np.abs(resid).max(axis=1)


def all_indicator_images(M):
    n = M.shape[0]
    for bits in itertools.product((0, 1), repeat=n):
        yield np.array(bits, dtype=float) @ M


def weak_points(net):
    """The weak sqrt(1+eps)-net points build_net divides by sqrt(1+eps)."""
    return net.points * math.sqrt(1.0 + net.epsilon)


def weakly_covered(points, t, epsilon, zero_tol):
    # two-sided multiplicative bracket on positive coordinates
    pos = t > 0
    for s in points:
        if np.any(s[~pos] > zero_tol):
            continue
        if pos.any():
            ratio_lo = s[pos] / (1.0 + epsilon) <= t[pos] + 1e-9
            ratio_hi = t[pos] <= s[pos] * (1.0 + epsilon) + 1e-9
            if not (ratio_lo.all() and ratio_hi.all()):
                continue
        return True
    return False


def test_grid_hand_unrolled_example():
    grid = build_grid(1, 1.0, 2)
    assert np.array_equal(grid, [0.0, 0.5, 1.0, 2.0])
    assert not grid.flags.writeable


def test_grid_size_formula_example():
    grid = build_grid(2, 0.5, 4)
    assert len(grid) == 2 + math.ceil(math.log(4 * 2**2) / math.log(1.5))
    assert len(grid) == 9


def test_grid_shape_invariants():
    for lam, eps, n in [(1, 1.0, 2), (4, 0.25, 10), (20, 0.5, 3), (2, 3.0, 7)]:
        vals = build_grid(lam, eps, n)
        assert vals[0] == 0.0
        assert vals[1] == 2.0**-lam
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] >= n
        # minimal: one fewer rung would fall short of n
        assert vals[-2] < n
        # gaps multiplicative at exactly (1+eps) after the zero rung
        assert np.allclose(vals[2:] / vals[1:-1], 1.0 + eps)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError, match="epsilon"):
        build_grid(4, 0.0, 2)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be a positive finite number"):
            build_grid(4, eps, 2)
    with pytest.raises(ValueError, match="bit_precision"):
        build_grid(0, 0.5, 2)


def test_net_rejects_the_callers_epsilon_before_deriving_the_weak_one():
    M = np.array([[0.5, 0.25]])
    for eps in (0.0, -0.5, -1.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^epsilon must be a positive finite number, got {eps}$"):
            build_net(M, numerical_rank(M), eps, bit_precision=2)
    with pytest.raises(ValueError, match="n must be"):
        build_grid(4, 0.5, 0)


def test_grid_past_the_float_range_is_refused():
    # (1+eps)^k passes the float range before 2^-lambda * (1+eps)^k reaches n:
    # a coarse step at the largest lambda validate allows for n = 4, and a
    # base of 2^-1075, which rounds to 0
    for lam, eps, n in ((1020, 1000.0, 4), (1075, 0.5, 1), (5000, 0.5, 4)):
        with pytest.raises(ValueError, match=rf"^a grid from 2\^-{lam} in steps of 1\+{eps} passes the float range$"):
            build_grid(lam, eps, n)
    assert build_grid(1020, 0.5, 4)[-1] >= 4


@pytest.mark.parametrize("scalar", [np.float64, np.float32])
def test_numpy_scalar_epsilons_give_the_python_float_grid(scalar):
    # a NumPy scalar overflows to inf with a warning where a Python float
    # raises OverflowError, so each is converted before any arithmetic
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam, eps, n in ((20, 0.5, 4), (8, 0.25, 6), (3, 0.1, 2), (1, 1000.0, 3)):
            grid = build_grid(lam, scalar(eps), n)
            assert grid.dtype == float and np.array_equal(grid, build_grid(lam, float(scalar(eps)), n))
        for lam, eps, n in ((1020, 1000.0, 4), (1075, 0.5, 1)):
            message = rf"^a grid from 2\^-{lam} in steps of 1\+{eps} passes the float range$"
            with pytest.raises(ValueError, match=message):
                build_grid(lam, scalar(eps), n)
        for eps in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^epsilon must be a positive finite number"):
                build_grid(4, scalar(eps), 2)


def test_tiny_epsilon_is_refused_before_the_grid_exists():
    # at eps 1e-9 the grid would hold about 9.7e9 values (72 GiB); it is
    # counted from integers and refused, at rank 0 too, before any exists
    for M in (np.array([[0.5, 0.25], [0.25, 0.125]]), np.zeros((4, 3))):
        basis = numerical_rank(M)
        size = net_module._grid_steps(20, math.sqrt(1.0 + 1e-9) - 1.0, M.shape[0]) + 2
        assert size > 9 * 10**9
        expect = (
            f"^net needs {size} grid values per coordinate at epsilon 1e-09, "
            f"over the build limit of {net_module.CELL_CAP} cells; raise epsilon$"
        )
        tracemalloc.start()
        try:
            with pytest.raises(NetSizeError, match=expect):
                build_net(M, basis, 1e-9, bit_precision=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # sqrt(1 + 1e-20) - 1 rounds to 0, so the grid never ends: the message
        # names the epsilon given, not the weak one
        with pytest.raises(NetSizeError, match=r"^net needs inf grid values per coordinate at epsilon 1e-20, .*; raise epsilon$"):
            build_net(M, basis, 1e-20, bit_precision=20)
        # the counted length is the length of the grid the net is built on
        weak = math.sqrt(1.5) - 1.0
        assert build_net(M, basis, 0.5, bit_precision=20).grid_size == len(build_grid(20, weak, M.shape[0]))


def test_independent_column_tuples_identity():
    basis = numerical_rank(np.eye(2))
    assert list(independent_column_tuples(basis)) == [(0, 1)]


def test_independent_column_tuples_skips_duplicate_columns():
    M = np.array([[1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    basis = numerical_rank(M)
    assert len(basis) == 2
    tuples = list(independent_column_tuples(basis))
    assert (0, 1) not in tuples  # identical columns, zero determinant
    assert tuples == [(0, 2), (1, 2)]


def test_independent_column_tuples_generic_matrix_keeps_all():
    rng = np.random.default_rng(8)
    basis = numerical_rank(rng.random((2, 5)) + 0.1)
    assert len(list(independent_column_tuples(basis))) == math.comb(5, 2)


def per_tuple_net(M, basis, epsilon, bit_precision):
    """The tuples and stacked candidates of build_net, one np.linalg.det and one solve per column tuple."""
    tuples = [
        combo
        for combo in itertools.combinations(range(basis.shape[1]), len(basis))
        if abs(np.linalg.det(basis[:, combo])) > net_module.DET_TOL
    ]
    weak = math.sqrt(1.0 + epsilon) - 1.0
    grid = build_grid(bit_precision, weak, M.shape[0])
    assignments = np.stack(np.meshgrid(*([grid] * len(basis)), indexing="ij"), axis=-1).reshape(-1, len(basis))
    limit = M.shape[0] * (1.0 + weak) + net_module.NOISE_TOL
    chunks = []
    for combo in tuples:
        pts = np.linalg.solve(basis[:, combo].T, assignments.T).T @ basis
        pts[:, list(combo)] = assignments
        pts = pts[(pts >= -net_module.NOISE_TOL).all(axis=1) & (pts <= limit).all(axis=1)]
        pts[pts < 0.0] = 0.0
        chunks.append(pts)
    return tuples, np.vstack(chunks), assignments, limit


@pytest.mark.parametrize("batch, cells", [(1, 1), (2, 1), (3, 10**9), (256, 1 << 20)])
def test_batched_det_and_solve_equal_the_per_tuple_loop(monkeypatch, batch, cells):
    # batches of any size give the per-tuple tuples and candidates bit for bit
    monkeypatch.setattr(net_module, "TUPLE_BATCH", batch)
    monkeypatch.setattr(net_module, "BATCH_CELLS", cells)
    dependent = np.array([[1.0, 1.0, 0.5, 0.2, 0.6], [0.5, 0.5, 1.0, 0.1, 0.3], [0.3, 0.3, 0.2, 0.9, 0.45]])
    cases = [
        (np.ones((1, 50)), 0.5, 1),
        (gen_rank_r(4, 3, 2, social_edge_count=2, seed=3).bipartite, 0.8, 8),
        (gen_rank_r(6, 5, 1, social_edge_count=6, seed=3).bipartite, 0.6, 8),
        (gen_rank_r(8, 7, 3, seed=4).bipartite, 3.0, 5),
        (dependent, 1.0, 6),
    ]
    for M, epsilon, bit_precision in cases:
        basis = numerical_rank(M)
        tuples, candidates, assignments, limit = per_tuple_net(M, basis, epsilon, bit_precision)
        assert list(independent_column_tuples(basis)) == tuples
        got = net_module._candidates(basis, tuples, assignments, limit)
        assert got.shape == candidates.shape and got.tobytes() == candidates.tobytes()
    assert len(per_tuple_net(dependent, numerical_rank(dependent), 1.0, 6)[0]) < math.comb(5, 3)


def test_column_tuples_are_examined_a_batch_at_a_time(monkeypatch):
    # C(3000, 2) tuples exist; the first one takes one stacked det of TUPLE_BATCH blocks
    basis = numerical_rank(gen_rank_r(4, 3000, 2, seed=3).bipartite)
    det = np.linalg.det
    stacks = []
    monkeypatch.setattr(np.linalg, "det", lambda blocks: stacks.append(blocks.shape) or det(blocks))
    assert next(independent_column_tuples(basis)) == (0, 1)
    assert stacks == [(net_module.TUPLE_BATCH, 2, 2)]


def test_weak_net_zero_matrix():
    M = np.zeros((3, 4))
    net = build_net(M, numerical_rank(M), 0.5, bit_precision=1)
    assert len(net) == 1
    assert np.array_equal(net.points, np.zeros((1, 4)))
    assert np.array_equal(weak_points(net), np.zeros((1, 4)))


def test_weak_net_rank_one_points_are_multiples_of_the_row():
    v = np.array([0.25, 0.5, 1.0])
    M = np.vstack([v, 2 * v * 0.5])
    basis = numerical_rank(M)
    net = build_net(M, basis, 0.5, bit_precision=2)
    assert len(basis) == 1
    assert np.count_nonzero(net.points[:, 2]) == len(net) - 1
    for p in net.points:
        if p[2] > 0:
            assert np.abs(p - p[2] * v).max() < 1e-9
        else:
            assert not p.any()


def test_weak_net_covers_all_indicators():
    # build_net keeps every weak point that can cover an indicator image, so
    # its points times sqrt(1+eps) still bracket them two-sidedly
    rng = np.random.default_rng(12)
    eps = 0.5
    weak_eps = math.sqrt(1.0 + eps) - 1.0
    for trial in range(5):
        A = 0.3 + 0.7 * rng.random((4, 2))
        B = 0.3 + 0.7 * rng.random((2, 3))
        M = np.clip(A @ B / 2.0, 0.0, 1.0)
        basis = numerical_rank(M)
        lam = 4
        assert M[M > 0].min() >= 2.0**-lam
        net = build_net(M, basis, eps, bit_precision=lam)
        points = weak_points(net)
        for t in all_indicator_images(M):
            assert weakly_covered(points, t, weak_eps, zero_tol=2.0**-lam)


def test_one_sided_net_covers_scaled_identity_example():
    M = 0.5 * np.eye(2)
    net = build_net(M, numerical_rank(M), 0.5, bit_precision=1)
    for t in all_indicator_images(M):
        hits = np.flatnonzero(covers(net.points, t, net.epsilon, slack=1e-9))
        assert hits.size
        s = net.points[hits[0]]
        pos = t > 0
        assert np.all(s[pos] <= t[pos] + 1e-9)
        assert np.all(t[pos] <= 1.5 * s[pos] + 1e-9)


def test_one_sided_net_covers_exhaustively():
    rng = np.random.default_rng(3)
    eps = 0.5
    for trial in range(4):
        A = 0.4 + 0.6 * rng.random((5, 2))
        B = 0.4 + 0.6 * rng.random((2, 4))
        M = A @ B / 2.0
        basis = numerical_rank(M)
        net = build_net(M, basis, eps, bit_precision=4)
        for t in all_indicator_images(M):
            assert covers(net.points, t, net.epsilon, slack=1e-9).any(), f"no covering point for {t}"


def test_one_sided_net_zero_coordinate_coverage():
    # a provider row of zeros creates images with genuine zero coordinates;
    # coverage at zeros means the point stays below the smallest rung
    M = np.array([[0.5, 0.0, 0.25], [0.0, 0.5, 0.25], [0.0, 0.0, 0.0]])
    basis = numerical_rank(M)
    lam = 2
    net = build_net(M, basis, 1.0, bit_precision=lam)
    for t in all_indicator_images(M):
        assert covers(net.points, t, net.epsilon, zero_tol=2.0**-lam, slack=1e-9).any()


def test_net_size_bound_and_membership():
    rng = np.random.default_rng(77)
    A = 0.4 + 0.6 * rng.random((6, 2))
    B = 0.4 + 0.6 * rng.random((2, 8))
    M = A @ B / 2.0
    basis = numerical_rank(M)
    net = build_net(M, basis, 0.5, bit_precision=4)
    assert len(net) <= math.comb(8, 2) * net.grid_size**2
    assert membership_residuals(net, basis).max() < 1e-7
    assert np.all(net.points >= 0.0)
    assert np.all(net.points <= 6.0 + 1e-9)


def test_net_canonical_order_and_determinism():
    rng = np.random.default_rng(4)
    M = (0.3 + 0.7 * rng.random((4, 1))) @ (0.3 + 0.7 * rng.random((1, 5)))
    basis = numerical_rank(M)
    a = build_net(M, basis, 0.3, bit_precision=3)
    b = build_net(M, basis, 0.3, bit_precision=3)
    assert np.array_equal(a.points, b.points)
    order = np.lexsort(a.points.T[::-1])
    assert np.array_equal(order, np.arange(len(a)))
    # no duplicates at the dedup tolerance
    if len(a) > 1:
        assert np.abs(np.diff(a.points, axis=0)).max(axis=1).min() >= 1e-12


def test_net_size_cap_raises(monkeypatch):
    rng = np.random.default_rng(6)
    M = (0.4 + 0.6 * rng.random((6, 2))) @ (0.4 + 0.6 * rng.random((2, 8))) / 2.0
    basis = numerical_rank(M)
    grid_size = len(build_grid(8, math.sqrt(1.25) - 1.0, 6))
    monkeypatch.setattr(net_module, "CELL_CAP", 1000)
    # no flag raises the cell cap, so the message offers only a coarser epsilon
    expect = (
        rf"at least {grid_size**2} candidate points "
        rf"\({grid_size}\^2 per column tuple; column tuples counted: 1\) "
        "of 8 coordinates each, over the build limit of 1000 cells; raise epsilon$"
    )
    with pytest.raises(NetSizeError, match=expect):
        build_net(M, basis, 0.25, bit_precision=8)


def test_net_point_cap_raises_after_the_cell_cap_passes():
    rng = np.random.default_rng(6)
    M = (0.4 + 0.6 * rng.random((6, 2))) @ (0.4 + 0.6 * rng.random((2, 8))) / 2.0
    basis = numerical_rank(M)
    net = build_net(M, basis, 0.25, bit_precision=8)
    assert len(build_net(M, basis, 0.25, 8, len(net)).points) == len(net)
    expect = rf"net has {len(net)} points .* over the cap 3; raise epsilon or the cap \(--max-net-points\)$"
    with pytest.raises(NetSizeError, match=expect):
        build_net(M, basis, 0.25, 8, 3)


def test_one_sided_bracket_also_holds_through_sqrt_construction():
    # the one-sided net is the weak sqrt(1+eps) net divided by sqrt(1+eps);
    # check the advertised bracket directly on random low-rank images
    rng = np.random.default_rng(21)
    eps = 0.8
    M = (0.35 + 0.65 * rng.random((7, 2))) @ (0.35 + 0.65 * rng.random((2, 5))) / 2.0
    basis = numerical_rank(M)
    net = build_net(M, basis, eps, bit_precision=4)
    for bits in itertools.product((0, 1), repeat=7):
        t = np.array(bits, dtype=float) @ M
        hits = np.flatnonzero(covers(net.points, t, eps, slack=1e-9))
        assert hits.size
        s = net.points[hits[0]]
        pos = t > 0
        assert np.all(s[pos] <= t[pos] + 1e-9)
        assert np.all(t[pos] <= (1.0 + eps) * s[pos] + 1e-9)


def test_covers_misses_an_image_no_point_brackets():
    M = np.array([[0.5, 0.5]])
    net = build_net(M, numerical_rank(M), 0.5, bit_precision=1)
    assert covers(net.points, M[0], net.epsilon).any()
    assert not covers(net.points, np.array([40.0, 40.0]), net.epsilon).any()
    # a stack of targets gives one row of the mask per target
    mask = covers(net.points, np.array([M[0], [40.0, 40.0]]), net.epsilon)
    assert mask.shape == (2, len(net))
    assert mask[0].any() and not mask[1].any()


def test_build_net_holds_at_most_three_candidate_copies():
    # 300 rank-1 column tuples of 62 grid values: 5.6M candidate cells; the
    # per-tuple blocks, their stack and its sorted copy were once alive
    # together (155.6 MiB under tracemalloc, 3.65x the candidate bytes)
    inst = gen_rank_r(20, 300, 1, social_edge_count=600, seed=3)
    basis = numerical_rank(inst.bipartite)
    tracemalloc.start()
    try:
        net = build_net(inst.bipartite, basis, 0.5, inst.bit_precision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    candidates = len(list(independent_column_tuples(basis))) * net.grid_size * 300 * 8
    assert len(net) == 16692
    assert peak < 3 * candidates


def _images(M, budget):
    """x^T M for every provider indicator x with `budget` ones."""
    for combo in itertools.combinations(range(M.shape[0]), budget):
        yield M[list(combo)].sum(axis=0)


def test_pruned_net_covers_every_budget_sized_image(monkeypatch):
    # random rank-1 and rank-2 instances, some with zero provider rows; every
    # image of a budget-sized set is covered by a kept point, under the exact
    # cover test and under the column cap alone
    rng = np.random.default_rng(19)
    cut = 0
    for trial in range(12):
        n, m, r = int(rng.integers(3, 7)), int(rng.integers(2, 6)), 1 + trial % 2
        inst = gen_rank_r(n, m, r, edge_prob=(1.0, 0.6)[trial % 3 == 2], factor_low=0.2 * (trial % 2), seed=trial)
        M, lam = inst.bipartite, inst.bit_precision
        eps = (0.5, 0.9)[trial % 2]
        net = build_net(M, numerical_rank(M), eps, lam)
        for budget in range(1, min(3, n) + 1):
            kept = prune_net(net, M, budget, lam)
            with monkeypatch.context() as patch:
                patch.setattr(net_module, "CELL_CAP", 0)
                capped = prune_net(net, M, budget, lam)
            assert set(kept) <= set(capped) and np.all(np.diff(capped) > 0)
            cut += len(capped) - len(kept)
            for t in _images(M, budget):
                assert covers(net.points, t, eps, zero_tol=2.0**-lam).any()
                for indices in (kept, capped):
                    assert covers(net.points[indices], t, eps, zero_tol=2.0**-lam).any(), (trial, budget, t)
    # the exact test drops points the column cap keeps
    assert cut > 0


def test_prune_net_keeps_what_covers_on_the_ladder_rungs():
    # built -> column cap -> cover test, as measured when the pruning was designed
    for (n, m, r, edges, eps), sizes in (
        ((4, 3, 1, 2, 0.5), (73, 39, 19)),
        ((4, 3, 2, 2, 0.8), (559, 129, 27)),
        ((6, 5, 1, 6, 0.6), (144, 109, 43)),
    ):
        inst = gen_rank_r(n, m, r, social_edge_count=edges, seed=3)
        M, lam, b1 = inst.bipartite, inst.bit_precision, inst.budget_providers
        net = build_net(M, numerical_rank(M), eps, lam)
        kept = prune_net(net, M, b1, lam)
        cap = np.sort(M, axis=0)[n - b1 :].sum(axis=0)
        below_cap = np.flatnonzero((net.points <= cap + 1e-12).all(axis=1))
        assert (len(net), len(below_cap), len(kept)) == sizes
        # a point is kept exactly when it covers the image of some b1-sized set
        images = np.array(list(_images(M, b1)))
        assert kept.tolist() == np.flatnonzero(covers(net.points, images, eps, zero_tol=2.0**-lam).any(axis=0)).tolist()
