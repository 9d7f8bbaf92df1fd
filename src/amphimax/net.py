"""Multiplicative coordinate nets over the image of the influence matrix."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

DET_TOL = 1e-10
DEDUP_TOL = 1e-12
NOISE_TOL = 1e-9
# net points a build may return unless the caller passes another cap
MAX_NET_POINTS = 200_000
# candidate coordinates (candidate points x consumers) a build may hold; no
# option raises it, only a coarser epsilon shrinks what a net needs
CELL_CAP = 10**8


class NetSizeError(RuntimeError):
    """Raised when a net would pass its point cap or the cell cap."""


@dataclass(frozen=True)
class EpsilonNet:
    """Finite point set bracketing every reachable x^T M coordinate-wise.

    Points are stored canonically sorted (lexicographic by coordinates) as
    full vectors in `points`; for every provider indicator x some point
    satisfies s_j <= (x^T M)_j <= (1+eps) s_j.
    """

    points: np.ndarray
    epsilon: float
    grid_size: int

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return int(self.points.shape[0])


def _grid_steps(bit_precision, epsilon, n):
    """The least k with 2**-bit_precision * (1+epsilon)**k >= n: build_grid's length is k + 2."""
    # a Python float: a NumPy scalar would overflow to inf with a warning, not raise
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon}")
    if bit_precision < 1:
        raise ValueError(f"bit_precision must be at least 1, got {bit_precision}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    base = 2.0 ** -bit_precision
    # log(n / base) without the quotient, which passes the float range first
    k = max(0, math.ceil((math.log(n) + bit_precision * math.log(2.0)) / math.log1p(epsilon)))
    # fix up float fuzz in the log: k must be minimal with base*(1+eps)**k >= n
    try:
        while base * (1.0 + epsilon) ** k < n:
            k += 1
        while k > 0 and base * (1.0 + epsilon) ** (k - 1) >= n:
            k -= 1
    except OverflowError:
        raise ValueError(f"a grid from 2^-{bit_precision} in steps of 1+{epsilon} passes the float range") from None
    return k


def build_grid(bit_precision, epsilon, n):
    """Geometric grid of candidate coordinate values, as a read-only array.

    Starts at 0, then 2**-bit_precision, multiplying by (1+epsilon) until the
    first value >= n, which is the largest any coordinate of x^T M can reach.
    """
    epsilon = float(epsilon)
    k = _grid_steps(bit_precision, epsilon, n)
    values = np.concatenate(([0.0], 2.0 ** -bit_precision * (1.0 + epsilon) ** np.arange(k + 1)))
    values.setflags(write=False)
    return values


def independent_column_tuples(basis):
    """Yield ascending index tuples of basis columns forming an invertible block.

    Tuples come out in lexicographic order; blocks with |det| <= 1e-10 are
    treated as dependent and skipped.
    """
    r = len(basis)
    if r == 0:
        return
    for combo in itertools.combinations(range(basis.shape[1]), r):
        if abs(np.linalg.det(basis[:, combo])) > DET_TOL:
            yield combo


def _candidates(rows, tuples, assignments, limit):
    """Weak candidates of all column tuples, stacked.

    Each tuple pins its coordinates to every assignment row and solves for
    the rest; a candidate stays if every coordinate lies in
    [-NOISE_TOL, limit], with negatives then set to 0.
    """
    chunks = []
    for combo in tuples:
        block = rows[:, combo]
        z = np.linalg.solve(block.T, assignments.T).T
        pts = z @ rows
        pts[:, list(combo)] = assignments  # pinned coordinates are exact grid values
        keep = (pts >= -NOISE_TOL).all(axis=1) & (pts <= limit).all(axis=1)
        pts = pts[keep]
        pts[pts < 0.0] = 0.0
        chunks.append(pts)
    return np.vstack(chunks) if chunks else np.zeros((0, rows.shape[1]))


def _canonical(points):
    """Points sorted lexicographically, each dropped if within DEDUP_TOL of the one before.

    Each copy is dropped as soon as the next exists, so a caller that hands
    over its only reference holds at most two copies at once.
    """
    points = points[np.lexsort(points.T[::-1])]
    if points.shape[0] <= 1:
        return points
    step = np.diff(points, axis=0)
    close = np.abs(step, out=step).max(axis=1) < DEDUP_TOL
    del step
    return points[np.concatenate(([True], ~close))]


def build_net(M, basis, epsilon, bit_precision, max_points=MAX_NET_POINTS):
    """One-sided net: some point brackets every x^T M as s <= x^T M <= (1+eps) s.

    Built as a weak sqrt(1+eps)-net, whose points bracket x^T M within a
    factor sqrt(1+eps) on both sides, with coordinates then divided by
    sqrt(1+eps), which turns the symmetric bracket into the one-sided one.
    Weak candidates come per invertible column tuple of the basis, by pinning
    those coordinates to grid values and solving for the basis coefficients.

    The net is sized before it is built: NetSizeError if its grid or its
    candidates would pass CELL_CAP, or if more than `max_points` points survive.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon}")
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    root = math.sqrt(1.0 + epsilon)
    weak_eps = root - 1.0
    # sqrt(1+eps) - 1 rounds to 0 for eps below about 3e-16: the grid would never end
    size = _grid_steps(bit_precision, weak_eps, n) + 2 if weak_eps > 0.0 else math.inf
    if size > CELL_CAP:
        raise NetSizeError(
            f"net needs {size} grid values per coordinate at epsilon {epsilon}, "
            f"over the build limit of {CELL_CAP} cells; raise epsilon"
        )
    r = len(basis)
    if r == 0:
        return EpsilonNet(points=np.zeros((1, m)), epsilon=epsilon, grid_size=size)
    # each tuple pins its r coordinates to all grid^r assignments; counting
    # stops at the tuple that takes the candidates past the cap, before any exist
    per_tuple = size**r
    tuples = []
    for combo in independent_column_tuples(basis):
        tuples.append(combo)
        if len(tuples) * per_tuple * m > CELL_CAP:
            raise NetSizeError(
                f"net needs at least {len(tuples) * per_tuple} candidate points "
                f"({size}^{r} per column tuple; column tuples counted: {len(tuples)}) "
                f"of {m} coordinates each, over the build limit of {CELL_CAP} cells; raise epsilon"
            )
    grid = build_grid(bit_precision, weak_eps, n)
    # row order matches itertools.product(grid, repeat=r)
    assignments = np.stack(np.meshgrid(*([grid] * r), indexing="ij"), axis=-1).reshape(-1, r)
    limit = n * (1.0 + weak_eps) + NOISE_TOL
    # the stacked candidates pass straight to _canonical, which may drop them once sorted
    points = _canonical(_candidates(basis, tuples, assignments, limit))
    points /= root
    points = points[(points <= n + NOISE_TOL).all(axis=1)]
    if len(points) > max_points:
        raise NetSizeError(
            f"net has {len(points)} points (enumeration bound {math.comb(m, r) * per_tuple}), "
            f"over the cap {max_points}; raise epsilon or the cap (--max-net-points)"
        )
    return EpsilonNet(points=points, epsilon=epsilon, grid_size=size)


def covers(points, target, epsilon, zero_tol=DEDUP_TOL, slack=DEDUP_TOL):
    """Mask of the points s that bracket `target` t one-sidedly, the net's cover relation.

    s_j <= t_j <= (1+eps) s_j, each within `slack`, wherever t_j > 0, and
    s_j <= zero_tol wherever t_j = 0.

    A stack of targets (..., m) gives a mask of shape (..., points).
    """
    t = np.asarray(target, dtype=float)[..., None, :]
    upper = np.where(t > 0.0, t + slack, zero_tol)
    return ((points <= upper) & (t <= (1.0 + epsilon) * points + slack)).all(axis=-1)


def prune_net(net, M, budget, bit_precision):
    """Indices, in net order, of the points that can bracket x^T M for some x with budget ones.

    Only such a point can be the s* of the guarantee, the one that brackets
    the optimal provider set's image. The relation is `covers` with zero_tol
    2**-bit_precision, the least nonzero grid value. Two filters, both sound:
    a point with some s_j past the sum of the `budget` largest entries of
    column j covers no such image (O(points * m)); the survivors are then
    tested against all C(n, budget) images when that takes at most CELL_CAP
    cells, in blocks no larger than the images themselves.
    """
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    zero_tol = 2.0**-bit_precision
    cap = np.sort(M, axis=0)[n - budget :].sum(axis=0)
    kept = np.flatnonzero((net.points <= np.maximum(cap + DEDUP_TOL, zero_tol)).all(axis=1))
    sets = math.comb(n, budget)
    if sets * len(kept) * m > CELL_CAP:
        return kept
    combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), budget)), np.intp)
    images = M[combos.reshape(sets, budget)].sum(axis=1)
    points = net.points[kept]
    hit = np.zeros(len(kept), dtype=bool)
    block = max(1, sets // max(1, len(kept)))
    for first in range(0, sets, block):
        hit |= covers(points, images[first : first + block], net.epsilon, zero_tol).any(axis=0)
    return kept[hit]
