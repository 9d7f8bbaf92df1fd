"""Multiplicative coordinate nets over the image of the influence matrix."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instance import min_bit_precision

DET_TOL = 1e-10
DEDUP_TOL = 1e-12
NOISE_TOL = 1e-9
DEFAULT_CELL_CAP = 10**8


class NetSizeError(RuntimeError):
    """Raised when a net would exceed its configured size cap."""

    def __init__(self, count, bound, cap):
        super().__init__(
            f"net has {count} points (enumeration bound {bound}), over the cap {cap}; "
            "raise epsilon or the cap"
        )
        self.count = count
        self.bound = bound
        self.cap = cap


@dataclass(frozen=True)
class EpsilonNet:
    """Finite point set approximating every reachable x^T M coordinate-wise.

    Points are stored canonically sorted (lexicographic by coordinates) as
    full vectors in `points`. `one_sided` tells which bracketing guarantee
    holds: weak nets bracket within (1+eps) on both sides, one-sided nets
    satisfy s_j <= (x^T M)_j <= (1+eps) s_j.
    """

    points: np.ndarray
    epsilon: float
    one_sided: bool
    rank: int
    grid_size: int

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return int(self.points.shape[0])


def build_grid(bit_precision, epsilon, n):
    """Geometric grid of candidate coordinate values, as a read-only array.

    Starts at 0, then 2**-bit_precision, multiplying by (1+epsilon) until the
    first value >= n, which is the largest any coordinate of x^T M can reach.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon}")
    if bit_precision < 1:
        raise ValueError(f"bit_precision must be at least 1, got {bit_precision}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    base = 2.0 ** -bit_precision
    k = max(0, math.ceil(math.log(n / base) / math.log1p(epsilon)))
    # fix up float fuzz in the log: k must be minimal with base*(1+eps)**k >= n
    while base * (1.0 + epsilon) ** k < n:
        k += 1
    while k > 0 and base * (1.0 + epsilon) ** (k - 1) >= n:
        k -= 1
    values = np.concatenate(([0.0], base * (1.0 + epsilon) ** np.arange(k + 1)))
    values.setflags(write=False)
    return values


def independent_column_tuples(basis):
    """Yield ascending index tuples of basis columns forming an invertible block.

    Tuples come out in lexicographic order; blocks with |det| <= 1e-10 are
    treated as dependent and skipped.
    """
    r = basis.rank
    if r == 0:
        return
    rows = basis.basis_rows
    for combo in itertools.combinations(range(rows.shape[1]), r):
        if abs(np.linalg.det(rows[:, combo])) > DET_TOL:
            yield combo


def _dedup_sorted(points):
    if points.shape[0] <= 1:
        return points
    close = np.abs(np.diff(points, axis=0)).max(axis=1) < DEDUP_TOL
    keep = np.concatenate(([True], ~close))
    return points[keep]


def _canonical(points):
    return _dedup_sorted(points[np.lexsort(points.T[::-1])])


def build_weak_net(M, basis, epsilon, bit_precision=None, cell_cap=DEFAULT_CELL_CAP):
    """Two-sided multiplicative net over the image of M.

    For every provider indicator x some net point s satisfies
    s_j/(1+eps) <= (x^T M)_j <= s_j*(1+eps) wherever (x^T M)_j > 0 and stays
    below the smallest grid rung where it is 0. Candidates are generated per
    invertible column tuple by pinning those coordinates to grid values and
    solving for the basis coefficients.
    """
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    lam = bit_precision if bit_precision is not None else min_bit_precision(M)
    grid = build_grid(lam, epsilon, n)
    r = basis.rank
    if r == 0:
        return EpsilonNet(
            points=np.zeros((1, m)),
            epsilon=epsilon,
            one_sided=False,
            rank=0,
            grid_size=len(grid),
        )
    rows = basis.basis_rows
    tuples = list(independent_column_tuples(basis))
    assignments = np.array(list(itertools.product(grid, repeat=r)), dtype=float)
    if len(tuples) * assignments.shape[0] * m > cell_cap:
        bound = math.comb(m, r) * len(grid) ** r
        raise NetSizeError(len(tuples) * assignments.shape[0], bound, cell_cap // m)
    limit = n * (1.0 + epsilon) + NOISE_TOL
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
    points = np.vstack(chunks) if chunks else np.zeros((0, m))
    return EpsilonNet(
        points=_canonical(points),
        epsilon=epsilon,
        one_sided=False,
        rank=r,
        grid_size=len(grid),
    )


def build_net(M, basis, epsilon, bit_precision=None, cell_cap=DEFAULT_CELL_CAP):
    """One-sided net: some point brackets every x^T M as s <= x^T M <= (1+eps) s.

    Built as a weak sqrt(1+eps)-net whose coordinates are then divided by
    sqrt(1+eps), which turns the symmetric bracket into the one-sided one.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    root = math.sqrt(1.0 + epsilon)
    weak = build_weak_net(M, basis, root - 1.0, bit_precision, cell_cap)
    points = weak.points / root
    keep = (points <= n + NOISE_TOL).all(axis=1)
    return EpsilonNet(
        points=points[keep],
        epsilon=epsilon,
        one_sided=True,
        rank=weak.rank,
        grid_size=weak.grid_size,
    )


def covering_point(net, target, zero_tol=DEDUP_TOL, slack=1e-12):
    """Index of the first net point bracketing `target` one-sidedly, or -1.

    A point covers when s_j <= t_j <= (1+eps)*s_j on every coordinate with
    t_j > 0 and s_j <= zero_tol wherever t_j == 0.
    """
    if not net.one_sided:
        raise ValueError("covering_point needs a one-sided net")
    t = np.asarray(target, dtype=float).ravel()
    pts = net.points
    if t.size != pts.shape[1]:
        raise ValueError(f"target has length {t.size}, expected {pts.shape[1]}")
    pos = t > 0.0
    ok = np.ones(pts.shape[0], dtype=bool)
    if pos.any():
        sub = pts[:, pos]
        tp = t[pos]
        ok &= (sub <= tp + slack).all(axis=1)
        ok &= (tp <= (1.0 + net.epsilon) * sub + slack).all(axis=1)
    if (~pos).any():
        ok &= (pts[:, ~pos] <= zero_tol).all(axis=1)
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else -1
