"""Per-consumer activation objectives: exact product form and the net-point surrogate."""

import numbers

import numpy as np

NEG_COORD_TOL = 1e-9


def indicator(members, size):
    """0/1 vector of the given length with ones at the given indices, each a whole number in [0, size)."""
    bits = np.zeros(size, dtype=float)
    for i in members:
        if not (isinstance(i, numbers.Real) and not isinstance(i, bool) and i % 1 == 0):
            raise ValueError(f"index {i!r} is not a whole number")
        idx = int(i)
        if not 0 <= idx < size:
            raise ValueError(f"index {idx} out of range for ground set of {size}")
        bits[idx] = 1.0
    return bits


def _as_bits(vec, size, name):
    arr = np.asarray(vec, dtype=float).ravel()
    if arr.shape != (size,):
        raise ValueError(f"{name} has length {arr.size}, expected {size}")
    return arr


def initial_activation(x, y, M):
    """Probability that each consumer is activated directly by the chosen providers.

    Entry j equals y_j * (1 - prod_i (1 - x_i * M_ij)): consumer j must be a
    chosen seed and at least one chosen provider must land its coin flip.
    Monotone in x; zero wherever y is zero.
    """
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    xb = _as_bits(x, n, "x")
    yb = _as_bits(y, m, "y")
    # factors lie in [0,1], so the product cannot overflow, and underflow
    # to 0 still gives the right 1 - miss; a provider with x_i = 0 contributes
    # an exact factor of 1, so only the other rows are multiplied
    chosen = np.flatnonzero(xb)
    miss = np.prod(1.0 - xb[chosen][:, None] * M.take(chosen, axis=0), axis=0)
    return yb * (1.0 - miss)


def net_relaxation(s, y):
    """Activation surrogate y_j * (1 - exp(-s_j)) at a point of the image net.

    Coordinates in [-1e-9, 0) are solver noise and are clamped to 0 before
    evaluation; anything more negative is rejected.
    """
    s = np.asarray(s, dtype=float).ravel()
    yb = _as_bits(y, s.size, "y")
    low = float(s.min()) if s.size else 0.0
    if low < -NEG_COORD_TOL:
        raise ValueError(f"negative coordinate at {int(np.argmin(s))}: {low}")
    s = np.maximum(s, 0.0)
    return yb * (-np.expm1(-s))
