"""Reference helpers the tests check the package against; nothing in src/ uses them."""

import numpy as np


def concave_relaxation(x, y, M):
    """Exponential surrogate y_j * (1 - exp(-(x^T M)_j)).

    Pointwise sandwich against the exact form f = initial_activation:
    (1 - 1/e) * f_j <= F_j <= f_j.
    """
    s = np.asarray(x, dtype=float) @ np.asarray(M, dtype=float)
    return np.asarray(y, dtype=float) * (-np.expm1(-s))


def covering_point(net, target, zero_tol=1e-12, slack=1e-12):
    """Index of the first net point bracketing `target` one-sidedly, or -1.

    A point covers when s_j <= t_j <= (1+eps)*s_j on every coordinate with
    t_j > 0 and s_j <= zero_tol wherever t_j == 0.
    """
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
