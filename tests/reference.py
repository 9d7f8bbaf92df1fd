"""Reference helpers the tests check the package against; nothing in src/ uses them."""

import numpy as np


def concave_relaxation(x, y, M):
    """Exponential surrogate y_j * (1 - exp(-(x^T M)_j)).

    Pointwise sandwich against the exact form f = initial_activation:
    (1 - 1/e) * f_j <= F_j <= f_j.
    """
    s = np.asarray(x, dtype=float) @ np.asarray(M, dtype=float)
    return np.asarray(y, dtype=float) * (-np.expm1(-s))


def closure(m, edges, live, active):
    """Per-run closure of `active` under live edges, one breadth-first search per run.

    edges lists (source, target) pairs, live[e, k] says whether edge e is live in run k, and
    active[:, k] holds run k's seeds among m nodes; returns the (m, runs) bool array of the nodes
    each run reaches.
    """
    out = np.array(active, dtype=bool)
    for run in range(out.shape[1]):
        out_edges = [[] for _ in range(m)]
        for e, (u, v) in enumerate(edges):
            if live[e, run]:
                out_edges[u].append(v)
        frontier = list(np.flatnonzero(out[:, run]))
        while frontier:
            frontier = sorted({v for u in frontier for v in out_edges[u] if not out[v, run]})
            out[frontier, run] = True
    return out
