"""Reference helpers the tests check the package against; nothing in src/ uses them."""

import numpy as np


def concave_relaxation(x, y, M):
    """Exponential surrogate y_j * (1 - exp(-(x^T M)_j)).

    Pointwise sandwich against the exact form f = initial_activation:
    (1 - 1/e) * f_j <= F_j <= f_j.
    """
    s = np.asarray(x, dtype=float) @ np.asarray(M, dtype=float)
    return np.asarray(y, dtype=float) * (-np.expm1(-s))

