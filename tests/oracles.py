"""Independent reference computations the tests compare the package against.

None of these is on a path the package runs: the dense eigenvalue solve and
the rational form of ``f`` check the Newton/Rouche path and ``charfn.eval_f``
from outside, and ``matching_distance`` compares two eigenvalue multisets.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

DENSE_ORACLE_MAX_N = 64


def dense_oracle_spectrum(sys):
    """Eigenvalues of the dense real block matrix, via the LAPACK QR solver.

    Independent of the Newton/contour path; for test-scale cross-validation
    only (N <= 64).  Returned sorted by (imag, real).
    """
    if sys.N > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle is capped at N = {DENSE_ORACLE_MAX_N}, got {sys.N}")
    n = sys.N
    omega = np.diag(sys.omegas)
    damped = -sys.gamma * np.outer(sys.cs, sys.cs)
    top = np.hstack([damped, omega])
    bot = np.hstack([-omega, np.zeros((n, n))])
    vals = np.linalg.eigvals(np.vstack([top, bot]))
    return vals[np.lexsort((vals.real, vals.imag))]


def matching_distance(a, b):
    """Largest pairwise distance under the optimal bipartite matching.

    Compares two multisets of eigenvalues without relying on any ordering.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size != b.size:
        raise ValueError("multisets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def eval_f_rational(sys, lam):
    """The rational form 2i (sum_j c_j^2/(omega_j^2 + lam^2) + 1/(gamma lam)) of f."""
    arr = np.asarray(lam, dtype=complex)
    L = arr[..., None]
    val = 2j * (np.sum(sys.cs**2 / (sys.omegas**2 + L**2), axis=-1) + 1.0 / (sys.gamma * arr))
    return complex(val) if np.ndim(lam) == 0 else val
