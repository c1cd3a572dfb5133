"""Numpy kernels of the least-squares estimator.

At a point (A, B, phi) of the harmonic regression everything the estimator
needs -- signal values, residual, objective, Jacobian -- derives from one
trigonometric design: the (n, N) matrices cos(phi_k t_i) and sin(phi_k t_i).
``trig_design`` builds that pair once per point and ``jacobian`` reuses it.
``fourier_pair`` is the single-frequency inner product behind the
periodogram and its golden-section peak search.
"""

import numpy as np

HAS_NUMBA = False  # there is no jit path; the name stays for benchmark machine facts


def fourier_pair(x, t, lam):
    c = np.cos(lam * t)
    s = np.sin(lam * t)
    return float(x @ c), float(x @ s)


def trig_design(t, phi):
    u = np.outer(t, phi)
    return np.cos(u), np.sin(u)


def jacobian(t, c, s, a, b):
    # residual r = x - c @ a - s @ b, so with columns ordered
    # (A_1..A_N, B_1..B_N, phi_1..phi_N), J[i, j] = d r_i / d tau_j
    return np.hstack([-c, -s, t[:, None] * (s * a - c * b)])
