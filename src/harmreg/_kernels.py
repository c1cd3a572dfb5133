"""Numpy kernels of the least-squares estimator.

At a point (A, B, phi) of the harmonic regression everything the estimator
needs -- signal values, residual, objective, Jacobian, Hessian -- derives
from one trigonometric design: the (n, N) matrices cos(phi_k t_i) and
sin(phi_k t_i). ``trig_design`` builds that pair once per point;
``signal``, ``jacobian`` and ``hessian`` reuse it. ``fourier_pair`` is the
single-frequency inner product behind the periodogram at arbitrary
frequencies.
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


def signal(c, s, a, b):
    # np.dot, not @: numpy's matmul takes a slow path for a single column
    return np.dot(c, a) + np.dot(s, b)


def jacobian(t, c, s, a, b):
    # residual r = x - c @ a - s @ b, so with columns ordered
    # (A_1..A_N, B_1..B_N, phi_1..phi_N), J[i, j] = d r_i / d tau_j
    return np.hstack([-c, -s, t[:, None] * (s * a - c * b)])


def hessian(t, c, s, a, b, r, jac):
    # Hessian of r.r / 2: J^T J plus sum_i r_i d2 r_i, whose only nonzero
    # entries per harmonic k are (phi_k, phi_k) = sum r t^2 (A c + B s),
    # (A_k, phi_k) = sum r t s and (B_k, phi_k) = -sum r t c; the upper
    # triangle is filled, with half the diagonal, and added to its transpose
    nh = len(a)
    k = np.arange(nh)
    f = 2 * nh + k
    tr = t * r
    curv = np.zeros((3 * nh, 3 * nh))
    curv[f, f] = 0.5 * ((t * tr) @ (c * a + s * b))
    curv[k, f] = tr @ s
    curv[nh + k, f] = -(tr @ c)
    return jac.T @ jac + curv + curv.T
