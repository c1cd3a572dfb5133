"""Numpy kernels of the least-squares estimator.

At a point (A, B, phi) of the harmonic regression everything the estimator
needs -- signal values, residual, objective, Jacobian, Hessian -- derives
from one trigonometric design: the row-major (N, n) matrices cos(phi_k t_i)
and sin(phi_k t_i). ``trig_design`` builds that pair once per point;
``signal``, ``jacobian`` and ``hessian`` reuse it.

Every sum over the n sample points is an ``np.einsum`` along a contiguous
row, never a BLAS product: threaded BLAS splits long sums into pieces by
its thread count, so its rounding would depend on the machine.
"""

import numpy as np

HAS_NUMBA = False  # there is no jit path; the name stays for benchmark machine facts


def trig_design(t, phi):
    u = np.outer(phi, t)
    return np.cos(u), np.sin(u)


def signal(c, s, a, b):
    return np.einsum("k,ki->i", a, c) + np.einsum("k,ki->i", b, s)


def jacobian(t, c, s, a, b):
    # residual r = x - signal(c, s, a, b); row j of the (3N, n) result is
    # d r / d tau_j, with tau ordered (A_1..A_N, B_1..B_N, phi_1..phi_N)
    return np.vstack([-c, -s, t * (s * a[:, None] - c * b[:, None])])


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
    curv[f, f] = 0.5 * np.einsum("i,ki->k", t * tr, c * a[:, None] + s * b[:, None])
    curv[k, f] = np.einsum("i,ki->k", tr, s)
    curv[nh + k, f] = -np.einsum("i,ki->k", tr, c)
    return np.einsum("ji,ki->jk", jac, jac) + curv + curv.T
