"""Numpy kernels of the estimator: the Fourier pair, the trigonometric
design and the Jacobian built from it."""

import numpy as np
import pytest

from harmreg import _kernels as kernels
from harmreg import estimator as est
from harmreg.simulate import SamplePath, SamplingGrid

RNG = np.random.default_rng(314)
N = 1024
T_GRID = 0.25 * np.arange(N)
X = RNG.standard_normal(N)
A = np.array([1.0, 0.4])
B = np.array([0.5, -0.2])
PHI = np.array([1.3, 2.1])


def _residual(x, phi):
    c, s = kernels.trig_design(T_GRID, phi)
    return x - (c @ A + s @ B)


class TestNumpyReference:
    def test_fourier_pair_matches_direct_sums(self):
        sc, ss = kernels.fourier_pair(X, T_GRID, 1.3)
        assert sc == pytest.approx(np.sum(X * np.cos(1.3 * T_GRID)), rel=1e-12)
        assert ss == pytest.approx(np.sum(X * np.sin(1.3 * T_GRID)), rel=1e-12)

    def test_residual_vanishes_on_exact_signal(self):
        signal = np.zeros(N)
        for k in range(A.shape[0]):
            signal += A[k] * np.cos(PHI[k] * T_GRID) + B[k] * np.sin(PHI[k] * T_GRID)
        assert np.max(np.abs(_residual(signal, PHI))) < 1e-12

    def test_residual_leaves_input_unchanged(self):
        # refine carries its residual from one iteration to the next; the
        # observed values it is formed from must survive untouched
        grid = SamplingGrid(N * 0.25, 0.25)
        x = X.copy()
        est.refine(SamplePath(grid=grid, values=x), A, B, PHI)
        np.testing.assert_array_equal(x, X)

    def test_jacobian_columns(self):
        c, s = kernels.trig_design(T_GRID, PHI)
        jac = kernels.jacobian(T_GRID, c, s, A, B)
        assert jac.shape == (N, 6)
        for k in range(2):
            ck = np.cos(PHI[k] * T_GRID)
            sk = np.sin(PHI[k] * T_GRID)
            np.testing.assert_allclose(jac[:, k], -ck)
            np.testing.assert_allclose(jac[:, 2 + k], -sk)
            np.testing.assert_allclose(jac[:, 4 + k], T_GRID * (A[k] * sk - B[k] * ck))

    def test_jacobian_matches_finite_differences(self):
        # central difference in phi_0; truncation ~ h^2 t^3 stays below 1e-5
        h = 1e-6
        phi_plus = PHI.copy()
        phi_minus = PHI.copy()
        phi_plus[0] += h
        phi_minus[0] -= h
        c, s = kernels.trig_design(T_GRID, PHI)
        jac = kernels.jacobian(T_GRID, c, s, A, B)
        fd = (_residual(X, phi_plus) - _residual(X, phi_minus)) / (2 * h)
        np.testing.assert_allclose(jac[:, 4], fd, atol=1e-4)
