"""Quadrature: singular panels and tails of spectral_integral, and the
cosine-transform engine behind the spectral density and its
self-convolutions."""

import math

import pytest
from scipy import integrate

from harmreg.errors import QuadratureError
from harmreg.spectral import (
    NoiseComponent,
    NoiseSpec,
    _panel,
    _power_transforms,
    _upper_tail,
    spectral_density,
)

# B(t) = 1 / (1 + t^2)
LORENTZIAN = NoiseSpec((NoiseComponent(1.0, 2.0, 0.0, 2.0),))


def test_panel_smooth():
    assert abs(_panel(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) < 1e-9


def test_panel_empty_interval():
    assert _panel(lambda x: 1.0, 1.0, 1.0) == 0.0
    assert _panel(lambda x: 1.0, 2.0, 1.0) == 0.0


def test_panel_power_singularity_left():
    val = _panel(lambda x: x ** -0.5, 0.0, 1.0, sev_a=0.5)
    assert abs(val - 2.0) < 1e-8


def test_panel_power_singularity_right():
    val = _panel(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, sev_b=0.5)
    assert abs(val - 2.0) < 1e-8


def test_panel_both_endpoints():
    f = lambda x: x ** -0.5 * (1.0 - x) ** -0.5
    val = _panel(f, 0.0, 1.0, sev_a=0.5, sev_b=0.5)
    assert abs(val - math.pi) < 1e-8


def test_panel_log_endpoint():
    # sev = 1 marks a logarithmic endpoint, left to the adaptive rule
    val = _panel(lambda x: -math.log(x), 0.0, 1.0, sev_a=1.0)
    assert abs(val - 1.0) < 1e-7


def test_panel_offset_interval():
    f = lambda x: (x - 2.0) ** -0.25
    val = _panel(f, 2.0, 3.0, sev_a=0.75)
    assert abs(val - 4.0 / 3.0) < 1e-8


def test_upper_tail():
    val = _upper_tail(lambda x: math.exp(-x), 1.0)
    assert abs(val - math.exp(-1.0)) < 1e-9


def transform(spec, mu):
    # int_0^inf B(t) cos(mu t) dt and its error estimate
    ((val, err),) = _power_transforms(spec, mu, (1,))
    return math.pi * val, math.pi * err


def test_cosine_transform_lorentzian():
    exact = 0.5 * math.pi * math.exp(-1.0)
    val, err = transform(LORENTZIAN, 1.0)
    assert abs(val - exact) < 1e-6
    assert abs(val - exact) <= err + 1e-9


def test_cosine_transform_matches_independent_route():
    # B(t) = (1 + t)^-2: rho = 1 puts a cusp at the origin
    u = lambda t: (1.0 + t) ** -2.0
    oracle, _ = integrate.quad(
        u, 0.0, math.inf, weight="cos", wvar=0.7, epsabs=1e-12, limlst=120
    )
    val, err = transform(NoiseSpec((NoiseComponent(1.0, 4.0, 0.0, 1.0),)), 0.7)
    assert abs(val - oracle) < 1e-7
    assert err < 1e-5


def test_cosine_transform_zero_frequency():
    val, err = transform(LORENTZIAN, 0.0)
    assert abs(val - 0.5 * math.pi) < 1e-6
    assert err < 1e-5


def test_cosine_transform_error_budget():
    # 1e-6 from a singular carrier the tail needs a split point far beyond
    # the cap, so the density's error estimate exceeds its budget
    spec = NoiseSpec((NoiseComponent(1.0, 0.5, 1.0, 1.0),))
    with pytest.raises(QuadratureError, match="exceeds"):
        spectral_density(spec, 1.0 + 1e-6)


def test_local_exponent_guard():
    # decay exponent 1.0001 with rho = 0.5: at every split point up to the
    # cap the local exponent of the envelope is still below 1, so a power-law
    # closure there is wrong, and its a-posteriori check must refuse it
    spec = NoiseSpec((NoiseComponent(1.0, 4.0002, 0.0, 0.5),))
    with pytest.raises(QuadratureError, match="exceeds"):
        spectral_density(spec, 0.0)
