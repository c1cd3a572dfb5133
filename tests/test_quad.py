"""Quadrature: singular panels and tails of spectral_integral, and the
cosine-transform engine behind the spectral density and its
self-convolutions."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import integrate

import harmreg
from harmreg.errors import QuadratureError
from harmreg.spectral import (
    NoiseComponent,
    NoiseSpec,
    _panel,
    _power_transforms,
    _upper_tail,
    spectral_density,
    spectral_integral,
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


def test_upper_tail_algebraic():
    # densities with rho != 2 decay like a power of the frequency
    assert abs(_upper_tail(lambda x: x**-2, 1.0) - 1.0) < 1e-8


def test_panel_and_tail_gate_their_estimate():
    # 1/x is not integrable at 0 nor at infinity; the estimates say so
    with pytest.raises(QuadratureError, match="exceeds"):
        _panel(lambda x: 1.0 / x, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="exceeds"):
        _upper_tail(lambda x: 1.0 / x, 1.0)


@pytest.mark.parametrize(
    "components",
    [
        # a power singularity of severity 0.25 at the carrier 2
        ((1.0, 0.25, 2.0),),
        # power singularities at 0 and at 1.5
        ((0.5, 0.3, 0.0), (0.5, 0.6, 1.5)),
        # a logarithmic singularity at 1
        ((1.0, 1.0, 1.0),),
    ],
    ids=["sev0.25", "two-powers", "log"],
)
def test_spectral_integral_strong_singularities(components):
    spec = NoiseSpec(tuple(NoiseComponent(*c) for c in components))
    assert abs(spectral_integral(spec) - 1.0) <= 1e-4


def test_runtime_loads_no_scipy():
    # scipy serves only the test oracles: the package and its quadrature
    # run without importing it
    code = """
import sys
import harmreg
from harmreg.asymptotics import gamma_report
from harmreg.hermite import make_transform
from harmreg.simulate import HarmonicModel
from harmreg.spectral import preset_noise, spectral_integral

gamma_report(HarmonicModel(((1.0, 0.5, 1.3),)), make_transform("identity"), preset_noise("smooth"))
spectral_integral(preset_noise("mixed"))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    path = os.pathsep.join(
        filter(None, [str(Path(harmreg.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr


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
