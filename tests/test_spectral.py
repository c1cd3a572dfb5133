"""Covariance mixtures, Bessel evaluation, and spectral densities."""

import math

import numpy as np
import pytest
from scipy import integrate

from harmreg import (
    NoiseComponent,
    NoiseSpec,
    covariance,
    covariance_envelope,
    preset_noise,
    singular_points,
    spectral_density,
    spectral_integral,
)
from harmreg import spectral
from harmreg.errors import SingularityError, ValidationError
from harmreg.spectral import bessel_k, c1, c2

from oracles import bessel_k_series, density_oracle, density_oracle_fast

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# bessel_k


@pytest.mark.parametrize("z", [0.01, 0.05, 0.2, 1.0, 2.7, 8.0, 20.0])
def test_bessel_half_order_closed_form(z):
    # K_{1/2}(z) = sqrt(pi / (2 z)) exp(-z)
    exact = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
    assert abs(bessel_k(0.5, z) - exact) <= 1e-10 * exact


def test_bessel_spot_value():
    exact = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    assert abs(bessel_k(0.5, 1.0) - exact) <= 1e-10 * exact


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.2, 1.7])
@pytest.mark.parametrize("z", [0.05, 0.3, 0.7, 1.5, 4.0, 9.0])
def test_bessel_against_series_expansion(nu, z):
    ref = bessel_k_series(nu, z)
    assert abs(bessel_k(nu, z) - ref) <= 1e-8 * abs(ref)


def test_bessel_even_in_order():
    assert bessel_k(-0.3, 2.0) == bessel_k(0.3, 2.0)
    assert bessel_k(-1.7, 0.4) == bessel_k(1.7, 0.4)


@pytest.mark.parametrize("nu", [0.3, 1.0, 2.5, 7.0])
@pytest.mark.parametrize("z", [0.2, 1.0, 3.0, 11.0])
def test_bessel_recurrence(nu, z):
    # K_{nu+1}(z) = K_{nu-1}(z) + (2 nu / z) K_nu(z)
    lhs = bessel_k(nu + 1.0, z)
    rhs = bessel_k(nu - 1.0, z) + (2.0 * nu / z) * bessel_k(nu, z)
    assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_bessel_domain_errors():
    with pytest.raises(ValidationError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValidationError):
        bessel_k(0.5, -1.0)
    with pytest.raises(ValidationError):
        bessel_k(50.5, 1.0)


def test_bessel_overflow_signalled():
    # K_50(1e-6) ~ (1/2) Gamma(50) (2e6)^50 far beyond double range
    with pytest.raises(OverflowError):
        bessel_k(50.0, 1e-6)


# ---------------------------------------------------------------------------
# component and mixture validation


def test_component_validation():
    with pytest.raises(ValidationError):
        NoiseComponent(-0.1, 1.0)
    with pytest.raises(ValidationError):
        NoiseComponent(1.0, 0.0)
    with pytest.raises(ValidationError):
        NoiseComponent(1.0, 1.0, -2.0)
    with pytest.raises(ValidationError):
        NoiseComponent(1.0, 1.0, 0.0, 2.5)
    with pytest.raises(ValidationError):
        NoiseComponent(1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "fields",
    [
        (math.nan, 1.0, 0.0),
        (math.inf, 1.0, 0.0),
        (1.0, math.nan, 0.0),
        (1.0, math.inf, 0.0),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, math.inf),
    ],
)
def test_component_rejects_non_finite(fields):
    with pytest.raises(ValidationError, match="finite"):
        NoiseComponent(*fields)


def test_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec(())
    with pytest.raises(ValidationError):
        NoiseSpec((NoiseComponent(0.5, 1.0),))
    with pytest.raises(ValidationError):
        NoiseSpec((NoiseComponent(0.5, 1.0, 1.0), NoiseComponent(0.5, 1.0, 1.0)))
    with pytest.raises(ValidationError):
        NoiseSpec((NoiseComponent(0.5, 1.0, 2.0), NoiseComponent(0.5, 1.0, 1.0)))


def test_preset_names():
    assert preset_noise("seasonal").components[0].kappa == 2.0
    assert preset_noise("smooth").components[0].kappa == 0.0
    assert len(preset_noise("mixed").components) == 2
    with pytest.raises(ValidationError):
        preset_noise("lumpy")


def test_decay_exponent():
    comp = NoiseComponent(1.0, 1.5, 0.0, 2.0)
    assert comp.decay_exponent == 1.5
    assert NoiseComponent(1.0, 3.0, 0.0, 1.0).decay_exponent == 1.5
    spec = NoiseSpec((NoiseComponent(0.6, 1.5, 0.0), NoiseComponent(0.4, 0.5, 2.0)))
    assert spec.decay_exponent == 0.5
    # rho < 2 lowers the decay exponent below every alpha
    spec = NoiseSpec((NoiseComponent(0.7, 3.6, 0.0, 0.5), NoiseComponent(0.3, 4.0, 1.0, 0.5)))
    assert spec.decay_exponent == 0.9


# ---------------------------------------------------------------------------
# covariance


@pytest.mark.parametrize("name", ["seasonal", "smooth", "mixed"])
def test_covariance_at_zero(name):
    assert covariance(preset_noise(name), 0.0) == 1.0


def test_covariance_direct_value():
    spec = NoiseSpec((NoiseComponent(1.0, 1.0, 0.0, 2.0),))
    assert abs(covariance(spec, 1.0) - 1.0 / math.sqrt(2.0)) < 1e-15


@pytest.mark.parametrize("name", ["seasonal", "smooth", "mixed"])
def test_covariance_even_and_bounded(name):
    spec = preset_noise(name)
    t = np.linspace(0.0, 50.0, 2001)
    b = covariance(spec, t)
    assert np.array_equal(covariance(spec, -t), b)
    assert np.all(np.abs(b) <= covariance_envelope(spec, t) + 1e-15)
    assert np.all(np.abs(b) <= 1.0)


def test_covariance_scalar_matches_array(mixed):
    t = np.array([0.3, 1.7, 9.2])
    vec = covariance(mixed, t)
    for ti, vi in zip(t, vec):
        assert covariance(mixed, float(ti)) == vi


def test_envelope_monotone(mixed):
    t = np.linspace(0.0, 80.0, 4001)
    env = covariance_envelope(mixed, t)
    assert env[0] == 1.0
    assert np.all(np.diff(env) <= 0.0)


# ---------------------------------------------------------------------------
# spectral density


@pytest.mark.parametrize("name", ["seasonal", "smooth", "mixed"])
def test_density_even(name):
    spec = preset_noise(name)
    rng = np.random.default_rng(7)
    sing = [s for s, _ in singular_points(spec)]
    count = 0
    while count < 1000:
        lam = float(rng.uniform(-6.0, 6.0))
        if any(abs(abs(lam) - abs(s)) < 1e-9 for s in sing):
            continue
        assert abs(spectral_density(spec, lam) - spectral_density(spec, -lam)) <= 1e-12
        count += 1


def test_density_matches_quadosc_oracle(seasonal, smooth, mixed):
    for spec, lam in ((seasonal, 1.1), (smooth, 0.45), (mixed, 2.6)):
        ref = density_oracle(spec, lam, dps=20)
        assert abs(spectral_density(spec, lam) - ref) <= 1e-9


@pytest.mark.parametrize("name", ["seasonal", "smooth", "mixed"])
def test_density_matches_fast_oracle(name):
    spec = preset_noise(name)
    rng = np.random.default_rng(11)
    sing = [s for s, _ in singular_points(spec)]
    lams = []
    while len(lams) < 12:
        lam = float(rng.uniform(0.05, 4.0))
        if all(abs(lam - s) > 0.05 for s in sing):
            lams.append(lam)
    for lam in lams:
        ref = density_oracle_fast(spec, lam)
        assert abs(spectral_density(spec, lam) - ref) <= 1e-8


def test_density_numeric_shape_path():
    spec = NoiseSpec((NoiseComponent(1.0, 3.0, 0.0, 1.0),))
    ref = density_oracle_fast(spec, 0.7)
    assert abs(spectral_density(spec, 0.7) - ref) <= 1e-6


@pytest.mark.parametrize("alpha, rho", [(3.0, 1.0), (1.6, 1.5)])
def test_density_at_zero_other_shapes(alpha, rho):
    # f(0) = (1/pi) int_0^inf (1 + t^rho)^(-alpha/2) dt
    #      = Beta(1/rho, alpha/2 - 1/rho) / (pi rho)
    spec = NoiseSpec((NoiseComponent(1.0, alpha, 0.0, rho),))
    a, b = 1.0 / rho, alpha / 2.0 - 1.0 / rho
    exact = math.gamma(a) * math.gamma(b) / math.gamma(a + b) / (math.pi * rho)
    assert abs(spectral_density(spec, 0.0) - exact) <= 1e-7


@pytest.mark.parametrize("lam", [0.7, 1.3])
def test_density_slow_decay_between_carriers(lam):
    # decay exponent 0.25: the covariance is not integrable, but off the
    # carrier every shifted frequency is nonzero and the tails close, by
    # t = 8192 with a third integration by parts (the |U'| / mu^2 bound
    # alone runs to the 131072 cap)
    spec = NoiseSpec((NoiseComponent(1.0, 0.5, 1.0, 1.0),))
    (t1,), _, _ = spectral._tail_closures(spectral._stacked_lines(spec, (1,)), lam, 1)
    assert t1 <= 8192.0
    ref = density_oracle_fast(spec, lam)
    assert abs(spectral_density(spec, lam) - ref) <= 1e-8


def test_density_other_shapes_skip_adaptive_quadrature(monkeypatch):
    calls = []
    quad = integrate.quad

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counted)
    spec = NoiseSpec(
        (NoiseComponent(0.7, 3.0, 0.0, 1.0), NoiseComponent(0.3, 1.6, 1.5, 1.5))
    )
    for lam in (0.0, 0.7, 2.6):
        spectral_density(spec, lam)
    assert calls == []


def test_density_limit_at_zero_for_integrable_decay(smooth):
    # alpha > 1: f(0) = Gamma((alpha-1)/2) / (2 sqrt(pi) Gamma(alpha/2))
    ref = math.gamma(0.25) / (2.0 * math.sqrt(math.pi) * math.gamma(0.75))
    assert abs(spectral_density(smooth, 0.0) - ref) <= 1e-12
    assert abs(spectral_density(smooth, 1e-6) - ref) <= 1e-3 * ref


def test_density_log_divergence_at_unit_decay():
    spec = NoiseSpec((NoiseComponent(1.0, 1.0, 0.0),))
    for lam in (1e-6, 1e-8):
        ref = (-math.log(lam) + math.log(2.0) - EULER_GAMMA) / math.pi
        assert abs(spectral_density(spec, lam) - ref) <= 1e-6 * ref


def test_density_local_power_law(seasonal):
    # near a singular carrier the density grows like |lam - kappa|^(alpha-1);
    # the coefficient is c2(alpha)/2 for kappa > 0 and c2(alpha) for kappa = 0
    # (the carrier splits its mass between +kappa and -kappa)
    h = 1e-8
    ratio = spectral_density(seasonal, 2.0 + h) * math.sqrt(h) / (c2(0.5) / 2.0)
    assert abs(ratio - 1.0) < 1e-3
    plain = NoiseSpec((NoiseComponent(1.0, 0.5, 0.0),))
    ratio0 = spectral_density(plain, h) * math.sqrt(h) / c2(0.5)
    assert abs(ratio0 - 1.0) < 1e-3


def test_density_remainder_bounded_near_singularity(seasonal):
    # remainder form: f = c2 |lam - kappa|^(alpha-1) (1 - h), |h| < 1
    for h in (1e-3, 1e-5, 1e-7):
        ratio = spectral_density(seasonal, 2.0 + h) * math.sqrt(h) / c2(0.5)
        assert 0.0 < ratio < 2.0


def test_density_singularity_errors(seasonal, mixed):
    with pytest.raises(SingularityError):
        spectral_density(seasonal, 2.0)
    with pytest.raises(SingularityError):
        spectral_density(mixed, -2.0)
    spec = NoiseSpec((NoiseComponent(1.0, 1.0, 2.0, 1.0),))
    with pytest.raises(SingularityError):
        spectral_density(spec, 2.0)


def test_c2_constant():
    assert abs(c2(0.5) - 0.3989422804014327) < 1e-12
    with pytest.raises(ValidationError):
        c2(1.0)
    with pytest.raises(ValidationError):
        c2(0.0)


def test_c1_constant():
    assert abs(c1(1.0) - 1.0 / math.pi) < 1e-15


# ---------------------------------------------------------------------------
# singular points and integral


def test_singular_points_census():
    spec = NoiseSpec((NoiseComponent(0.5, 0.5, 0.0), NoiseComponent(0.5, 0.5, 2.0)))
    assert [p for p, _ in singular_points(spec)] == [-2.0, 0.0, 2.0]
    spec = NoiseSpec((NoiseComponent(0.5, 0.4, 1.0), NoiseComponent(0.5, 0.6, 3.0)))
    assert [p for p, _ in singular_points(spec)] == [-3.0, -1.0, 1.0, 3.0]
    spec = NoiseSpec((NoiseComponent(0.5, 1.5, 0.0), NoiseComponent(0.5, 1.2, 2.0)))
    assert singular_points(spec) == []


def test_singular_points_severity(mixed):
    pts = singular_points(mixed)
    assert pts == [(-2.0, 0.5), (2.0, 0.5)]


@pytest.mark.parametrize("name", ["seasonal", "smooth", "mixed"])
def test_spectral_integral_is_one(name):
    assert abs(spectral_integral(preset_noise(name)) - 1.0) <= 1e-4


def test_fourier_duality_recovers_covariance(smooth):
    # B(t) = 2 int_0^inf f(lam) cos(lam t) dlam, closed by exponential decay
    lam = np.linspace(0.0, 40.0, 16001)
    dens = np.array([spectral_density(smooth, x) for x in lam])
    for t in (0.0, 1.0, 2.5):
        roundtrip = 2.0 * np.trapezoid(dens * np.cos(lam * t), lam)
        assert abs(roundtrip - covariance(smooth, t)) <= 2e-4
