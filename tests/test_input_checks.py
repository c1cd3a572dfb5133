"""Each input condition has one owner: every entry point that checks it
refuses a bad value with the owner's exception class and message, and the
command line exits 2 with that message."""

import contextlib
import io
import math
import re
import warnings

import numpy as np
import pytest

from harmreg import asymptotics, estimator, hermite, simulate, spectral
from harmreg.cli import main
from harmreg.errors import ValidationError
from harmreg.hermite import make_transform
from harmreg.montecarlo import ExperimentConfig
from harmreg.simulate import HarmonicModel, SamplingGrid
from harmreg.spectral import NoiseComponent, NoiseSpec, preset_noise

GRID = SamplingGrid(64.0, 0.25)
SMOOTH = preset_noise("smooth")
SEASONAL = preset_noise("seasonal")  # decay exponent 0.5: rank 1 violates A4
# every alpha is above 1, but rho = 0.5 makes the decay exponent 0.9, so
# rank 1 violates A4 as well
RHO_HALF = NoiseSpec(
    (NoiseComponent(0.7, 3.6, 0.0, 0.5), NoiseComponent(0.3, 4.0, 1.0, 0.5))
)
RHO_HALF_BLOCKS = (
    "[noise]\nd = 0.7\nalpha = 3.6\nrho = 0.5\n"
    "[noise]\nd = 0.3\nalpha = 4.0\nkappa = 1.0\nrho = 0.5\n"
)
IDENTITY = make_transform("identity")
MODEL = HarmonicModel(((1.0, 0.5, 1.3),))
BAND_AT_ZERO = (0.0, 3.0)
PAST_NYQUIST = (0.1, 13.0)  # the grid's Nyquist frequency is 4 pi


def _path():
    return simulate.observe(MODEL, SMOOTH, IDENTITY, GRID, seed=1)


def _config(**override):
    kwargs = dict(noise=SMOOTH, transform=IDENTITY, model=MODEL, grids=(GRID,),
                  replications=4, master_seed=0)
    kwargs.update(override)
    return ExperimentConfig(**kwargs)


def _observe(**override):
    kwargs = dict(model=MODEL, spec=SMOOTH, transform=IDENTITY, grid=GRID, seed=1)
    kwargs.update(override)
    return simulate.observe(**kwargs)


def _cfg_text(noise="[noise]\npreset = smooth\n", model="a = 1.0\nb = 0.5\nphi = 1.3\n",
              band=None, noise_scale=None):
    text = noise + "[transform]\nkind = identity\n"
    if model is not None:
        text += "[model]\n" + model
    if band is not None:
        text += f"[band]\nlow = {band[0]}\nhigh = {band[1]}\n"
    text += "[grid]\nhorizon = 64\ndt = 0.25\n[experiment]\nreplications = 4\n"
    text += "master_seed = 0\n"
    if noise_scale is not None:
        text += f"noise_scale = {noise_scale}\n"
    return text


def _frequency_condition(lam):
    """The refusal of frequency lam by every routine that takes one."""
    return (
        lambda: spectral._require_frequency(lam),
        {
            "spectral_density": lambda: spectral.spectral_density(SMOOTH, lam),
            "self_convolution": lambda: asymptotics.self_convolution(SMOOTH, 1, 2, lam),
            "spectral_factor": lambda: asymptotics.spectral_factor(SMOOTH, IDENTITY, lam),
            "sigma_general": lambda: asymptotics.sigma_general(
                IDENTITY, SMOOTH, [(lam, np.eye(1))]),
        },
    )


# per condition: the owner's refusal, then every entry point that checks it;
# an entry point given as (command, config text) runs on the command line
CONDITIONS = {
    "nan-frequency": _frequency_condition(math.nan),
    "infinite-frequency": _frequency_condition(math.inf),
    "negative-infinite-frequency": _frequency_condition(-math.inf),
    "band-at-zero": (
        lambda: simulate.require_band(BAND_AT_ZERO),
        {
            "HarmonicModel": lambda: HarmonicModel(MODEL.harmonics, band=BAND_AT_ZERO),
            "detect_frequencies": lambda: estimator.detect_frequencies(
                _path(), 1, band=BAND_AT_ZERO),
            "cli-simulate": ("simulate", _cfg_text(band=BAND_AT_ZERO)),
            "cli-montecarlo": ("montecarlo", _cfg_text(band=BAND_AT_ZERO)),
        },
    ),
    "band-past-nyquist": (
        lambda: simulate.require_band(PAST_NYQUIST, GRID),
        {
            "ExperimentConfig": lambda: _config(
                model=HarmonicModel(MODEL.harmonics, band=PAST_NYQUIST)),
            "observe": lambda: _observe(
                model=HarmonicModel(MODEL.harmonics, band=PAST_NYQUIST)),
            "regression_signal": lambda: simulate.regression_signal(
                HarmonicModel(MODEL.harmonics, band=PAST_NYQUIST), GRID),
            "detect_frequencies": lambda: estimator.detect_frequencies(
                _path(), 1, band=PAST_NYQUIST),
            "cli-simulate": ("simulate", _cfg_text(band=PAST_NYQUIST)),
            "cli-montecarlo": ("montecarlo", _cfg_text(band=PAST_NYQUIST)),
        },
    ),
    "negative-noise-scale": (
        lambda: simulate.require_noise_scale(-1.0),
        {
            "ExperimentConfig": lambda: _config(noise_scale=-1.0),
            "observe": lambda: _observe(noise_scale=-1.0),
            "cli-simulate": ("simulate", _cfg_text(noise_scale=-1)),
            "cli-simulate-noise-only": ("simulate", _cfg_text(model=None, noise_scale=-1)),
            "cli-montecarlo": ("montecarlo", _cfg_text(noise_scale=-1)),
        },
    ),
    "a4-violation": (
        lambda: simulate.require_a4(SEASONAL, IDENTITY),
        {
            "ExperimentConfig": lambda: _config(noise=SEASONAL),
            "observe": lambda: _observe(spec=SEASONAL),
            "cli-simulate": ("simulate", _cfg_text(noise="[noise]\npreset = seasonal\n")),
            "cli-montecarlo": ("montecarlo", _cfg_text(noise="[noise]\npreset = seasonal\n")),
        },
    ),
    "a4-decay-exponent": (
        lambda: simulate.require_a4(RHO_HALF, IDENTITY),
        {
            "ExperimentConfig": lambda: _config(noise=RHO_HALF),
            "observe": lambda: _observe(spec=RHO_HALF),
            "cli-simulate": ("simulate", _cfg_text(noise=RHO_HALF_BLOCKS)),
            "cli-montecarlo": ("montecarlo", _cfg_text(noise=RHO_HALF_BLOCKS)),
        },
    ),
    "zero-amplitude": (
        lambda: simulate.amplitude_squared(0.0, 0.0),
        {
            "HarmonicModel": lambda: HarmonicModel(((0.0, 0.0, 1.3),)),
            "gram_block": lambda: asymptotics.gram_block(0.0, 0.0),
            "gamma_matrix": lambda: asymptotics.gamma_matrix(0.0, 0.0, 1.0),
            "trig_spectral_measure": lambda: asymptotics.trig_spectral_measure(0.0, 0.0, 1.3),
            "cli-simulate": ("simulate", _cfg_text(model="a = 0\nb = 0\nphi = 1.3\n")),
            "cli-montecarlo": ("montecarlo", _cfg_text(model="a = 0\nb = 0\nphi = 1.3\n")),
        },
    ),
    "order-above-170": (
        lambda: hermite.require_order(171),
        {
            "make_transform-k_max": lambda: make_transform("identity", k_max=171),
            "hermite_rank": lambda: hermite.hermite_rank([0.0, 1.0] + [0.0] * 170),
            "subordinated_covariance": lambda: hermite.subordinated_covariance(
                [0.0, 1.0] + [0.0] * 170, SMOOTH, 0.5),
            "make_transform-coeffs": lambda: make_transform(
                "hermite-polynomial", coeffs=[0.0, 1.0] + [0.0] * 170),
            "self_convolution": lambda: asymptotics.self_convolution(SMOOTH, 1, 171, 1.0),
            "cli-simulate": ("simulate", _cfg_text().replace(
                "kind = identity\n", "kind = identity\nk_max = 171\n")),
            "cli-montecarlo": ("montecarlo", _cfg_text().replace(
                "kind = identity\n",
                "kind = hermite-polynomial\ncoeffs = 0, 1" + ", 0" * 170 + "\n")),
        },
    ),
}


def _refusal(call):
    with pytest.raises(ValidationError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "condition, entry",
    [(c, e) for c, (_, entries) in CONDITIONS.items() for e in entries],
)
def test_one_refusal_per_condition(condition, entry, tmp_path):
    owner, entries = CONDITIONS[condition]
    cls, message = _refusal(owner)
    call = entries[entry]
    if callable(call):
        assert _refusal(call) == (cls, message)
        return
    command, text = call
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(out_dir)])
    assert (code, err.getvalue()) == (2, f"error: {message}\n")
    assert out.getvalue() == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_allowed_a4_violation_warns_with_the_message():
    # the refusal's text, saying that the override is set rather than how
    # to set it
    _, message = _refusal(lambda: simulate.require_a4(SEASONAL, IDENTITY))
    warning = message.replace("(set allow_a4_violation to override)",
                              "(allow_a4_violation is set)")
    assert warning != message
    with pytest.warns(UserWarning, match=f"^{re.escape(warning)}$"):
        _observe(spec=SEASONAL, allow_a4_violation=True)
    # the experiment accepts it at construction without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _config(noise=SEASONAL, allow_a4_violation=True)
