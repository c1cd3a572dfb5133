"""Replication harness tests: config validation, determinism across worker
counts, aggregation and report logic, and the statistical diagnostics."""

import concurrent.futures
import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import types
import weakref

import numpy as np
import pytest

from harmreg import asymptotics, montecarlo, spectral
from harmreg.asymptotics import gamma_report
from harmreg.errors import (
    DegenerateVarianceError,
    ExperimentError,
    InsufficientSamplesError,
    NonIntegrableError,
    NyquistError,
    ValidationError,
)
from harmreg.hermite import make_transform
from harmreg.montecarlo import (
    ExperimentConfig,
    GridResult,
    MonteCarloReport,
    _replication,
    eta_squared,
    lemma2_decay,
    normality_diagnostics,
    run_replications,
)
from harmreg.simulate import (
    HarmonicModel,
    SamplePath,
    SamplingGrid,
    regression_signal,
)
from harmreg.spectral import NoiseComponent, NoiseSpec

from oracles import lemma2_oracle

MODEL = HarmonicModel(((1.0, 0.5, 1.3),))
IDENTITY = make_transform("identity")
F_SMOOTH_13 = 0.11717764563958491  # spectral factor of the smooth preset at 1.3

# estimate_harmonics on T = 4096 smooth / identity paths with one and two
# harmonics, b_m and abs_cov_power_integral of the rank-2 plug-in noise at m = 3 and 4,
# and a small report, all printed bit for bit
_THREAD_PROBE = """
import numpy as np
from harmreg import NoiseComponent, NoiseSpec, preset_noise
from harmreg.asymptotics import abs_cov_power_integral, b_m
from harmreg.estimator import estimate_harmonics
from harmreg.hermite import make_transform
from harmreg.montecarlo import ExperimentConfig, run_replications
from harmreg.simulate import HarmonicModel, SamplingGrid, observe

smooth, identity = preset_noise("smooth"), make_transform("identity")
two = HarmonicModel(((1.0, 0.5, 1.3), (0.6, -0.4, 2.1)))
grid = SamplingGrid(4096.0, 0.25)
for model in (HarmonicModel(two.harmonics[:1]), two):
    for seed in range(20):
        path = observe(model, smooth, identity, grid, seed)
        res = estimate_harmonics(path, len(model.harmonics))
        print(*(float(v).hex() for v in np.ravel(res.model.amplitudes())))
plug = NoiseSpec((NoiseComponent(0.6, 1.5, 0.0), NoiseComponent(0.4, 0.8, 2.0)))
for m in (3, 4):
    print(float(b_m(plug, m)).hex(), float(abs_cov_power_integral(plug, m, 1024.0)).hex())
config = ExperimentConfig(
    noise=smooth, transform=identity, model=two, grids=(grid,),
    replications=4, master_seed=3,
)
print(run_replications(config).to_text())
"""


@pytest.fixture(scope="module")
def base_config(smooth):
    return ExperimentConfig(
        noise=smooth,
        transform=IDENTITY,
        model=MODEL,
        grids=(SamplingGrid(64.0, 0.25),),
        replications=6,
        master_seed=7,
    )


@pytest.fixture(scope="module")
def base_report(base_config):
    return run_replications(base_config)


@pytest.fixture(scope="module")
def failing_config(smooth):
    # two harmonics closer than the separation rule inside a band narrower
    # than the exclusion window: every replication raises InsufficientPeaks
    close = HarmonicModel(((1.0, 0.5, 1.30), (0.8, 0.3, 1.33)), band=(1.25, 1.36))
    return ExperimentConfig(
        noise=smooth,
        transform=IDENTITY,
        model=close,
        grids=(SamplingGrid(64.0, 0.25),),
        replications=4,
        master_seed=1,
    )


@pytest.fixture(scope="module")
def noiseless_config(smooth):
    return ExperimentConfig(
        noise=smooth,
        transform=IDENTITY,
        model=MODEL,
        grids=(
            SamplingGrid(64.0, 0.25),
            SamplingGrid(128.0, 0.25),
            SamplingGrid(256.0, 0.25),
        ),
        replications=2,
        master_seed=3,
        noise_scale=0.0,
    )


def _grid_result(horizon, samples):
    return GridResult(
        grid=SamplingGrid(horizon, 0.25),
        samples=samples,
        n_requested=samples.shape[0],
        n_nonconverged=0,
        failures=(),
        embedding_clamp_bound=0.0,
        embedding_size=0,
    )


def _report(config, results, gamma_derived, gamma_printed=None):
    if gamma_printed is None:
        gamma_printed = gamma_derived
    return MonteCarloReport(
        config=config,
        results=results,
        gamma_derived=gamma_derived,
        gamma_printed=gamma_printed,
        s_values=(1.0,),
        tail_bounds=(0.0,),
        quad_errors=(0.0,),
    )


class TestExperimentConfig:
    def test_defaults(self, base_config):
        assert base_config.j_max == 20
        assert base_config.noise_scale == 1.0
        assert not base_config.allow_a4_violation

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"replications": 1}, "at least 2"),
            ({"grids": ()}, "schedule is empty"),
            ({"noise_scale": math.nan}, "nonnegative"),
            ({"noise_scale": -0.5}, "nonnegative"),
            ({"master_seed": -1}, "master_seed must be nonnegative"),
            ({"replications": 2.5}, "replications must be an integer"),
            ({"replications": True}, "replications must be an integer"),
            ({"master_seed": 1.5}, "master_seed must be an integer"),
            ({"master_seed": True}, "master_seed must be an integer"),
            ({"j_max": 2.5}, "j_max must be an integer"),
            ({"j_max": False}, "j_max must be an integer"),
            ({"j_max": -1}, "j_max must be nonnegative"),
        ],
    )
    def test_rejects_bad_fields(self, smooth, override, match):
        kwargs = dict(
            noise=smooth,
            transform=IDENTITY,
            model=MODEL,
            grids=(SamplingGrid(64.0, 0.25),),
            replications=4,
            master_seed=0,
        )
        kwargs.update(override)
        with pytest.raises(ValidationError, match=match):
            ExperimentConfig(**kwargs)

    def test_band_must_stay_below_nyquist(self, smooth):
        with pytest.raises(ValidationError, match="Nyquist"):
            ExperimentConfig(
                noise=smooth,
                transform=IDENTITY,
                model=MODEL,
                grids=(SamplingGrid(64.0, 1.6),),
                replications=4,
                master_seed=0,
            )

    def test_low_rank_product_rejected(self, seasonal):
        # decay_exponent * rank = 0.5 for the seasonal preset under identity
        with pytest.raises(ValidationError, match="decay_exponent"):
            ExperimentConfig(
                noise=seasonal,
                transform=IDENTITY,
                model=MODEL,
                grids=(SamplingGrid(64.0, 0.25),),
                replications=4,
                master_seed=0,
            )

    @pytest.mark.parametrize(
        "horizons, label",
        [(((64.0, 0.25), (64.0, 0.125)), "T64"), (((1e6, 0.25), (1000001.0, 0.25)), "T1e+06")],
        ids=["same-horizon", "same-g-format"],
    )
    def test_grids_sharing_an_output_label_rejected(self, smooth, horizons, label):
        # samples_T{horizon:g}.csv would hold only the later grid's samples
        grids = tuple(SamplingGrid(h, dt) for h, dt in horizons)
        message = f"grids {grids[0]} and {grids[1]} share the output label {label}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(noise=smooth, transform=IDENTITY, model=MODEL,
                             grids=(SamplingGrid(32.0, 0.25),) + grids,
                             replications=4, master_seed=0)

    def test_low_rank_override(self, seasonal):
        cfg = ExperimentConfig(
            noise=seasonal,
            transform=IDENTITY,
            model=MODEL,
            grids=(SamplingGrid(64.0, 0.25),),
            replications=4,
            master_seed=0,
            allow_a4_violation=True,
        )
        assert cfg.allow_a4_violation


class TestReplicationWorker:
    def test_success_payload(self, base_config):
        r, errors, converged = _replication(base_config, 0, 2)
        assert r == 2
        assert np.asarray(errors).shape == (3, 1)
        assert converged is True

    def test_failure_payload_is_message(self, failing_config):
        r, payload, converged = _replication(failing_config, 0, 0)
        assert r == 0
        assert isinstance(payload, str)
        assert payload.startswith("InsufficientPeaksError")
        assert converged is None


class TestRunReplications:
    def test_all_replications_usable(self, base_report):
        res = base_report.results[0]
        assert res.n_ok == 6
        assert res.n_nonconverged == 0
        assert res.failures == ()
        assert res.samples.shape == (6, 3, 1)

    def test_empirical_blocks(self, base_report):
        res = base_report.results[0]
        assert res.empirical_mean(0).shape == (3,)
        cov = res.empirical_cov(0)
        assert cov.shape == (3, 3)
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)
        assert np.all(np.diag(cov) > 0.0)

    def test_theory_blocks_attached(self, base_config, base_report):
        a, b = 1.0, 0.5
        c2 = a * a + b * b
        scale = 4.0 * math.pi * F_SMOOTH_13 / c2
        expected = scale * np.array(
            [
                [a * a + 4 * b * b, -3 * a * b, -6 * b],
                [-3 * a * b, 4 * a * a + b * b, 6 * a],
                [-6 * b, 6 * a, 12.0],
            ]
        )
        np.testing.assert_allclose(base_report.gamma_derived[0], expected, rtol=1e-6)
        assert base_report.s_values[0] == pytest.approx(F_SMOOTH_13, rel=1e-6)
        assert base_report.tail_bounds[0] < 1e-10
        ref = gamma_report(base_config.model, IDENTITY, base_config.noise, base_config.j_max)
        assert base_report.quad_errors == ref.quad_errors
        assert 0.0 <= base_report.quad_errors[0] <= 1e-5
        printed = gamma_report(
            base_config.model, IDENTITY, base_config.noise, base_config.j_max, "as-printed"
        )
        scale2 = base_config.noise_scale**2
        for got, want in zip(base_report.gamma_printed, printed.matrices, strict=True):
            assert np.array_equal(got, scale2 * want)

    def test_same_report_for_any_worker_count(self, base_config, base_report):
        rep2 = run_replications(base_config, workers=2)
        assert rep2.to_text() == base_report.to_text()

    def test_rerun_is_byte_identical(self, base_config, base_report):
        again = run_replications(base_config)
        assert again.to_text() == base_report.to_text()
        assert again.samples_csv(0) == base_report.samples_csv(0)

    def test_one_pool_for_all_grids(self, smooth, monkeypatch):
        # the executor is opened once per call, not once per grid
        opened = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        config = ExperimentConfig(
            noise=smooth,
            transform=IDENTITY,
            model=MODEL,
            grids=(SamplingGrid(64.0, 0.25), SamplingGrid(96.0, 0.25)),
            replications=3,
            master_seed=7,
        )
        report = run_replications(config, workers=2)
        assert opened == [2]
        assert report.to_text() == run_replications(config).to_text()

    def test_pool_no_larger_than_the_replication_count(self, base_config, base_report,
                                                       monkeypatch):
        # the process pool starts every worker at the first submit; a serial
        # stand-in records the size asked for and starts none
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        for workers in (2, 6, 64):
            assert run_replications(base_config, workers).to_text() == base_report.to_text()
        assert opened == [2, 6, base_config.replications]

    def test_bits_do_not_depend_on_blas_threads(self):
        # threaded BLAS splits a long sum into pieces by its thread count;
        # the estimator, the |B|^m integrals and the harness sum without it,
        # so a child process gives the same bits at 1 and 2 BLAS threads
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": n},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for n in ("1", "2")
        ]
        assert outputs[0].count("\n") > 40
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"j_max": 0}, ValidationError),
            (
                {
                    "noise": NoiseSpec((NoiseComponent(1.0, 0.8),)),
                    "allow_a4_violation": True,
                },
                NonIntegrableError,
            ),
        ],
    )
    def test_rejected_theory_fails_before_drawing(
        self, base_config, overrides, error, monkeypatch
    ):
        # the limit blocks are formed before any replication runs
        def unexpected(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "_replication", unexpected)
        config = dataclasses.replace(base_config, **overrides)
        for workers in (1, 2):
            with pytest.raises(error):
                run_replications(config, workers=workers)

    def test_workers_must_be_positive(self, base_config, monkeypatch):
        # refused before the limit blocks' quadrature
        def unexpected(*args):
            raise AssertionError("gamma_report ran")

        monkeypatch.setattr(montecarlo.asymptotics, "gamma_report", unexpected)
        for workers in (0, 2.5, True):
            with pytest.raises(ValidationError, match="workers"):
                run_replications(base_config, workers=workers)

    def test_failure_cap_aborts(self, failing_config):
        with pytest.raises(ExperimentError, match="unusable"):
            run_replications(failing_config)

    def test_noiseless_sentinel(self, noiseless_config):
        rep = run_replications(noiseless_config)
        assert rep.s_values == (0.0,)
        assert rep.tail_bounds == (0.0,)
        assert rep.quad_errors == (0.0,)
        assert all(np.all(m == 0.0) for m in rep.gamma_derived)
        assert all(np.all(m == 0.0) for m in rep.gamma_printed)
        for res in rep.results:
            assert res.n_ok == 2
            assert res.embedding_clamp_bound == 0.0
            assert np.max(np.abs(res.samples)) < 1e-9

    def test_noise_scale_squares_theory(self, base_config, base_report, smooth):
        cfg = ExperimentConfig(
            noise=smooth,
            transform=IDENTITY,
            model=MODEL,
            grids=base_config.grids,
            replications=2,
            master_seed=7,
            noise_scale=0.5,
        )
        rep = run_replications(cfg)
        np.testing.assert_allclose(
            rep.gamma_derived[0], 0.25 * base_report.gamma_derived[0], rtol=1e-12
        )
        assert rep.s_values[0] == pytest.approx(0.25 * base_report.s_values[0])


class TestReportLogic:
    def test_synthetic_slopes_match_limit_rates(self, base_config):
        # constant normalized errors mean raw errors scale exactly like
        # T^(-1/2) and T^(-3/2)
        ones = np.ones((2, 3, 1))
        rep = _report(
            base_config,
            tuple(_grid_result(t, ones.copy()) for t in (64.0, 256.0, 1024.0)),
            (np.eye(3),),
        )
        slopes = rep.consistency_slopes()
        amp, amp_floored = slopes["amplitude"]
        phi, phi_floored = slopes["frequency"]
        assert amp == pytest.approx(-0.5, abs=1e-10)
        assert phi == pytest.approx(-1.5, abs=1e-10)
        assert not amp_floored and not phi_floored

    def test_slopes_need_three_horizons(self, base_config):
        ones = np.ones((2, 3, 1))
        rep = _report(
            base_config,
            tuple(_grid_result(t, ones.copy()) for t in (64.0, 256.0)),
            (np.eye(3),),
        )
        with pytest.raises(ValidationError, match="at least 3"):
            rep.consistency_slopes()

    def test_floor_limited_slopes(self, base_config):
        tiny = np.full((2, 3, 1), 1e-20)
        rep = _report(
            base_config,
            tuple(_grid_result(t, tiny.copy()) for t in (64.0, 256.0, 1024.0)),
            (np.eye(3),),
        )
        slopes = rep.consistency_slopes()
        assert slopes["amplitude"] == (-math.inf, True)
        assert slopes["frequency"] == (-math.inf, True)

    def test_deviation_zero_theory_guard(self, base_config):
        # zero theory entries: matched exactly -> 0, otherwise -> inf
        samples = np.zeros((4, 3, 1))
        samples[:, 0, 0] = [1.0, -1.0, 2.0, -2.0]
        samples[:, 1, 0] = [0.5, -0.5, 1.0, -1.0]
        rep = _report(base_config, (_grid_result(64.0, samples),), (np.zeros((3, 3)),))
        dev = rep.deviations(0, 0)
        assert np.all(np.isinf(dev[:2, :2]))
        assert np.all(dev[2, :] == 0.0)
        assert np.all(dev[:, 2] == 0.0)

    def test_deviation_modes_use_their_matrix(self, base_config):
        # two samples at +-1/sqrt(2) have unit sample variance exactly
        samples = np.zeros((2, 3, 1))
        samples[0, :, 0] = 1.0 / math.sqrt(2.0)
        samples[1, :, 0] = -1.0 / math.sqrt(2.0)
        rep = _report(
            base_config,
            (_grid_result(64.0, samples),),
            (np.eye(3),),
            (2.0 * np.eye(3),),
        )
        np.testing.assert_allclose(np.diag(rep.deviations(0, 0, "derived")), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            np.diag(rep.deviations(0, 0, "as-printed")), 0.5, atol=1e-12
        )

    @pytest.mark.parametrize("mode", ["derivd", "printed", "Derived", ""])
    def test_deviation_rejects_unknown_mode(self, base_config, mode):
        # a misspelt mode must not fall back to the as-printed blocks
        samples = np.zeros((2, 3, 1))
        samples[:, 0, 0] = [1.0, -1.0]
        rep = _report(base_config, (_grid_result(64.0, samples),), (np.eye(3),))
        with pytest.raises(ValidationError, match="mode must be one of"):
            rep.deviations(0, 0, mode)

    @pytest.mark.parametrize("mode", ["derivd", "Derived"])
    def test_mode_refused_once_for_all(self, base_config, monkeypatch, mode):
        # every entry point refuses a bad mode with one message, before
        # any quadrature
        def no_quadrature(*args, **kwargs):
            raise AssertionError("ran the quadrature")

        monkeypatch.setattr(asymptotics, "spectral_factor", no_quadrature)
        samples = np.zeros((2, 3, 1))
        rep = _report(base_config, (_grid_result(64.0, samples),), (np.eye(3),))
        estimate = types.SimpleNamespace(model=MODEL)
        noise, transform = base_config.noise, base_config.transform
        calls = (
            lambda: asymptotics.gamma_matrix(1.0, 0.5, 1.0, mode=mode),
            lambda: asymptotics.gamma_report(MODEL, transform, noise, mode=mode),
            lambda: asymptotics.plug_in_gamma(estimate, transform, noise, mode=mode),
            lambda: asymptotics.GammaReport(mode, 20, (), (), (), (), ()),
            lambda: rep.deviations(0, 0, mode),
        )
        expected = f"mode must be one of ('derived', 'as-printed'), got {mode!r}"
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert type(info.value) is ValidationError
            assert str(info.value) == expected

    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    def test_coverage_nominal_on_exact_gaussians(self, base_config, level):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal((2000, 3, 1))
        rep = _report(base_config, (_grid_result(64.0, samples),), (np.eye(3),))
        cover = rep.coverage(0, 0, level)
        band = 3.0 * math.sqrt(level * (1.0 - level) / 2000.0)
        assert np.all(np.abs(cover - level) <= band)

    @pytest.mark.parametrize("level", [0.8, 0.975, 0.946, 0.951, 0.904, 0.994])
    def test_coverage_rejects_untabulated_level(self, base_config, level):
        samples = np.zeros((4, 3, 1))
        rep = _report(base_config, (_grid_result(64.0, samples),), (np.eye(3),))
        with pytest.raises(ValidationError, match=r"COVERAGE_LEVELS \(0\.9, 0\.95, 0\.99\)"):
            rep.coverage(0, 0, level)


class TestReportText:
    def test_sections_and_keys(self, base_report):
        text = base_report.to_text()
        assert text.startswith("[report]\n")
        for key in (
            "[gamma]",
            "[grid_result]",
            "s = ",
            "tail_bound = ",
            "quad_error = ",
            "embedding_clamp_bound = ",
            "embedding_size = ",
            "derived_row = ",
            "as-printed_row = ",
            "mean_0 = ",
            "cov_0_row = ",
            "deviation_0 = ",
            "coverage95_0 = ",
        ):
            assert key in text
        # single grid: no slope section
        assert "[slopes]" not in text

    def test_pinned_format(self, base_config):
        # three grids, a failure line, non-converged counts, an infinite
        # deviation and a floor-limited slope, written as the format reads
        samples = np.zeros((4, 3, 1))
        samples[:, 0, 0] = [1.0, -1.0, 2.0, -2.0]
        samples[:, 1, 0] = [0.5, -0.5, 1.0, -1.0]
        results = tuple(
            dataclasses.replace(
                _grid_result(horizon, scale * samples),
                n_requested=6,
                n_nonconverged=nonconverged,
                failures=failures,
                embedding_clamp_bound=clamp,
                embedding_size=size,
            )
            for horizon, scale, nonconverged, failures, clamp, size in (
                (64.0, 1.0, 0, (), 0.0, 512),
                (128.0, 0.5, 1, ("r=3: InsufficientPeaksError: no peak",), 2.5e-7, 1024),
                (256.0, 0.25, 2, (), 0.0, 2048),
            )
        )
        derived = np.diag([2.0, 3.0, 4.0])
        rep = _report(base_config, results, (derived,), (derived + 0.5,))
        assert rep.to_text() == (
            "[report]\n"
            "replications = 6\n"
            "master_seed = 7\n"
            "j_max = 20\n"
            "\n"
            "[gamma]\n"
            "harmonic = 0\n"
            "s = 1\n"
            "tail_bound = 0\n"
            "quad_error = 0\n"
            "derived_row = 2, 0, 0\n"
            "derived_row = 0, 3, 0\n"
            "derived_row = 0, 0, 4\n"
            "as-printed_row = 2.5, 0.5, 0.5\n"
            "as-printed_row = 0.5, 3.5, 0.5\n"
            "as-printed_row = 0.5, 0.5, 4.5\n"
            "\n"
            "[grid_result]\n"
            "horizon = 64\n"
            "dt = 0.25\n"
            "embedding_clamp_bound = 0\n"
            "embedding_size = 512\n"
            "converged = 4\n"
            "nonconverged = 0\n"
            "failed = 0\n"
            "mean_0 = 0, 0, 0\n"
            "cov_0_row = 3.333333333333333, 1.6666666666666665, 0\n"
            "cov_0_row = 1.6666666666666665, 0.83333333333333326, 0\n"
            "cov_0_row = 0, 0, 0\n"
            "deviation_0 = 0.66666666666666652, inf, 0, 0.72222222222222232, 0, 1\n"
            "coverage90_0 = 1, 1, 1\n"
            "coverage95_0 = 1, 1, 1\n"
            "coverage99_0 = 1, 1, 1\n"
            "\n"
            "[grid_result]\n"
            "horizon = 128\n"
            "dt = 0.25\n"
            "embedding_clamp_bound = 2.4999999999999999e-07\n"
            "embedding_size = 1024\n"
            "converged = 4\n"
            "nonconverged = 1\n"
            "failed = 1\n"
            "failure = r=3: InsufficientPeaksError: no peak\n"
            "mean_0 = 0, 0, 0\n"
            "cov_0_row = 0.83333333333333326, 0.41666666666666663, 0\n"
            "cov_0_row = 0.41666666666666663, 0.20833333333333331, 0\n"
            "cov_0_row = 0, 0, 0\n"
            "deviation_0 = 0.58333333333333337, inf, 0, 0.93055555555555547, 0, 1\n"
            "coverage90_0 = 1, 1, 1\n"
            "coverage95_0 = 1, 1, 1\n"
            "coverage99_0 = 1, 1, 1\n"
            "\n"
            "[grid_result]\n"
            "horizon = 256\n"
            "dt = 0.25\n"
            "embedding_clamp_bound = 0\n"
            "embedding_size = 2048\n"
            "converged = 4\n"
            "nonconverged = 2\n"
            "failed = 0\n"
            "mean_0 = 0, 0, 0\n"
            "cov_0_row = 0.20833333333333331, 0.10416666666666666, 0\n"
            "cov_0_row = 0.10416666666666666, 0.052083333333333329, 0\n"
            "cov_0_row = 0, 0, 0\n"
            "deviation_0 = 0.89583333333333337, inf, 0, 0.98263888888888884, 0, 1\n"
            "coverage90_0 = 1, 1, 1\n"
            "coverage95_0 = 1, 1, 1\n"
            "coverage99_0 = 1, 1, 1\n"
            "\n"
            "[slopes]\n"
            "amplitude = -1.4999999999999996\n"
            "amplitude_floor_limited = false\n"
            "frequency = -inf\n"
            "frequency_floor_limited = true\n"
        )

    def test_failed_and_nonconverged_rows(self, base_config, monkeypatch):
        # replication 2 fails and 5 stalls among converged ones: neither
        # enters the samples, the report names both, and one more unusable
        # row passes FAILURE_CAP
        def rows(unusable):
            def fake(config, gi, r):
                if r == 2:
                    return r, "InsufficientPeaksError: no peak", None
                return r, np.full((3, 1), float(r)), r not in unusable

            return fake

        config = dataclasses.replace(base_config, replications=10)
        monkeypatch.setattr(montecarlo, "_replication", rows({5}))
        report = run_replications(config, workers=1)
        res = report.results[0]
        assert (res.n_requested, res.n_ok, res.n_nonconverged) == (10, 8, 1)
        assert res.failures == ("r=2: InsufficientPeaksError: no peak",)
        assert res.samples[:, 0, 0].tolist() == [0, 1, 3, 4, 6, 7, 8, 9]
        assert (
            "converged = 8\nnonconverged = 1\nfailed = 1\n"
            "failure = r=2: InsufficientPeaksError: no peak\nmean_0 = "
        ) in report.to_text()
        monkeypatch.setattr(montecarlo, "_replication", rows({5, 7}))
        with pytest.raises(
            ExperimentError,
            match=r"^3/10 replications unusable on grid T=64\.0 "
            r"\(1 failed, 2 non-converged\)$",
        ):
            run_replications(config, workers=1)

    @pytest.mark.parametrize("spec_name", ["smooth", "slow_carrier"])
    def test_embedding_clamp_bound(self, spec_name, request):
        # the slowly decaying carrier keeps the embedding indefinite on its
        # grid, and the clamp's covariance bias bound must be reported
        # within its budget; rank 13 keeps alpha * rank > 1 at alpha 0.08
        degree, horizon = {"smooth": (3, 64.0), "slow_carrier": (13, 256.0)}[spec_name]
        config = ExperimentConfig(
            noise=request.getfixturevalue(spec_name),
            transform=make_transform(
                "hermite-polynomial", coeffs=(0.0,) * degree + (1.0,)
            ),
            model=MODEL,
            grids=(SamplingGrid(horizon, 0.25),),
            replications=4,
            master_seed=7,
        )
        report = run_replications(config)
        res = report.results[0]
        bound = res.embedding_clamp_bound
        root, _ = montecarlo._clamped_embedding(config.noise, res.grid.dt, res.grid.n)
        assert res.embedding_size == root.size
        if spec_name == "smooth":
            assert bound == 0.0
        else:
            assert 0.0 < bound <= 1e-3
        text = report.to_text()
        assert f"embedding_clamp_bound = {bound:.17g}\n" in text
        assert f"embedding_size = {root.size}\n" in text

    def test_slopes_section_on_long_schedule(self, noiseless_config):
        text = run_replications(noiseless_config).to_text()
        assert "[slopes]" in text
        assert "amplitude_floor_limited = true" in text
        assert "frequency_floor_limited = true" in text

    def test_csv_layout(self, base_report):
        lines = base_report.samples_csv(0).splitlines()
        assert lines[0] == "errA_0,errB_0,errPhi_0"
        assert len(lines) == 1 + base_report.results[0].n_ok
        parsed = [float(v) for v in lines[1].split(",")]
        assert parsed == pytest.approx(base_report.results[0].samples[0, :, 0])

    def test_write_emits_files(self, base_report, tmp_path):
        base_report.write(str(tmp_path), runtime_note="elapsed 0.2s\n")
        assert sorted(os.listdir(tmp_path)) == [
            "report.txt",
            "runtime.txt",
            "samples_T64.csv",
        ]
        assert (tmp_path / "report.txt").read_text() == base_report.to_text()
        assert (tmp_path / "samples_T64.csv").read_text() == base_report.samples_csv(0)
        assert (tmp_path / "runtime.txt").read_text() == "elapsed 0.2s\n"

    def test_write_without_runtime_note(self, base_report, tmp_path):
        base_report.write(str(tmp_path))
        assert "runtime.txt" not in os.listdir(tmp_path)


class TestConsistencySweep:
    def test_requires_three_horizons(self, base_report):
        with pytest.raises(ValidationError, match="at least 3"):
            base_report.consistency_slopes()

    def test_noiseless_sweep_is_floor_limited(self, noiseless_config):
        slopes = run_replications(noiseless_config).consistency_slopes()
        assert slopes["amplitude"] == (-math.inf, True)
        assert slopes["frequency"] == (-math.inf, True)


class TestNormalityDiagnostics:
    def test_gaussian_moments(self):
        rng = np.random.default_rng(42)
        out = normality_diagnostics(rng.standard_normal((4000, 2)))
        assert out["n"] == 4000
        assert out["skewness_se"] == pytest.approx(math.sqrt(6.0 / 4000.0))
        assert out["excess_kurtosis_se"] == pytest.approx(math.sqrt(24.0 / 4000.0))
        assert np.all(np.abs(out["skewness_standardized"]) < 4.0)
        assert np.all(np.abs(out["excess_kurtosis_standardized"]) < 4.0)
        assert "coverage" not in out

    def test_coverage_block(self):
        rng = np.random.default_rng(7)
        out = normality_diagnostics(rng.standard_normal((4000, 2)), gamma=np.eye(2))
        for level in (0.90, 0.95, 0.99):
            band = 3.0 * math.sqrt(level * (1.0 - level) / 4000.0)
            assert np.all(np.abs(out["coverage"][level] - level) <= band)

    def test_one_dimensional_input(self):
        rng = np.random.default_rng(0)
        out = normality_diagnostics(rng.standard_normal(500))
        assert out["n"] == 500
        assert out["skewness"].shape == (1,)

    def test_requires_hundred_samples(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientSamplesError, match="100"):
            normality_diagnostics(rng.standard_normal((99, 2)))

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            normality_diagnostics(np.ones((150, 2)))


class TestEtaSquared:
    def test_matches_peak_height_on_pure_signal(self):
        grid = SamplingGrid(256.0, 0.25)
        path = SamplePath(grid=grid, values=regression_signal(MODEL, grid))
        # sup of the periodogram sits at the harmonic, height C^2 / 4
        assert eta_squared(path) == pytest.approx(1.25 / 4.0, abs=0.5 / 256.0)

    def test_zero_path(self):
        grid = SamplingGrid(256.0, 0.25)
        assert eta_squared(SamplePath(grid=grid, values=np.zeros(grid.n))) == 0.0

    @pytest.mark.parametrize(
        "band", [(3.0, 0.1), (math.nan, 3.0), (0.1, 0.1000001)]
    )
    def test_rejects_band_without_grid_frequency(self, band):
        # at T = 128 the grid spacing is 2 pi / 1024, so no point lies in
        # (0.1, 0.1000001); the other two bands are empty or undefined, and
        # the band rule refuses them first
        grid = SamplingGrid(128.0, 0.25)
        path = SamplePath(grid=grid, values=np.ones(grid.n))
        match = "holds no frequency" if band[0] < band[1] else "0 < lo < hi"
        with pytest.raises(ValidationError, match=match):
            eta_squared(path, band)

    @pytest.mark.parametrize(
        "band, error, match",
        [
            ((0.0, 3.0), ValidationError, "0 < lo < hi"),
            ((-1.0, 3.0), ValidationError, "0 < lo < hi"),
            ((0.1, 50.0), NyquistError, "reaches Nyquist"),
        ],
    )
    def test_band_rule(self, band, error, match):
        # the sup leaves out the zero frequency, as the search band does
        grid = SamplingGrid(128.0, 0.25)
        path = SamplePath(grid=grid, values=np.ones(grid.n))
        with pytest.raises(error, match=match):
            eta_squared(path, band)


class TestLemma2Decay:
    def test_mean_decay_over_schedule(self, smooth):
        out = lemma2_decay(
            smooth, IDENTITY, (128.0, 512.0), replications=6, master_seed=5
        )
        assert out["horizons"] == (128.0, 512.0)
        m1, m2 = out["mean_eta_squared"]
        assert 0.0 < m2 < m1
        assert out["strictly_decreasing"] is True

    def test_deterministic(self, smooth):
        a = lemma2_decay(smooth, IDENTITY, (128.0,), replications=3, master_seed=9)
        b = lemma2_decay(smooth, IDENTITY, (128.0,), replications=3, master_seed=9)
        assert a == b

    @pytest.mark.parametrize("replications", [7, 20])
    @pytest.mark.parametrize(
        "kind", ["identity", "cube", "centered-absolute-value"]
    )
    def test_matches_per_path_oracle(self, smooth, kind, replications):
        # odd n, a non-power-of-two n, one chunk of every replication, and
        # a T = 8192 horizon split into several chunks (of 2 and 3 rows on
        # one CPU): the means are the per-path loop's bits
        horizons = (64.25, 100.0, 512.0, 8192.0)
        transform = make_transform(kind)
        out = lemma2_decay(smooth, transform, horizons, replications, master_seed=20260817)
        expected = lemma2_oracle(smooth, transform, horizons, replications, 20260817)
        assert [m.hex() for m in out["mean_eta_squared"]] == [m.hex() for m in expected]
        assert out["horizons"] == horizons

    @pytest.mark.parametrize("spec_name", ["seasonal", "mixed"])
    def test_matches_per_path_oracle_on_oscillating_carriers(self, spec_name, request,
                                                             monkeypatch):
        # on one thread the 5 rows of each horizon are drawn in one chunk:
        # on the larger, tapered embeddings of an oscillating carrier, and
        # for odd and even n, they are the single paths' bits
        spec = request.getfixturevalue(spec_name)
        monkeypatch.setattr(montecarlo, "_sweep_threads", lambda: 1)
        horizons = (64.0, 64.25, 1024.0)
        out = lemma2_decay(spec, IDENTITY, horizons, 5, master_seed=9)
        expected = lemma2_oracle(spec, IDENTITY, horizons, 5, 9)
        assert [m.hex() for m in out["mean_eta_squared"]] == [m.hex() for m in expected]

    @pytest.mark.parametrize(
        "horizons, replications",
        [((128.0,), 0), ((128.0,), -1), ((), 3), ((128.0, 100.1), 3)],
    )
    def test_rejects_empty_work_before_drawing(self, smooth, monkeypatch,
                                               horizons, replications):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a path")

        monkeypatch.setattr(montecarlo, "_fill_paths", no_draws)
        with pytest.raises(ValidationError):
            lemma2_decay(smooth, IDENTITY, horizons, replications, master_seed=1)

    @pytest.mark.parametrize(
        "master_seed, replications, band",
        [
            (-1, 3, (0.1, 3.0)),
            (1.5, 3, (0.1, 3.0)),
            (True, 3, (0.1, 3.0)),
            (1, 2.5, (0.1, 3.0)),
            (1, True, (0.1, 3.0)),
            (1, 3, (3.0, 0.1)),
            (1, 3, (math.nan, 3.0)),
            (1, 3, (0.1, 0.1000001)),
            (1, 3, (0.0, 3.0)),
            (1, 3, (0.1, 50.0)),
        ],
    )
    def test_rejects_bad_seed_count_or_band_before_drawing(
        self, smooth, monkeypatch, master_seed, replications, band
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a path")

        monkeypatch.setattr(montecarlo, "_fill_paths", no_draws)
        with pytest.raises(ValidationError):
            lemma2_decay(smooth, IDENTITY, (128.0,), replications, master_seed,
                         band=band)

    @pytest.mark.parametrize(
        "kind", ["identity", "cube", "centered-absolute-value"]
    )
    def test_thread_count_keeps_the_oracle_bits(self, smooth, monkeypatch, kind):
        # one thread runs 2- and 3-row chunks at T = 8192, two and three
        # threads run 1-row chunks there and shares of unequal rows on
        # T = 512; 2 replications at three threads leave one thread idle
        horizons = (64.25, 100.0, 512.0, 8192.0)
        transform = make_transform(kind)
        for replications, thread_counts in ((20, (1, 2, 3)), (2, (3,))):
            expected = lemma2_oracle(smooth, transform, horizons, replications, 20260817)
            for threads in thread_counts:
                monkeypatch.setattr(montecarlo, "_sweep_threads", lambda: threads)
                out = lemma2_decay(smooth, transform, horizons, replications,
                                   master_seed=20260817)
                assert [m.hex() for m in out["mean_eta_squared"]] == [
                    m.hex() for m in expected
                ], (replications, threads)

    def test_sweep_threads_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert montecarlo._sweep_threads() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert montecarlo._sweep_threads() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("threads, budget", [(2, None), (3, None), (3, 1)])
    def test_chunks_in_flight_share_the_budget(self, smooth, monkeypatch,
                                               threads, budget):
        # the FFT outputs are views into each thread's "fft" workspace,
        # which stays allocated after the call: summed over all threads, the
        # workspaces stay within the budget, or within one row per thread
        # when the budget is smaller than that; every zero-padded spectrum,
        # half spectrum and inverse FFT output is also counted from its FFT
        # call until it is freed, and the peak of that count keeps to the
        # same bound
        horizons, replications = (512.0, 2048.0, 8192.0), 20
        # build the embeddings before the spies go in
        lemma2_decay(smooth, IDENTITY, horizons, 2, master_seed=3)
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_SWEEP_CHUNK_BYTES", budget)
        monkeypatch.setattr(montecarlo, "_sweep_threads", lambda: threads)
        lock = threading.RLock()
        live = {"bytes": 0, "peak": 0, "row": 0}
        workspaces = []

        class Recorder(spectral._Workspaces):
            # runs once in every thread that asks for a workspace
            def __init__(self):
                super().__init__()
                with lock:
                    workspaces.append(self.arrays)

        monkeypatch.setattr(spectral, "_WORKSPACES", Recorder())

        def track(array, rows):
            with lock:
                live["bytes"] += array.nbytes
                live["peak"] = max(live["peak"], live["bytes"])
                live["row"] = max(live["row"], array.nbytes // rows)
            weakref.finalize(array, release, array.nbytes)

        def release(nbytes):
            with lock:
                live["bytes"] -= nbytes

        rfft, irfft = np.fft.rfft, np.fft.irfft

        def spied_rfft(a, *args, **kwargs):
            out = rfft(a, *args, **kwargs)
            track(out, out.shape[0])
            return out

        def spied_irfft(a, *args, **kwargs):
            track(a, a.shape[0])
            out = irfft(a, *args, **kwargs)
            track(out, out.shape[0])
            return out

        monkeypatch.setattr(np.fft, "rfft", spied_rfft)
        monkeypatch.setattr(np.fft, "irfft", spied_irfft)
        lemma2_decay(smooth, IDENTITY, horizons, replications, master_seed=3)
        fft = [arrays["fft"].nbytes for arrays in workspaces if "fft" in arrays]
        assert 1 <= len(fft) <= threads
        if budget is None:
            assert sum(fft) <= montecarlo._SWEEP_CHUNK_BYTES
            assert live["peak"] <= montecarlo._SWEEP_CHUNK_BYTES
        else:
            # one row: a spectrum, or a half spectrum and its inverse
            assert sum(fft) <= threads * 2 * live["row"]
            assert live["peak"] <= threads * 2 * live["row"]

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_raising_chunk_leaves_no_thread(self, smooth, monkeypatch, where):
        # the first chunk of the raising side waits for the other side to
        # start one, so both sides run chunks whichever is scheduled first
        caller = threading.get_ident()
        started = {"helper": threading.Event(), "caller": threading.Event()}
        raised = []
        original = montecarlo.subordinate

        def subordinate(xi, transform):
            side = "caller" if threading.get_ident() == caller else "helper"
            started[side].set()
            if side == where:
                started["caller" if side == "helper" else "helper"].wait(10.0)
                raised.append(RuntimeError(f"chunk failed on the {side}"))
                raise raised[-1]
            return original(xi, transform)

        monkeypatch.setattr(montecarlo, "_sweep_threads", lambda: 3)
        before = threading.active_count()
        lemma2_decay(smooth, IDENTITY, (8192.0,), 20, master_seed=3)
        assert threading.active_count() == before
        monkeypatch.setattr(montecarlo, "subordinate", subordinate)
        with pytest.raises(RuntimeError) as info:
            lemma2_decay(smooth, IDENTITY, (8192.0,), 20, master_seed=3)
        assert started["helper"].is_set() and started["caller"].is_set()
        assert info.value in raised
        assert threading.active_count() == before

    def test_chunks_bound_the_spectrum(self, smooth, monkeypatch):
        # at T = 8192 one row's four phase transforms of 32769 bins are 2 MiB
        # and 64 bytes: a chunk holds at most budget // (threads * row)
        # rows, 3 at one thread and 1 at two; each thread's share runs in
        # the fewest chunks that keep to that, with the rows spread evenly,
        # which here leaves one chunk of 2 rows at one thread; each chunk
        # takes one forward and one inverse real FFT;
        # the embedding's own FFT is built and cached before the spies go
        # in, whichever tests ran first
        montecarlo._clamped_embedding(smooth, 0.25, 32768)
        calls = {"fft": [], "rfft": [], "irfft": []}
        for name, record in calls.items():
            original = getattr(np.fft, name)

            def spied(*args, _record=record, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                _record.append((out.shape, out.nbytes))
                return out

            monkeypatch.setattr(np.fft, name, spied)
        for threads, rows in ((1, 3), (2, 1)):
            monkeypatch.setattr(montecarlo, "_sweep_threads", lambda: threads)
            for replications in (20, 200):
                for record in calls.values():
                    record.clear()
                lemma2_decay(smooth, IDENTITY, (8192.0,), replications, master_seed=3)
                # threads finish chunks in any order: compare sorted row counts
                counts = sorted(shape[0] for shape, _ in calls["rfft"])
                assert all(shape[1:] == (4, 32769) for shape, _ in calls["rfft"])
                assert all(
                    nbytes <= montecarlo._SWEEP_CHUNK_BYTES // threads
                    for _, nbytes in calls["rfft"]
                )
                full, tail = divmod(replications, rows)
                assert counts == sorted([rows] * full + ([tail] if tail else []))
                assert sum(counts) == replications
                assert not calls["fft"]
                assert sorted(shape[0] for shape, _ in calls["irfft"]) == counts

    def test_chunks_bound_the_embedding(self, slow_carrier, smooth, monkeypatch):
        # the slow carrier embeds at M = 32768 for n = 1024, so one row's
        # half spectrum and inverse FFT output (512 KiB) outweigh its phase
        # transforms (64 KiB) and size the chunks; smooth noise keeps the
        # chunks its phase transforms set; a chunk holds at most
        # budget // (threads * row) rows, each thread's share runs in the
        # fewest chunks that keep to that, and its rows are spread evenly
        # over them: 20 carrier rows of 15 (7) at most on one (two)
        # threads, and 64 smooth rows of 63 (31) at most at T = 512 and
        # 15 (7) at most at T = 2048
        irfft_rows = []
        original = np.fft.irfft
        for threads, carrier_rows, smooth_rows in (
            (1, [10, 10], [32, 32] + [13] * 4 + [12]),
            (2, [5] * 4, [16] * 4 + [7] * 4 + [6] * 6),
        ):
            monkeypatch.setattr(montecarlo, "_sweep_threads", lambda: threads)

            def spied(a, *args, _threads=threads, **kwargs):
                out = original(a, *args, **kwargs)
                assert a.nbytes + out.nbytes <= montecarlo._SWEEP_CHUNK_BYTES // _threads
                irfft_rows.append(a.shape[0])
                return out

            monkeypatch.setattr(np.fft, "irfft", spied)
            irfft_rows.clear()
            lemma2_decay(slow_carrier, IDENTITY, (256.0,), 20, master_seed=3)
            assert sorted(irfft_rows) == sorted(carrier_rows)
            irfft_rows.clear()
            lemma2_decay(smooth, IDENTITY, (512.0, 2048.0), 64, master_seed=3)
            assert sorted(irfft_rows) == sorted(smooth_rows)
