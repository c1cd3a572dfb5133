"""Replication harness tests: config validation, determinism across worker
counts, aggregation and report logic, and the statistical diagnostics."""

import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from harmreg import montecarlo
from harmreg.asymptotics import gamma_report
from harmreg.errors import (
    DegenerateVarianceError,
    ExperimentError,
    InsufficientSamplesError,
    NonIntegrableError,
    ValidationError,
)
from harmreg.hermite import make_transform
from harmreg.montecarlo import (
    ExperimentConfig,
    GridResult,
    MonteCarloReport,
    _replication,
    consistency_sweep,
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
# harmonics, b_m and abs_cov_tail of the rank-2 plug-in noise at m = 3 and 4,
# and a small report, all printed bit for bit
_THREAD_PROBE = """
import numpy as np
from harmreg import NoiseComponent, NoiseSpec, preset_noise
from harmreg.asymptotics import abs_cov_tail, b_m
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
    print(float(b_m(plug, m)).hex(), float(abs_cov_tail(plug, m, 1024.0)).hex())
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
        # alpha_min * rank = 0.5 for the seasonal preset under identity
        with pytest.raises(ValidationError, match="alpha_min"):
            ExperimentConfig(
                noise=seasonal,
                transform=IDENTITY,
                model=MODEL,
                grids=(SamplingGrid(64.0, 0.25),),
                replications=4,
                master_seed=0,
            )

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

    def test_workers_must_be_positive(self, base_config):
        with pytest.raises(ValidationError, match="workers"):
            run_replications(base_config, workers=0)

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

    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    def test_coverage_nominal_on_exact_gaussians(self, base_config, level):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal((2000, 3, 1))
        rep = _report(base_config, (_grid_result(64.0, samples),), (np.eye(3),))
        cover = rep.coverage(0, 0, level)
        band = 3.0 * math.sqrt(level * (1.0 - level) / 2000.0)
        assert np.all(np.abs(cover - level) <= band)

    @pytest.mark.parametrize("level", [0.8, 0.975])
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
        root, _ = montecarlo._clamped_embedding(
            config.noise, res.grid.dt, res.grid.n, montecarlo.DEFAULT_MAX_COV_ERROR
        )
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
    def test_requires_three_horizons(self, base_config):
        with pytest.raises(ValidationError, match="at least 3"):
            consistency_sweep(base_config)

    def test_noiseless_sweep_is_floor_limited(self, noiseless_config):
        slopes = consistency_sweep(noiseless_config)
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
        # a T = 8192 horizon split into several multi-row chunks with a
        # partial last one: the means are the per-path loop's bits
        horizons = (64.25, 100.0, 512.0, 8192.0)
        transform = make_transform(kind)
        out = lemma2_decay(smooth, transform, horizons, replications, master_seed=20260817)
        expected = lemma2_oracle(smooth, transform, horizons, replications, 20260817)
        assert [m.hex() for m in out["mean_eta_squared"]] == [m.hex() for m in expected]
        assert out["horizons"] == horizons

    @pytest.mark.parametrize(
        "horizons, replications",
        [((128.0,), 0), ((128.0,), -1), ((), 3), ((128.0, 100.1), 3)],
    )
    def test_rejects_empty_work_before_drawing(self, smooth, monkeypatch,
                                               horizons, replications):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a path")

        monkeypatch.setattr(montecarlo, "gaussian_paths", no_draws)
        with pytest.raises(ValidationError):
            lemma2_decay(smooth, IDENTITY, horizons, replications, master_seed=1)

    def test_chunks_bound_the_spectrum(self, smooth, monkeypatch):
        # at T = 8192 one row's zero-padded spectrum is 2 MiB: every chunk
        # holds several rows within the budget, its size does not depend on
        # the replication count, and each chunk takes one forward and one
        # inverse real FFT; the embedding's own FFT is built and cached
        # before the spies go in, whichever tests ran first
        montecarlo._clamped_embedding(
            smooth, 0.25, 32768, montecarlo.DEFAULT_MAX_COV_ERROR
        )
        calls = {"fft": [], "rfft": [], "irfft": []}
        for name, record in calls.items():
            original = getattr(np.fft, name)

            def spied(*args, _record=record, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                _record.append((out.shape, out.nbytes))
                return out

            monkeypatch.setattr(np.fft, name, spied)
        rows = {}
        for replications in (20, 200):
            for record in calls.values():
                record.clear()
            lemma2_decay(smooth, IDENTITY, (8192.0,), replications, master_seed=3)
            shapes = [shape for shape, _ in calls["rfft"]]
            assert all(len(shape) == 2 and shape[0] > 1 for shape in shapes)
            assert all(
                nbytes <= montecarlo._SWEEP_CHUNK_BYTES for _, nbytes in calls["rfft"]
            )
            assert sum(shape[0] for shape in shapes) == replications
            assert not calls["fft"]
            assert [shape[0] for shape, _ in calls["irfft"]] == [s[0] for s in shapes]
            rows[replications] = shapes[0][0]
        assert rows[20] == rows[200]

    def test_chunks_bound_the_embedding(self, slow_carrier, smooth, monkeypatch):
        # the slow carrier embeds at M = 32768 for n = 1024, so one row's
        # half spectrum and inverse FFT output (512 KiB) outweigh its
        # zero-padded spectrum (64 KiB) and size the chunks; smooth noise
        # keeps the chunks its spectrum sets
        irfft_rows = []
        original = np.fft.irfft

        def spied(a, *args, **kwargs):
            out = original(a, *args, **kwargs)
            assert a.nbytes + out.nbytes <= montecarlo._SWEEP_CHUNK_BYTES
            irfft_rows.append(a.shape[0])
            return out

        monkeypatch.setattr(np.fft, "irfft", spied)
        lemma2_decay(slow_carrier, IDENTITY, (256.0,), 20, master_seed=3)
        assert irfft_rows == [15, 5]
        irfft_rows.clear()
        lemma2_decay(smooth, IDENTITY, (512.0, 2048.0), 64, master_seed=3)
        assert irfft_rows == [63, 1] + [15] * 4 + [4]
