"""Acceptance suite: one test per numbered contract criterion, each at its
stated tolerance, so a verbose run shows one pass/fail line per criterion.

The two 500-replication experiments at T=4096 are shared module fixtures;
criteria 6, 7 and 8 all read from them. Seeds are fixed, so every number
in this module is reproducible bit for bit.
"""

import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import bessel_k_series, density_oracle_fast, isserlis_hermite_moment

from harmreg.asymptotics import abs_cov_power_integral, b_m, plug_in_gamma
from harmreg.cli import main as cli_main
from harmreg.diagrams import (
    count_regular,
    distinct_arrangements,
    hermite_product_moment,
    regular_census,
)
from harmreg.estimator import EstimationResult
from harmreg.hermite import make_transform, subordinated_covariance
from harmreg.montecarlo import (
    ExperimentConfig,
    lemma2_decay,
    run_replications,
)
from harmreg.simulate import HarmonicModel, SamplingGrid, gaussian_path, subordinate
from harmreg.spectral import (
    NoiseComponent,
    NoiseSpec,
    bessel_k,
    covariance,
    preset_noise,
    singular_points,
    spectral_density,
    spectral_integral,
)

MODEL = HarmonicModel(((1.0, 0.5, 1.3),))
IDENTITY = make_transform("identity")
T_LONG = 4096.0

MC_CONFIG = """
[noise]
preset = smooth

[transform]
kind = identity

[model]
a = 1.0
b = 0.5
phi = 1.3

[grid]
horizon = 256
dt = 0.25

[experiment]
replications = 16
master_seed = 99
"""


@pytest.fixture(scope="module")
def clt_report(smooth):
    config = ExperimentConfig(
        noise=smooth,
        transform=IDENTITY,
        model=MODEL,
        grids=(SamplingGrid(T_LONG, 0.25),),
        replications=500,
        master_seed=20260813,
    )
    return run_replications(config)


@pytest.fixture(scope="module")
def rank2_report():
    # G = x^2 - 1 has Hermite rank 2; alpha = 0.8 keeps alpha * rank > 1
    square = make_transform("hermite-polynomial", coeffs=(0.0, 0.0, 2.0))
    config = ExperimentConfig(
        noise=NoiseSpec((NoiseComponent(1.0, 0.8),)),
        transform=square,
        model=MODEL,
        grids=(SamplingGrid(T_LONG, 0.25),),
        replications=500,
        master_seed=20260814,
    )
    return run_replications(config)


def test_criterion_01_spectral_duality():
    for name in ("seasonal", "smooth", "mixed"):
        spec = preset_noise(name)
        assert abs(spectral_integral(spec) - 1.0) <= 1e-4
        exclusions = [lam for lam, _ in singular_points(spec)]
        freqs = [
            f
            for f in np.linspace(0.05, 5.0, 60)
            if all(abs(f - s) > 0.1 for s in exclusions)
        ][:50]
        assert len(freqs) == 50
        for f in freqs:
            assert abs(spectral_density(spec, f) - density_oracle_fast(spec, f)) <= 1e-4


def test_criterion_02_bessel_function_routes():
    for z in np.geomspace(0.01, 20.0, 50):
        exact = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
        assert abs(bessel_k(0.5, z) - exact) <= 1e-10 * exact
    for nu in (0.0, 0.3, 1.0, 1.7):
        for z in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 18.0):
            reference = bessel_k_series(nu, z)
            assert abs(bessel_k(nu, z) - reference) <= 1e-8 * abs(reference)


def test_criterion_03_diagram_oracle():
    def random_corr(rng, p):
        a = rng.standard_normal((p, p + 2))
        m = a @ a.T
        d = 1.0 / np.sqrt(np.diag(m))
        return d[:, None] * m * d[None, :]

    tuples = [
        orders
        for p in range(1, 5)
        for orders in itertools.product(range(1, 9), repeat=p)
        if sum(orders) <= 8
    ]
    rng = np.random.default_rng(1234)
    for orders in tuples:
        for _ in range(50):
            corr = random_corr(rng, len(orders))
            got = hermite_product_moment(orders, corr)
            reference = isserlis_hermite_moment(orders, corr)
            assert abs(got - reference) <= 1e-10 * max(1.0, abs(reference))
    # two-level special case is exact at dyadic correlations
    for p in range(1, 5):
        for q in range(1, 5):
            for r in (0.5, -0.5, 0.25):
                value = hermite_product_moment((p, q), [[1.0, r], [r, 1.0]])
                expected = math.factorial(p) * r**p if p == q else 0.0
                assert value == expected
    census_cases = [
        ((1, 1), [(1, 1)]),
        ((2, 2), [(2, 1)]),
        ((3, 3), [(3, 1)]),
        ((4, 4), [(4, 1)]),
        ((1, 1, 1, 1), [(1, 2)]),
        ((2, 2, 2, 2), [(2, 2)]),
        ((1, 1, 2, 2), [(1, 1), (2, 1)]),
        ((2, 2, 3, 3), [(2, 1), (3, 1)]),
        ((3, 3, 1, 1), [(3, 1), (1, 1)]),
        ((2, 2, 1, 1, 1, 1), [(2, 1), (1, 2)]),
    ]
    for orders, groups in census_cases:
        assert regular_census(orders) * distinct_arrangements(orders) == count_regular(
            groups
        )


@pytest.mark.slow
def test_criterion_04_simulator_fidelity(mixed):
    cube = make_transform("cube")
    grid = SamplingGrid(1024.0, 0.25)
    replications = 200
    lags = np.arange(21)
    theory_xi = covariance(mixed, lags * grid.dt)
    theory_eps = subordinated_covariance(cube.coeffs, mixed, lags * grid.dt)
    acf_xi = np.empty((replications, lags.size))
    acf_eps = np.empty((replications, lags.size))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in range(replications):
            seed = np.random.SeedSequence(entropy=20260816, spawn_key=(0, r))
            xi = gaussian_path(mixed, grid, seed)
            eps = subordinate(xi, cube)
            n = xi.size
            for h in lags:
                acf_xi[r, h] = np.dot(xi[: n - h], xi[h:]) / n
                acf_eps[r, h] = np.dot(eps[: n - h], eps[h:]) / n
    for acf, theory in ((acf_xi, theory_xi), (acf_eps, theory_eps)):
        mean = acf.mean(axis=0)
        se = acf.std(axis=0, ddof=1) / math.sqrt(replications)
        assert np.all(np.abs(mean - theory) <= 3.0 * se)


@pytest.mark.slow
def test_criterion_05_consistency_rates(smooth):
    config = ExperimentConfig(
        noise=smooth,
        transform=IDENTITY,
        model=MODEL,
        grids=(
            SamplingGrid(256.0, 0.25),
            SamplingGrid(1024.0, 0.25),
            SamplingGrid(4096.0, 0.25),
        ),
        replications=200,
        master_seed=20260815,
    )
    slopes = run_replications(config).consistency_slopes()
    amp, amp_floored = slopes["amplitude"]
    phi, phi_floored = slopes["frequency"]
    assert not amp_floored and not phi_floored
    assert abs(amp - (-0.5)) <= 0.15
    assert abs(phi - (-1.5)) <= 0.15


@pytest.mark.slow
def test_criterion_06_clt_covariance(clt_report, rank2_report):
    for report, tolerance in ((clt_report, 0.20), (rank2_report, 0.25)):
        # every replication converges, so none is dropped from the estimate
        assert report.results[0].n_nonconverged == 0
        assert report.results[0].failures == ()
        gamma = report.gamma_derived[0]
        qualifying = np.abs(gamma) > 0.05 * np.linalg.norm(gamma, 2)
        deviation = report.deviations(0, 0, "derived")
        assert np.max(deviation[qualifying]) <= tolerance
    coverage = clt_report.coverage(0, 0, 0.95)
    assert np.all(coverage >= 0.90) and np.all(coverage <= 0.98)


@pytest.mark.slow
def test_criterion_07_mode_adjudication(clt_report):
    empirical = clt_report.results[0].empirical_cov(0)
    printed = clt_report.gamma_printed[0]
    derived = clt_report.gamma_derived[0]
    # off-diagonals and the frequency diagonal coincide across modes and
    # match the experiment at the criterion-6 tolerance
    for i, j in ((0, 1), (0, 2), (1, 2), (2, 2)):
        assert printed[i, j] == pytest.approx(derived[i, j], rel=1e-12)
        assert abs(empirical[i, j] - printed[i, j]) <= 0.20 * abs(printed[i, j])
    # the leading-diagonal disagreement: the experiment sides with the
    # derived values; quantities below feed the README table
    for i in (0, 1):
        dev_derived = abs(empirical[i, i] - derived[i, i]) / derived[i, i]
        dev_printed = abs(empirical[i, i] - printed[i, i]) / printed[i, i]
        assert dev_derived < 0.15
        assert dev_printed > 0.30
        assert dev_derived < dev_printed


@pytest.mark.slow
def test_readme_mode_table_matches_clt_fixture(clt_report):
    # the README's mode-adjudication table reports this fixture; a change
    # of the random stream or the estimator must regenerate it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    result = clt_report.results[0]
    empirical = result.empirical_cov(0)
    derived = clt_report.gamma_derived[0]
    printed = clt_report.gamma_printed[0]
    assert f"`R = 500` ({result.n_ok} converged)" in readme
    for i in (0, 1):
        row = next(
            line for line in readme.splitlines()
            if line.startswith(f"| ({i + 1}, {i + 1}) |")
        )
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        dev_derived = abs(empirical[i, i] - derived[i, i]) / derived[i, i]
        dev_printed = abs(empirical[i, i] - printed[i, i]) / printed[i, i]
        assert cells[1:] == [
            f"{derived[i, i]:.4f}",
            f"{printed[i, i]:.4f}",
            f"{empirical[i, i]:.4f}",
            f"**{100.0 * dev_derived:.1f}%**",
            f"{100.0 * dev_printed:.1f}%",
        ]


@pytest.mark.slow
def test_criterion_08_plug_in_estimator(clt_report, smooth):
    result = clt_report.results[0]
    gamma_truth = clt_report.gamma_derived[0]
    horizon = T_LONG
    root_t = math.sqrt(horizon)
    t_three_half = horizon**1.5
    b1 = b_m(smooth, 1)
    tail = abs_cov_power_integral(smooth, 1, horizon)
    f_truth = spectral_density(smooth, 1.3)
    deviations = np.empty((result.n_ok, 3, 3))
    for r in range(result.n_ok):
        err_a, err_b, err_phi = result.samples[r, :, 0]
        estimate = HarmonicModel(
            ((1.0 + err_a / root_t, 0.5 + err_b / root_t, 1.3 + err_phi / t_three_half),)
        )
        plug = EstimationResult(
            model=estimate,
            objective=0.0,
            initial_objective=0.0,
            horizon=horizon,
            iterations=0,
            converged=True,
            grid_resolution=1e-3 / horizon,
        )
        gamma_hat = plug_in_gamma(plug, IDENTITY, smooth).matrices[0]
        deviations[r] = np.abs(gamma_hat - gamma_truth) / np.abs(gamma_truth)
        phi_hat = estimate.harmonics[0][2]
        lhs = abs(spectral_density(smooth, phi_hat) - f_truth)
        rhs = b1 / (2.0 * math.pi) * horizon * abs(phi_hat - 1.3) + 2.0 / horizon * tail
        assert lhs <= rhs
    assert np.max(np.median(deviations, axis=0)) < 0.10


@pytest.mark.slow
def test_criterion_09_sup_periodogram_decay(smooth):
    out = lemma2_decay(
        smooth,
        IDENTITY,
        (512.0, 2048.0, 8192.0),
        replications=100,
        master_seed=20260817,
    )
    assert all(m > 0.0 for m in out["mean_eta_squared"])
    assert out["strictly_decreasing"] is True


@pytest.mark.slow
def test_criterion_10_worker_determinism(tmp_path):
    config = tmp_path / "experiment.cfg"
    config.write_text(MC_CONFIG)
    one = tmp_path / "w1"
    eight = tmp_path / "w8"
    assert cli_main(["montecarlo", "--config", str(config), "--out", str(one)]) == 0
    assert (
        cli_main(
            [
                "montecarlo",
                "--config",
                str(config),
                "--out",
                str(eight),
                "--workers",
                "8",
            ]
        )
        == 0
    )
    assert (one / "report.txt").read_bytes() == (eight / "report.txt").read_bytes()
    assert (one / "samples_T256.csv").read_bytes() == (
        eight / "samples_T256.csv"
    ).read_bytes()
