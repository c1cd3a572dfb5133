"""Grids, harmonic models, Gaussian paths, and observation pipelines."""

import math

import numpy as np
import pytest

from harmreg import (
    HarmonicModel,
    NoiseComponent,
    NoiseSpec,
    SamplePath,
    SamplingGrid,
    covariance,
    gaussian_path,
    gaussian_paths,
    make_transform,
    observe,
    preset_noise,
    regression_signal,
    subordinate,
    subordinated_covariance,
)
from harmreg.errors import EmbeddingError, NyquistError, ValidationError
from harmreg.simulate import _clamped_embedding, _embedding_eigenvalues

from oracles import circulant_path_oracle

GRID = SamplingGrid(horizon=256.0, dt=0.25)
MODEL = HarmonicModel(harmonics=((1.0, 0.5, 1.3),))


# ---------------------------------------------------------------------------
# grids


def test_grid_basics():
    assert GRID.n == 1024
    assert abs(GRID.nyquist - math.pi / 0.25) < 1e-15
    t = GRID.times()
    assert t[0] == 0.0
    assert abs(t[-1] - (256.0 - 0.25)) < 1e-12
    assert len(t) == 1024


def test_grid_validation():
    with pytest.raises(ValidationError):
        SamplingGrid(horizon=0.0, dt=0.25)
    with pytest.raises(ValidationError):
        SamplingGrid(horizon=10.0, dt=-0.1)
    with pytest.raises(ValidationError):
        SamplingGrid(horizon=10.1, dt=0.25)
    with pytest.raises(ValidationError):
        SamplingGrid(horizon=0.25, dt=0.25)


# ---------------------------------------------------------------------------
# harmonic models


def test_model_amplitudes():
    model = HarmonicModel(harmonics=((1.0, 0.5, 1.3), (0.3, -0.2, 2.1)))
    a, b, phi = model.amplitudes()
    assert np.array_equal(a, [1.0, 0.3])
    assert np.array_equal(b, [0.5, -0.2])
    assert np.array_equal(phi, [1.3, 2.1])
    assert model.n_harmonics == 2


def test_model_validation():
    with pytest.raises(ValidationError):
        HarmonicModel(harmonics=((0.0, 0.0, 1.3),))
    with pytest.raises(ValidationError):
        HarmonicModel(harmonics=((1.0, 0.0, 2.0), (1.0, 0.0, 1.0)))
    with pytest.raises(ValidationError):
        HarmonicModel(harmonics=((1.0, 0.0, 5.0),))
    with pytest.raises(ValidationError):
        HarmonicModel(harmonics=((1.0, 0.0, 1.0),), band=(2.0, 1.0))
    with pytest.raises(ValidationError):
        HarmonicModel(harmonics=((1.0, 0.0, 1.0),), band=(-0.5, 3.0))


def test_signal_values():
    sig = regression_signal(MODEL, GRID)
    t = GRID.times()
    assert np.allclose(sig, np.cos(1.3 * t) + 0.5 * np.sin(1.3 * t), atol=1e-14)


def test_signal_nyquist_guard():
    model = HarmonicModel(harmonics=((1.0, 0.0, 1.3),), band=(0.1, 13.0))
    with pytest.raises(NyquistError):
        regression_signal(model, GRID)


# ---------------------------------------------------------------------------
# sample paths and CSV round trips


def test_path_component_length_guard():
    with pytest.raises(ValidationError):
        SamplePath(grid=GRID, values=np.zeros(10))


def test_csv_roundtrip_with_components(tmp_path):
    path = observe(MODEL, preset_noise("smooth"), make_transform("identity"), GRID, seed=3)
    out = tmp_path / "path.csv"
    path.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "t,x,signal,noise"
    back = SamplePath.from_csv(out)
    assert back.grid == GRID
    assert np.array_equal(back.values, path.values)
    assert np.array_equal(back.signal, path.signal)
    assert np.array_equal(back.noise, path.noise)


def test_csv_roundtrip_values_only(tmp_path):
    path = observe(
        MODEL, preset_noise("smooth"), make_transform("identity"), GRID,
        seed=3, keep_components=False,
    )
    assert path.signal is None and path.noise is None
    out = tmp_path / "path.csv"
    path.to_csv(out)
    assert out.read_text().splitlines()[0] == "t,x"
    back = SamplePath.from_csv(out)
    assert np.array_equal(back.values, path.values)
    assert back.signal is None and back.noise is None


def test_from_csv_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0.0,1.0\n0.25,2.0\n")
    with pytest.raises(ValidationError):
        SamplePath.from_csv(bad)
    bad.write_text("t,x\n0.0,1.0\n")
    with pytest.raises(ValidationError):
        SamplePath.from_csv(bad)
    bad.write_text("t,x\n0.0,1.0\n0.25,2.0\n0.8,3.0\n")
    with pytest.raises(ValidationError):
        SamplePath.from_csv(bad)
    bad.write_text("t,x\n1.0,1.0\n1.25,2.0\n")
    with pytest.raises(ValidationError):
        SamplePath.from_csv(bad)


# ---------------------------------------------------------------------------
# gaussian paths


def test_gaussian_path_deterministic(smooth):
    a = gaussian_path(smooth, GRID, seed=11)
    b = gaussian_path(smooth, GRID, seed=11)
    c = gaussian_path(smooth, GRID, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (GRID.n,)


def test_embedding_definite_for_smooth_kernels():
    # these kernels drive the distributional acceptance runs, where the
    # embedding must be exact rather than clamped
    assert _embedding_eigenvalues(preset_noise("smooth"), 0.25, 16384).min() > 0.0
    rank2 = NoiseSpec((NoiseComponent(1.0, 0.8, 0.0),))
    assert _embedding_eigenvalues(rank2, 0.25, 16384).min() > 0.0


def test_embedding_clamp_budget(seasonal):
    # the seasonal carrier keeps the embedding slightly indefinite at any
    # padding; the clamp is accepted within the documented 1e-3 budget
    path = gaussian_path(seasonal, GRID, seed=4)
    assert np.all(np.isfinite(path))
    with pytest.raises(EmbeddingError):
        gaussian_path(seasonal, GRID, seed=4, max_cov_error=0.0)


# the two-component noise of the plugin-validate benchmark workload
PLUGIN_NOISE = NoiseSpec(
    (NoiseComponent(0.6, 1.5, 0.0, 2.0), NoiseComponent(0.4, 0.8, 2.0, 2.0))
)


@pytest.mark.parametrize("spec_name", ["smooth", "seasonal", "mixed", "plugin"])
@pytest.mark.parametrize("horizon", [64.0, 64.25, 1024.0])
def test_gaussian_path_matches_complex_fft_oracle(spec_name, horizon, request):
    # one inverse real FFT of the half spectrum equals the complex inverse
    # FFT of the full Hermitian spectrum of the same draws, to rounding,
    # for odd and even n
    spec = PLUGIN_NOISE if spec_name == "plugin" else request.getfixturevalue(spec_name)
    grid = SamplingGrid(horizon=horizon, dt=0.25)
    root, _ = _clamped_embedding(spec, grid.dt, grid.n, 1e-3)
    for seed in (0, 5, 123):
        path = gaussian_path(spec, grid, seed)
        expected = circulant_path_oracle(root, grid.n, seed)
        assert path.shape == (grid.n,)
        assert np.max(np.abs(path - expected)) <= 1e-13 * np.max(np.abs(expected))


class _UnitDraws:
    """Stands in for the generator: its one standard_normal call returns
    the unit vector e_k, and the sizes it was asked for are recorded."""

    def __init__(self, k):
        self.k = k
        self.sizes = []

    def standard_normal(self, size=None, out=None):
        z = np.zeros(out.size if out is not None else size)
        z[self.k] = 1.0
        self.sizes.append(z.size)
        if out is None:
            return z
        out[...] = z
        return out


@pytest.mark.parametrize("spec_name", ["smooth", "seasonal", "plugin"])
@pytest.mark.parametrize("horizon", [16.0, 16.25])
def test_gaussian_path_exact_law(spec_name, horizon, request, monkeypatch):
    # the path is L z for one vector z of standard normals, so its
    # covariance is L L^T; the columns of L are the paths drawn from the
    # unit vectors, and L L^T must be the Toeplitz matrix of the covariance
    # up to rounding and the clamp bound
    spec = PLUGIN_NOISE if spec_name == "plugin" else request.getfixturevalue(spec_name)
    grid = SamplingGrid(horizon=horizon, dt=0.25)
    root, bound = _clamped_embedding(spec, grid.dt, grid.n, 1e-3)
    columns = []
    for k in range(root.size):
        draws = _UnitDraws(k)
        monkeypatch.setattr(np.random, "default_rng", lambda seed, _d=draws: _d)
        columns.append(gaussian_path(spec, grid, seed=None))
        assert len(draws.sizes) == 1 and draws.sizes[0] <= root.size + 2
    low = np.column_stack(columns)
    lags = np.arange(grid.n)
    cov = covariance(spec, lags * grid.dt)
    toeplitz = cov[np.abs(lags[:, None] - lags[None, :])]
    assert np.max(np.abs(low @ low.T - toeplitz)) <= 1e-13 + bound


def test_gaussian_path_one_real_fft(smooth, monkeypatch):
    gaussian_path(smooth, GRID, seed=1)  # builds the cached embedding
    calls = {"fft": 0, "rfft": 0, "irfft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    gaussian_path(smooth, GRID, seed=2)
    assert calls == {"fft": 0, "rfft": 0, "irfft": 1}


@pytest.mark.parametrize("spec_name", ["smooth", "seasonal", "mixed"])
@pytest.mark.parametrize("horizon", [64.0, 64.25, 1024.0])
def test_gaussian_paths_rows_are_single_paths(spec_name, horizon, request):
    # each row of the batched draw is the one-seed path, bit for bit, for
    # exact and clamped embeddings and odd and even n
    spec = request.getfixturevalue(spec_name)
    grid = SamplingGrid(horizon=horizon, dt=0.25)
    seeds = [np.random.SeedSequence(entropy=9, spawn_key=(0, r)) for r in range(5)]
    paths = gaussian_paths(spec, grid, seeds)
    assert paths.shape == (len(seeds), grid.n)
    for row, seed in zip(paths, seeds):
        assert np.array_equal(row, gaussian_path(spec, grid, seed))


def test_embedding_clamp_bound_cached(smooth, seasonal):
    root, bound = _clamped_embedding(smooth, GRID.dt, GRID.n, 1e-3)
    assert bound == 0.0
    assert not root.flags.writeable
    eigs = _embedding_eigenvalues(smooth, GRID.dt, root.size // 2)
    assert np.array_equal(root, np.sqrt(eigs / eigs.size))
    _, bound = _clamped_embedding(seasonal, GRID.dt, GRID.n, 1e-3)
    assert 0.0 < bound <= 1e-3


def test_gaussian_path_marginal_moments(smooth):
    grid = SamplingGrid(horizon=1024.0, dt=0.25)
    paths = 8
    draws = np.concatenate([gaussian_path(smooth, grid, seed=s) for s in range(paths)])
    # the draws of one path are correlated, so the standard errors come
    # from the covariance: a path mean has variance sum_{i,j} B_{i-j} / n^2
    # and a path mean square sum_{i,j} 2 B_{i-j}^2 / n^2 (Isserlis), and
    # the paths are independent; the std's standard error is half the
    # mean square's, since the variance is 1
    n = grid.n
    cov = covariance(smooth, np.arange(n) * grid.dt)
    pairs = np.concatenate([[n], 2.0 * np.arange(n - 1, 0, -1)])
    se_mean = math.sqrt(float(pairs @ cov) / (paths * n * n))
    se_std = 0.5 * math.sqrt(2.0 * float(pairs @ cov**2) / (paths * n * n))
    assert abs(draws.mean()) < 3.0 * se_mean
    assert abs(draws.std() - 1.0) < 3.0 * se_std


def test_sample_autocovariance_matches_closed_form(smooth):
    reps = 50
    grid = SamplingGrid(horizon=256.0, dt=0.25)
    tr = make_transform("cube")
    lags = np.arange(7)
    acov_xi = np.empty((reps, len(lags)))
    acov_eps = np.empty((reps, len(lags)))
    for r in range(reps):
        xi = gaussian_path(smooth, grid, seed=1000 + r)
        eps = subordinate(xi, tr)
        for k in lags:
            m = grid.n - k
            acov_xi[r, k] = float(xi[: m] @ xi[k : k + m]) / m
            acov_eps[r, k] = float(eps[: m] @ eps[k : k + m]) / m
    t_lags = lags * grid.dt
    target_xi = covariance(smooth, t_lags)
    target_eps = subordinated_covariance(tr.coeffs, smooth, t_lags)
    for k in lags:
        se = acov_xi[:, k].std(ddof=1) / math.sqrt(reps)
        assert abs(acov_xi[:, k].mean() - target_xi[k]) <= 3.0 * se
        se = acov_eps[:, k].std(ddof=1) / math.sqrt(reps)
        assert abs(acov_eps[:, k].mean() - target_eps[k]) <= 3.0 * se


# ---------------------------------------------------------------------------
# observation pipeline


def test_observe_components_add_up(smooth):
    path = observe(MODEL, smooth, make_transform("identity"), GRID, seed=2)
    assert np.allclose(path.values, path.signal + path.noise, atol=0.0)
    assert np.array_equal(path.signal, regression_signal(MODEL, GRID))


def test_observe_deterministic(smooth):
    a = observe(MODEL, smooth, make_transform("cube"), GRID, seed=9)
    b = observe(MODEL, smooth, make_transform("cube"), GRID, seed=9)
    assert np.array_equal(a.values, b.values)


def test_observe_noise_scale(smooth):
    base = observe(MODEL, smooth, make_transform("identity"), GRID, seed=5)
    scaled = observe(MODEL, smooth, make_transform("identity"), GRID, seed=5, noise_scale=0.5)
    assert np.allclose(scaled.noise, 0.5 * base.noise, atol=0.0)
    silent = observe(MODEL, smooth, make_transform("identity"), GRID, seed=5, noise_scale=0.0)
    assert np.array_equal(silent.noise, np.zeros(GRID.n))
    assert np.array_equal(silent.values, silent.signal)
    with pytest.raises(ValidationError):
        observe(MODEL, smooth, make_transform("identity"), GRID, seed=5, noise_scale=-1.0)


def test_observe_rank_compatibility_guard():
    # alpha_min * rank <= 1 voids the limit theory unless explicitly allowed
    weak = NoiseSpec((NoiseComponent(1.0, 0.8, 0.0),))
    ident = make_transform("identity")
    with pytest.raises(ValidationError):
        observe(MODEL, weak, ident, GRID, seed=1)
    with pytest.warns(UserWarning):
        path = observe(MODEL, weak, ident, GRID, seed=1, allow_a4_violation=True)
    assert np.all(np.isfinite(path.values))
    square = make_transform("hermite-polynomial", coeffs=[0.0, 0.0, 2.0])
    path = observe(MODEL, weak, square, GRID, seed=1)
    assert np.all(np.isfinite(path.values))


def test_subordinate_applies_transform(smooth):
    xi = gaussian_path(smooth, GRID, seed=21)
    assert np.array_equal(subordinate(xi, make_transform("cube")), xi**3)
