"""Grids, harmonic models, Gaussian paths, and observation pipelines."""

import math

import numpy as np
import pytest

from harmreg import config, simulate
from harmreg import (
    HarmonicModel,
    NoiseComponent,
    NoiseSpec,
    SamplePath,
    SamplingGrid,
    covariance,
    gaussian_path,
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


@pytest.mark.parametrize(
    "horizon, dt",
    [(math.nan, 0.25), (math.inf, 0.25), (64.0, math.nan), (64.0, math.inf), (1e300, 1e-10)],
)
def test_grid_rejects_non_finite(horizon, dt):
    with pytest.raises(ValidationError, match="finite"):
        SamplingGrid(horizon=horizon, dt=dt)


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
    with pytest.raises(ValidationError, match="0 < lo < hi"):
        HarmonicModel(harmonics=((1.0, 0.0, 1.0),), band=(0.0, 3.0))


@pytest.mark.parametrize(
    "a, b", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, -math.inf)]
)
def test_model_rejects_non_finite_amplitudes(a, b):
    with pytest.raises(ValidationError, match="non-finite amplitude"):
        HarmonicModel(harmonics=((a, b, 1.0),))


def test_signal_values():
    sig = regression_signal(MODEL, GRID)
    t = GRID.times()
    assert np.allclose(sig, np.cos(1.3 * t) + 0.5 * np.sin(1.3 * t), atol=1e-14)


def test_signal_values_two_harmonics():
    model = HarmonicModel(harmonics=((1.0, 0.5, 1.3), (0.6, -0.4, 2.1)))
    t = GRID.times()
    want = np.cos(1.3 * t) + 0.5 * np.sin(1.3 * t) + 0.6 * np.cos(2.1 * t) - 0.4 * np.sin(2.1 * t)
    assert np.allclose(regression_signal(model, GRID), want, rtol=0.0, atol=1e-14)


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
    config.write_path(path, out)
    header = out.read_text().splitlines()[0]
    assert header == "t,x,signal,noise"
    back = config.read_path(out)
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
    config.write_path(path, out)
    assert out.read_text().splitlines()[0] == "t,x"
    back = config.read_path(out)
    assert np.array_equal(back.values, path.values)
    assert back.signal is None and back.noise is None


def test_from_csv_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0.0,1.0\n0.25,2.0\n")
    with pytest.raises(ValidationError):
        config.read_path(bad)
    bad.write_text("t,x\n0.0,1.0\n")
    with pytest.raises(ValidationError):
        config.read_path(bad)
    bad.write_text("t,x\n0.0,1.0\n0.25,2.0\n0.8,3.0\n")
    with pytest.raises(ValidationError):
        config.read_path(bad)
    bad.write_text("t,x\n1.0,1.0\n1.25,2.0\n")
    with pytest.raises(ValidationError):
        config.read_path(bad)
    bad.write_text("t,x,signal\n0.0,1.0\n0.25,2.0\n")
    with pytest.raises(ValidationError, match="header names 3 columns, its rows hold 2"):
        config.read_path(bad)


def test_path_csv_without_header_is_refused(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1.5\n0.25,2\n")
    with pytest.raises(ValidationError,
                       match="^path CSV must start with header 't,x', got '0,1.5'$"):
        config.read_path(bad)


@pytest.mark.parametrize("cell", ["two", "nan", "inf"])
def test_from_csv_rejects_bad_cells(tmp_path, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"t,x\n0.0,1.0\n0.25,{cell}\n0.5,3.0\n")
    with pytest.raises(ValidationError):
        config.read_path(bad)


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


def test_embedding_clamp_budget(slow_carrier, monkeypatch):
    # the slowly decaying carrier keeps the embedding slightly indefinite
    # at any padding, natural or tapered; the clamp is accepted within the
    # documented 1e-3 budget, and refused without one
    path = gaussian_path(slow_carrier, GRID, seed=4)
    assert np.all(np.isfinite(path))
    monkeypatch.setattr(simulate, "MAX_COV_ERROR", 0.0)
    _clamped_embedding.cache_clear()
    with pytest.raises(EmbeddingError):
        gaussian_path(slow_carrier, GRID, seed=4)


# the two-component noise of the plugin-validate benchmark workload
PLUGIN_NOISE = NoiseSpec(
    (NoiseComponent(0.6, 1.5, 0.0, 2.0), NoiseComponent(0.4, 0.8, 2.0, 2.0))
)


# noise whose natural row embeds exactly on the grids of the fixtures
NATURAL_SPECS = {
    "smooth": preset_noise("smooth"),
    "rank2": NoiseSpec((NoiseComponent(1.0, 0.8, 0.0),)),
    "rho0.5": NoiseSpec(
        (NoiseComponent(0.7, 3.6, 0.0, 0.5), NoiseComponent(0.3, 4.0, 1.0, 0.5))
    ),
    "rho1.5": NoiseSpec(
        (NoiseComponent(0.7, 1.6, 0.0, 1.5), NoiseComponent(0.3, 2.0, 1.5, 1.5))
    ),
}


def _row_taken(spec, grid):
    """'natural' or 'tapered': the row whose eigenvalues give the cached
    root of an exact embedding, bit for bit."""
    root, bound = _clamped_embedding(spec, grid.dt, grid.n)
    assert bound == 0.0
    for kind, taper_from in (("natural", None), ("tapered", grid.n)):
        eigs = _embedding_eigenvalues(spec, grid.dt, root.size // 2, taper_from)
        if eigs.min() < -1e-8:
            continue
        if np.array_equal(root, np.sqrt(np.clip(eigs, 0.0, None) / eigs.size)):
            return kind
    raise AssertionError("root matches neither row")


@pytest.mark.parametrize("spec_name", ["seasonal", "mixed", "plugin"])
@pytest.mark.parametrize("horizon", [16.0, 16.25, 256.0, 1024.0])
def test_carrier_noise_embeds_exactly_at_4n(spec_name, horizon, request):
    # the natural rows of these carriers stay indefinite; tapered beyond
    # lag n - 1 they embed exactly at M <= 4 * 2^ceil(log2 n)
    spec = PLUGIN_NOISE if spec_name == "plugin" else request.getfixturevalue(spec_name)
    grid = SamplingGrid(horizon=horizon, dt=0.25)
    root, _ = _clamped_embedding(spec, grid.dt, grid.n)
    assert root.size <= 4 * (1 << (grid.n - 1).bit_length())
    assert _row_taken(spec, grid) == "tapered"


@pytest.mark.parametrize("spec_name", list(NATURAL_SPECS))
@pytest.mark.parametrize("horizon", [256.0, 1024.0, 4096.0])
def test_exact_natural_row_kept(spec_name, horizon):
    # a natural row that embeds exactly is taken before any tapered one,
    # so its root is the one of the plain padded embedding, bit for bit
    grid = SamplingGrid(horizon=horizon, dt=0.25)
    assert _row_taken(NATURAL_SPECS[spec_name], grid) == "natural"


def test_tapered_row_keeps_the_kept_lags(seasonal):
    # the bell is 1 up to lag n - 1 and 0 at the mirror point m: the
    # tapered circulant holds B on the lags 0..n-1 a path uses, shrinks it
    # beyond, and vanishes at m
    n, m = 100, 256
    cov = covariance(seasonal, np.arange(m + 1) * 0.25)
    row = np.fft.ifft(_embedding_eigenvalues(seasonal, 0.25, m, n)).real[: m + 1]
    assert np.max(np.abs(row[:n] - cov[:n])) <= 1e-14
    assert np.all(np.abs(row[n:]) <= np.abs(cov[n:]) + 1e-14)
    assert abs(row[m]) <= 1e-14


@pytest.mark.parametrize("spec_name", ["smooth", "seasonal", "mixed", "plugin"])
@pytest.mark.parametrize("horizon", [64.0, 64.25, 1024.0])
def test_gaussian_path_matches_complex_fft_oracle(spec_name, horizon, request):
    # one inverse real FFT of the half spectrum equals the complex inverse
    # FFT of the full Hermitian spectrum of the same draws, to rounding,
    # for odd and even n
    spec = PLUGIN_NOISE if spec_name == "plugin" else request.getfixturevalue(spec_name)
    grid = SamplingGrid(horizon=horizon, dt=0.25)
    root, _ = _clamped_embedding(spec, grid.dt, grid.n)
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
    # up to rounding and the clamp bound; the carriers take the tapered
    # row, whose law must match on the kept lags all the same
    spec = PLUGIN_NOISE if spec_name == "plugin" else request.getfixturevalue(spec_name)
    grid = SamplingGrid(horizon=horizon, dt=0.25)
    root, bound = _clamped_embedding(spec, grid.dt, grid.n)
    assert _row_taken(spec, grid) == ("natural" if spec_name == "smooth" else "tapered")
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


def test_embedding_clamp_bound_cached(smooth, slow_carrier):
    root, bound = _clamped_embedding(smooth, GRID.dt, GRID.n)
    assert bound == 0.0
    assert not root.flags.writeable
    eigs = _embedding_eigenvalues(smooth, GRID.dt, root.size // 2)
    assert np.array_equal(root, np.sqrt(eigs / eigs.size))
    _, bound = _clamped_embedding(slow_carrier, GRID.dt, GRID.n)
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


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_observe_rejects_non_finite_noise_scale(smooth, scale):
    with pytest.raises(ValidationError, match="noise_scale"):
        observe(MODEL, smooth, make_transform("identity"), GRID, seed=5, noise_scale=scale)


def test_observe_rank_compatibility_guard():
    # decay_exponent * rank <= 1 voids the limit theory unless explicitly allowed
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
