"""Detection, amplitude solve, and refinement of hidden harmonics."""

import math
import warnings

import numpy as np
import pytest

from oracles import least_squares_oracle

from harmreg import estimator as est
from harmreg.errors import (
    InsufficientPeaksError,
    NoiseFloorWarning,
    NyquistError,
    SingularSystemError,
    ValidationError,
)
from harmreg.simulate import (
    DEFAULT_BAND,
    HarmonicModel,
    SamplePath,
    SamplingGrid,
    gaussian_path,
    regression_signal,
)
from harmreg.spectral import preset_noise

GRID = SamplingGrid(256.0, 0.25)
MODEL = HarmonicModel(((1.0, 0.5, 1.3),))


def _noiseless(model=MODEL, grid=GRID) -> SamplePath:
    return SamplePath(grid=grid, values=regression_signal(model, grid))


def _sinc(x: float) -> float:
    return 1.0 if x == 0.0 else math.sin(x) / x


class TestSeparationPolicy:
    """The separation rule min_gap(T) = 1 / sqrt(T)."""

    def test_defaults(self):
        assert est.min_gap(256.0) == 1.0 / 16.0

    def test_t_times_gap_grows(self):
        horizons = [64.0, 256.0, 1024.0, 4096.0]
        scaled = [t * est.min_gap(t) for t in horizons]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))


class TestObjective:
    def test_zero_at_truth(self):
        assert est.objective(_noiseless(), MODEL) <= 1e-20

    def test_empty_model_gives_second_moment(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(GRID.n)
        path = SamplePath(grid=GRID, values=vals)
        q = est.objective(path, HarmonicModel(()))
        assert math.isclose(q, GRID.dt / GRID.horizon * float(vals @ vals),
                            rel_tol=1e-12)

    def test_matches_direct_riemann_sum(self):
        path = _noiseless()
        shifted = HarmonicModel(((0.9, 0.6, 1.31),))
        t = GRID.times()
        g = 0.9 * np.cos(1.31 * t) + 0.6 * np.sin(1.31 * t)
        direct = GRID.dt / GRID.horizon * float(np.sum((path.values - g) ** 2))
        assert math.isclose(est.objective(path, shifted), direct, rel_tol=1e-12)

    @pytest.mark.parametrize("mult", [0.5, 1.0, 2.0])
    def test_frequency_offset_objective_closed_form(self, mult):
        # with amplitudes refit at the shifted frequency the noiseless
        # objective is C^2/2 * (1 - sinc^2(T delta / 2)) up to O(1/T)
        horizon = GRID.horizon
        delta = mult / horizon
        path = _noiseless()
        a, b = est.amplitudes_given_frequencies(path, [1.3 + delta])
        q = est.objective(path, HarmonicModel(((a[0], b[0], 1.3 + delta),)))
        closed = 0.5 * 1.25 * (1.0 - _sinc(0.5 * horizon * delta) ** 2)
        assert abs(q - closed) < 5e-3 * closed

    def test_frequency_offset_held_amplitudes(self):
        # holding the true amplitudes instead gives C^2 (1 - sinc(T delta))
        horizon = GRID.horizon
        delta = 0.5 / horizon
        q = est.objective(_noiseless(), HarmonicModel(((1.0, 0.5, 1.3 + delta),)))
        closed = 1.25 * (1.0 - _sinc(horizon * delta))
        assert abs(q - closed) < 2e-2 * closed


class TestPeriodogramGrid:
    @pytest.mark.parametrize(
        "horizon, band, phases",
        [
            pytest.param(16.25, DEFAULT_BAND, 1, id="16.25"),  # odd n = 65
            pytest.param(256.0, DEFAULT_BAND, 4, id="256.0"),
            pytest.param(250.5, DEFAULT_BAND, 2, id="n-twice-odd"),  # n = 1002
            pytest.param(256.0, (0.1, 0.3), 8, id="narrow-band"),  # d = log2(nfft) cap
            pytest.param(16.0, (0.0, 4.0 * math.pi), 1, id="to-nyquist"),
        ],
    )
    def test_values_are_the_direct_sums(self, horizon, band, phases):
        # |(dt/T) sum_i x_i exp(-i lam t_i)|^2 at each grid frequency, for
        # each kind of polyphase count d; both routes round in proportion
        # to the largest value, not to each one; with one phase the values
        # are the whole real FFT's bits
        grid = SamplingGrid(horizon, 0.25)
        path = SamplePath(grid=grid, values=np.random.default_rng(3).standard_normal(grid.n))
        nfft, d = est._band_window(grid, band)[:2]
        assert d == phases
        freqs, vals = est.periodogram_grid(path, band)
        direct = np.abs(np.exp(-1j * np.outer(freqs, grid.times())) @ path.values)
        direct = (grid.dt / grid.horizon * direct) ** 2
        assert np.max(np.abs(vals - direct)) <= 1e-12 * np.max(direct)
        if d == 1:
            lo = round(freqs[0] / est._fft_grid(grid)[1])
            whole = np.fft.rfft(path.values, nfft) * (grid.dt / grid.horizon)
            assert np.array_equal(vals, np.abs(whole[lo:lo + freqs.size]) ** 2)

    @pytest.mark.parametrize("horizon", [256.0, 1024.0])
    def test_noiseless_peak_height(self, horizon):
        # a harmonic on a grid frequency peaks there at C^2 / 4
        grid = SamplingGrid(horizon, 0.25)
        spacing = est._fft_grid(grid)[1]
        phi = round(1.3 / spacing) * spacing
        path = _noiseless(HarmonicModel(((1.0, 0.0, phi),)), grid)
        freqs, vals = est.periodogram_grid(path)
        assert freqs[np.argmax(vals)] == phi
        assert abs(vals.max() - 0.25) < 0.5 / horizon

    def test_resolution_bound(self):
        freqs, _ = est.periodogram_grid(_noiseless())
        assert freqs[1] - freqs[0] <= math.pi / (4.0 * GRID.horizon) + 1e-15

    def test_band_restriction(self):
        freqs, vals = est.periodogram_grid(_noiseless(), band=(0.5, 2.0))
        assert freqs.min() >= 0.5 and freqs.max() <= 2.0
        assert len(freqs) == len(vals)

    @pytest.mark.parametrize("horizon", [16.0, 256.0, 1000.0])
    def test_band_window_equals_full_spectrum(self, horizon):
        # the band-only computation returns exactly the points of the
        # whole-spectrum one, also for edges that fall on grid points, and
        # its values where it takes one phase (d = 1); a split band is no
        # slice of the whole transform, and the two differ by rounding of
        # order eps * log2(nfft) of the window's largest value
        grid = SamplingGrid(horizon, 0.25)
        rng = np.random.default_rng(3)
        path = SamplePath(grid=grid, values=rng.standard_normal(grid.n))
        nfft, spacing = est._fft_grid(grid)
        spec = np.fft.rfft(path.values, nfft)
        all_vals = np.abs(spec * (grid.dt / grid.horizon)) ** 2
        all_freqs = np.arange(len(all_vals)) * spacing
        bands = [
            (0.1, 3.0),
            (0.0, grid.nyquist),
            (all_freqs[3], all_freqs[7]),
            (all_freqs[5], all_freqs[5]),
            (5.5 * spacing, 6.2 * spacing),
            (all_freqs[-3], all_freqs[-1]),
            (2.0, 1.0),
        ]
        phases = set()
        for band in bands:
            keep = (all_freqs >= band[0]) & (all_freqs <= band[1])
            _, d, lo, window, _ = est._band_window(grid, band)
            phases.add(d)
            freqs, vals = est.periodogram_grid(path, band)
            assert np.array_equal(freqs, all_freqs[keep])
            if d == 1:
                assert np.array_equal(vals, all_vals[keep])
            else:
                largest = np.max(all_vals[lo:lo + window.size], initial=0.0)
                bound = 4.0 * np.finfo(float).eps * math.log2(nfft) * largest
                assert np.max(np.abs(vals - all_vals[keep]), initial=0.0) <= bound
        assert 1 in phases and max(phases) > 1

    @pytest.mark.parametrize("extra, phases", [(0, 8), (1, 4)])
    def test_window_ending_on_the_last_phase_bin(self, extra, phases):
        # a window whose last bin is nfft / 16 keeps d = 8 and is right to
        # the direct sums; one bin more halves d
        grid = SamplingGrid(256.0, 0.25)
        nfft, spacing = est._fft_grid(grid)
        # the window reaches two cells past ceil(hi / spacing)
        band = (0.1, (nfft // 16 + extra - 1.5) * spacing)
        _, d, lo, window, _ = est._band_window(grid, band)
        assert lo + window.size - 1 == nfft // 16 + extra
        assert d == phases
        path = SamplePath(grid=grid, values=np.random.default_rng(3).standard_normal(grid.n))
        freqs, vals = est.periodogram_grid(path, band)
        direct = np.abs(np.exp(-1j * np.outer(freqs, grid.times())) @ path.values)
        direct = (grid.dt / grid.horizon * direct) ** 2
        assert np.max(np.abs(vals - direct)) <= 1e-12 * np.max(direct)

    @pytest.mark.parametrize("horizon", [16.25, 256.0, 1000.0])
    def test_batched_rows_equal_single_rows(self, horizon):
        # the batched helper's rows are periodogram_grid of each row alone,
        # bit for bit, with one frequency grid for all of them, at every
        # phase count d the bands give
        grid = SamplingGrid(horizon, 0.25)
        values = np.random.default_rng(5).standard_normal((2, 3, grid.n))
        phases = set()
        for band in [(0.1, 3.0), (0.0, grid.nyquist), (2.0, 1.0), (0.1, 0.3)]:
            phases.add(est._band_window(grid, band)[1])
            freqs, vals = est._band_periodogram(values, grid, band)
            assert vals.shape == (2, 3, len(freqs))
            for idx in np.ndindex(2, 3):
                row_freqs, row_vals = est.periodogram_grid(
                    SamplePath(grid=grid, values=values[idx]), band
                )
                assert np.array_equal(freqs, row_freqs)
                assert np.array_equal(vals[idx], row_vals)
        assert phases == ({1} if horizon == 16.25 else {1, 4, 8})


class TestDetectFrequencies:
    @staticmethod
    def _vertex_bound(grid, spacing):
        # a noiseless peak is the sinc^2 main lobe in u = T (lam - phi) / 2,
        # sampled h = T spacing / 2 apart; with the grid point g from the
        # truth, the three-point vertex misses by (2/15) g (h^2 - 4 g^2) in
        # u at leading order, at most 2 h^3 / (45 sqrt 3). The bound is
        # twice that in lam, for the higher-order terms and the mirror
        # peak at -phi: 0.050 / T on the 4n grid (h = pi / 4)
        h = grid.horizon * spacing / 2.0
        return 2.0 * (2.0 / grid.horizon) * 2.0 * h**3 / (45.0 * math.sqrt(3.0))

    def _check_offset(self, offset):
        # the true frequency sits `offset` detection-grid cells from the
        # grid point nearest 1.3, so the three-point vertex is checked
        # across a cell, and the refined estimate at the same truth
        grid = SamplingGrid(1024.0, 0.25)
        spacing = est._fft_grid(grid, est._DETECT_PAD)[1]
        phi = (round(1.3 / spacing) + offset) * spacing
        model = HarmonicModel(((1.0, 0.5, phi),))
        path = _noiseless(model, grid)
        phis = est.detect_frequencies(path, 1)
        assert abs(phis[0] - phi) < self._vertex_bound(grid, spacing)
        refined = est.estimate_harmonics(path, 1).model.amplitudes()[2]
        assert abs(refined[0] - phi) < 1e-10

    @pytest.mark.parametrize("offset", [0.0, 0.125, 0.25, 0.375, 0.5, -0.3])
    def test_noiseless_single_harmonic(self, offset):
        self._check_offset(offset)

    def test_vertex_across_a_cell(self):
        for offset in np.linspace(-0.5, 0.5, 81):
            self._check_offset(offset)

    def test_vertex_stays_out_of_exclusion_window(self):
        # the weak second harmonic sits one min_gap above the strong first,
        # so its admissible argmax lies on the edge of the first pick's
        # exclusion window, next to a larger masked value; the pick keeps
        # that grid point rather than follow the parabola into the window
        gap = est.min_gap(GRID.horizon)
        model = HarmonicModel(((1.0, 0.0, 1.3), (0.1, 0.0, 1.3 + gap)))
        phis = est.detect_frequencies(_noiseless(model), 2)
        assert phis[1] - phis[0] >= gap

    def test_two_harmonics_sorted(self):
        model = HarmonicModel(((1.0, 0.0, 0.9), (0.0, 0.8, 2.2)))
        phis = est.detect_frequencies(_noiseless(model), 2)
        assert abs(phis[0] - 0.9) < 1e-3
        assert abs(phis[1] - 2.2) < 1e-3

    @pytest.mark.parametrize("scale", [2.0, 0.5, 4.0])
    def test_invariant_under_exact_rescaling(self, scale):
        path = _noiseless()
        base = est.detect_frequencies(path, 1)
        scaled = SamplePath(grid=GRID, values=scale * path.values)
        assert np.array_equal(est.detect_frequencies(scaled, 1), base)

    def test_invariant_under_generic_rescaling(self):
        path = _noiseless()
        base = est.detect_frequencies(path, 1)
        scaled = SamplePath(grid=GRID, values=3.7 * path.values)
        assert abs(est.detect_frequencies(scaled, 1)[0] - base[0]) < 1e-9

    def test_exclusion_suppresses_close_pair(self):
        # truth spaced below min_gap(T): the second peak is masked and the
        # narrow band leaves no admissible grid points
        model = HarmonicModel(((1.0, 0.0, 1.30), (0.8, 0.3, 1.33)))
        with pytest.raises(InsufficientPeaksError):
            est.detect_frequencies(_noiseless(model), 2, band=(1.25, 1.36))

    def test_degenerate_input_warns(self):
        path = SamplePath(grid=GRID, values=np.zeros(GRID.n))
        with pytest.warns(NoiseFloorWarning):
            est.detect_frequencies(path, 1)

    def test_pure_noise_returns_argmax_peak(self):
        xi = gaussian_path(preset_noise("smooth"), GRID, seed=11)
        phis = est.detect_frequencies(SamplePath(grid=GRID, values=xi), 1)
        assert 0.1 <= phis[0] <= 3.0

    def test_rejects_bad_requests(self):
        path = _noiseless()
        with pytest.raises(ValidationError):
            est.detect_frequencies(path, 0)
        for n_harmonics in (1.5, True):
            with pytest.raises(ValidationError, match="n_harmonics"):
                est.detect_frequencies(path, n_harmonics)
            with pytest.raises(ValidationError, match="n_harmonics"):
                est.estimate_harmonics(path, n_harmonics)
        with pytest.raises(ValidationError):
            est.detect_frequencies(path, 1, band=(0.0, 3.0))
        with pytest.raises(NyquistError):
            est.detect_frequencies(path, 1, band=(0.1, 13.0))
        # narrower than the zero-padded grid spacing: fewer than two grid points
        short = _noiseless(grid=SamplingGrid(16.0, 0.25))
        with pytest.raises(ValidationError, match="spacing"):
            est.detect_frequencies(short, 1, band=(1.29, 1.31))


class TestAmplitudesGivenFrequencies:
    def test_exact_recovery_at_true_frequency(self):
        a, b = est.amplitudes_given_frequencies(_noiseless(), [1.3])
        assert abs(a[0] - 1.0) < 1e-9
        assert abs(b[0] - 0.5) < 1e-9

    def test_zero_path_gives_zero_amplitudes(self):
        path = SamplePath(grid=GRID, values=np.zeros(GRID.n))
        a, b = est.amplitudes_given_frequencies(path, [0.7, 1.9])
        assert np.all(a == 0.0) and np.all(b == 0.0)

    def test_gram_diagonal_approaches_half(self):
        # entries (dt/T) sum cos^2(phi t) of the normal equations
        gaps = []
        for horizon in (64.0, 256.0, 1024.0, 4096.0):
            t = SamplingGrid(horizon, 0.25).times()
            diag = 0.25 / horizon * float(np.sum(np.cos(1.3 * t) ** 2))
            gaps.append(abs(diag - 0.5))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(SingularSystemError):
            est.amplitudes_given_frequencies(_noiseless(), [1.3, 1.3])

    def test_empty_frequency_list_rejected(self):
        with pytest.raises(ValidationError):
            est.amplitudes_given_frequencies(_noiseless(), [])

    def test_ill_conditioned_falls_back_to_decoupled(self):
        path = _noiseless()
        phis = [1.3, 1.3 + 1e-9]
        a, b = est.amplitudes_given_frequencies(path, phis)
        t = GRID.times()
        w = GRID.dt / GRID.horizon
        for j, phi in enumerate(phis):
            c1 = w * float(path.values @ np.cos(phi * t))
            c2 = w * float(path.values @ np.sin(phi * t))
            assert math.isclose(a[j], 2.0 * c1, rel_tol=1e-12)
            assert math.isclose(b[j], 2.0 * c2, rel_tol=1e-12)


class TestRefine:
    def test_truth_is_fixed_point(self):
        a, b, phi, q, it, conv = est.refine(_noiseless(), [1.0], [0.5], [1.3])
        assert conv and it <= 1
        assert q <= 1e-20
        assert abs(phi[0] - 1.3) < 1e-12

    def test_basin_of_attraction(self):
        horizon = GRID.horizon
        start = 1.3 + 0.3 / horizon
        path = _noiseless()
        a0, b0 = est.amplitudes_given_frequencies(path, [start])
        a, b, phi, q, it, conv = est.refine(path, a0, b0, [start])
        assert conv
        assert abs(phi[0] - 1.3) < 1e-6 / horizon
        assert abs(a[0] - 1.0) < 1e-8
        assert abs(b[0] - 0.5) < 1e-8

    def test_walker_relations_at_optimum(self):
        horizon = GRID.horizon
        start = 1.3 + 0.3 / horizon
        path = _noiseless()
        a0, b0 = est.amplitudes_given_frequencies(path, [start])
        _, _, phi, _, _, conv = est.refine(path, a0, b0, [start])
        assert conv
        delta = abs(phi[0] - 1.3)
        x = horizon * (phi[0] - 1.3)
        z = _sinc(x)
        y = 0.0 if x == 0.0 else (1.0 - math.cos(x)) / x
        bound = 10.0 / horizon * (horizon * delta) ** 2
        assert abs(z - 1.0) <= bound
        assert abs(y) <= bound

    def test_wrong_basin_is_flagged(self):
        path = _noiseless()
        a, b, phi, q, it, conv = est.refine(path, [1.0], [0.5], [1.3 + math.pi])
        # never reaches the true minimum at q = 0
        assert q > 0.1
        assert abs(phi[0] - 1.3) > 0.5

    @pytest.mark.parametrize("start", ["noisy", "wrong_basin"])
    def test_one_design_per_evaluated_point(self, monkeypatch, start):
        # every evaluated point is a projected frequency vector, and each
        # must cost exactly one trigonometric design
        counts = {"design": 0, "project": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        if start == "noisy":
            xi = gaussian_path(preset_noise("smooth"), GRID, seed=2)
            path = SamplePath(grid=GRID, values=_noiseless().values + xi)
            phi0 = [1.3 + 0.5 / GRID.horizon]
            a0, b0 = est.amplitudes_given_frequencies(path, phi0)
        else:
            path = _noiseless()
            a0, b0, phi0 = [1.0], [0.5], [1.3 + math.pi]
        monkeypatch.setattr(est, "trig_design", counting("design", est.trig_design))
        monkeypatch.setattr(
            est, "_project_frequencies", counting("project", est._project_frequencies)
        )
        _, _, _, _, it, _ = est.refine(path, a0, b0, phi0)
        assert it >= 2
        assert counts["design"] == counts["project"]
        if start == "wrong_basin":
            assert counts["project"] > it + 1  # some steps were rejected

    @pytest.mark.parametrize("n_harmonics", [1, 2])
    def test_estimate_builds_one_design_per_point(self, monkeypatch, n_harmonics):
        # the design at the detected frequencies serves the amplitude solve,
        # the initial objective and refine's start, so an estimate builds
        # one design per projected point and no more
        model = HarmonicModel(((1.0, 0.5, 1.3), (0.6, -0.4, 2.1))[:n_harmonics])
        xi = gaussian_path(preset_noise("smooth"), GRID, seed=2)
        path = SamplePath(grid=GRID, values=regression_signal(model, GRID) + xi)
        counts = {"design": 0, "project": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(est, "trig_design", counting("design", est.trig_design))
        monkeypatch.setattr(
            est, "_project_frequencies", counting("project", est._project_frequencies)
        )
        res = est.estimate_harmonics(path, n_harmonics)
        assert res.iterations >= 2
        assert counts["design"] == counts["project"]

    @pytest.mark.parametrize("horizon, n_harmonics", [(256.0, 1), (1024.0, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reaches_least_squares_oracle_minimum(self, horizon, n_harmonics, seed):
        # the oracle (MINPACK Levenberg-Marquardt from the truth) stops about
        # 1e-4 short in normalized units, so refine's objective may not
        # exceed its objective beyond rounding, and the two fits agree to 1e-3
        grid = SamplingGrid(horizon, 0.25)
        model = HarmonicModel(((1.0, 0.5, 1.3), (0.6, -0.4, 2.1))[:n_harmonics])
        xi = gaussian_path(preset_noise("smooth"), grid, seed=seed)
        path = SamplePath(grid=grid, values=regression_signal(model, grid) + xi)
        res = est.estimate_harmonics(path, n_harmonics)
        assert res.converged
        oracle = HarmonicModel(
            tuple(map(tuple, least_squares_oracle(path.values, grid.times(), model.harmonics)))
        )
        q_oracle = est.objective(path, oracle)
        assert est.objective(path, res.model) <= q_oracle * (1.0 + 1e-13)
        assert np.max(np.abs(est.normalized_errors(res.model, oracle, horizon))) < 1e-3

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs extended-precision longdouble"
    )
    @pytest.mark.parametrize("horizon", [1024.0, 4096.0])
    def test_objective_change_within_its_rounding_bound(self, horizon):
        # near the optimum, moving phi by a few ulps changes the objective
        # by about as much as rounding in the arguments phi t moves it; the
        # change refine computes must lie within its bound of a reference
        # computed in extended precision at the same parameters
        grid = SamplingGrid(horizon, 0.25)
        noise = np.random.default_rng(7).standard_normal(grid.n)
        path = SamplePath(grid=grid, values=regression_signal(MODEL, grid) + noise)
        a, b, phi, _, _, conv = est.refine(path, [1.0], [0.5], [1.3])
        assert conv
        x, t, w = path.values, grid.times(), grid.dt / horizon
        t_ext = t.astype(np.longdouble)

        def signal(p):
            c, s = est.trig_design(t, p)
            u = t_ext * np.longdouble(p[0])
            return est.signal(c, s, a, b), np.cos(u) * a[0] + np.sin(u) * b[0]

        m, m_ext = signal(phi)
        r = x - m
        for ulps in [*range(-32, 0), *range(1, 33)]:
            cphi = phi + ulps * np.spacing(phi)
            m1, m1_ext = signal(cphi)
            dq, err = est._objective_change(
                t, w, r, m, m1, est._reach(a, b, phi) + est._reach(a, b, cphi)
            )
            # Q' - Q = w * sum (m - m1)(2x - m - m1)
            dq_ext = w * np.sum((m_ext - m1_ext) * (2 * x - m_ext - m1_ext))
            assert abs(dq - float(dq_ext)) <= err

    def test_projection_respects_band_and_gap(self):
        out = est._project_frequencies(np.array([0.05, 0.06]), (0.1, 3.0), GRID.horizon)
        assert out[0] >= 0.1
        assert out[1] - out[0] >= est.min_gap(GRID.horizon) * (1.0 - 1e-12)


class TestEstimateHarmonics:
    def test_noiseless_end_to_end(self):
        res = est.estimate_harmonics(_noiseless(), 1, truth=MODEL)
        assert res.converged
        assert res.objective <= res.initial_objective
        a, b, phi = res.model.amplitudes()
        assert abs(phi[0] - 1.3) < 1e-10
        assert abs(a[0] - 1.0) < 1e-8
        assert abs(b[0] - 0.5) < 1e-8
        assert np.max(np.abs(res.normalized_errors)) < 1e-5

    def test_grid_resolution_bound(self):
        # the detection grid: zero-padded to 4n, two points per pi / T
        res = est.estimate_harmonics(_noiseless(), 1)
        assert res.grid_resolution <= math.pi / (2.0 * GRID.horizon) + 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_noisy_paths_converge(self, seed):
        xi = gaussian_path(preset_noise("smooth"), GRID, seed=seed)
        path = SamplePath(grid=GRID, values=_noiseless().values + xi)
        res = est.estimate_harmonics(path, 1, truth=MODEL)
        assert res.converged
        assert res.objective <= res.initial_objective
        assert np.max(np.abs(res.normalized_errors)) < 50.0

    def test_time_origin_shift_leaves_frequency_and_power(self):
        t = GRID.times()
        shift = 37.25
        shifted = np.cos(1.3 * (t + shift)) + 0.5 * np.sin(1.3 * (t + shift))
        res0 = est.estimate_harmonics(_noiseless(), 1)
        res1 = est.estimate_harmonics(SamplePath(grid=GRID, values=shifted), 1)
        a0, b0, p0 = res0.model.amplitudes()
        a1, b1, p1 = res1.model.amplitudes()
        assert abs(p0[0] - p1[0]) < 1e-8
        assert abs((a0[0] ** 2 + b0[0] ** 2) - (a1[0] ** 2 + b1[0] ** 2)) < 1e-8


class TestNormalizedErrors:
    def test_formula(self):
        truth = MODEL
        tweak = HarmonicModel(((1.1, 0.4, 1.302),))
        out = est.normalized_errors(tweak, truth, 256.0)
        rt = math.sqrt(256.0)
        assert np.allclose(out[:, 0], [rt * 0.1, rt * -0.1, 256.0 ** 1.5 * 0.002])

    def test_count_mismatch(self):
        two = HarmonicModel(((1.0, 0.0, 0.9), (0.0, 0.8, 2.2)))
        with pytest.raises(ValidationError):
            est.normalized_errors(two, MODEL, 256.0)
