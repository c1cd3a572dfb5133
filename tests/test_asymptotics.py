"""Self-convolutions, limit Gram blocks, covariance blocks, plug-in."""

import math
import traceback

import numpy as np
import pytest
from scipy import integrate

from harmreg import asymptotics as asy
from harmreg import spectral
from harmreg.errors import (
    ExperimentError,
    NonIntegrableError,
    OverlapError,
    QuadratureError,
    ValidationError,
)
from harmreg.estimator import EstimationResult, estimate_harmonics
from harmreg.hermite import make_transform
from harmreg.simulate import HarmonicModel, SamplePath, SamplingGrid, regression_signal
from harmreg.spectral import NoiseComponent, NoiseSpec, preset_noise, spectral_density

from oracles import (
    abs_cov_power_oracle,
    abs_cov_power_quad_oracle,
    density_oracle_fast,
    power_transforms_reference,
    self_convolution_qawf_oracle,
)

MODEL = HarmonicModel(((1.0, 0.5, 1.3),))
RANK2_NOISE = NoiseSpec((NoiseComponent(1.0, 0.8),))
# the two-component noise of the plugin-validate benchmark workload
PLUGIN_NOISE = NoiseSpec(
    (NoiseComponent(0.6, 1.5, 0.0, 2.0), NoiseComponent(0.4, 0.8, 2.0, 2.0))
)

# (spec, rank) pairs for the oracle comparison; the rho != 2 shapes have a
# t^rho cusp at the origin, and the rho = 0.5 one has no integrable order 1
ORACLE_SPECS = {
    "smooth": (preset_noise("smooth"), 1),
    "seasonal": (preset_noise("seasonal"), 1),
    "mixed": (preset_noise("mixed"), 1),
    "plugin": (PLUGIN_NOISE, 2),
    "rho0.5": (
        NoiseSpec(
            (NoiseComponent(0.7, 3.6, 0.0, 0.5), NoiseComponent(0.3, 4.0, 1.0, 0.5))
        ),
        1,
    ),
    "rho1.5": (
        NoiseSpec(
            (NoiseComponent(0.7, 1.6, 0.0, 1.5), NoiseComponent(0.3, 2.0, 1.5, 1.5))
        ),
        1,
    ),
}


def _oracle_cases():
    for name, (spec, rank) in ORACLE_SPECS.items():
        for lam in (0.0, 0.7, 1.3, 2.7):
            for k in range(rank, 7):
                if spec.decay_exponent * k > 1.0:
                    yield pytest.param(name, k, lam, id=f"{name}-k{k}-lam{lam}")


def _abs_power_cases():
    for name, (spec, _) in ORACLE_SPECS.items():
        for m in range(1, 5):
            if spec.decay_exponent * m > 1.0:
                yield pytest.param(name, m, id=f"{name}-m{m}")


def _engine_cases():
    for name, (spec, rank) in ORACLE_SPECS.items():
        carrier = max(c.kappa for c in spec.components)
        for lam in sorted({0.0, 0.7, 1.3, 2.7, carrier}):
            yield pytest.param(name, lam, id=f"{name}-lam{lam}")


# independent QAWF reference for the smooth preset density at 1.3
F_SMOOTH_13 = 0.11717764563958491


@pytest.fixture(scope="module")
def identity():
    return make_transform("identity")


@pytest.fixture(scope="module")
def cube():
    return make_transform("cube")


@pytest.fixture(scope="module")
def square():
    return make_transform("hermite-polynomial", coeffs=(0.0, 0.0, 2.0))


# ---------------------------------------------------------------------------
# self_convolution


class TestSelfConvolution:
    def test_order_one_equals_density(self, smooth):
        for lam in (0.7, 1.3, 2.6):
            conv = asy.self_convolution(smooth, 1, 1, lam)
            assert abs(conv - spectral_density(smooth, lam)) < 1e-8

    def test_order_two_at_zero_closed_form(self, smooth):
        # B(t)^2 = (1+t^2)^(-3/2) integrates to exactly 2 over the line
        val = asy.self_convolution(smooth, 1, 2, 0.0)
        assert abs(val - 1.0 / math.pi) < 1e-8

    def test_order_two_at_zero_matches_density_square_integral(self, smooth):
        val = asy.self_convolution(smooth, 1, 2, 0.0)
        ref, _ = integrate.quad(
            lambda u: spectral_density(smooth, u) ** 2, -40.0, 40.0, limit=400
        )
        assert abs(val - ref) < 1e-4

    def test_order_three_with_carrier(self, seasonal):
        # oracle: expand cos^3(2t) and transform each line with QAWF
        env = lambda t: (1.0 + t * t) ** -0.75
        dc, _ = integrate.quad(env, 0.0, np.inf)
        c4, _ = integrate.quad(
            env, 0.0, np.inf, weight="cos", wvar=4.0, epsabs=1e-12, limlst=200
        )
        c8, _ = integrate.quad(
            env, 0.0, np.inf, weight="cos", wvar=8.0, epsabs=1e-12, limlst=200
        )
        oracle = (0.75 * dc + c4 + 0.25 * c8) / (2.0 * math.pi)
        assert abs(oracle - 0.3160736398519366) < 1e-12
        assert abs(asy.self_convolution(seasonal, 1, 3, 2.0) - oracle) < 1e-6

    def test_even_in_frequency(self, smooth):
        plus = asy.self_convolution(smooth, 1, 2, 1.1)
        minus = asy.self_convolution(smooth, 1, 2, -1.1)
        assert plus == minus

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bounded_by_abs_cov_integral(self, smooth, k):
        # |f^(*k)| <= (1/2pi) int |B|^m for every k >= m
        cap = asy.b_m(smooth, 2) / (2.0 * math.pi)
        for lam in (0.0, 0.9, 2.1):
            assert asy.self_convolution(smooth, 2, k, lam) <= cap * (1.0 + 1e-9)

    def test_rank_guard(self, smooth):
        with pytest.raises(ValidationError):
            asy.self_convolution(smooth, 2, 1, 0.5)

    @pytest.mark.parametrize("name, k, lam", list(_oracle_cases()))
    def test_matches_qawf_oracle(self, name, k, lam):
        spec, rank = ORACLE_SPECS[name]
        val = asy.self_convolution(spec, rank, k, lam)
        assert abs(val - self_convolution_qawf_oracle(spec, k, lam)) <= 1e-7

    def test_near_carrier(self, seasonal, monkeypatch):
        # 1e-4 from the carrier the slowest tail line needs t1 at its cap;
        # the order's estimate still fits the budget, and the value lies
        # within it of the oracle
        lam = 2.0 + 1e-4
        (val,), (err,) = asy._self_convolutions(seasonal, 1, (3,), lam)
        assert 1e-7 < err <= 1e-5
        assert abs(val - self_convolution_qawf_oracle(seasonal, 3, lam)) <= err
        assert asy.self_convolution(seasonal, 1, 3, lam) == val
        monkeypatch.setattr(asy, "_SELF_CONV_TOL", 1e-7)
        with pytest.raises(QuadratureError):
            asy.self_convolution(seasonal, 1, 3, lam)

    @pytest.mark.parametrize(
        "a, b, width",
        [(0.0, 256.0, 0.15), (0.0, 256.0, math.inf), (65536.0, 131072.0, 0.785)],
    )
    def test_block_edges_chunked_and_graded(self, a, b, width):
        chunks = list(spectral._block_edges(a, b, width))
        assert chunks[0][0] == a
        assert chunks[-1][-1] == pytest.approx(b, rel=1e-15)
        for prev, nxt in zip(chunks, chunks[1:]):
            assert prev[-1] == nxt[0]
        for edges in chunks:
            panels = np.diff(edges)
            assert panels.size % 2 == 0
            assert panels.size <= spectral._CHUNK_PANELS
            assert np.all(panels > 0.0)
            assert np.all(panels <= width * (1.0 + 1e-12))
        if a == 0.0:
            assert chunks[0][1] == spectral._GRADE_START

    @pytest.mark.parametrize("name, lam", list(_engine_cases()))
    def test_engine_matches_per_order_reference(self, name, lam):
        # stacked one-pass tails (with the third integration by parts) and
        # the rank-2 cos factor against the per-order closures and direct
        # cos they replace: each difference lies within the sum of both
        # error estimates, which do not cover rounding in the node sums, so
        # a few ulps of the unit scale are allowed on top
        spec, rank = ORACLE_SPECS[name]
        orders = tuple(
            k for k in range(rank, 7)
            if spec.decay_exponent * k > 1.0
        )
        engine = spectral._power_transforms(spec, lam, orders)
        reference = power_transforms_reference(spec, lam, orders)
        for (val, err), (ref, ref_err) in zip(engine, reference):
            assert abs(val - ref) <= err + ref_err + 16.0 * np.finfo(float).eps

    @pytest.mark.parametrize("lam", [0.0, 0.7, 2.7, 41.3])
    @pytest.mark.parametrize(
        "a, b, width",
        [(0.0, 256.0, 0.152), (0.0, 256.0, math.inf), (65536.0, 131072.0, 0.785)],
    )
    def test_rank2_cos_factor(self, a, b, width, lam):
        # the offset-major chunks hold the rule of _block_edges, and their
        # weighted cos(lam t), built from cos and sin of panel edges and
        # offsets, matches the direct cosine to rounding in lam t
        layout = spectral._block_layout(a, b, width)
        edges = list(spectral._block_edges(a, b, width))
        for chunk in range(spectral._chunk_count(layout)):
            nodes = spectral._chunk_nodes(PLUGIN_NOISE, b, layout, chunk)
            fine_t, fine_w = spectral._panel_nodes(edges[chunk])
            coarse_t, _ = spectral._panel_nodes(edges[chunk][::2])
            for got, want in (
                (nodes.t[: nodes.fine], fine_t), (nodes.t[nodes.fine :], coarse_t)
            ):
                assert np.allclose(np.sort(got), np.sort(want.ravel()), rtol=1e-14, atol=0)
            span = edges[chunk][-1] - edges[chunk][0]
            assert nodes.weights[: nodes.fine].sum() == pytest.approx(span, rel=1e-13)
            assert nodes.weights[nodes.fine :].sum() == pytest.approx(span, rel=1e-13)
            assert bool(nodes.uniform) == (width < math.inf)
            direct = nodes.weights * np.cos(lam * nodes.t)
            bound = nodes.weights * 1e-13 * (1.0 + lam * nodes.t)
            assert np.all(np.abs(spectral._weighted_cos(nodes, lam) - direct) <= bound)

    def test_plug_in_takes_cos_on_panels_not_nodes(self, monkeypatch):
        # a warm plug-in evaluates cos and sin on panel edges, offsets and
        # graded nodes: a small fraction of the nodes it sums over
        transform = make_transform("centered-absolute-value")
        asy.spectral_factor(PLUGIN_NOISE, transform, 1.3, asy.DEFAULT_J_MAX)
        counts = {"args": 0, "nodes": 0}
        chunk_nodes = spectral._chunk_nodes

        def counted_nodes(*args):
            nodes = chunk_nodes(*args)
            counts["nodes"] += nodes.t.size
            return nodes

        def counted(ufunc):
            def wrapper(x, *args, **kwargs):
                counts["args"] += np.size(x)
                return ufunc(x, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(spectral, "_chunk_nodes", counted_nodes)
        monkeypatch.setattr(np, "cos", counted(np.cos))
        monkeypatch.setattr(np, "sin", counted(np.sin))
        asy.spectral_factor(PLUGIN_NOISE, transform, 1.3 + 1e-5, asy.DEFAULT_J_MAX)
        assert counts["nodes"] > 40000
        assert counts["args"] < 0.25 * counts["nodes"]

    @pytest.mark.parametrize(
        "preset_name, k", [("seasonal", 1), ("seasonal", 2), ("mixed", 2)]
    )
    def test_non_integrable_orders(self, preset_name, k, request):
        spec = request.getfixturevalue(preset_name)
        with pytest.raises(NonIntegrableError):
            asy.self_convolution(spec, 1, k, 0.5)

    def test_negative_value_clamped_or_refused(self, smooth, monkeypatch):
        # a value below 0 by at most max(10 err, 1e-8) is rounding and reads
        # 0; one further below is a failed quadrature
        out = {}
        monkeypatch.setattr(
            asy, "_power_transforms", lambda spec, lam, orders: [out["pair"]]
        )
        for pair in ((-5e-9, 1e-10), (-5e-8, 1e-8)):
            out["pair"] = pair
            assert asy._self_convolutions(smooth, 1, (1,), 1.3) == ([0.0], [pair[1]])
        out["pair"] = (-2e-8, 1e-10)
        with pytest.raises(QuadratureError, match="negative"):
            asy._self_convolutions(smooth, 1, (1,), 1.3)


# ---------------------------------------------------------------------------
# absolute covariance power integrals


class TestAbsCovPowers:
    def test_b2_smooth_closed_form(self, smooth):
        assert abs(asy.b_m(smooth, 2) - 2.0) < 1e-5

    def test_tail_closed_form(self, smooth):
        # int_10^inf (1+t^2)^(-3/2) dt = 1 - 10/sqrt(101)
        exact = 1.0 - 10.0 / math.sqrt(101.0)
        tail = asy.abs_cov_power_integral(smooth, 2, 10.0)
        assert abs(tail - exact) < 1e-6 * exact
        assert tail >= exact - 1e-6 * exact

    @pytest.mark.parametrize("name, m", list(_abs_power_cases()))
    def test_b_m_matches_quad_oracle(self, name, m):
        # the odd powers of the carrier specs have kinks at the zeros of B,
        # and the rho != 2 ones a t^rho cusp at the origin
        spec, _ = ORACLE_SPECS[name]
        ref = 2.0 * abs_cov_power_quad_oracle(spec, m)
        assert abs(asy.b_m(spec, m) - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_tail_matches_quad_oracle(self, smooth, m):
        ref = abs_cov_power_quad_oracle(smooth, m, 10.0)
        assert abs(asy.abs_cov_power_integral(smooth, m, 10.0) - ref) <= 1e-10 * ref

    def test_gamma_report_on_rho05(self):
        # B has a t^0.5 cusp at the origin; b_m of the rank feeds tail_bound
        spec, _ = ORACLE_SPECS["rho0.5"]
        report = asy.gamma_report(MODEL, make_transform("centered-absolute-value"), spec)
        for value in (*report.s_values, *report.tail_bounds, *report.quad_errors):
            assert math.isfinite(value)

    def test_b3_seasonal_bracketed_by_oracle(self, seasonal):
        head, tail_bound = abs_cov_power_oracle(seasonal, 3, split=256.0, dps=25)
        val = asy.b_m(seasonal, 3)
        assert 2.0 * head - 1e-5 * val <= val <= 2.0 * (head + tail_bound) + 1e-5 * val

    @pytest.mark.parametrize("preset_name, m", [("seasonal", 1), ("seasonal", 2), ("mixed", 2)])
    def test_non_integrable_powers(self, preset_name, m, request):
        spec = request.getfixturevalue(preset_name)
        with pytest.raises(NonIntegrableError):
            asy.b_m(spec, m)
        with pytest.raises(NonIntegrableError):
            asy.abs_cov_power_integral(spec, m, 100.0)


# ---------------------------------------------------------------------------
# spectral factor


class TestSpectralFactor:
    def test_identity_reduces_to_density(self, smooth, identity):
        s, tail, _ = asy.spectral_factor(smooth, identity, 1.3)
        assert abs(s - F_SMOOTH_13) < 1e-6
        assert 0.0 <= tail < 1e-10

    def test_cube_order_decomposition(self, smooth, cube):
        s, tail, _ = asy.spectral_factor(smooth, cube, 1.3)
        expect = 9.0 * asy.self_convolution(smooth, 1, 1, 1.3)
        expect += 6.0 * asy.self_convolution(smooth, 1, 3, 1.3)
        assert abs(s - expect) < 1e-9 * expect
        assert tail >= 0.0

    def test_rank_two_single_order(self, square):
        s, _, _ = asy.spectral_factor(RANK2_NOISE, square, 0.9)
        expect = 2.0 * asy.self_convolution(RANK2_NOISE, 2, 2, 0.9)
        assert abs(s - expect) < 1e-9 * expect

    def test_j_max_below_rank(self, smooth, square):
        with pytest.raises(ValidationError):
            asy.spectral_factor(smooth, square, 1.3, j_max=1)
        for j_max in (2.5, True):
            with pytest.raises(ValidationError, match="j_max"):
                asy.gamma_report(MODEL, square, smooth, j_max=j_max)

    def test_tail_bound_counts_orders_past_j_max(self, smooth):
        # orders 7..20 of the transform are left out of s at j_max = 6, so
        # the bound carries their mass on top of the Parseval gap
        transform = make_transform("centered-absolute-value")
        _, tail, _ = asy.spectral_factor(smooth, transform, 1.3, j_max=6)
        mass = transform.parseval_gap + sum(
            transform.coeffs[j] ** 2 / math.factorial(j) for j in range(7, 21)
        )
        bound = mass * asy.b_m(smooth, 2) / (2.0 * math.pi)
        assert tail == pytest.approx(bound, rel=1e-14)
        assert mass > 2.0 * transform.parseval_gap

    def test_order_weight_is_one_formula(self):
        # with the C library's pow, c ** 2 / 3! and c * c / 3! differ in the
        # last bit for this C_3, so the tail mass past j_max = 2 and the
        # weight of order 3 in s agree only through one formula
        c3 = 1.5151472691864707
        transform = make_transform("hermite-polynomial", coeffs=[0.0, 1.0, 0.0, c3])
        assert transform.parseval_gap == 0.0
        weights = dict(asy._active_orders(transform, 3))
        assert asy._tail_mass(transform, 2).hex() == weights[3].hex()


# ---------------------------------------------------------------------------
# Gram blocks


class TestGramBlock:
    def test_pure_cosine(self):
        block = asy.gram_block(1.0, 0.0)
        assert block.j_matrix[0, 2] == 0.0
        assert math.isclose(block.j_matrix[1, 2], -math.sqrt(3.0) / 2.0)

    def test_pure_sine(self):
        block = asy.gram_block(0.0, 1.0)
        assert math.isclose(block.j_matrix[0, 2], math.sqrt(3.0) / 2.0)
        assert block.j_matrix[1, 2] == 0.0

    @pytest.mark.parametrize("a, b", [(1.0, 0.5), (0.3, -2.0), (-1.1, 0.0), (2.0, 2.0)])
    def test_determinant_quarter(self, a, b):
        assert abs(np.linalg.det(asy.gram_block(a, b).j_matrix) - 0.25) < 1e-12

    def test_off_diagonals_bounded(self):
        for theta in np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False):
            j = asy.gram_block(math.cos(theta), math.sin(theta)).j_matrix
            off = max(abs(j[0, 2]), abs(j[1, 2]))
            assert off <= math.sqrt(3.0) / 2.0 + 1e-12

    def test_scalers(self):
        block = asy.gram_block(1.0, 0.5)
        assert math.isclose(block.scalers[0], math.sqrt(0.5))
        assert math.isclose(block.scalers[2], math.sqrt(1.25 / 6.0))

    def test_zero_amplitude(self):
        with pytest.raises(ValidationError):
            asy.gram_block(0.0, 0.0)


# ---------------------------------------------------------------------------
# covariance blocks


def _printed(a, b, s):
    c2 = a * a + b * b
    return 4.0 * math.pi * s / c2 * np.array([
        [c2, -3.0 * a * b, -6.0 * b],
        [-3.0 * a * b, c2, 6.0 * a],
        [-6.0 * b, 6.0 * a, 12.0],
    ])


def _derived(a, b, s):
    c2 = a * a + b * b
    return 4.0 * math.pi * s / c2 * np.array([
        [a * a + 4.0 * b * b, -3.0 * a * b, -6.0 * b],
        [-3.0 * a * b, 4.0 * a * a + b * b, 6.0 * a],
        [-6.0 * b, 6.0 * a, 12.0],
    ])


class TestGammaMatrix:
    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (1.0, 0.5), (-0.4, 1.7)])
    def test_closed_forms_both_modes(self, a, b):
        printed = asy.gamma_matrix(a, b, 1.0, mode="as-printed")
        derived = asy.gamma_matrix(a, b, 1.0, mode="derived")
        assert np.allclose(printed, _printed(a, b, 1.0), rtol=1e-12, atol=1e-12)
        assert np.allclose(derived, _derived(a, b, 1.0), rtol=1e-10, atol=1e-10)

    def test_mode_agreement_off_diagonal(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = rng.normal(size=2)
            if a * a + b * b < 1e-3:
                continue
            rng.uniform(0.2, 2.8)  # the frequency draw keeps the (a, b) draws as they were
            printed = asy.gamma_matrix(a, b, 1.0, mode="as-printed")
            derived = asy.gamma_matrix(a, b, 1.0, mode="derived")
            for i, j in ((0, 1), (0, 2), (1, 2), (2, 2)):
                assert abs(printed[i, j] - derived[i, j]) <= 1e-10 * abs(printed[i, j])

    def test_mode_disagreement_on_leading_diagonal(self):
        printed = asy.gamma_matrix(1.0, 0.5, 1.0, mode="as-printed")
        derived = asy.gamma_matrix(1.0, 0.5, 1.0, mode="derived")
        assert math.isclose(printed[0, 0], 4.0 * math.pi)
        assert math.isclose(derived[0, 0], 4.0 * math.pi * (1.0 + 4.0 * 0.25) / 1.25)
        assert printed[0, 0] != derived[0, 0]
        assert printed[1, 1] != derived[1, 1]

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            a, b = rng.normal(size=2)
            s = rng.uniform(0.01, 10.0)
            for mode in asy.MODES:
                mat = asy.gamma_matrix(a, b, s, mode=mode)
                assert np.array_equal(mat, mat.T)

    def test_derived_positive_definite_on_circle(self):
        for theta in np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False):
            a, b = math.cos(theta), math.sin(theta)
            mat = asy.gamma_matrix(a, b, 1.0, mode="derived")
            eig = np.linalg.eigvalsh(mat)
            assert eig.min() > 0.0
            assert eig.max() / eig.min() < 1e6

    def test_as_printed_not_positive_definite(self, smooth, identity):
        s, _, _ = asy.spectral_factor(smooth, identity, 1.3)
        mat = asy.gamma_matrix(1.0, 0.5, s, mode="as-printed")
        assert np.linalg.eigvalsh(mat).min() < 0.0

    def test_quadrature_spot_value(self, smooth, identity):
        s, _, _ = asy.spectral_factor(smooth, identity, 1.3)
        mat = asy.gamma_matrix(1.0, 0.5, s, mode="as-printed")
        assert abs(mat[0, 0] - 4.0 * math.pi * F_SMOOTH_13) < 1e-6
        assert abs(mat[2, 2] - 48.0 * math.pi * F_SMOOTH_13 / 1.25) < 1e-5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            asy.gamma_matrix(0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            asy.gamma_matrix(1.0, 0.5, 1.0, mode="verbatim")


class TestGammaReport:
    def test_derived_report(self, smooth, identity):
        report = asy.gamma_report(MODEL, identity, smooth)
        assert report.mode == "derived"
        assert report.frequencies == (1.3,)
        assert abs(report.s_values[0] - F_SMOOTH_13) < 1e-6
        assert report.tail_bounds[0] < 1e-10
        mat = report.matrices[0]
        assert np.allclose(mat, mat.T)
        assert np.allclose(
            np.sort(report.eigenvalues[0]), np.linalg.eigvalsh(mat)
        )
        assert min(report.eigenvalues[0]) > 0.0

    def test_as_printed_report_surfaces_indefiniteness(self, smooth, identity):
        report = asy.gamma_report(MODEL, identity, smooth, mode="as-printed")
        assert min(report.eigenvalues[0]) < 0.0

    def test_quad_errors(self, smooth, cube):
        report = asy.gamma_report(MODEL, cube, smooth)
        s, _, quad_err = asy.spectral_factor(smooth, cube, 1.3, asy.DEFAULT_J_MAX)
        assert report.quad_errors == (quad_err,)
        assert report.s_values == (s,)
        weight = sum(w for _, w in asy._active_orders(cube, asy.DEFAULT_J_MAX))
        assert 0.0 <= quad_err <= 1e-5 * weight

    def test_derived_mode_requires_pd(self):
        with pytest.raises(ExperimentError):
            asy.GammaReport(
                mode="derived",
                j_max=20,
                frequencies=(1.3,),
                matrices=(np.eye(3),),
                s_values=(1.0,),
                tail_bounds=(0.0,),
                eigenvalues=(np.array([-1.0, 1.0, 2.0]),),
            )

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            asy.GammaReport(
                mode="printed",
                j_max=20,
                frequencies=(),
                matrices=(),
                s_values=(),
                tail_bounds=(),
                eigenvalues=(),
            )


# ---------------------------------------------------------------------------
# general spectral-measure form


class TestSigmaGeneral:
    def test_trig_measure_atoms(self):
        atoms = asy.trig_spectral_measure(1.0, 0.5, 1.3)
        assert [loc for loc, _ in atoms] == [1.3, -1.3]
        m_plus, m_minus = atoms[0][1], atoms[1][1]
        assert np.array_equal(m_minus, np.conj(m_plus))
        assert np.allclose(m_plus, np.conj(m_plus.T))
        total = m_plus + m_minus
        assert np.allclose(total.imag, 0.0, atol=1e-15)
        assert np.allclose(total.real, asy.gram_block(1.0, 0.5).j_matrix)

    def test_reproduces_derived_gamma(self, smooth, identity):
        atoms = asy.trig_spectral_measure(1.0, 0.5, 1.3)
        sigma, sigma0 = asy.sigma_general(identity, smooth, atoms)
        block = asy.gram_block(1.0, 0.5)
        s, _, _ = asy.spectral_factor(smooth, identity, 1.3)
        assert np.allclose(sigma, 2.0 * math.pi * s * block.j_matrix,
                           rtol=1e-10, atol=1e-12)
        d = np.diag(1.0 / block.scalers)
        derived = asy.gamma_matrix(1.0, 0.5, s, mode="derived")
        assert np.max(np.abs(d @ sigma0 @ d - derived)) < 1e-10

    def test_single_atom_at_zero(self, smooth, identity):
        sigma, sigma0 = asy.sigma_general(identity, smooth, [(0.0, np.eye(1))])
        f0 = math.gamma(0.25) / (2.0 * math.sqrt(math.pi) * math.gamma(0.75))
        assert abs(sigma[0, 0] - 2.0 * math.pi * f0) < 1e-6
        assert np.array_equal(sigma, sigma0)

    def test_atom_on_singular_point(self, seasonal, square):
        with pytest.raises(OverlapError):
            asy.sigma_general(square, seasonal, [(2.0, np.eye(1))])

    def test_zero_total_mass(self, smooth, identity):
        atoms = [(0.5, np.eye(1)), (1.0, -np.eye(1))]
        with pytest.raises(ValidationError):
            asy.sigma_general(identity, smooth, atoms)

    def test_empty_and_mismatched_atoms(self, smooth, identity):
        with pytest.raises(ValidationError):
            asy.sigma_general(identity, smooth, [])
        atoms = [(0.5, np.eye(2)), (1.0, np.eye(3))]
        with pytest.raises(ValidationError):
            asy.sigma_general(identity, smooth, atoms)


# ---------------------------------------------------------------------------
# plug-in


class TestPlugIn:
    def test_at_truth_matches_report(self, smooth, identity):
        result = EstimationResult(
            model=MODEL,
            objective=0.0,
            initial_objective=0.0,
            horizon=256.0,
            iterations=0,
            converged=True,
            grid_resolution=1e-3,
        )
        plug = asy.plug_in_gamma(result, identity, smooth)
        ref = asy.gamma_report(MODEL, identity, smooth)
        assert np.array_equal(plug.matrices[0], ref.matrices[0])
        assert plug.s_values == ref.s_values

    def test_at_noiseless_estimate(self, smooth, identity):
        grid = SamplingGrid(256.0, 0.25)
        path = SamplePath(grid=grid, values=regression_signal(MODEL, grid))
        result = estimate_harmonics(path, 1)
        plug = asy.plug_in_gamma(result, identity, smooth)
        ref = asy.gamma_report(MODEL, identity, smooth)
        diff = np.abs(plug.matrices[0] - ref.matrices[0])
        assert np.max(diff / np.abs(ref.matrices[0]).max()) < 1e-3

    def test_no_adaptive_quadrature_per_plug_in(self, monkeypatch):
        # structural guard: the plug-in evaluates s on shared nodes with
        # closed-form tails, never through per-line adaptive transforms
        transform = make_transform("centered-absolute-value")

        def result_at(phi):
            return EstimationResult(
                model=HarmonicModel(((1.0, 0.5, phi),)),
                objective=0.0,
                initial_objective=0.0,
                horizon=1024.0,
                iterations=0,
                converged=True,
                grid_resolution=1e-3,
            )

        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                if any(
                    frame.f_globals.get("__name__") == asy.__name__
                    for frame, _ in traceback.walk_stack(None)
                ):
                    calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        asy.plug_in_gamma(result_at(1.3), transform, PLUGIN_NOISE)
        monkeypatch.setattr(integrate, "quad", counting(integrate.quad))
        for phi in (1.3 + 2.1e-5, 1.3 - 7.3e-6, 1.3 + 1.13e-4):
            asy.plug_in_gamma(result_at(phi), transform, PLUGIN_NOISE)
        assert calls == []

    @pytest.mark.parametrize(
        "spec, kind",
        [(PLUGIN_NOISE, "centered-absolute-value"), (preset_noise("smooth"), "cube")],
    )
    def test_nearby_plug_in_reuses_cached_nodes(self, spec, kind, monkeypatch):
        # the node table depends on lam only through the panel layout, so a
        # plug-in 1e-5 away evaluates B at no new node and rebuilds no tail
        # lines, and the cached tables give the bits of a computation from
        # cleared caches
        transform = make_transform(kind)
        asy.spectral_factor(spec, transform, 1.3, asy.DEFAULT_J_MAX)
        calls = []
        covariance = spectral.covariance

        def counted(*args, **kwargs):
            calls.append(args)
            return covariance(*args, **kwargs)

        monkeypatch.setattr(spectral, "covariance", counted)
        lines = spectral._stacked_lines.cache_info()
        warm = asy.spectral_factor(spec, transform, 1.3 + 1e-5, asy.DEFAULT_J_MAX)
        assert calls == []
        # the stacked tail lines of all orders are reused as well
        after = spectral._stacked_lines.cache_info()
        assert (after.hits, after.misses) == (lines.hits + 1, lines.misses)
        spectral._chunk_nodes.cache_clear()
        spectral._stacked_lines.cache_clear()
        cold = asy.spectral_factor(spec, transform, 1.3 + 1e-5, asy.DEFAULT_J_MAX)
        assert calls
        assert spectral._stacked_lines.cache_info().misses == 1
        assert warm == cold

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("delta", [1e-5, 1e-3])
    def test_frequency_stability_bound(self, smooth, j, delta):
        # |f^(*j)(phi^) - f^(*j)(phi)| <= (B_m/2pi) T |phi^-phi|
        #                                + (2/T) int_T^inf |B|^m
        horizon = 256.0
        lhs = abs(
            asy.self_convolution(smooth, 1, j, 1.3 + delta)
            - asy.self_convolution(smooth, 1, j, 1.3)
        )
        rhs = asy.b_m(smooth, 1) / (2.0 * math.pi) * horizon * delta
        rhs += 2.0 / horizon * asy.abs_cov_power_integral(smooth, 1, horizon)
        assert lhs <= rhs
