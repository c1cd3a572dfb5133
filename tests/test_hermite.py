"""Hermite coefficients, rank, transforms, and subordinated covariance."""

import math
import pickle
import re
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from harmreg import (
    covariance,
    hermite_rank,
    make_transform,
    preset_noise,
    subordinated_covariance,
)
from harmreg.errors import DegenerateTransformError, ValidationError
from harmreg.hermite import SQRT_2PI, _g_centered_abs, hermite

from oracles import hermite_coefficients_oracle, isserlis_hermite_moment

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
ABS_EG2 = 1.0 - 2.0 / math.pi


# ---------------------------------------------------------------------------
# polynomials


def test_hermite_low_orders():
    assert hermite(0, 3.7) == 1.0
    assert hermite(1, 3.7) == 3.7
    assert hermite(2, 2.0) == 3.0
    assert hermite(3, 1.5) == 1.5**3 - 3 * 1.5
    # an integral float order is that integer
    assert hermite(0.0, 3.7) == 1.0
    assert hermite(3.0, 1.5) == hermite(3, 1.5)


def test_hermite_fifth_order_expansion():
    x = 1.3
    assert abs(hermite(5, x) - (x**5 - 10 * x**3 + 15 * x)) < 1e-12
    xs = np.linspace(-3.0, 3.0, 41)
    assert np.allclose(hermite(5, xs), xs**5 - 10 * xs**3 + 15 * xs, atol=1e-10)


def test_hermite_order_errors():
    with pytest.raises(ValidationError):
        hermite(-1, 0.0)
    with pytest.raises(ValidationError):
        hermite(61, 0.0)
    # a bool is not an order, though True == 1
    for k in (2.5, math.nan, math.inf, True, False, np.True_):
        with pytest.raises(ValidationError, match="nonnegative integer"):
            hermite(k, 0.0)


def test_hermite_orthogonality():
    # roundoff scales with the integrand magnitude sqrt(k! l!)
    x, w = special.roots_hermitenorm(256)
    for k in range(16):
        hk = hermite(k, x)
        for l in range(k, 16):
            inner = float((w * hk * hermite(l, x)).sum()) / SQRT_2PI
            target = math.factorial(k) if k == l else 0.0
            scale = math.sqrt(math.factorial(k) * math.factorial(l))
            assert abs(inner - target) <= 1e-8 * max(1.0, scale)


# ---------------------------------------------------------------------------
# coefficients


def _factorial_scale(n: int) -> np.ndarray:
    return np.sqrt([float(math.factorial(k)) for k in range(n)])


def test_identity_coefficients():
    c = np.array(make_transform("identity").coeffs)
    assert c[1] == 1.0
    assert not np.any(np.delete(c, 1))


def test_cube_coefficients():
    # x^3 = H_3 + 3 H_1, so the moment-convention values are
    # C_1 = 3 E[H_1^2] / 1 = 3 and C_3 = E[H_3^2] / 1 = 6
    c = np.array(make_transform("cube").coeffs)
    assert c[1] == 3.0
    assert c[3] == 6.0
    assert not np.any(np.delete(c, [1, 3]))


def test_abs_coefficients_closed_form():
    # E[|x| H_2] = E|x|^3 - E|x| = sqrt(2/pi); E[|x| H_4] = -sqrt(2/pi)
    c = np.array(make_transform("centered-absolute-value", k_max=170).coeffs)
    assert c[0] == 0.0
    assert c[1] == 0.0
    assert abs(c[2] - SQRT_2_OVER_PI) < 1e-15
    assert abs(c[4] + SQRT_2_OVER_PI) < 1e-15
    assert not np.any(c[1::2])
    # every order: C_2m = sqrt(2/pi) (-1)^(m+1) (2m-3)!! and C_odd = 0
    expected = np.zeros(len(c))
    for m in range(1, len(c) // 2 + 1):
        expected[2 * m] = SQRT_2_OVER_PI * (-1) ** (m + 1) * math.prod(range(2 * m - 3, 0, -2))
    assert len(c) == 171
    assert np.max(np.abs(c - expected) / _factorial_scale(len(c))) < 1e-15
    assert abs(make_transform("centered-absolute-value").eg2 - ABS_EG2) < 1e-15


def _table_against_oracle(xs, g, breakpoints):
    # the oracle runs mpmath quadrature on monomial He_k over the whole line
    tr = make_transform("user-table", table=(xs, [g(x) for x in xs]))
    ref = hermite_coefficients_oracle(g, tr.k_max, breakpoints)
    assert np.max(np.abs(np.array(tr.coeffs) - ref) / _factorial_scale(len(ref))) < 1e-12


def test_clip_coefficients_match_mpmath_oracle():
    # a two-point table is clip(x, -1, 1): constant beyond its ends; far
    # abscissae, where phi is 0, change nothing and overflow nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xs in ([-1.0, 1.0], [-1e200, -1.0, 1.0, 1e200]):
            _table_against_oracle(xs, lambda x: min(max(x, -1), 1), (-1.0, 1.0))


def test_shifted_abs_table_matches_mpmath_oracle():
    # |x - 0.3| centered, tabulated at its kink and where phi has underflowed,
    # so the constant tails beyond +-40 weigh nothing;
    # E|xi - a| = 2 phi(a) + a erf(a / sqrt(2))
    shift = 0.3
    mean = 2.0 * math.exp(-0.5 * shift**2) / SQRT_2PI + shift * math.erf(shift / math.sqrt(2.0))
    _table_against_oracle([-40.0, shift, 40.0], lambda x: abs(x - shift) - mean, (shift,))


def test_uncentered_transform_rejected():
    # a table and explicit coefficients are refused with one message
    message = "transform has nonzero mean: C_0 = 3.000e-01 (must be centered)"
    xs = np.linspace(-8.0, 8.0, 101)
    with pytest.raises(ValidationError, match=re.escape(message)):
        make_transform("user-table", table=(xs, xs + 0.3))
    with pytest.raises(ValidationError, match=re.escape(message)):
        make_transform("hermite-polynomial", coeffs=[0.3, 1.0])


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert hermite_rank([0.0, 1.0, 0.0]) == 1
    assert hermite_rank([0.0, 0.0, 2.0]) == 2
    assert hermite_rank([0.0, 0.0, 0.0, 6.0]) == 3


def test_rank_scale_free_tolerance():
    # |C_k| / sqrt(k!) is the scale; a bare 1e-7 at k=10 is below it
    coeffs = np.zeros(11)
    coeffs[10] = 1e-7 * math.sqrt(math.factorial(10))
    assert hermite_rank(coeffs) == 10


def test_rank_degenerate():
    with pytest.raises(DegenerateTransformError):
        hermite_rank([0.0, 1e-12, 1e-12])


def test_weights_of_order_170_do_not_overflow(mixed):
    # raw C_k of this table reach 3e154, whose square overflows a float
    xs = np.linspace(-6.0, 6.0, 241)
    tr = make_transform("user-table", table=(xs, 1e4 * (np.abs(xs) - SQRT_2_OVER_PI)), k_max=170)
    assert max(map(abs, tr.coeffs)) > 1e154
    assert math.isfinite(tr.eg2) and 0.0 <= tr.parseval_gap < 1e-3 * tr.eg2
    assert abs(subordinated_covariance(tr.coeffs, mixed, 0.0) - tr.eg2) <= tr.parseval_gap + 1e-6


# ---------------------------------------------------------------------------
# built-in transforms


def test_identity_transform():
    tr = make_transform("identity")
    assert tr.rank == 1
    assert abs(tr.eg2 - 1.0) < 1e-10
    assert tr.parseval_gap < 1e-9
    assert np.array_equal(tr.g(np.array([0.5, -2.0])), np.array([0.5, -2.0]))


def test_cube_transform():
    tr = make_transform("cube")
    assert tr.rank == 1
    assert abs(tr.eg2 - 15.0) < 1e-8
    assert tr.parseval_gap < 1e-7
    assert tr.g(2.0) == 8.0


def test_square_transform():
    tr = make_transform("hermite-polynomial", coeffs=[0.0, 0.0, 2.0])
    assert tr.rank == 2
    assert abs(tr.eg2 - 2.0) < 1e-10
    assert abs(tr.g(2.0) - 3.0) < 1e-12
    assert abs(tr.g(0.0) + 1.0) < 1e-12


def test_abs_transform():
    tr = make_transform("centered-absolute-value")
    assert tr.rank == 2
    assert abs(tr.eg2 - ABS_EG2) < 1e-10
    # truncation at K_max = 20 leaves a genuine coefficient tail
    assert 1e-3 < tr.parseval_gap < 2e-3
    assert abs(tr.g(-1.5) - (1.5 - SQRT_2_OVER_PI)) < 1e-15


def test_eg2_is_exact_where_parseval_closes():
    # identity, cube and a Hermite polynomial are finite Hermite sums, so
    # each takes EG^2 from Parseval and nothing is left for the tail
    for tr in (
        make_transform("identity"),
        make_transform("cube"),
        make_transform("hermite-polynomial", coeffs=[0.0, 0.0, 2.0]),
    ):
        mass = sum(c * c / math.factorial(k) for k, c in enumerate(tr.coeffs) if k >= 1)
        assert abs(tr.eg2 - mass) <= 1e-14 * mass
        assert tr.parseval_gap == 0.0


def test_polynomial_transform_requires_coeffs():
    with pytest.raises(ValidationError):
        make_transform("hermite-polynomial")
    with pytest.raises(ValidationError):
        make_transform("hermite-polynomial", coeffs=[0.5, 1.0])
    for coeffs, bad in (([math.nan, 1.0], "C_0 = nan"), ([0.0, 1.0, math.inf], "C_2 = inf"),
                        ([0.0, math.nan], "C_1 = nan")):
        with pytest.raises(ValidationError, match=f"coeffs must be finite: {bad}"):
            make_transform("hermite-polynomial", coeffs=coeffs)


def test_unknown_kind():
    with pytest.raises(ValidationError):
        make_transform("sigmoid")


def test_k_max_property():
    tr = make_transform("identity", k_max=12)
    assert tr.k_max == 12
    assert len(tr.coeffs) == 13


@pytest.mark.parametrize("k_max", [21, 40, 58, 77, 89, 170])
@pytest.mark.parametrize("kind", ["identity", "cube", "centered-absolute-value", "user-table"])
def test_k_max_past_int64_factorials(kind, k_max):
    # 21! exceeds int64; each C_k comes from its own closed form, so the
    # first 21 are those of the default k_max, and every order up to 170 builds
    xs = np.linspace(-6.0, 6.0, 241)
    table = {"table": (xs, np.tanh(xs))} if kind == "user-table" else {}
    tr = make_transform(kind, k_max=k_max, **table)
    default = make_transform(kind, **table)
    assert tr.k_max == k_max
    assert tr.coeffs[:21] == default.coeffs
    assert tr.rank == default.rank
    assert tr.parseval_gap <= default.parseval_gap


@pytest.mark.parametrize("k_max", [-1, 0, 2.5, True])
def test_k_max_must_be_a_positive_integer(k_max):
    with pytest.raises(ValidationError, match="k_max"):
        make_transform("identity", k_max=k_max)


@pytest.mark.parametrize(
    "kind, kwargs",
    [
        ("identity", {"coeffs": (0, 0, 2)}),
        ("cube", {"table": ([-1.0, 1.0], [-1.0, 1.0])}),
        ("hermite-polynomial", {"coeffs": (0, 1), "table": ([-1.0, 1.0], [-1.0, 1.0])}),
        ("user-table", {"coeffs": (0, 1), "table": ([-1.0, 1.0], [-1.0, 1.0])}),
    ],
)
def test_each_kind_reads_only_its_own_key(kind, kwargs):
    with pytest.raises(ValidationError, match=f"^extra keys for kind '{kind}'"):
        make_transform(kind, **kwargs)


# ---------------------------------------------------------------------------
# user tables


def test_table_identity():
    xs = np.linspace(-8.5, 8.5, 3001)
    tr = make_transform("user-table", table=(xs, xs))
    assert tr.rank == 1
    assert abs(tr.coeffs[1] - 1.0) < 1e-9
    assert tr.parseval_gap < 1e-9


def test_table_square_recentring():
    # chords of a convex function sit above it, so the tabulated version
    # carries an O(h^2) mean that the builder absorbs into a shift
    xs = np.linspace(-8.5, 8.5, 3001)
    tr = make_transform("user-table", table=(xs, xs**2 - 1.0))
    assert tr.rank == 2
    assert abs(tr.coeffs[2] - 2.0) < 1e-5
    assert abs(tr.eg2 - 2.0) < 1e-5
    assert abs(float(tr.g(0.0)) + 1.0) < 1e-4


def test_table_abs_matches_builtin():
    xs = np.linspace(-8.5, 8.5, 4001)
    tr = make_transform("user-table", table=(xs, np.abs(xs) - SQRT_2_OVER_PI))
    ref = make_transform("centered-absolute-value")
    assert tr.rank == 2
    assert abs(tr.coeffs[2] - ref.coeffs[2]) < 1e-6
    assert abs(tr.eg2 - ref.eg2) < 1e-6


def test_table_g_interpolates_stored_arrays():
    # g reads read-only arrays built once from aux; the spec still compares,
    # hashes and pickles by its tuple fields alone
    xs = np.linspace(-8.5, 8.5, 4001)
    table = (xs, np.abs(xs) - SQRT_2_OVER_PI)
    tr = make_transform("user-table", table=table)
    x = np.random.default_rng(5).standard_normal(2048)
    expect = np.interp(x, np.array(tr.aux[0]), np.array(tr.aux[1]))
    assert np.array_equal(tr.g(x), expect)
    assert all(not col.flags.writeable for col in tr._table)
    twin = make_transform("user-table", table=table)
    assert twin == tr and hash(twin) == hash(tr)
    back = pickle.loads(pickle.dumps(tr))
    assert back == tr and np.array_equal(back.g(x), expect)
    assert all(not col.flags.writeable for col in back._table)


def test_kinked_and_table_transforms_skip_adaptive_quadrature(monkeypatch):
    # structural guard: every kind takes its coefficients in closed form,
    # never from scalar adaptive calls or Gauss-Hermite nodes
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(integrate, "quad")
    counting(special, "roots_hermitenorm")
    xs = np.linspace(-8.5, 8.5, 4001)
    make_transform("identity")
    make_transform("cube")
    make_transform("centered-absolute-value")
    make_transform("hermite-polynomial", coeffs=[0.0, 0.0, 2.0])
    make_transform("user-table", table=(xs, np.abs(xs) - SQRT_2_OVER_PI))
    assert calls == []


def test_table_eg2_is_that_of_the_centered_interpolant():
    # a coarse grid gives x^2 - 1 an interpolation mean of about h^2 / 6 =
    # 4.4e-4, so EG^2 taken before the centering shift would be off by 2e-7
    xs = np.linspace(-8.5, 8.5, 331)
    tr = make_transform("user-table", table=(xs, xs**2 - 1.0))
    f = lambda x: float(tr.g(x)) ** 2 * math.exp(-0.5 * x * x) / SQRT_2PI
    edges = [-np.inf, *xs, np.inf]
    ref = sum(integrate.quad(f, a, b, epsabs=1e-13)[0] for a, b in zip(edges, edges[1:]))
    assert abs(tr.eg2 - ref) < 1e-10


def test_table_validation():
    xs = np.linspace(-8.0, 8.0, 101)
    with pytest.raises(ValidationError):
        make_transform("user-table")
    with pytest.raises(ValidationError):
        make_transform("user-table", table=(xs, xs[:-1]))
    with pytest.raises(ValidationError):
        make_transform("user-table", table=(xs[::-1], xs))
    with pytest.raises(ValidationError):
        make_transform("user-table", table=([0.0], [0.0]))
    # a NaN or infinite entry, as an abscissa or as a value
    for bad in (np.nan, np.inf, -np.inf):
        for column in (0, 1):
            table = [xs.copy(), xs.copy()]
            table[column][50] = bad
            with pytest.raises(ValidationError, match="^table entries must be finite$"):
                make_transform("user-table", table=table)


def test_table_rejects_uncentered():
    xs = np.linspace(-8.0, 8.0, 1001)
    with pytest.raises(ValidationError, match="transform has nonzero mean: C_0 = 5.000e-01"):
        make_transform("user-table", table=(xs, xs + 0.5))


def test_table_rejects_heavy_truncation():
    xs = np.linspace(-8.5, 8.5, 3001)
    with pytest.raises(ValidationError):
        make_transform("user-table", table=(xs, xs**3), k_max=2)


# ---------------------------------------------------------------------------
# subordinated covariance


def test_subordinated_identity_is_base_covariance(smooth):
    tr = make_transform("identity")
    t = np.linspace(0.0, 12.0, 49)
    assert np.allclose(
        subordinated_covariance(tr.coeffs, smooth, t), covariance(smooth, t),
        atol=1e-10,
    )


def test_subordinated_square_is_squared_covariance(seasonal):
    tr = make_transform("hermite-polynomial", coeffs=[0.0, 0.0, 2.0])
    t = np.linspace(0.0, 12.0, 49)
    expected = 2.0 * covariance(seasonal, t) ** 2
    assert np.allclose(subordinated_covariance(tr.coeffs, seasonal, t), expected, atol=1e-12)


def test_subordinated_at_zero_is_eg2(mixed):
    for kind in ("identity", "cube", "centered-absolute-value"):
        tr = make_transform(kind)
        val = subordinated_covariance(tr.coeffs, mixed, 0.0)
        assert abs(val - tr.eg2) <= tr.parseval_gap + 1e-10


def test_subordinated_dominated_by_rank_power(mixed):
    tr = make_transform("centered-absolute-value")
    t = np.linspace(0.0, 40.0, 401)
    vals = subordinated_covariance(tr.coeffs, mixed, t)
    bound = tr.eg2 * np.abs(covariance(mixed, t)) ** tr.rank
    assert np.all(np.abs(vals) <= bound + 1e-12)


def test_subordinated_matches_monte_carlo(smooth):
    tr = make_transform("hermite-polynomial", coeffs=[0.0, 1.0, -0.8, 0.9])
    lag = 1.7
    r = covariance(smooth, lag)
    theory = subordinated_covariance(tr.coeffs, smooth, lag)
    rng = np.random.default_rng(5)
    n = 1_000_000
    x = rng.standard_normal(n)
    y = r * x + math.sqrt(1.0 - r * r) * rng.standard_normal(n)
    prod = tr.g(x) * tr.g(y)
    se = float(prod.std(ddof=1)) / math.sqrt(n)
    assert abs(float(prod.mean()) - theory) <= 3.0 * se


def test_subordinated_pair_expectation_via_isserlis(smooth):
    # E[H_2(X) H_2(Y)] = 2 r^2 for a correlated standard normal pair
    r = covariance(smooth, 0.8)
    corr = np.array([[1.0, r], [r, 1.0]])
    direct = isserlis_hermite_moment((2, 2), corr)
    tr = make_transform("hermite-polynomial", coeffs=[0.0, 0.0, 2.0])
    series = subordinated_covariance(tr.coeffs, smooth, 0.8)
    assert abs(direct - 2.0 * r * r) < 1e-12
    assert abs(series - 2.0 * r * r) < 1e-12
