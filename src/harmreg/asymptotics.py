"""Limit covariance machinery for the harmonic least-squares estimator.

Self-convolutions of the noise spectral density come from the
cosine-transform engine of the spectral module, gated here by Hermite rank,
integrability and an error budget, and weighted by the Hermite
coefficients into the spectral factor. On top of that sit the
per-harmonic limit Gram blocks, the 3x3 covariance blocks of the
normalized estimation errors (in both published variants), the general
spectral-measure form, and the plug-in estimator with truncation tails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExperimentError,
    NonIntegrableError,
    OverlapError,
    QuadratureError,
    ValidationError,
    require_count,
)
from .hermite import TransformSpec, hermite_weight, require_order
from .simulate import HarmonicModel, amplitude_squared
from .spectral import (
    NoiseSpec,
    _block_edges,
    _gated,
    _gauss_legendre,
    _power_transforms,
    _require_frequency,
    covariance,
    covariance_envelope,
    singular_points,
)

DEFAULT_J_MAX = 20
_COEFF_SKIP = 1e-12  # scale-free floor below which a Hermite term is dropped
_SELF_CONV_TOL = 1e-5  # error budget of each self-convolution
MODES = ("derived", "as-printed")


def require_mode(mode) -> None:
    """Refuse a covariance mode that is not one of MODES."""
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")


# ---------------------------------------------------------------------------
# self-convolutions and the spectral factor


def _require_integrable(spec: NoiseSpec, k: int, what: str) -> None:
    """Refuse a power B^k that is not integrable: the decay exponent
    alone decides."""
    if spec.decay_exponent * k <= 1.0:
        raise NonIntegrableError(
            f"{what} is not integrable: decay_exponent * {k} = "
            f"{spec.decay_exponent * k:.3f}"
        )


def _self_convolutions(spec: NoiseSpec, rank: int, orders, lam: float):
    """f^(*k)(lam) and its error estimate for every k in orders, from one
    call of the cosine-transform engine shared by all orders. Each order's
    estimate (body: comparison with the rule at twice the panel width;
    tail: the closure bounds) must stay within _SELF_CONV_TOL (1e-5). A
    frequency that is not finite, or an order above MAX_ORDER (170), raises
    ValidationError."""
    lam = abs(_require_frequency(lam))
    for k in orders:
        if k < 1 or k < rank:
            raise ValidationError(f"order k = {k} must be >= rank = {rank}")
        require_order(k)
        _require_integrable(spec, k, f"self-convolution of order {k}")
    if not orders:
        return [], []
    vals, errs = [], []
    for k, (val, err) in zip(orders, _power_transforms(spec, lam, orders)):
        if err > _SELF_CONV_TOL:
            raise QuadratureError(
                f"self-convolution of order {k} at {lam:.4f}: error estimate "
                f"{err:.2e} exceeds {_SELF_CONV_TOL:.2e}"
            )
        if val < 0.0:
            if val < -max(10.0 * err, 1e-8):
                raise QuadratureError(
                    f"self-convolution at {lam:.4f} came out negative: {val:.3e}"
                )
            val = 0.0
        vals.append(val)
        errs.append(err)
    return vals, errs


def self_convolution(spec: NoiseSpec, rank: int, k: int, lam: float) -> float:
    """k-fold self-convolution of the spectral density at frequency lam,
    computed as (1/2pi) * integral of B(t)^k cos(lam t) dt.

    Requires rank <= k <= 170 and an integrable power: the envelope decay
    exponent times k above 1 (alpha * rho / 2 per component). Even in
    lam. The quadrature error estimate must stay within 1e-5.
    """
    vals, _ = _self_convolutions(spec, rank, (k,), lam)
    return vals[0]


def _sign_changes(spec: NoiseSpec, edges: np.ndarray) -> np.ndarray:
    """Zeros of B where it changes sign between 16 equally spaced samples
    per panel of edges, bisected until each bracket is within an ulp of its
    right end."""
    t = np.linspace(edges[0], edges[-1], 16 * edges.size)
    neg = np.signbit(covariance(spec, t))
    i = np.flatnonzero(neg[1:] != neg[:-1])
    lo, hi, neg = t[i], t[i + 1], neg[i]
    for _ in range(53):  # hi - lo <= hi halves to within an ulp of hi
        mid = 0.5 * (lo + hi)
        left = np.signbit(covariance(spec, mid)) == neg
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def abs_cov_power_integral(spec: NoiseSpec, m: int, lo: float = 0.0) -> float:
    """integral over [lo, inf) of |B(t)|^m dt. Beyond a fixed split point
    the integrand is replaced by its power-law envelope, so the result is
    a slight overestimate there (conservative for the bounds it feeds).

    Up to the split, the composite Gauss-Legendre rule of the
    cosine-transform engine sums |B|^m on the panels of its blocks: graded
    toward t = 0 and at most one period of m kappa_max wide. For odd m,
    |B|^m has kinks where B changes sign; those zeros become edges of the
    rule and of its comparison rule on every other edge.

    Raises
    ------
    NonIntegrableError : |B|^m is not integrable.
    QuadratureError : the comparison estimate exceeds 1e-6 (relative
        above 1).
    """
    _require_integrable(spec, m, f"|B|^{m}")
    split = max(4096.0, 4.0 * lo)
    kappa_max = max(c.kappa for c in spec.components)
    width = 2.0 * math.pi / (m * kappa_max) if kappa_max > 0.0 else math.inf
    power = lambda t: np.abs(covariance(spec, t)) ** m
    main = err = 0.0
    for edges in _block_edges(lo, split, width):
        coarse = edges[::2]
        if m % 2:
            zeros = _sign_changes(spec, edges)
            edges, coarse = np.union1d(edges, zeros), np.union1d(coarse, zeros)
        value, diff = _gauss_legendre(power, edges, coarse)
        main += value
        err += diff
    main = _gated(main, err, 1e-6, f"integral of |B|^{m}")
    # envelope tail integrates like C t^(-beta) past the split point
    beta = spec.decay_exponent * m
    tail = covariance_envelope(spec, split) ** m * split / (beta - 1.0)
    return main + tail


@functools.lru_cache(maxsize=1024)
def b_m(spec: NoiseSpec, m: int) -> float:
    """B_m = integral over the whole line of |B(t)|^m dt."""
    return 2.0 * abs_cov_power_integral(spec, m, 0.0)


def _active_orders(transform: TransformSpec, j_max: int):
    require_count("j_max", j_max, transform.rank)
    orders = []
    for j in range(transform.rank, min(j_max, transform.k_max) + 1):
        c = transform.coeffs[j]
        if abs(c) / math.sqrt(math.factorial(j)) > _COEFF_SKIP:
            orders.append((j, hermite_weight(c, j)))
    return orders


def _tail_mass(transform: TransformSpec, j_max: int) -> float:
    mass = transform.parseval_gap  # sum_{k > K_max} C_k^2 / k!
    for j in range(j_max + 1, transform.k_max + 1):
        mass += hermite_weight(transform.coeffs[j], j)
    return mass


def spectral_factor(
    spec: NoiseSpec,
    transform: TransformSpec,
    lam: float,
    j_max: int = DEFAULT_J_MAX,
) -> tuple[float, float, float]:
    """s(lam) = sum_{j=rank}^{j_max} (C_j^2 / j!) f^(*j)(lam), the
    truncation tail bound (1/2pi) B_rank sum_{j>j_max} C_j^2 / j!, and the
    self-convolution quadrature error estimates weighted like s."""
    active = _active_orders(transform, j_max)
    vals, errs = _self_convolutions(
        spec, transform.rank, [j for j, _ in active], lam
    )
    s = 0.0
    quad_err = 0.0
    for (_, w), v, e in zip(active, vals, errs):
        s += w * v
        quad_err += w * e
    tail = _tail_mass(transform, j_max) * b_m(spec, transform.rank) / (2.0 * math.pi)
    return s, tail, quad_err


# ---------------------------------------------------------------------------
# per-harmonic Gram structure and covariance blocks


@dataclass
class GramBlock:
    """Limit Gram matrix of the normalized regressors of one harmonic and
    the scalers mapping d_T-normalization to (sqrt(T), sqrt(T), T^(3/2))."""

    j_matrix: np.ndarray
    scalers: np.ndarray


def gram_block(a: float, b: float) -> GramBlock:
    c2 = amplitude_squared(a, b)
    c = math.sqrt(c2)
    off_b = math.sqrt(3.0) * b / (2.0 * c)
    off_c = -math.sqrt(3.0) * a / (2.0 * c)
    j = np.array([
        [1.0, 0.0, off_b],
        [0.0, 1.0, off_c],
        [off_b, off_c, 1.0],
    ])
    scalers = np.array([math.sqrt(0.5), math.sqrt(0.5), math.sqrt(c2 / 6.0)])
    return GramBlock(j_matrix=j, scalers=scalers)


def gamma_matrix(a: float, b: float, s: float, mode: str = "derived") -> np.ndarray:
    """3x3 covariance block of (sqrt(T)(A^-A), sqrt(T)(B^-B),
    T^(3/2)(phi^-phi)) for one harmonic with spectral factor s at its
    frequency:

        4pi s/C^2 * [[d11, -3AB, -6B], [-3AB, d22, 6A], [-6B, 6A, 12]].

    mode='as-printed' takes d11 = d22 = C^2, verbatim; mode='derived'
    takes d11 = A^2+4B^2 and d22 = 4A^2+B^2, which is D (2pi s J^-1) D
    with J the gram_block matrix and D = diag(sqrt(2), sqrt(2), sqrt(6)/C),
    and is positive definite. Both triangles hold the same products, so the
    block is exactly symmetric.
    """
    require_mode(mode)
    c2 = amplitude_squared(a, b)
    if mode == "as-printed":
        d11 = d22 = c2
    else:
        d11, d22 = a * a + 4.0 * b * b, 4.0 * a * a + b * b
    return 4.0 * math.pi * s / c2 * np.array([
        [d11, -3.0 * a * b, -6.0 * b],
        [-3.0 * a * b, d22, 6.0 * a],
        [-6.0 * b, 6.0 * a, 12.0],
    ])


@dataclass
class GammaReport:
    """Per-harmonic limit covariance blocks with their spectral factors,
    truncation metadata, and eigenvalues. quad_errors holds, per harmonic,
    the self-convolution quadrature error estimates weighted like s."""

    mode: str
    j_max: int
    frequencies: tuple
    matrices: tuple
    s_values: tuple
    tail_bounds: tuple
    eigenvalues: tuple
    quad_errors: tuple = ()

    def __post_init__(self):
        require_mode(self.mode)
        if self.mode == "derived":
            for phi, eig in zip(self.frequencies, self.eigenvalues):
                if np.min(eig) <= 0.0:
                    raise ExperimentError(
                        f"derived covariance block at {phi:.4f} is not "
                        "positive definite"
                    )


def gamma_report(
    model: HarmonicModel,
    transform: TransformSpec,
    spec: NoiseSpec,
    j_max: int = DEFAULT_J_MAX,
    mode: str = "derived",
) -> GammaReport:
    """gamma_matrix for every harmonic of the model, with s factors, tail
    bounds and quadrature error estimates. A bad mode is refused before
    any quadrature."""
    require_mode(mode)
    a_arr, b_arr, phi_arr = model.amplitudes()
    mats, svals, tails, eigs, errs = [], [], [], [], []
    for a, b, phi in zip(a_arr, b_arr, phi_arr):
        s, tail, quad_err = spectral_factor(spec, transform, phi, j_max)
        m = gamma_matrix(a, b, s, mode)
        mats.append(m)
        svals.append(s)
        tails.append(tail)
        eigs.append(np.linalg.eigvalsh(m))
        errs.append(quad_err)
    return GammaReport(
        mode=mode,
        j_max=j_max,
        frequencies=tuple(float(p) for p in phi_arr),
        matrices=tuple(mats),
        s_values=tuple(svals),
        tail_bounds=tuple(tails),
        eigenvalues=tuple(eigs),
        quad_errors=tuple(errs),
    )


# ---------------------------------------------------------------------------
# general spectral-measure form


def trig_spectral_measure(a: float, b: float, phi: float):
    """Atoms (location, 3x3 Hermitian mass block) of the spectral measure
    of one normalized harmonic regressor triple; masses at +phi and -phi
    are complex conjugates and sum to the real Gram block."""
    c = math.sqrt(amplitude_squared(a, b))
    beta_p = math.sqrt(3.0) * (b - 1j * a) / (4.0 * c)
    gamma_p = -math.sqrt(3.0) * (a + 1j * b) / (4.0 * c)
    m_plus = np.array([
        [0.5, 0.5j, beta_p],
        [-0.5j, 0.5, gamma_p],
        [np.conj(beta_p), np.conj(gamma_p), 0.5],
    ])
    return [(phi, m_plus), (-phi, np.conj(m_plus))]


def sigma_general(
    transform: TransformSpec,
    spec: NoiseSpec,
    atoms,
    j_max: int = DEFAULT_J_MAX,
) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, Sigma0) for a discrete regression spectral measure.

    Sigma = 2pi sum_atoms s(location) * mass, with s the spectral factor;
    Sigma0 = (total mass)^-1 Sigma (total mass)^-1. Atom locations must
    avoid the singular points of the noise density.
    """
    atoms = [(float(loc), np.asarray(mass)) for loc, mass in atoms]
    if not atoms:
        raise ValidationError("spectral measure needs at least one atom")
    sing = [pt for pt, _ in singular_points(spec)]
    for loc, _ in atoms:
        for pt in sing:
            if abs(abs(loc) - abs(pt)) < 1e-9:
                raise OverlapError(
                    f"measure atom at {loc:.6f} overlaps noise singular "
                    f"point {pt:.6f}"
                )
    q = atoms[0][1].shape[0]
    total = np.zeros_like(atoms[0][1], dtype=complex)
    for _, mass in atoms:
        if mass.shape != (q, q):
            raise ValidationError("atom mass blocks must share one shape")
        total += mass
    if np.linalg.cond(total) > 1e12:
        raise ValidationError("spectral measure total mass is singular")
    sigma = np.zeros((q, q), dtype=complex)
    for loc, mass in atoms:
        sigma += spectral_factor(spec, transform, loc, j_max)[0] * mass
    sigma *= 2.0 * math.pi
    inv = np.linalg.inv(total)
    sigma0 = inv @ sigma @ inv
    if np.max(np.abs(sigma.imag)) < 1e-10 * max(np.max(np.abs(sigma.real)), 1.0):
        sigma = sigma.real
        sigma0 = sigma0.real
    return sigma, sigma0


def plug_in_gamma(
    result,
    transform: TransformSpec,
    spec: NoiseSpec,
    j_max: int = DEFAULT_J_MAX,
    mode: str = "derived",
) -> GammaReport:
    """GammaReport evaluated at the estimated parameters (Theorem-7 style
    plug-in); the tail bound fields carry the truncation error bound."""
    return gamma_report(result.model, transform, spec, j_max, mode)
