"""Limit covariance machinery for the harmonic least-squares estimator.

Self-convolutions of the noise spectral density are computed as cosine
transforms of powers of the covariance: a Gauss-Legendre body on nodes
shared by all orders, and a closed-form tail on the exact expansion of
each power into envelope-times-cosine lines. On top of that sit the
per-harmonic limit Gram blocks, the 3x3 covariance blocks of the
normalized estimation errors (in both published variants), the general
spectral-measure form, and the plug-in estimator with truncation tails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import _quad
from .errors import (
    ExperimentError,
    NonIntegrableError,
    OverlapError,
    QuadratureError,
    ValidationError,
)
from .hermite import TransformSpec
from .simulate import HarmonicModel
from .spectral import NoiseSpec, covariance, covariance_envelope, singular_points

DEFAULT_J_MAX = 20
_COEFF_SKIP = 1e-12  # scale-free floor below which a Hermite term is dropped
# t1 doubles until one order's tail error estimate is below this; the lines
# of B^k carry total weight 1, so each line's transform gets about 0.5e-7
_TAIL_TARGET = 0.5e-7 / math.pi
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_CHUNK_PANELS = 2048  # with the double-width rule: 49152 nodes per chunk
_NODE_CACHE_CHUNKS = 32  # chunks of nodes, weights and B kept across calls
_GRADE_START = 2.0**-30  # right edge of the first graded panel at t = 0
_GROWTH = 0.5  # graded panel width over its left edge
_SEG_PANELS = 4  # panels for the a-posteriori zero-frequency tail check
MODES = ("derived", "as-printed")


# ---------------------------------------------------------------------------
# powers of the covariance as sums of envelope * cos(omega t)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _cos_power(kappa: float, n: int) -> dict:
    """cos^n(kappa t) as {frequency: coefficient} over cos(freq t)."""
    out = {}
    for i in range(n + 1):
        freq = abs((n - 2 * i) * kappa)
        out[freq] = out.get(freq, 0.0) + math.comb(n, i) * 0.5**n
    return out


def _merge_products(dicts) -> dict:
    acc = {0.0: 1.0}
    for d in dicts:
        nxt = {}
        for w1, c1 in acc.items():
            for w2, c2 in d.items():
                for w in (abs(w1 + w2), abs(w1 - w2)):
                    nxt[w] = nxt.get(w, 0.0) + 0.5 * c1 * c2
        acc = nxt
    return acc


@dataclass(frozen=True)
class _PowerLines:
    """B(t)^k as sum_i coef_i * U_i(t) * cos(omega_i t), one row per line.

    U_i(t) = prod_j (1 + t^rho_j)^(-expo[i, j]), where expo[i, j] is
    n_j alpha_j / 2 for the multinomial composition n of k behind line i.
    """

    coef: np.ndarray
    omega: np.ndarray
    expo: np.ndarray
    rho: np.ndarray

    def envelope(self, t: float):
        """(U(t), U'(t), local decay exponent -t U'(t) / U(t)) per line."""
        tr = t**self.rho
        u = np.exp(-self.expo @ np.log1p(tr))
        beta_loc = self.expo @ (self.rho * tr / (1.0 + tr))
        return u, -u * beta_loc / t, beta_loc

    def envelope_on(self, t: np.ndarray) -> np.ndarray:
        """U on a node array, shape (lines, nodes)."""
        return np.exp(-self.expo @ np.log1p(t[None, :] ** self.rho[:, None]))


@functools.lru_cache(maxsize=4096)
def _power_lines(spec: NoiseSpec, k: int) -> _PowerLines:
    """Exact trigonometric expansion of B(t)^k into envelope-times-cosine
    lines; it does not depend on the frequency it is transformed at."""
    comps = spec.components
    coef, omega, expo = [], [], []
    for n in _compositions(k, len(comps)):
        weight = math.factorial(k)
        dicts = []
        for nj, comp in zip(n, comps):
            weight /= math.factorial(nj)
            weight *= comp.weight**nj
            if nj > 0 and comp.kappa != 0.0:
                dicts.append(_cos_power(comp.kappa, nj))
        freq_map = _merge_products(dicts) if dicts else {0.0: 1.0}
        row = [nj * comp.alpha / 2.0 for nj, comp in zip(n, comps)]
        for freq, c in sorted(freq_map.items()):
            coef.append(weight * c)
            omega.append(freq)
            expo.append(row)
    arrays = [np.array(x) for x in (coef, omega, expo, [c.rho for c in comps])]
    for arr in arrays:
        arr.flags.writeable = False  # the cached tables are shared
    return _PowerLines(*arrays)


# ---------------------------------------------------------------------------
# self-convolutions: shared-node body integral plus closed-form tails


def _panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes and weights on the panels between consecutive
    edges, each of shape (panels, nodes per panel)."""
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (_GL_X + 1.0), half * _GL_W


def _envelope_integral(lines: _PowerLines, lo: float, hi: float):
    """int_lo^hi U per line, and its difference to the same rule at twice
    the panel width."""
    edges = np.linspace(lo, hi, _SEG_PANELS + 1)
    fine, coarse = (
        lines.envelope_on(t.ravel()) @ w.ravel()
        for t, w in (_panel_nodes(edges), _panel_nodes(edges[::2]))
    )
    return fine, np.abs(fine - coarse)


def _tail_closure(lines: _PowerLines, lam: float):
    """(t1, tail, error estimate) closing (1/pi) int_t1^inf B^k cos(lam t).

    Each line splits into cos(mu t) with mu = |lam - omega| and lam + omega.
    For mu > 0 the tail is integrated by parts twice, with the remainder
    bounded by |U'(t1)| / mu^2; for mu == 0 it is closed as a local power
    law and checked a posteriori against closing at t1/2. t1 doubles from
    256 until the weighted error estimate meets _TAIL_TARGET or hits the cap.
    """
    mu = np.concatenate([np.abs(lam - lines.omega), lam + lines.omega])
    coef = np.concatenate([lines.coef, lines.coef])
    row = np.concatenate([np.arange(lines.omega.size)] * 2)
    zero = mu == 0.0
    mu_o, coef_o, row_o = mu[~zero], coef[~zero], row[~zero]
    coef_z, row_z = coef[zero], row[zero]

    def power_tail(t):
        # closes int_t^inf U assuming U ~ c s^-beta_loc locally, per line
        u, _, beta_loc = lines.envelope(t)
        return u * t / (beta_loc - 1.0), beta_loc

    def parts_bound(du):
        return np.abs(coef_o) @ (np.abs(du[row_o]) / mu_o**2)

    t1 = _quad._T_START
    while True:
        _, du, _ = lines.envelope(t1)
        err = parts_bound(du)
        if row_z.size:
            # drift of the local exponent over one doubling tracks how far
            # U is from an exact power law, which is what the closure misses
            closed, beta_loc = power_tail(t1)
            _, beta_half = power_tail(0.5 * t1)
            drift = np.abs(beta_loc - beta_half)
            err += np.abs(coef_z) @ (closed * 2.0 * drift)[row_z]
        if err / (2.0 * math.pi) <= _TAIL_TARGET or t1 >= _quad._T_CAP:
            break
        t1 *= 2.0

    u, du, _ = lines.envelope(t1)
    tail = coef_o @ (
        -u[row_o] * np.sin(mu_o * t1) / mu_o
        - du[row_o] * np.cos(mu_o * t1) / mu_o**2
    )
    err = parts_bound(du)
    if row_z.size:
        closed, _ = power_tail(t1)
        half, _ = power_tail(0.5 * t1)
        seg, seg_err = _envelope_integral(lines, 0.5 * t1, t1)
        tail += coef_z @ closed[row_z]
        # a-posteriori check: closing the tail at t1/2 must agree with
        # integrating [t1/2, t1] and closing at t1
        err += np.abs(coef_z) @ (np.abs(half - (seg + closed)) + seg_err)[row_z]
    return t1, float(tail) / (2.0 * math.pi), float(err) / (2.0 * math.pi)


def _block_layout(a: float, b: float, width: float) -> tuple[int, int, bool]:
    """The integers that fix the panels of _block_edges(a, b, width): the
    number of graded head edges, the number of uniform panels, and whether
    the parity fix split the last head panel. Given a and b they determine
    every edge, so nearby widths share one layout."""
    head = [a] if a > 0.0 else [0.0, _GRADE_START]
    while head[-1] < b and _GROWTH * head[-1] < width:
        head.append(min(head[-1] * (1.0 + _GROWTH), b))
    n = math.ceil((b - head[-1]) / width) if head[-1] < b else 0
    split = False
    if (len(head) - 1 + n) % 2:
        if n:
            n += 1
        else:
            split = True
    return len(head), n, split


def _chunk_count(layout) -> int:
    heads, n, split = layout
    return math.ceil((heads - 1 + split + n) / _CHUNK_PANELS)


def _chunk_edges(a: float, b: float, layout, chunk: int) -> np.ndarray:
    """Edges of one chunk of at most _CHUNK_PANELS panels of the block
    [a, b] laid out as _block_layout describes."""
    heads, n, split = layout
    head = [a] if a > 0.0 else [0.0, _GRADE_START]
    while len(head) < heads:
        head.append(min(head[-1] * (1.0 + _GROWTH), b))
    if split:
        head.insert(-1, 0.5 * (head[-2] + head[-1]))
    start = head[-1]
    head = np.array(head)
    last = head.size - 1
    p0 = chunk * _CHUNK_PANELS
    j = np.arange(p0, min(p0 + _CHUNK_PANELS, last + n) + 1)
    uniform = start + (b - start) * (j - last) / max(n, 1)
    return np.where(j <= last, head[np.minimum(j, last)], uniform)


def _block_edges(a: float, b: float, width: float):
    """Panel edges covering [a, b], in chunks of at most _CHUNK_PANELS
    panels with an even count each, so the comparison rule at twice the
    panel width pairs panels within a chunk.

    Panels are graded geometrically toward t = 0 (the first ends at
    _GRADE_START, each later one is as wide as _GROWTH times its left
    edge), which resolves the t^rho cusp of B at the origin, until they
    reach `width`; the rest of the block is cut into equal panels no wider
    than `width`.
    """
    layout = _block_layout(a, b, width)
    for chunk in range(_chunk_count(layout)):
        yield _chunk_edges(a, b, layout, chunk)


@functools.lru_cache(maxsize=_NODE_CACHE_CHUNKS)
def _chunk_nodes(spec: NoiseSpec, a: float, b: float, layout, chunk: int):
    """Nodes of one chunk (the rule's, then those of the rule at twice the
    panel width), the weights of the rule (row 0) and of the rule minus the
    coarse rule (row 1), and B at the nodes. None of it depends on lam, so
    plug-ins at nearby frequencies share the read-only arrays."""
    edges = _chunk_edges(a, b, layout, chunk)
    fine_t, fine_w = _panel_nodes(edges)
    coarse_t, coarse_w = _panel_nodes(edges[::2])
    t = np.concatenate([fine_t.ravel(), coarse_t.ravel()])
    weights = np.zeros((2, t.size))
    weights[:, : fine_w.size] = fine_w.ravel()
    weights[1, fine_w.size :] = -coarse_w.ravel()
    cov = covariance(spec, t)
    for arr in (t, weights, cov):
        arr.flags.writeable = False
    return t, weights, cov


def _body_integrals(spec: NoiseSpec, lam: float, orders, t1s):
    """(1/pi) int_0^t1 B(t)^k cos(lam t) dt for each order k up to its own
    t1, and the summed differences to the same rule at twice the panel
    width. B and cos(lam t) are evaluated once per node for all orders;
    B^k is built by repeated multiplication. Work goes in dyadic blocks
    [0, 256], [256, 512], ... whose panels resolve the fastest oscillation
    k kappa_max + lam among the orders still open in the block."""
    kappa_max = max(c.kappa for c in spec.components)
    slot = {k: i for i, k in enumerate(orders)}
    body = np.zeros(len(orders))
    diff = np.zeros(len(orders))
    a, b = 0.0, _quad._T_START
    while a < max(t1s):
        open_orders = {k for k, t1 in zip(orders, t1s) if t1 >= b}
        k_top = max(open_orders)
        omega = k_top * kappa_max + lam
        width = 2.0 * math.pi / omega if omega > 0.0 else math.inf
        layout = _block_layout(a, b, width)
        for chunk in range(_chunk_count(layout)):
            t, weights, cov = _chunk_nodes(spec, a, b, layout, chunk)
            weights = weights * np.cos(lam * t)
            power = cov.copy()
            for k in range(1, k_top + 1):
                if k in open_orders:
                    value, delta = weights @ power
                    body[slot[k]] += value
                    diff[slot[k]] += abs(delta)
                if k < k_top:
                    power *= cov
        a, b = b, 2.0 * b
    return body / math.pi, diff / math.pi


def _self_convolutions(
    spec: NoiseSpec, rank: int, orders, lam: float, tol: float = 1e-5
):
    """f^(*k)(lam) and its error estimate for every k in orders, from one
    shared evaluation of B on [0, max t1] plus a closed-form tail per
    expansion line. Each order's estimate (body: comparison with the rule
    at twice the panel width; tail: the closure bounds) must stay within
    tol."""
    for k in orders:
        if k < 1 or k < rank:
            raise ValidationError(f"order k = {k} must be >= rank = {rank}")
        if spec.alpha_min * k <= 1.0 or spec.decay_exponent * k <= 1.0:
            raise NonIntegrableError(
                f"self-convolution of order {k} is not integrable: "
                f"alpha_min * k = {spec.alpha_min * k:.3f}"
            )
    if not orders:
        return [], []
    lam = abs(float(lam))
    closures = [_tail_closure(_power_lines(spec, k), lam) for k in orders]
    body, body_err = _body_integrals(spec, lam, orders, [c[0] for c in closures])
    vals, errs = [], []
    for k, (_, tail, tail_err), part, part_err in zip(
        orders, closures, body, body_err
    ):
        val = float(part) + tail
        err = float(part_err) + tail_err
        if err > tol:
            raise QuadratureError(
                f"self-convolution of order {k} at {lam:.4f}: error estimate "
                f"{err:.2e} exceeds {tol:.2e}"
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


def self_convolution(
    spec: NoiseSpec, rank: int, k: int, lam: float, tol: float = 1e-5
) -> float:
    """k-fold self-convolution of the spectral density at frequency lam,
    computed as (1/2pi) * integral of B(t)^k cos(lam t) dt.

    Requires k >= rank and an integrable power: alpha_min * k > 1 (and the
    envelope decay exponent times k > 1 when rho != 2). Even in lam. The
    quadrature error estimate must stay within tol.
    """
    vals, _ = _self_convolutions(spec, rank, (k,), lam, tol)
    return vals[0]


def abs_cov_power_integral(spec: NoiseSpec, m: int, lo: float = 0.0) -> float:
    """integral over [lo, inf) of |B(t)|^m dt. Beyond a fixed split point
    the integrand is replaced by its power-law envelope, so the result is
    a slight overestimate there (conservative for the bounds it feeds)."""
    if spec.decay_exponent * m <= 1.0 or spec.alpha_min * m <= 1.0:
        raise NonIntegrableError(f"|B|^{m} is not integrable")
    split = max(4096.0, 4.0 * lo)
    # composite Simpson on dyadic blocks; |B|^m has kinks at zeros of B,
    # so adaptive rules stall at tight tolerances while a fine fixed grid
    # with a step-halving self-check stays robust
    block_edges = [lo]
    width = 8.0
    while block_edges[-1] + width < split:
        block_edges.append(block_edges[-1] + width)
        width *= 2.0
    block_edges.append(split)
    kappa_max = max(c.kappa for c in spec.components)
    main = 0.0
    coarse = 0.0
    for a, b in zip(block_edges[:-1], block_edges[1:]):
        # step must resolve the fastest carrier; without one it may grow
        # with distance since only the envelope varies
        h = max(1.0 / 512.0, a / 1024.0)
        if kappa_max > 0.0:
            h = min(h, math.pi / (48.0 * kappa_max))
        npts = 4 * max(16, math.ceil((b - a) / (4.0 * h))) + 1
        t = np.linspace(a, b, npts)
        y = np.abs(covariance(spec, t)) ** m
        main += integrate.simpson(y, x=t)
        coarse += integrate.simpson(y[::2], x=t[::2])
    if abs(main - coarse) > 1e-6 * max(1.0, abs(main)):
        raise QuadratureError(
            f"|B|^{m} integral did not stabilize: "
            f"{main:.9g} vs {coarse:.9g} on the halved grid"
        )
    # envelope tail integrates like C t^(-beta) past the split point
    beta = spec.decay_exponent * m
    tail = covariance_envelope(spec, split) ** m * split / (beta - 1.0)
    return main + tail


@functools.lru_cache(maxsize=1024)
def b_m(spec: NoiseSpec, m: int) -> float:
    """B_m = integral over the whole line of |B(t)|^m dt."""
    return 2.0 * abs_cov_power_integral(spec, m, 0.0)


def abs_cov_tail(spec: NoiseSpec, m: int, horizon: float) -> float:
    """integral over [horizon, inf) of |B(t)|^m dt."""
    return abs_cov_power_integral(spec, m, horizon)


def _active_orders(transform: TransformSpec, j_max: int):
    orders = []
    for j in range(transform.rank, min(j_max, transform.k_max) + 1):
        c = transform.coeffs[j]
        if abs(c) / math.sqrt(math.factorial(j)) > _COEFF_SKIP:
            orders.append((j, c * c / math.factorial(j)))
    return orders


def _tail_mass(transform: TransformSpec, j_max: int) -> float:
    mass = transform.tail_coefficient_mass()
    for j in range(j_max + 1, transform.k_max + 1):
        mass += transform.coeffs[j] ** 2 / math.factorial(j)
    return mass


def _spectral_sum(
    spec: NoiseSpec, transform: TransformSpec, lam: float, j_max: int
) -> tuple[float, float, float]:
    """(s, truncation tail bound, weighted quadrature error estimate)."""
    if j_max < transform.rank:
        raise ValidationError("j_max below the transform rank")
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


def spectral_factor(
    spec: NoiseSpec,
    transform: TransformSpec,
    lam: float,
    j_max: int = DEFAULT_J_MAX,
) -> tuple[float, float]:
    """s(lam) = sum_{j=rank}^{j_max} (C_j^2 / j!) f^(*j)(lam) and the
    truncation tail bound (1/2pi) B_rank sum_{j>j_max} C_j^2 / j!."""
    s, tail, _ = _spectral_sum(spec, transform, lam, j_max)
    return s, tail


# ---------------------------------------------------------------------------
# per-harmonic Gram structure and covariance blocks


@dataclass
class GramBlock:
    """Limit Gram matrix of the normalized regressors of one harmonic and
    the scalers mapping d_T-normalization to (sqrt(T), sqrt(T), T^(3/2))."""

    j_matrix: np.ndarray
    scalers: np.ndarray

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.j_matrix))


def gram_block(a: float, b: float) -> GramBlock:
    c2 = a * a + b * b
    if c2 <= 0.0:
        raise ValidationError("harmonic amplitude is zero")
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


def gamma_matrix(
    a: float,
    b: float,
    phi: float,
    transform: TransformSpec,
    spec: NoiseSpec,
    j_max: int = DEFAULT_J_MAX,
    mode: str = "derived",
    s_value: float | None = None,
) -> np.ndarray:
    """3x3 covariance block of (sqrt(T)(A^-A), sqrt(T)(B^-B),
    T^(3/2)(phi^-phi)) for one harmonic.

    mode='as-printed' returns 4pi s/C^2 * [[C^2, -3AB, -6B], [-3AB, C^2,
    6A], [-6B, 6A, 12]] verbatim; mode='derived' returns D (2pi s J^-1) D
    with D = diag(sqrt(2), sqrt(2), sqrt(6)/C), which replaces the two
    leading diagonal entries by A^2+4B^2 and 4A^2+B^2 and is positive
    definite. Off-diagonals and the (3,3) entry agree between modes.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}")
    c2 = a * a + b * b
    if c2 <= 0.0:
        raise ValidationError("harmonic amplitude is zero")
    if s_value is None:
        s_value, _ = spectral_factor(spec, transform, phi, j_max)
    pref = 4.0 * math.pi * s_value / c2
    if mode == "as-printed":
        return pref * np.array([
            [c2, -3.0 * a * b, -6.0 * b],
            [-3.0 * a * b, c2, 6.0 * a],
            [-6.0 * b, 6.0 * a, 12.0],
        ])
    block = gram_block(a, b)
    d = np.diag(1.0 / block.scalers)
    core = 2.0 * math.pi * s_value * np.linalg.inv(block.j_matrix)
    return d @ core @ d


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
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
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
    bounds and quadrature error estimates."""
    a_arr, b_arr, phi_arr = model.amplitudes()
    mats, svals, tails, eigs, errs = [], [], [], [], []
    for a, b, phi in zip(a_arr, b_arr, phi_arr):
        s, tail, quad_err = _spectral_sum(spec, transform, phi, j_max)
        m = gamma_matrix(a, b, phi, transform, spec, j_max, mode, s_value=s)
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
    c2 = a * a + b * b
    if c2 <= 0.0:
        raise ValidationError("harmonic amplitude is zero")
    c = math.sqrt(c2)
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

    Sigma = 2pi sum_k (C_k^2/k!) sum_atoms f^(*k)(location) * mass;
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
    active = _active_orders(transform, j_max)
    orders = [j for j, _ in active]
    sigma = np.zeros((q, q), dtype=complex)
    for loc, mass in atoms:
        vals, _ = _self_convolutions(spec, transform.rank, orders, loc)
        for (_, w), v in zip(active, vals):
            sigma += w * v * mass
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
    band = result.model.band
    for _, _, phi in result.model.harmonics:
        if not band[0] < phi < band[1]:
            raise ValidationError("estimated frequency escapes the band")
    return gamma_report(result.model, transform, spec, j_max, mode)
