"""Covariance and spectral density of the stationary Gaussian base process.

The process has correlation function

    B(t) = sum_j D_j * cos(kappa_j t) / (1 + |t|^rho_j)^(alpha_j / 2),

a convex mixture of damped cosine carriers. For the canonical shape
rho_j = 2 the spectral density of each component is available in closed
form through the modified Bessel function of the third kind. Other shapes
take the cosine-transform engine that also yields the self-convolutions
f^(*k): (1/pi) int_0^inf B(t)^k cos(lam t) dt as a Gauss-Legendre body on
nodes shared by all orders, with cos(lam t) factored over panel edges and
node offsets, plus closed-form tails on the exact expansion of B^k into
envelope-times-cosine lines, closed for all orders in one pass. A
component density is order 1 of that engine on the component alone.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureError, SingularityError, ValidationError

_LOG_MAX = math.log(np.finfo(float).max)

#: severity at or below which a carrier frequency is a spectral singularity
SINGULAR_SEVERITY = 1.0
# a component density whose error estimate exceeds this raises
_DENSITY_TOL = 1e-6
_T_START = 256.0  # first tail split point and width of the first body block
_T_CAP = 131072.0  # largest tail split point
# t1 doubles until one order's tail error estimate is below this; the lines
# of B^k carry total weight 1, so each line's transform gets about 0.5e-7
_TAIL_TARGET = 0.5e-7 / math.pi
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_BESSEL_STEP = 0.04  # trapezoid step of bessel_k in u = log s
# a piece of spectral_integral whose error estimate exceeds this raises
_INTEGRAL_TOL = 1e-6
_CHUNK_PANELS = 2048  # with the double-width rule: 49152 nodes per chunk
_NODE_CACHE_CHUNKS = 32  # chunks of nodes, weights and B kept across calls
_GRADE_START = 2.0**-30  # right edge of the first graded panel at t = 0
_GROWTH = 0.5  # graded panel width over its left edge
_SEG_PANELS = 4  # panels for the a-posteriori zero-frequency tail check


class _Workspaces(threading.local):
    def __init__(self):
        self.arrays = {}


_WORKSPACES = _Workspaces()


def _workspace(key, size: int, dtype=np.float64) -> np.ndarray:
    """The first `size` entries of this thread's scratch array `key`.

    Hot loops write their large temporaries here instead of allocating
    them per call, which would map and unmap pages on every call once
    they pass the allocator's mmap threshold. An array only grows, so
    after the largest request every call reuses it. Each thread has its
    own arrays: numpy ufuncs release the GIL, and a shared array would
    let two threads overwrite each other's sums. A caller must be done
    with the array before it asks for the same key again.
    """
    buf = _WORKSPACES.arrays.get(key)
    if buf is None or buf.size < size:
        buf = _WORKSPACES.arrays[key] = np.empty(size, dtype)
    return buf[:size]


def c1(alpha: float) -> float:
    """Normalizing constant of the closed-form component density."""
    return 2.0 ** ((1.0 - alpha) / 2.0) / (math.sqrt(math.pi) * math.gamma(alpha / 2.0))


def c2(alpha: float) -> float:
    """Local power-law coefficient of the density near a singular point.

    Defined for 0 < alpha < 1, where the component density behaves like
    c2(alpha) * |lambda - kappa|^(alpha - 1) up to the carrier weight.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"c2 defined for 0 < alpha < 1, got {alpha}")
    return 1.0 / (2.0 * math.gamma(alpha) * math.cos(alpha * math.pi / 2.0))


def bessel_k(nu: float, z: float) -> float:
    """Modified Bessel function of the third kind K_nu(z).

    Evaluates the integral representation

        K_nu(z) = 1/2 * int_0^inf s^(nu-1) exp(-z (s + 1/s) / 2) ds

    after the substitution s = e^u, which turns it into a doubly
    exponentially decaying integrand handled by the trapezoid rule with
    step 0.04 in u (the tanh-sinh strategy). Accurate to better than 1e-10
    relative for z in [1e-6, 30] and |nu| <= 50.

    Parameters
    ----------
    nu : real order; K is even in nu.
    z : positive argument.

    Raises
    ------
    ValidationError : z <= 0 or |nu| > 50.
    OverflowError : result exceeds the double-precision range.
    """
    if z <= 0.0:
        raise ValidationError(f"bessel_k requires z > 0, got {z}")
    nu = abs(nu)
    if nu > 50.0:
        raise ValidationError(f"bessel_k supports |nu| <= 50, got {nu}")

    def expo(u: float) -> float:
        return nu * u - z * math.cosh(u)

    peak = math.asinh(nu / z) if nu > 0.0 else 0.0
    top = expo(peak)
    lo, hi = peak, peak
    while expo(hi) > top - 80.0:
        hi += 1.0
    while expo(lo) > top - 80.0:
        lo -= 1.0
    n = max(int(math.ceil((hi - lo) / _BESSEL_STEP)), 8)
    u = np.linspace(lo, hi, n + 1)
    ex = nu * u - z * np.cosh(u)
    m = float(ex.max())
    total = float(np.exp(ex - m).sum()) * (hi - lo) / n
    log_result = m + math.log(0.5 * total)
    if log_result > _LOG_MAX:
        raise OverflowError(f"bessel_k({nu}, {z}) exceeds double range")
    return math.exp(log_result)


@dataclass(frozen=True)
class NoiseComponent:
    """One damped-cosine component of the noise covariance."""

    weight: float
    alpha: float
    kappa: float = 0.0
    rho: float = 2.0

    def __post_init__(self):
        # the chained comparisons are false for NaN and refuse infinity
        if not 0.0 <= self.weight < math.inf:
            raise ValidationError(f"component weight must be finite and >= 0, got {self.weight}")
        if not 0.0 < self.alpha < math.inf:
            raise ValidationError(f"component alpha must be finite and > 0, got {self.alpha}")
        if not 0.0 <= self.kappa < math.inf:
            raise ValidationError(f"component kappa must be finite and >= 0, got {self.kappa}")
        if not 0.0 < self.rho <= 2.0:
            raise ValidationError(f"component rho must lie in (0, 2], got {self.rho}")

    @property
    def decay_exponent(self) -> float:
        """Power-law decay exponent of the component in |t|; alpha when rho=2."""
        return self.alpha * self.rho / 2.0


@dataclass(frozen=True)
class NoiseSpec:
    """Ordered mixture of NoiseComponents with unit total weight."""

    components: tuple[NoiseComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValidationError("NoiseSpec needs at least one component")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"component weights must sum to 1, got {total!r}")
        carriers = [c.kappa for c in comps]
        if any(b <= a for a, b in zip(carriers, carriers[1:])):
            raise ValidationError(f"carriers must be strictly increasing, got {carriers}")

    @property
    def alpha_min(self) -> float:
        return min(c.alpha for c in self.components)

    @property
    def decay_exponent(self) -> float:
        """Smallest component decay exponent; governs integrability of B^k."""
        return min(c.decay_exponent for c in self.components)


def preset_noise(name: str) -> NoiseSpec:
    """Named specs used across the test and acceptance suites."""
    if name == "seasonal":
        return NoiseSpec((NoiseComponent(1.0, 0.5, 2.0),))
    if name == "smooth":
        return NoiseSpec((NoiseComponent(1.0, 1.5, 0.0),))
    if name == "mixed":
        return NoiseSpec(
            (NoiseComponent(0.6, 1.5, 0.0), NoiseComponent(0.4, 0.5, 2.0))
        )
    raise ValidationError(f"unknown noise preset {name!r}")


def covariance(spec: NoiseSpec, t):
    """Correlation function B(t); even, B(0)=1, |B| <= 1.

    Accepts scalar or array lags.
    """
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    for comp in spec.components:
        out += (
            comp.weight
            * np.cos(comp.kappa * t)
            / (1.0 + t**comp.rho) ** (comp.alpha / 2.0)
        )
    return out if out.ndim else float(out)


def covariance_envelope(spec: NoiseSpec, t):
    """Upper bound with every cosine replaced by 1 (the B_0 bound)."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    for comp in spec.components:
        out += comp.weight / (1.0 + t**comp.rho) ** (comp.alpha / 2.0)
    return out if out.ndim else float(out)


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
    """B(t)^k for one or more orders k as sums of coef_i * U_i(t) *
    cos(omega_i t), one row per line; order[i] is the position, in the
    tuple of orders the table serves, of the order line i belongs to.

    U_i(t) = prod_j (1 + t^rho_j)^(-expo[i, j]), where expo[i, j] is
    n_j alpha_j / 2 for the multinomial composition n of k behind line i.
    """

    coef: np.ndarray
    omega: np.ndarray
    expo: np.ndarray
    rho: np.ndarray
    order: np.ndarray

    def envelope(self, t: float):
        """(U(t), U'(t), U''(t), local decay exponent -t U'(t) / U(t)) per
        line."""
        tr = t**self.rho
        share = self.rho * tr / (1.0 + tr)
        u = np.exp(-self.expo @ np.log1p(tr))
        beta_loc = self.expo @ share
        # t^2 U'' / U = beta_loc^2 - t^2 (beta_loc / t)'
        curv = self.expo @ (share * (tr + 1.0 - self.rho) / (1.0 + tr))
        return u, -u * beta_loc / t, u * (beta_loc**2 + curv) / t**2, beta_loc

    def envelope_on(self, t: np.ndarray, rows) -> np.ndarray:
        """U of the given lines on a node array, shape (lines, nodes)."""
        return np.exp(-self.expo[rows] @ np.log1p(t[None, :] ** self.rho[:, None]))


def _power_lines(spec: NoiseSpec, k: int):
    """Exact trigonometric expansion of B(t)^k into envelope-times-cosine
    lines, as (coefficient, frequency, envelope exponents) triples."""
    comps = spec.components
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
            yield weight * c, freq, row


@functools.lru_cache(maxsize=256)
def _stacked_lines(spec: NoiseSpec, orders: tuple) -> _PowerLines:
    """The expansion lines of B^k for every k in orders, in one table; it
    does not depend on the frequency it is transformed at."""
    lines = [
        (c, freq, row, slot)
        for slot, k in enumerate(orders)
        for c, freq, row in _power_lines(spec, k)
    ]
    coef, omega, expo, order = (np.array(x) for x in zip(*lines))
    rho = np.array([c.rho for c in spec.components])
    arrays = (coef, omega, expo.reshape(len(lines), rho.size), rho, order)
    for arr in arrays:
        arr.flags.writeable = False  # the cached tables are shared
    return _PowerLines(*arrays)


# ---------------------------------------------------------------------------
# cosine transforms of B^k: shared-node body integral plus closed-form tails


def _panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes and weights on the panels between consecutive
    edges, each of shape (panels, nodes per panel)."""
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (_GL_X + 1.0), half * _GL_W


def _gauss_legendre(g, edges: np.ndarray, coarse=None):
    """The composite 16-point Gauss-Legendre sum of g on the panels between
    consecutive edges, and its absolute difference to the same rule on the
    coarse edges, by default every other edge. g maps an array of nodes to
    values along its last axis."""
    if coarse is None:
        coarse = edges[::2]
    fine, rough = (
        np.einsum("...i,i->...", g(t.ravel()), w.ravel())
        for t, w in (_panel_nodes(edges), _panel_nodes(coarse))
    )
    return fine, np.abs(fine - rough)


def _envelope_integral(lines: _PowerLines, rows, lo: float, hi: float):
    """int_lo^hi U for the given lines, and its difference to the same rule
    at twice the panel width."""
    edges = np.linspace(lo, hi, _SEG_PANELS + 1)
    return _gauss_legendre(lambda t: lines.envelope_on(t, rows), edges)


def _tail_closures(lines: _PowerLines, lam: float, count: int):
    """(t1, tail, error estimate) arrays closing (1/pi) int_t1^inf B^k
    cos(lam t) for each of the count orders of the stacked lines.

    Each line splits into cos(mu t) with mu = |lam - omega| and lam + omega.
    For mu > 0 the tail is integrated by parts two or three times, per line
    whichever remainder bound is smaller: |U'(t1)| / mu^2 after two parts,
    |U''(t1)| / mu^3 after the third, +U''(t1) sin(mu t1) / mu^3. The bounds
    take |U'| and |U''| to decrease beyond t1, as they do once every factor
    of U follows its power law. For mu == 0 a line is closed as a local
    power law and checked a posteriori against closing at t1/2. One loop
    doubles t1 from 256 for all orders at once; each order closes at the
    first t1 where its weighted error estimate meets _TAIL_TARGET, or at
    the cap.
    """
    mu = np.concatenate([np.abs(lam - lines.omega), lam + lines.omega])
    coef = np.concatenate([lines.coef, lines.coef])
    row = np.concatenate([np.arange(lines.omega.size)] * 2)
    zero = mu == 0.0
    mu_o, coef_o, row_o = mu[~zero], coef[~zero], row[~zero]
    coef_z, row_z = coef[zero], row[zero]
    order_o, order_z = lines.order[row_o], lines.order[row_z]

    def per_order(order, values):
        # sums per order; astype: bincount gives integer zeros when empty
        return np.bincount(order, weights=values, minlength=count).astype(float)

    def power_tail(t):
        # closes int_t^inf U assuming U ~ c s^-beta_loc locally, per line
        u, _, _, beta_loc = lines.envelope(t)
        return u * t / (beta_loc - 1.0), beta_loc

    t1s, tails, errs = np.zeros(count), np.zeros(count), np.zeros(count)
    open_orders = np.ones(count, dtype=bool)
    t1 = _T_START
    while open_orders.any():
        u, du, d2u, _ = lines.envelope(t1)
        bound2 = np.abs(du[row_o]) / mu_o**2
        bound3 = np.abs(d2u[row_o]) / mu_o**3
        bound = per_order(order_o, np.abs(coef_o) * np.minimum(bound2, bound3))
        err = bound.copy()
        if row_z.size:
            # drift of the local exponent over one doubling tracks how far
            # U is from an exact power law, which is what the closure misses
            closed, beta_loc = power_tail(t1)
            _, beta_half = power_tail(0.5 * t1)
            drift = np.abs(beta_loc - beta_half)
            err += per_order(order_z, np.abs(coef_z) * (closed * 2.0 * drift)[row_z])
        done = open_orders & ((err / (2.0 * math.pi) <= _TAIL_TARGET) | (t1 >= _T_CAP))
        if done.any():
            sin, cos = np.sin(mu_o * t1), np.cos(mu_o * t1)
            part = -u[row_o] * sin / mu_o - du[row_o] * cos / mu_o**2
            part += np.where(bound3 < bound2, d2u[row_o] * sin / mu_o**3, 0.0)
            tail = per_order(order_o, coef_o * part)
            if row_z.size:
                closing = done[order_z]
                rows = row_z[closing]
                half, _ = power_tail(0.5 * t1)
                seg, seg_err = _envelope_integral(lines, rows, 0.5 * t1, t1)
                # a-posteriori check: closing the tail at t1/2 must agree
                # with integrating [t1/2, t1] and closing at t1
                check = np.abs(half[rows] - (seg + closed[rows])) + seg_err
                tail += per_order(order_z[closing], coef_z[closing] * closed[rows])
                bound += per_order(order_z[closing], np.abs(coef_z[closing]) * check)
            t1s[done], tails[done], errs[done] = t1, tail[done], bound[done]
            open_orders &= ~done
        t1 *= 2.0
    return t1s, tails / (2.0 * math.pi), errs / (2.0 * math.pi)


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


def _head_edges(a: float, b: float, layout) -> np.ndarray:
    """The graded head edges of the block [a, b] laid out as _block_layout
    describes; the last one starts the uniform panels."""
    heads, _, split = layout
    head = [a] if a > 0.0 else [0.0, _GRADE_START]
    while len(head) < heads:
        head.append(min(head[-1] * (1.0 + _GROWTH), b))
    if split:
        head.insert(-1, 0.5 * (head[-2] + head[-1]))
    return np.array(head)


def _chunk_edges(a: float, b: float, layout, chunk: int) -> np.ndarray:
    """Edges of one chunk of at most _CHUNK_PANELS panels of the block
    [a, b] laid out as _block_layout describes."""
    n = layout[1]
    head = _head_edges(a, b, layout)
    start = head[-1]
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


@dataclass(frozen=True)
class _Chunk:
    """Nodes of one chunk, the rule's (the first `fine` of them) and then
    those of the rule at twice the panel width, with their weights and B.

    Graded panels are stored node by node; `direct` holds the (lo, hi)
    ranges of such nodes. Uniform panels are stored offset-major: an entry
    (lo, panels, offsets, weights) of `uniform` puts node i of the panel
    with left edge e_p = edges[panels][p] at index lo + i * P + p, for P
    panels, at t = e_p + offsets[i] with weight weights[i].
    """

    t: np.ndarray
    weights: np.ndarray
    cov: np.ndarray
    fine: int
    direct: tuple
    edges: np.ndarray
    uniform: tuple


@functools.lru_cache(maxsize=_NODE_CACHE_CHUNKS)
def _chunk_nodes(spec: NoiseSpec, a: float, b: float, layout, chunk: int) -> _Chunk:
    """The _Chunk of one chunk of the block [a, b]. None of it depends on
    lam, so plug-ins at nearby frequencies share the read-only arrays."""
    edges = _chunk_edges(a, b, layout, chunk)
    head = _head_edges(a, b, layout)
    width = (b - head[-1]) / max(layout[1], 1)
    # local index of the chunk's first uniform panel, and of the first
    # coarse panel that pairs two uniform ones
    u = min(max(head.size - 1 - chunk * _CHUNK_PANELS, 0), edges.size - 1)
    cu = u + u % 2
    left = edges[u:-1]
    t, weights, direct, uniform = [], [], [], []
    size = fine = 0
    # the rule, then the rule at twice the panel width
    for graded, panels, half in (
        (edges[: u + 1], slice(None), 0.5 * width),
        (edges[: cu + 1 : 2], slice(cu - u, None, 2), width),
    ):
        nodes, w = _panel_nodes(graded)
        if nodes.size:
            direct.append((size, size + nodes.size))
            t.append(nodes.ravel())
            weights.append(w.ravel())
            size += nodes.size
        if left[panels].size:
            offsets, w = half * (_GL_X + 1.0), half * _GL_W
            uniform.append((size, panels, offsets, w))
            t.append((offsets[:, None] + left[panels]).ravel())
            weights.append(np.repeat(w, left[panels].size))
            size += t[-1].size
        fine = fine or size  # the node count of the first pass
    t, weights = np.concatenate(t), np.concatenate(weights)
    cov = covariance(spec, t)
    for arr in (t, weights, cov, left):
        arr.flags.writeable = False
    return _Chunk(t, weights, cov, fine, tuple(direct), left, tuple(uniform))


def _weighted_cos(nodes: _Chunk, lam: float) -> np.ndarray:
    """weights * cos(lam t) on every node of a chunk, in this thread's
    workspace, valid until the next call. On a uniform run the factor is
    the rank-2 product cos(lam o_i) cos(lam e_p) - sin(lam o_i)
    sin(lam e_p), so cos and sin are taken on panel edges and offsets, not
    per node."""
    out = _workspace("wcos", nodes.t.size)
    for lo, hi in nodes.direct:
        np.multiply(np.cos(lam * nodes.t[lo:hi]), nodes.weights[lo:hi], out=out[lo:hi])
    arg = lam * nodes.edges
    trig = np.stack([np.cos(arg), np.sin(arg)])
    for lo, panels, offsets, weights in nodes.uniform:
        arg = lam * offsets
        factor = np.stack([weights * np.cos(arg), -weights * np.sin(arg)], axis=1)
        edge_trig = trig[:, panels]
        block = out[lo : lo + offsets.size * edge_trig.shape[1]]
        # (offsets, 2) @ (2, panels): the long panel axis is the inner loop
        np.matmul(factor, edge_trig, out=block.reshape(offsets.size, -1))
    return out


def _powers(cov: np.ndarray, orders):
    """cov**k for each k of the ascending orders, in turn in one array of
    this thread's workspace: the power advances by the gap to the next
    order, and each gap's power is built once, left to right, in a
    workspace of its own."""
    steps = {}
    power, prev = None, 0
    for k in orders:
        gap = k - prev
        if gap not in steps:
            step = cov
            if gap > 1:
                step = np.multiply(cov, cov, out=_workspace(("step", gap), cov.size))
                for _ in range(gap - 2):
                    step *= cov
            steps[gap] = step
        if power is None:
            power = _workspace("power", cov.size)
            np.copyto(power, steps[gap])
        else:
            power *= steps[gap]
        prev = k
        yield power


def _body_integrals(spec: NoiseSpec, lam: float, orders, t1s):
    """(1/pi) int_0^t1 B(t)^k cos(lam t) dt for each order k up to its own
    t1, and the summed differences to the same rule at twice the panel
    width. B and the weighted cos(lam t) are evaluated once per node for
    all orders. Work goes in dyadic blocks [0, 256], [256, 512], ... whose
    panels resolve the fastest oscillation k kappa_max + lam among the
    orders still open in the block."""
    kappa_max = max(c.kappa for c in spec.components)
    slots = sorted(range(len(orders)), key=orders.__getitem__)
    body = np.zeros(len(orders))
    diff = np.zeros(len(orders))
    a, b = 0.0, _T_START
    while a < t1s.max():
        open_slots = [i for i in slots if t1s[i] >= b]
        omega = orders[open_slots[-1]] * kappa_max + lam
        width = 2.0 * math.pi / omega if omega > 0.0 else math.inf
        layout = _block_layout(a, b, width)
        for chunk in range(_chunk_count(layout)):
            nodes = _chunk_nodes(spec, a, b, layout, chunk)
            wcos = _weighted_cos(nodes, lam)
            fine, coarse = wcos[: nodes.fine], wcos[nodes.fine :]
            powers = _powers(nodes.cov, [orders[i] for i in open_slots])
            for i, power in zip(open_slots, powers):
                # einsum, not the BLAS dot: a threaded dot rounds by its
                # thread count and leaves threads spinning that slow down
                # the products between the sums
                value = np.einsum("i,i->", fine, power[: nodes.fine])
                body[i] += value
                diff[i] += abs(value - np.einsum("i,i->", coarse, power[nodes.fine :]))
        a, b = b, 2.0 * b
    return body / math.pi, diff / math.pi


def _power_transforms(spec: NoiseSpec, lam: float, orders):
    """(1/pi) int_0^inf B(t)^k cos(lam t) dt for each k in orders, lam >= 0,
    with its error estimate: one shared evaluation of B on [0, max t1] plus
    closed-form tails on the expansion lines of all orders, closed in one
    pass. Returns (value, error) pairs."""
    orders = tuple(orders)
    lines = _stacked_lines(spec, orders)
    t1s, tails, tail_errs = _tail_closures(lines, lam, len(orders))
    body, body_err = _body_integrals(spec, lam, orders, t1s)
    return [
        (float(v), float(e)) for v, e in zip(body + tails, body_err + tail_errs)
    ]


# ---------------------------------------------------------------------------
# spectral density


def _component_density_rho2(alpha: float, kappa: float, lam: float) -> float:
    # f_{alpha,kappa}(lam) = (c1/2) [ K|.|^((alpha-1)/2) at lam+kappa and lam-kappa ]
    nu = (alpha - 1.0) / 2.0
    half = 0.5 * c1(alpha)
    out = 0.0
    for z in (abs(lam + kappa), abs(lam - kappa)):
        if z == 0.0:
            if alpha <= 1.0:
                raise SingularityError(
                    f"spectral density singular at |lambda| = {kappa} (alpha = {alpha})"
                )
            # K_nu(z) z^nu -> 2^(nu-1) Gamma(nu) as z -> 0 for nu > 0
            out += half * 2.0 ** (nu - 1.0) * math.gamma(nu)
        else:
            out += half * bessel_k(nu, z) * z**nu
    return out


def spectral_density(spec: NoiseSpec, lam: float) -> float:
    """Spectral density f(lambda) of the mixture; even, integrates to 1.

    Components with rho = 2 use the Bessel-K closed form; other shapes
    are order 1 of the cosine-transform engine on the component with unit
    weight.

    Raises
    ------
    SingularityError : lambda coincides with a singular carrier
        (decay exponent <= 1) of some component.
    QuadratureError : the error estimate of a rho != 2 component exceeds
        1e-6, as it does very near a singular carrier.
    """
    lam = float(lam)
    out = 0.0
    for comp in spec.components:
        if comp.weight == 0.0:
            continue
        if comp.rho == 2.0:
            out += comp.weight * _component_density_rho2(comp.alpha, comp.kappa, lam)
        else:
            if (
                comp.decay_exponent <= SINGULAR_SEVERITY
                and abs(abs(lam) - comp.kappa) < 1e-12
            ):
                raise SingularityError(
                    f"spectral density singular at |lambda| = {comp.kappa}"
                )
            unit = NoiseSpec((replace(comp, weight=1.0),))
            ((val, err),) = _power_transforms(unit, abs(lam), (1,))
            if err > _DENSITY_TOL:
                raise QuadratureError(
                    f"spectral density at {lam:.8g}: error estimate "
                    f"{err:.2e} exceeds {_DENSITY_TOL:.0e}"
                )
            out += comp.weight * val
    return out


def singular_points(spec: NoiseSpec) -> list[tuple[float, float]]:
    """Frequencies where f is unbounded (or logarithmic), with severities.

    Returns (frequency, severity) pairs sorted by frequency, where
    severity is the component decay exponent: below 1 the density grows
    like |lambda - kappa|^(severity - 1), at exactly 1 logarithmically.
    """
    pts: dict[float, float] = {}
    for comp in spec.components:
        sev = comp.decay_exponent
        if sev <= SINGULAR_SEVERITY and comp.weight > 0.0:
            for freq in {comp.kappa, -comp.kappa}:
                pts[freq] = min(pts.get(freq, math.inf), sev)
    return sorted(pts.items())


def _gated(total: float, err: float, tol: float, what: str) -> float:
    """total, unless its error estimate err exceeds tol (relative above 1,
    the acceptance test of QUADPACK): then QuadratureError."""
    if err > tol * max(1.0, abs(total)):
        raise QuadratureError(f"{what}: error estimate {err:.2e} exceeds {tol:.0e}")
    return total


def _panel(f, a: float, b: float, sev_a=None, sev_b=None) -> float:
    """Integrate f on [a, b] where either endpoint may carry an integrable
    power-law singularity f ~ C |x - end|^(sev - 1), 0 < sev <= 1.

    Each half of [a, b] is integrated on panels that halve in width toward
    its endpoint. A power endpoint (sev < 1) is first removed by the
    substitution x = end +/- u^(1/sev); logarithmic (sev == 1) and regular
    endpoints keep x = end +/- u. The halving stops while the first node
    still lies 1e-12 off the endpoint, relative to max(1, |end|), since a
    density evaluated at its singular carrier raises; in u that depth
    depends on sev.

    Raises
    ------
    QuadratureError : the difference to the rule on every other edge
        exceeds 1e-6 (relative above 1).
    """
    if b <= a:
        return 0.0
    vf = lambda x: np.fromiter(map(f, x), float, x.size)
    total = err = 0.0
    for end, side, sev in ((a, 1.0, sev_a), (b, -1.0, sev_b)):
        e = min(sev or 1.0, 1.0)
        span = (0.5 * (b - a)) ** e
        # smallest first edge: the first node of a panel [0, h] lies at
        # (1 + x_0) h / 2, x_0 the first Gauss-Legendre abscissa
        floor = (1e-12 * max(1.0, abs(end))) ** e / (0.5 + 0.5 * _GL_X[0])
        # odd, so the panels pair up for the rule on every other edge
        depth = max(2 * (math.floor(math.log2(span / floor)) // 2) - 1, 1)
        edges = np.append(0.0, span * 0.5 ** np.arange(depth, -1, -1))

        def g(u):
            return vf(end + side * u ** (1.0 / e)) * u ** (1.0 / e - 1.0) / e

        value, diff = _gauss_legendre(g, edges)
        total += value
        err += diff
    return _gated(total, err, _INTEGRAL_TOL, f"integral over [{a:.6g}, {b:.6g}]")


def _upper_tail(f, lo: float) -> float:
    """Integrate f on [lo, inf) for f decaying faster than 1/x,
    algebraically or exponentially.

    x = lo + u / (1 - u) maps [lo, inf) onto [0, 1) for _panel. Its
    panels that halve toward u = 1 are panels of doubling width in x, with
    edges lo + 2^k - 1, and the last one reaches infinity; those that halve
    toward u = 0 grade [lo, lo + 1] toward lo. An integrand f(x) ~ x^-2
    becomes a constant in u.

    Raises
    ------
    QuadratureError : the error estimate exceeds 1e-6 (relative above 1).
    """
    return _panel(lambda u: f(lo + u / (1.0 - u)) / (1.0 - u) ** 2, 0.0, 1.0)


def spectral_integral(spec: NoiseSpec) -> float:
    """Integral of f over the real line by singularity-aware quadrature.

    Splits the domain at the carriers, grades the Gauss-Legendre panels of
    each piece toward its ends, removes integrable power-law endpoints by
    substitution, and closes with panels of doubling width. Equals
    B(0) = 1 for a valid spec.

    Raises
    ------
    QuadratureError : some piece's error estimate exceeds 1e-6.
    """
    sing = {freq: sev for freq, sev in singular_points(spec) if freq >= 0.0}
    knots = sorted({0.0, *(c.kappa for c in spec.components)})
    hi = knots[-1] + 2.0
    knots.append(hi)
    total = 0.0
    f = lambda x: spectral_density(spec, x)
    for a, b in zip(knots, knots[1:]):
        total += _panel(f, a, b, sing.get(a), sing.get(b))
    total += _upper_tail(f, hi)
    # f is even: double the [0, inf) part
    return 2.0 * total
