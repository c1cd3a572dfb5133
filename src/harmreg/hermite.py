"""Hermite machinery for the noise transform G.

Coefficients follow the moment convention C_k = E[G(xi) H_k(xi)] for the
probabilists' polynomials, so G expands as sum_k (C_k / k!) H_k and the
subordinated covariance is sum_k (C_k^2 / k!) B(t)^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateTransformError,
    QuadratureError,
    ValidationError,
    require_count,
)
from .spectral import NoiseSpec, covariance

SQRT_2PI = math.sqrt(2.0 * math.pi)
DEFAULT_K_MAX = 20
MAX_ORDER = 170  # the largest k whose k! a float holds
RANK_TOL = 1e-8

_STABILITY = 1e-9
_CUTOFF = 40.0
_PANEL_WIDTH = 1.0


def hermite(k: int, x):
    """Probabilists' Hermite polynomial H_k(x) by the three-term recurrence
    H_{k+1} = x H_k - k H_{k-1}. Supports k <= 60; array x broadcasts.
    """
    # the chained comparison is false for NaN and refuses infinity before int()
    if isinstance(k, (bool, np.bool_)) or not 0 <= k < math.inf or k != int(k):
        raise ValidationError(f"hermite order must be a nonnegative integer, got {k}")
    if k > 60:
        raise ValidationError(f"hermite order overflow: k = {k} exceeds 60")
    for h in _hermite_rows(np.asarray(x, dtype=float), int(k)):
        pass  # only the last row, H_k, is kept
    return h if h.ndim else float(h)


def require_order(k: int) -> None:
    """Refuse a Hermite order above MAX_ORDER, whose factorial overflows a
    float."""
    if k > MAX_ORDER:
        raise ValidationError(
            f"Hermite order {k} exceeds {MAX_ORDER}: its factorial overflows a float"
        )


def _phi(x):
    return np.exp(-0.5 * x * x) / SQRT_2PI


def _hermite_rows(x, k_max: int):
    # H_0(x), ..., H_k_max(x), one three-term recurrence step per order
    h_prev, h = np.zeros_like(x), np.ones_like(x)
    for k in range(k_max + 1):
        yield h
        if k < k_max:
            h, h_prev = x * h - k * h_prev, h


def _stable(prev: np.ndarray, cur: np.ndarray) -> bool:
    # the natural magnitude of C_k grows like sqrt(k!), which puts an
    # absolute criterion below roundoff at high order
    scale = np.sqrt([float(math.factorial(k)) for k in range(len(cur))])
    return bool(np.max(np.abs(cur - prev) / scale) <= _STABILITY)


def _piecewise_edges(points) -> np.ndarray:
    # phi(x) underflows to exactly 0 beyond |x| ~ 38.6, so nothing
    # representable lies outside [-_CUTOFF, _CUTOFF]
    return np.unique(np.clip([-_CUTOFF, *points, _CUTOFF], -_CUTOFF, _CUTOFF))


def _piecewise_pass(g, edges, k_max: int, nodes: int) -> tuple[np.ndarray, float]:
    """C_0..C_k_max and EG^2 by composite Gauss-Legendre with ``nodes``
    points per panel; every interval between consecutive edges is split
    into equal panels no wider than 1, and G is evaluated once."""
    widths = np.diff(edges)
    counts = np.ceil(widths / _PANEL_WIDTH).astype(int)
    half = np.repeat(0.5 * widths / counts, counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    mid = np.repeat(edges[:-1], counts) + half * (2 * index + 1)
    u, w = np.polynomial.legendre.leggauss(nodes)
    x = (mid[:, None] + half[:, None] * u).ravel()
    gx = g(x)
    fw = (half[:, None] * w).ravel() * _phi(x) * gx
    # x ascends; summing each side of 0 outward from the origin makes the
    # two sums exact negatives for an odd integrand on mirrored nodes, so
    # an even G gets odd coefficients of exactly 0
    split = np.searchsorted(x, 0.0)

    def integral(v):
        return float(v[split:].sum() + v[:split][::-1].sum())

    coeffs = np.array([integral(fw * h) for h in _hermite_rows(x, k_max)])
    return coeffs, integral(fw * gx)


def _piecewise_coefficients(g, edges, k_max: int) -> tuple[np.ndarray, float]:
    rough, _ = _piecewise_pass(g, edges, k_max, 8)
    fine, eg2 = _piecewise_pass(g, edges, k_max, 16)
    if not _stable(rough, fine):
        raise QuadratureError(
            "piecewise Hermite coefficients did not stabilize to 1e-9; "
            "declare breakpoints at kinks"
        )
    return fine, eg2


# the largest |C_0| accepted; a table's interpolant picks up an O(h^2)
# mean, which _table_coefficients absorbs into a shift below the table cap
_CENTER_CAP = 1e-8
_TABLE_CENTER_CAP = 1e-3


def _require_centered(c0: float, cap: float = _CENTER_CAP) -> None:
    """Refuse a transform with |C_0| > cap: G must have mean zero."""
    if abs(c0) > cap:
        raise ValidationError(f"transform has nonzero mean: C_0 = {c0:.3e} (must be centered)")


def _coefficients(g, k_max: int, breakpoints) -> tuple[np.ndarray, float]:
    coeffs, eg2 = _piecewise_coefficients(g, _piecewise_edges(breakpoints), k_max)
    _require_centered(coeffs[0])
    return coeffs, eg2


def hermite_coefficients(g, k_max: int = DEFAULT_K_MAX, breakpoints=()) -> np.ndarray:
    """Coefficients C_k = int G(x) H_k(x) phi(x) dx for k = 0..k_max.

    Composite Gauss-Legendre on panels no wider than 1 between consecutive
    edges of [-40, *breakpoints, 40], evaluating G once per rule; the 8-
    and 16-node rules must agree to 1e-9 on the factorial-free scale
    |Delta C_k| / sqrt(k!). Without ``breakpoints`` the panels are the
    unit intervals between integers, so a kink at an integer (|x| at 0)
    lies on a panel edge; a kink inside a panel (|x - 0.3| at 0.3) must be
    declared in ``breakpoints``, or the two rules disagree. The same
    16-node pass gives ``make_transform`` its EG^2.

    Raises
    ------
    QuadratureError : the 8- and 16-node rules disagree by more than 1e-9.
    ValidationError : |C_0| > 1e-8 (the transform must be centered), or
        k_max is not an integer from 1 to MAX_ORDER (170).
    """
    require_count("k_max", k_max, 1)
    require_order(k_max)
    return _coefficients(g, k_max, breakpoints)[0]


def _table_coefficients(xs, gs, k_max: int) -> tuple[np.ndarray, float, float]:
    """Coefficients and EG^2 of the centered table interpolant, and the
    constant shift that centers it. A centered transform tabulated at
    resolution h picks up an O(h^2) interpolation mean, so exact centering
    is enforced by absorbing that residual into a shift rather than
    rejecting the table; a mean beyond the cap signals a genuinely
    uncentered transform."""
    # the interpolant is linear between abscissae and constant outside
    # the table, so panels split at every abscissa
    g = lambda x: np.interp(x, xs, gs)
    coeffs, eg2 = _piecewise_coefficients(g, _piecewise_edges(xs), k_max)
    shift = float(coeffs[0])
    _require_centered(shift, _TABLE_CENTER_CAP)
    # subtracting a constant moves only C_0: int H_k phi = 0 for k >= 1;
    # E[(G - s)^2] = EG^2 - 2 s E[G] + s^2 with E[G] = s
    coeffs[0] = 0.0
    return coeffs, shift, eg2 - shift * shift


def hermite_rank(coeffs) -> int:
    """Smallest k >= 1 with |C_k|/sqrt(k!) above RANK_TOL."""
    coeffs = np.asarray(coeffs, dtype=float)
    for k in range(1, len(coeffs)):
        if abs(coeffs[k]) / math.sqrt(math.factorial(k)) > RANK_TOL:
            return k
    raise DegenerateTransformError("all Hermite coefficients below rank tolerance")


def hermite_weight(c: float, k: int) -> float:
    """C_k^2 / k!, the weight of order k in the covariance of G(xi)."""
    return c * c / math.factorial(k)


def subordinated_covariance(coeffs, spec: NoiseSpec, t):
    """Covariance of G(xi) at lag t: sum_{k=m}^{K_max} (C_k^2 / k!) B(t)^k
    for m the Hermite rank of coeffs."""
    coeffs = np.asarray(coeffs, dtype=float)
    b_arr = np.asarray(covariance(spec, t), dtype=float)
    out = np.zeros_like(b_arr)
    for k in range(hermite_rank(coeffs), len(coeffs)):
        out += hermite_weight(coeffs[k], k) * b_arr**k
    return out if out.ndim else float(out)


_ABS_CENTER = math.sqrt(2.0 / math.pi)


def _g_identity(x):
    return np.asarray(x, dtype=float)


def _g_cube(x):
    return np.asarray(x, dtype=float) ** 3


def _g_centered_abs(x):
    return np.abs(np.asarray(x, dtype=float)) - _ABS_CENTER


# the kinds with G in closed form: G and the kinks to declare as breakpoints
_CLOSED_FORM = {
    "identity": (_g_identity, ()),
    "cube": (_g_cube, ()),
    "centered-absolute-value": (_g_centered_abs, (0.0,)),
}


@dataclass(frozen=True)
class TransformSpec:
    """The noise transform G with its Hermite data.

    ``coeffs`` is the moment-convention list (C_0..C_K_max); ``aux`` holds
    the sample table of a user table as nested tuples so the spec stays
    hashable and picklable. The table is also kept as two read-only arrays
    for ``g``; they are rebuilt from ``aux`` and take no part in equality,
    hashing or pickling.
    """

    kind: str
    coeffs: tuple[float, ...]
    rank: int
    eg2: float = field(compare=False)
    parseval_gap: float = field(compare=False)
    aux: tuple = ()
    _table: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "user-table":
            table = tuple(np.array(col, dtype=float) for col in self.aux)
            for col in table:
                col.flags.writeable = False
            object.__setattr__(self, "_table", table)

    def __reduce__(self):
        fields = (self.kind, self.coeffs, self.rank, self.eg2, self.parseval_gap, self.aux)
        return TransformSpec, fields

    @property
    def k_max(self) -> int:
        return len(self.coeffs) - 1

    def g(self, x):
        """Apply G pointwise."""
        if self.kind in _CLOSED_FORM:
            return _CLOSED_FORM[self.kind][0](x)
        if self.kind == "hermite-polynomial":
            weights = [c / math.factorial(k) for k, c in enumerate(self.coeffs)]
            return np.polynomial.hermite_e.hermeval(np.asarray(x, dtype=float), weights)
        if self.kind == "user-table":
            xs, gs = self._table
            return np.interp(np.asarray(x, dtype=float), xs, gs)
        raise ValidationError(f"unknown transform kind {self.kind!r}")


def _coefficient_mass(coeffs) -> float:
    """sum_{k>=1} C_k^2 / k!."""
    return float(sum(hermite_weight(c, k) for k, c in enumerate(coeffs) if k >= 1))


def _finish_transform(kind: str, coeffs: np.ndarray, eg2: float, aux: tuple = ()) -> TransformSpec:
    rank = hermite_rank(coeffs)
    partial = _coefficient_mass(coeffs)
    gap = eg2 - partial
    if gap < -1e-6:
        raise QuadratureError(
            f"Parseval mismatch: coefficient mass {partial:.9f} exceeds EG^2 {eg2:.9f}"
        )
    if gap > 0.05 * max(eg2, 1e-12):
        raise ValidationError(
            f"truncation at K_max = {len(coeffs) - 1} loses {gap / eg2:.1%} of EG^2; "
            "increase K_max or supply a smoother transform"
        )
    return TransformSpec(
        kind=kind,
        coeffs=tuple(float(c) for c in coeffs),
        rank=rank,
        eg2=eg2,
        parseval_gap=max(gap, 0.0),
        aux=aux,
    )


def make_transform(kind: str, *, coeffs=None, table=None, k_max: int = DEFAULT_K_MAX) -> TransformSpec:
    """Build a TransformSpec for one of the supported kinds.

    kind='hermite-polynomial' takes ``coeffs`` as the list C_0, C_1, ...
    (moment convention) with C_0 = 0, so G = H_2 is (0, 0, 2);
    kind='user-table' takes ``table`` as an (x, G(x)) pair of arrays
    covering the bulk of the standard normal range. Each kind reads only
    its own key: ``coeffs`` given to any other kind than
    'hermite-polynomial', or ``table`` to any other than 'user-table', is
    refused. k_max, the last order kept, is an integer from 1 to MAX_ORDER
    (170), and the last order of ``coeffs`` is at most MAX_ORDER too.
    """
    for key, value, own in (("coeffs", coeffs, "hermite-polynomial"),
                            ("table", table, "user-table")):
        if value is not None and kind != own:
            raise ValidationError(f"extra keys for kind {kind!r}: {key} belongs to kind {own!r}")
    require_count("k_max", k_max, 1)
    require_order(k_max)
    if kind in _CLOSED_FORM:
        g, kinks = _CLOSED_FORM[kind]
        return _finish_transform(kind, *_coefficients(g, k_max, kinks))
    if kind == "hermite-polynomial":
        if coeffs is None:
            raise ValidationError("hermite-polynomial transform requires coeffs")
        require_order(len(coeffs) - 1)
        c = np.zeros(max(k_max + 1, len(coeffs)))
        c[: len(coeffs)] = np.asarray(coeffs, dtype=float)
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            raise ValidationError(
                f"hermite-polynomial coeffs must be finite: C_{bad[0]} = {c[bad[0]]}"
            )
        _require_centered(c[0])
        # G = sum_k (C_k / k!) H_k is a finite Hermite sum, so Parseval
        # gives EG^2 exactly and the gap is 0
        return _finish_transform(kind, c, _coefficient_mass(c))
    if kind == "user-table":
        if table is None:
            raise ValidationError("user-table transform requires table")
        xs = np.asarray(table[0], dtype=float)
        gs = np.asarray(table[1], dtype=float)
        if xs.ndim != 1 or len(xs) < 2 or xs.shape != gs.shape:
            raise ValidationError("table must be two equal-length sequences")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(gs))):
            raise ValidationError("table entries must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValidationError("table abscissae must be strictly increasing")
        c, shift, eg2 = _table_coefficients(xs, gs, k_max)
        # tuples of Python floats keep the spec hashable
        aux = (tuple(xs.tolist()), tuple((gs - shift).tolist()))
        return _finish_transform(kind, c, eg2, aux)
    raise ValidationError(f"unknown transform kind {kind!r}")
