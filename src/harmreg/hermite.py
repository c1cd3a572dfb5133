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
# phi(x) underflows to exactly 0 beyond |x| ~ 38.6, so nothing of a
# table lies outside [-_CUTOFF, _CUTOFF]
_CUTOFF = 40.0


def hermite(k: int, x):
    """Probabilists' Hermite polynomial H_k(x) by the three-term recurrence
    H_{k+1} = x H_k - k H_{k-1}. Supports k <= 60; array x broadcasts.
    """
    # the chained comparison is false for NaN and refuses infinity before int()
    if isinstance(k, (bool, np.bool_)) or not 0 <= k < math.inf or k != int(k):
        raise ValidationError(f"hermite order must be a nonnegative integer, got {k}")
    if k > 60:
        raise ValidationError(f"hermite order overflow: k = {k} exceeds 60")
    x = np.asarray(x, dtype=float)
    h_prev, h = np.zeros_like(x), np.ones_like(x)
    for j in range(int(k)):
        h, h_prev = x * h - j * h_prev, h
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


_erfc = np.vectorize(math.erfc, otypes=[float])


def _scaled_rows(x, k_max: int):
    # phi(x) H_k(x) / sqrt(k!) for k = 0..k_max; by Cramer's bound these stay
    # below 1/2 in size through order 170, where H_k(x) alone overflows, and
    # every row of a point where phi(x) underflows is exactly 0
    h_prev, h = np.zeros_like(x), _phi(x)
    for k in range(k_max + 1):
        yield h
        h, h_prev = (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1), h


def _knot_coefficients(knots, jumps, k_max: int) -> np.ndarray:
    """C_2..C_k_max of a continuous piecewise-linear G whose slope jumps by
    ``jumps`` at ``knots``. Integrating by parts twice with H_k phi =
    -(H_(k-1) phi)' gives C_k = E[G' H_(k-1)] = sum_i jumps_i H_(k-2)(x_i)
    phi(x_i)."""
    out = np.zeros(k_max - 1)
    for k, row in enumerate(_scaled_rows(knots, k_max - 2)):
        out[k] = math.sqrt(math.factorial(k)) * float(jumps @ row)
    return out


# the largest |C_0| accepted; a table's interpolant picks up an O(h^2)
# mean, which _table_coefficients absorbs into a shift below the table cap
_CENTER_CAP = 1e-8
_TABLE_CENTER_CAP = 1e-3


def _require_centered(c0: float, cap: float = _CENTER_CAP) -> None:
    """Refuse a transform with |C_0| > cap: G must have mean zero."""
    if abs(c0) > cap:
        raise ValidationError(f"transform has nonzero mean: C_0 = {c0:.3e} (must be centered)")


def _table_coefficients(xs, gs, k_max: int) -> tuple[np.ndarray, float, float]:
    """Coefficients and EG^2 of the centered table interpolant, and the
    constant shift that centers it. A centered transform tabulated at
    resolution h picks up an O(h^2) interpolation mean, so exact centering
    is enforced by absorbing that residual into a shift rather than
    rejecting the table; a mean beyond the cap signals a genuinely
    uncentered transform.

    The interpolant is linear between abscissae and constant outside the
    table, so E[G] and EG^2 come from the truncated-normal moments of each
    piece and of the two tails, C_1 = E[G'], and the knots are the
    abscissae with outer slopes 0. The interpolant restricted to
    [-_CUTOFF, _CUTOFF] has the same moments and squares no far abscissa."""
    knots = np.unique(np.clip(xs, -_CUTOFF, _CUTOFF))
    xs, gs = knots, np.interp(knots, xs, gs)
    slopes = np.diff(gs) / np.diff(xs)
    below, above = 0.5 * _erfc(-xs / math.sqrt(2.0)), 0.5 * _erfc(xs / math.sqrt(2.0))
    a, b = xs[:-1], xs[1:]
    # int_a^b x^j phi for j = 0, 1, 2; the mass comes from the tail on the
    # side of the piece, so no far piece cancels to roundoff
    m0 = np.where(a >= 0.0, above[:-1] - above[1:], below[1:] - below[:-1])
    pa, pb = _phi(a), _phi(b)
    m1 = pa - pb
    m2 = m0 + a * pa - b * pb
    icpt = gs[:-1] - slopes * a  # G = icpt + slope * x on the piece
    tails = np.array([below[0], above[-1]])
    shift = float(gs[[0, -1]] @ tails + np.sum(icpt * m0 + slopes * m1))
    _require_centered(shift, _TABLE_CENTER_CAP)
    eg2 = float(gs[[0, -1]] ** 2 @ tails
                + np.sum(icpt * icpt * m0 + 2.0 * icpt * slopes * m1 + slopes * slopes * m2))
    # subtracting a constant moves only C_0: int H_k phi = 0 for k >= 1;
    # E[(G - s)^2] = EG^2 - 2 s E[G] + s^2 with E[G] = s
    coeffs = np.zeros(k_max + 1)
    coeffs[1] = slopes @ m0
    coeffs[2:] = _knot_coefficients(xs, np.diff(slopes, prepend=0.0, append=0.0), k_max)
    return coeffs, shift, eg2 - shift * shift


def hermite_rank(coeffs) -> int:
    """Smallest k >= 1 with |C_k|/sqrt(k!) above RANK_TOL; the last order
    is at most MAX_ORDER."""
    coeffs = np.asarray(coeffs, dtype=float)
    require_order(len(coeffs) - 1)
    for k in range(1, len(coeffs)):
        if abs(coeffs[k]) / math.sqrt(math.factorial(k)) > RANK_TOL:
            return k
    raise DegenerateTransformError("all Hermite coefficients below rank tolerance")


def hermite_weight(c: float, k: int) -> float:
    """C_k^2 / k!, the weight of order k in the covariance of G(xi), squared
    from C_k / sqrt(k!) so that no C_k of order up to 170 overflows it."""
    scaled = c / math.sqrt(math.factorial(k))
    return scaled * scaled


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


# the kinds with G in closed form
_CLOSED_FORM = {
    "identity": _g_identity,
    "cube": _g_cube,
    "centered-absolute-value": _g_centered_abs,
}
# the closed-form kinds that are finite Hermite sums: x = H_1, x^3 = H_3 + 3 H_1
_HERMITE_SUMS = {"identity": (0.0, 1.0), "cube": (0.0, 3.0, 0.0, 6.0)}


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
            return _CLOSED_FORM[self.kind](x)
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
    if kind in _HERMITE_SUMS or kind == "hermite-polynomial":
        coeffs = _HERMITE_SUMS.get(kind, coeffs)
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
    if kind == "centered-absolute-value":
        # one knot, at 0, where the slope jumps from -1 to 1; C_0 and C_1 = E[sign]
        # vanish, and EG^2 = E[xi^2] - E|xi|^2
        c = np.zeros(k_max + 1)
        c[2:] = _knot_coefficients(np.zeros(1), np.array([2.0]), k_max)
        return _finish_transform(kind, c, 1.0 - 2.0 / math.pi)
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
