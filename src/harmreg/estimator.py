"""Least-squares estimation of hidden harmonics.

Pipeline: periodogram peak detection under a frequency-separation policy,
each peak moved to the vertex of a three-point parabola, amplitude normal
equations at the detected frequencies, then Newton refinement with a
Levenberg-Marquardt safeguard of the quadratic objective over all 3N
parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import fourier_pair, hessian, jacobian, trig_design
from .errors import (
    InsufficientPeaksError,
    NoiseFloorWarning,
    NyquistError,
    OutOfBandError,
    SingularSystemError,
    ValidationError,
)
from .simulate import DEFAULT_BAND, HarmonicModel, SamplePath

NOISE_FLOOR_FACTOR = 4.0
GRAD_TOL = 1e-10
MAX_ITER = 100
GRAM_COND_LIMIT = 1e8

# Levenberg-Marquardt shift on the equilibrated Hessian (unit diagonal of
# J^T J): its first nonzero value, growth on a failed factorisation or a
# rejected step, shrink after an accepted step, and the cap beyond which
# the step is too small to lower the objective
_MU_MIN = 1e-3
_MU_GROW = 10.0
_MU_SHRINK = 0.1
_MU_MAX = 1e12


@dataclass(frozen=True)
class SeparationPolicy:
    """Minimum spacing rules for admissible frequency vectors.

    min_gap(T) separates consecutive frequencies, min_first(T) bounds the
    smallest one away from zero; both default to c / sqrt(T) so that
    T * gap grows without bound.
    """

    c: float = 1.0

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValidationError("separation constant must be positive")

    def min_gap(self, horizon: float) -> float:
        return self.c / math.sqrt(horizon)

    def min_first(self, horizon: float) -> float:
        return self.c / math.sqrt(horizon)


@dataclass
class EstimationResult:
    model: HarmonicModel
    objective: float
    initial_objective: float
    horizon: float
    iterations: int
    converged: bool
    grid_resolution: float
    normalized_errors: np.ndarray | None = None

    def d_normalizers(self) -> np.ndarray:
        """Per-harmonic (d_A, d_B, d_phi) = (sqrt(T/2), sqrt(T/2),
        sqrt(C^2 T^3 / 6)) rows, matching the limit-law scaling."""
        a, b, _ = self.model.amplitudes()
        t3 = self.horizon ** 3
        d_ab = math.sqrt(self.horizon / 2.0)
        d_phi = np.sqrt((a * a + b * b) * t3 / 6.0)
        out = np.empty((len(a), 3))
        out[:, 0] = d_ab
        out[:, 1] = d_ab
        out[:, 2] = d_phi
        return out


def normalized_errors(
    estimate: HarmonicModel, truth: HarmonicModel, horizon: float
) -> np.ndarray:
    """Rows (sqrt(T)(A^-A), sqrt(T)(B^-B), T^{3/2}(phi^-phi)), one column
    per harmonic; harmonics are matched by ascending frequency."""
    ea, eb, ep = estimate.amplitudes()
    ta, tb, tp = truth.amplitudes()
    if len(ea) != len(ta):
        raise ValidationError("estimate and truth have different harmonic counts")
    rt = math.sqrt(horizon)
    return np.vstack([rt * (ea - ta), rt * (eb - tb), horizon ** 1.5 * (ep - tp)])


def objective(path: SamplePath, model: HarmonicModel) -> float:
    """Q_T(tau) = (dt / T) * sum of squared residuals on the grid."""
    a, b, phi = model.amplitudes()
    return _objective_raw(path.values, path.grid.times(), path.grid.dt,
                          path.grid.horizon, a, b, phi)


def _objective_raw(x, t, dt, horizon, a, b, phi) -> float:
    c, s = trig_design(t, phi)
    r = x - (c @ a + s @ b)
    return float(r @ r) * dt / horizon


def periodogram(path: SamplePath, lam) -> float | np.ndarray:
    """|(dt / T) * sum x(t_i) exp(-i lam t_i)|^2 at arbitrary frequencies
    inside the open interval (0, pi/dt)."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam_arr <= 0.0) or np.any(lam_arr >= math.pi / path.grid.dt):
        raise OutOfBandError(
            f"frequency outside (0, {math.pi / path.grid.dt:.6g})"
        )
    t = path.grid.times()
    scale = (path.grid.dt / path.grid.horizon) ** 2
    out = np.empty(lam_arr.shape)
    for i, l in enumerate(lam_arr):
        c, s = fourier_pair(path.values, t, l)
        out[i] = scale * (c * c + s * s)
    return out if np.ndim(lam) else float(out[0])


def _fft_grid(grid) -> tuple[int, float]:
    """Zero-padded transform length and its frequency spacing.

    The length is the next power of two above 8n, giving grid spacing at
    most pi / (4T): four points per resolution cell.
    """
    nfft = 1 << (8 * grid.n - 1).bit_length()
    return nfft, 2.0 * math.pi / (nfft * grid.dt)


def periodogram_grid(path: SamplePath, band=DEFAULT_BAND):
    """Periodogram on the zero-padded Fourier grid restricted to the band.
    Returns (frequencies, values).

    Frequencies and values are formed only on an index window one cell
    wider than the band on each side, so rounding in i * spacing cannot
    drop a grid point the band holds; the band test inside the window
    then picks exactly the points a test over the whole spectrum would."""
    return _band_periodogram(path.values, path.grid, band)


def _band_periodogram(values: np.ndarray, grid, band):
    """``periodogram_grid`` of every path along the last axis of
    ``values``, which may carry leading batch axes: one real FFT over all
    rows, then (frequencies, values[..., band bins]). Each row is bit for
    bit the periodogram of that row alone. The band window of the spectrum
    is scaled in place and the spectrum is dropped on return, so only the
    band outlives the call."""
    nfft, spacing = _fft_grid(grid)
    spec = np.fft.rfft(values, nfft)
    size = spec.shape[-1]
    lo_cell, hi_cell = band[0] / spacing, band[1] / spacing
    # the comparisons send a NaN or infinite band edge to an end of the
    # spectrum, where the band test below decides as it would on all of it
    lo = math.floor(min(lo_cell, size)) - 1 if lo_cell > 1.0 else 0
    hi = min(math.ceil(max(hi_cell, 0.0)) + 2, size) if hi_cell < size else size
    freqs = np.arange(lo, hi) * spacing
    window = spec[..., lo:hi]
    window *= grid.dt / grid.horizon
    vals = np.abs(window)
    np.square(vals, out=vals)
    keep = (freqs >= band[0]) & (freqs <= band[1])
    return freqs[keep], vals[..., keep]


def detect_frequencies(
    path: SamplePath,
    n_harmonics: int,
    band=DEFAULT_BAND,
    policy: SeparationPolicy | None = None,
) -> np.ndarray:
    """Iterative periodogram peak-picking with separation constraints.

    Each pick is the admissible argmax of the zero-padded periodogram grid,
    moved to the vertex of the parabola through it and its two neighbours
    when it is their largest (Quinn 1994); the vertex stays within half a
    grid cell, and refine does the rest. Grid points within min_gap(T) of
    an accepted pick become inadmissible. A first pick at or below the noise
    floor (4x the median periodogram over the band) raises
    NoiseFloorWarning; a later one raises InsufficientPeaksError.
    """
    if n_harmonics < 1:
        raise ValidationError("n_harmonics must be at least 1")
    if band[0] <= 0.0 or band[1] <= band[0]:
        raise ValidationError("band must satisfy 0 < lo < hi")
    if band[1] >= path.grid.nyquist:
        raise NyquistError(
            f"band upper edge {band[1]} reaches Nyquist {path.grid.nyquist:.4f}"
        )
    policy = policy or SeparationPolicy()
    horizon = path.grid.horizon
    freqs, vals = periodogram_grid(path, band)
    if len(freqs) < 2:
        raise ValidationError(
            f"band ({band[0]}, {band[1]}) holds {len(freqs)} frequencies of the "
            f"periodogram grid, whose spacing is {_fft_grid(path.grid)[1]:.6g}; "
            "need at least two"
        )
    spacing = freqs[1] - freqs[0]
    admissible = freqs >= max(band[0], policy.min_first(horizon))
    if not np.any(admissible):
        raise InsufficientPeaksError("no admissible grid frequencies in band")
    floor = NOISE_FLOOR_FACTOR * float(np.median(vals))
    picks = []
    for k in range(n_harmonics):
        if not np.any(admissible):
            raise InsufficientPeaksError(
                f"only {k} admissible peaks for {n_harmonics} harmonics"
            )
        masked = np.where(admissible, vals, -np.inf)
        idx = int(np.argmax(masked))
        if masked[idx] <= floor:
            if k == 0:
                warnings.warn(
                    "strongest peak does not clear the noise floor",
                    NoiseFloorWarning,
                )
            else:
                raise InsufficientPeaksError(
                    f"only {k} peaks exceed the noise floor "
                    f"({n_harmonics} requested)"
                )
        pick = freqs[idx]
        if 0 < idx < len(vals) - 1:
            left, mid, right = vals[idx - 1:idx + 2]
            curv = left - 2.0 * mid + right
            if curv < 0.0 and mid >= max(left, right):
                pick += 0.5 * (left - right) / curv * spacing
        picks.append(pick)
        admissible &= np.abs(freqs - pick) >= policy.min_gap(horizon)
    return np.sort(np.asarray(picks))


def amplitudes_given_frequencies(path: SamplePath, phis) -> tuple[np.ndarray, np.ndarray]:
    """Solve the 2N x 2N normal equations for (A_k, B_k) at fixed
    frequencies; entries are (dt/T)-weighted products of the trigonometric
    regressors. Falls back to the decoupled approximation A_j = 2c_j^(1),
    B_j = 2c_j^(2) when the Gram matrix condition number exceeds 1e8."""
    phis = np.asarray(phis, dtype=float)
    nh = len(phis)
    if nh == 0:
        raise ValidationError("need at least one frequency")
    if np.min(np.diff(np.sort(phis)), initial=np.inf) < 1e-12:
        raise SingularSystemError("duplicate frequencies in amplitude solve")
    t = path.grid.times()
    w = path.grid.dt / path.grid.horizon
    c, s = trig_design(t, phis)
    design = np.hstack([c, s])
    gram = w * (design.T @ design)
    rhs = w * (design.T @ path.values)
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
        return 2.0 * rhs[:nh], 2.0 * rhs[nh:]
    try:
        sol = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"amplitude normal equations singular: {exc}")
    return sol[:nh], sol[nh:]


def _project_frequencies(phi, band, policy, horizon) -> np.ndarray:
    gap = policy.min_gap(horizon)
    eps = 1e-9 * (band[1] - band[0])
    out = np.sort(phi)
    lo = max(band[0] + eps, policy.min_first(horizon))
    for j in range(len(out)):
        out[j] = max(out[j], lo)
        lo = out[j] + gap
    hi = band[1] - eps
    for j in range(len(out) - 1, -1, -1):
        out[j] = min(out[j], hi)
        hi = out[j] - gap
    return out


def _reach(a, b, phi) -> float:
    """sum_k |phi_k| (|A_k| + |B_k|): times t_i, the most that a relative
    change of eps in every argument phi_k t_i moves the signal value at t_i,
    in units of eps."""
    return float(np.abs(phi) @ (np.abs(a) + np.abs(b)))


def _objective_change(t, w, r, m, m1, reach) -> tuple[float, float]:
    """The change Q' - Q of the objective between two points, and a bound
    on its rounding error.

    m and m1 are the signal values at the two points and r = x - m. The
    change is a difference of signal values, Q' - Q = w * sum (m - m1)(r +
    r') with r' = r + (m - m1): near the optimum it sits below one ulp of Q
    itself, where comparing two rounded totals is meaningless, but this
    form stays accurate to the bound, so a step is rejected only when it is
    measurably uphill. The bound covers rounding in m, m1 and their
    difference, and the rounding of the arguments phi_k t_i, which moves
    each signal value by up to eps * t_i * reach, with reach the sum of
    _reach over both points."""
    eps = np.finfo(float).eps
    d = m - m1
    ssum = r + (r + d)
    dq = w * float(d @ ssum)
    err = 4.0 * eps * w * float(
        np.abs(ssum) @ (np.abs(m) + np.abs(m1) + np.abs(d) + reach * t)
    )
    return dq, err


def refine(
    path: SamplePath,
    a0,
    b0,
    phi0,
    band=DEFAULT_BAND,
    policy: SeparationPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int, bool]:
    """Newton's method with a Levenberg-Marquardt safeguard on the
    objective over all 3N parameters.

    Each step solves with the exact Hessian, J^T J plus the residual
    curvature, after equilibrating its columns; a shift mu*I is added and
    grown when the Cholesky factorisation fails or the step is measurably
    uphill, and shrinks after each accepted step. Gradient convergence is
    measured in a scaled parameterization (frequency components divided by
    T so all entries share the amplitude scale); the step computed at the
    first point below GRAD_TOL is still taken unless it is uphill, and the
    iteration stops there. Frequencies are projected to respect the band
    and the separation policy. Every step counts as an iteration. Returns
    (a, b, phi, objective, iterations, converged)."""
    policy = policy or SeparationPolicy()
    x = path.values
    t = path.grid.times()
    horizon = path.grid.horizon
    a = np.asarray(a0, dtype=float).copy()
    b = np.asarray(b0, dtype=float).copy()
    phi = _project_frequencies(np.asarray(phi0, dtype=float), band, policy, horizon)
    nh = len(a)
    scale = np.concatenate([np.ones(2 * nh), np.full(nh, horizon)])
    w = path.grid.dt / horizon

    # one trigonometric design per evaluated point: the signal values m,
    # the residual r, the Jacobian and the Hessian all come from (c, s)
    c, s = trig_design(t, phi)
    m = c @ a + s @ b
    r = x - m
    q = w * float(r @ r)
    mu = 0.0
    it = 0
    while True:
        jac = jacobian(t, c, s, a, b)
        grad = jac.T @ r
        converged = (2.0 * w) * float(np.max(np.abs(grad / scale))) < GRAD_TOL
        if it >= MAX_ITER:
            break
        it += 1
        # column equilibration keeps the solve well-conditioned: the
        # frequency columns grow like T relative to the amplitude ones
        col = np.sqrt(np.einsum("ij,ij->j", jac, jac))
        col[col == 0.0] = 1.0
        hess = hessian(t, c, s, a, b, r, jac) / np.outer(col, col)
        accepted = False
        while True:
            try:
                chol = np.linalg.cholesky(hess + mu * np.eye(3 * nh))
            except np.linalg.LinAlgError:
                chol = None
            if chol is not None:
                step = -np.linalg.solve(chol.T, np.linalg.solve(chol, grad / col)) / col
                ca, cb = a + step[:nh], b + step[nh:2 * nh]
                cphi = _project_frequencies(phi + step[2 * nh:], band, policy, horizon)
                c1, s1 = trig_design(t, cphi)
                m1 = c1 @ ca + s1 @ cb
                dq, err = _objective_change(
                    t, w, r, m, m1, _reach(a, b, phi) + _reach(ca, cb, cphi)
                )
                accepted = dq <= err
                if accepted or converged:
                    break
            if mu > _MU_MAX:
                break
            mu = max(_MU_GROW * mu, _MU_MIN)
        if accepted:
            a, b, phi, q = ca, cb, cphi, q + dq
            c, s, m, r = c1, s1, m1, x - m1
            mu *= _MU_SHRINK
        if converged or not accepted:
            break
    return a, b, phi, max(q, 0.0), it, converged


def estimate_harmonics(
    path: SamplePath,
    n_harmonics: int,
    band=DEFAULT_BAND,
    policy: SeparationPolicy | None = None,
    truth: HarmonicModel | None = None,
) -> EstimationResult:
    """Full pipeline: detect frequencies, solve amplitudes, refine.

    The refined objective never exceeds the detected-stage objective.
    When the true model is supplied the result carries the normalized
    errors (sqrt(T) for amplitudes, T^{3/2} for frequencies).
    """
    policy = policy or SeparationPolicy()
    phis = detect_frequencies(path, n_harmonics, band, policy)
    a0, b0 = amplitudes_given_frequencies(path, phis)
    horizon = path.grid.horizon
    q0 = _objective_raw(path.values, path.grid.times(), path.grid.dt,
                        horizon, a0, b0, phis)
    a, b, phi, q, it, conv = refine(path, a0, b0, phis, band, policy)
    model = HarmonicModel(tuple(zip(a, b, phi)), band=tuple(band))
    res = EstimationResult(
        model=model,
        objective=q,
        initial_objective=q0,
        horizon=horizon,
        iterations=it,
        converged=conv,
        grid_resolution=_fft_grid(path.grid)[1],
    )
    if truth is not None:
        res.normalized_errors = normalized_errors(model, truth, horizon)
    return res
