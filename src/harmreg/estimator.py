"""Least-squares estimation of hidden harmonics.

Pipeline: periodogram peak detection under a frequency-separation rule,
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

from ._kernels import hessian, jacobian, signal, trig_design
from .errors import (
    InsufficientPeaksError,
    NoiseFloorWarning,
    SingularSystemError,
    ValidationError,
    require_count,
)
from .simulate import DEFAULT_BAND, HarmonicModel, SamplePath, require_band
from .spectral import _workspace

NOISE_FLOOR_FACTOR = 4.0
GRAD_TOL = 1e-10
MAX_ITER = 100
GRAM_COND_LIMIT = 1e8

# zero padding of the periodogram grid: transform length over path length
_DETECT_PAD = 4  # detect_frequencies; refine does the rest
_GRID_PAD = 8  # periodogram_grid, and through it eta^2 and Lemma 2

# Levenberg-Marquardt shift on the equilibrated Hessian (unit diagonal of
# J^T J): its first nonzero value, growth on a failed factorisation or a
# rejected step, shrink after an accepted step, and the cap beyond which
# the step is too small to lower the objective
_MU_MIN = 1e-3
_MU_GROW = 10.0
_MU_SHRINK = 0.1
_MU_MAX = 1e12


def min_gap(horizon: float) -> float:
    """1 / sqrt(T): the least spacing of admissible frequencies, and the
    least first frequency, so that T * min_gap(T) grows without bound."""
    return 1.0 / math.sqrt(horizon)


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
    return _objective_raw(path, trig_design(path.grid.times(), phi), a, b)


def _objective_raw(path: SamplePath, design, a, b) -> float:
    r = path.values - signal(*design, a, b)
    return float(np.einsum("i,i->", r, r)) * path.grid.dt / path.grid.horizon


def _fft_grid(grid, pad: int = _GRID_PAD) -> tuple[int, float]:
    """Zero-padded transform length and its frequency spacing.

    The length is the next power of two at or above pad * n, giving grid
    spacing at most 2 pi / (pad T): pad points per Fourier spacing
    2 pi / T. That is at most pi / (4T) for periodogram_grid (pad 8) and
    pi / (2T) for detection (pad 4).
    """
    nfft = 1 << (pad * grid.n - 1).bit_length()
    return nfft, 2.0 * math.pi / (nfft * grid.dt)


def periodogram_grid(path: SamplePath, band=DEFAULT_BAND):
    """Periodogram on the zero-padded Fourier grid restricted to the band.
    Returns (frequencies, values).

    Frequencies and values are formed only on an index window one cell
    wider than the band on each side, so rounding in i * spacing cannot
    drop a grid point the band holds; the band test inside the window
    then picks exactly the points a test over the whole spectrum would.
    The values come from the polyphase split of ``_band_periodogram``:
    with d = 1 they are the whole real FFT's bits, with d > 1 they agree
    with it to rounding of order eps * log2(nfft) of the window maximum."""
    return _band_periodogram(path.values, path.grid, band)


def _band_periodogram(values: np.ndarray, grid, band, pad: int = _GRID_PAD):
    """``periodogram_grid`` of every path along the last axis of
    ``values``, which may carry leading batch axes: (frequencies,
    values[..., band bins]). Each row is bit for bit the periodogram of
    that row alone.

    The zero-padded spectrum X_j = sum_t x_t w^(jt), w = e^(-2 pi i /
    nfft), is formed on the band window only, by a polyphase split: with
    the phases x[r::d], r < d, one batched real FFT of length nfft / d
    gives Y_r, and X_j = sum_r w^(jr) Y_r[j] for every bin j <= nfft /
    (2d), which the d of ``_band_window`` keeps the window within. The
    sum runs by Horner's rule in place in the last phase's row, which is
    then scaled, so only the band outlives the call. d = 1 is the whole
    transform of the path.

    pad sets the transform length (see _fft_grid). The phase transforms go
    into this thread's "fft" workspace, which ``_fill_paths`` fills with
    its half spectra before, so the loop maps no pages for them."""
    nfft, d, lo, freqs, keep = _band_window(grid, band, pad)
    lead = values.shape[:-1]
    # phase r of a row is values[..., r::d]; the phases are copied into
    # rows of their own, since the real FFT of strided rows costs more
    # than the copy (at d = 1 the path is that row, and nothing is copied)
    phases = np.ascontiguousarray(values.reshape(lead + (-1, d)).swapaxes(-1, -2))
    shape = lead + (d, nfft // (2 * d) + 1)
    scratch = _workspace("fft", 2 * math.prod(shape))
    spec = np.fft.rfft(phases, nfft // d, out=scratch.view(complex).reshape(shape))
    hi = lo + freqs.size
    window = spec[..., d - 1, lo:hi]
    if d > 1:
        twiddle = _twiddles(lo, freqs.size, nfft)
        for r in range(d - 2, -1, -1):
            window *= twiddle
            window += spec[..., r, lo:hi]
    window *= grid.dt / grid.horizon
    vals = np.abs(window)
    np.square(vals, out=vals)
    return freqs[keep], vals[..., keep]


def _twiddles(lo: int, size: int, nfft: int) -> np.ndarray:
    """e^(-2 pi i j / nfft) for j = lo, ..., lo + size - 1, as the rank-2
    product e^(-2 pi i (lo + a s) / nfft) e^(-2 pi i b / nfft) of two
    factors of about sqrt(size) entries each, so exp is taken on those
    and not per bin."""
    step = max(math.isqrt(size), 1)
    scale = -2j * math.pi / nfft
    coarse = np.exp(np.arange(lo, lo + size, step) * scale)
    fine = np.exp(np.arange(step) * scale)
    return np.multiply.outer(coarse, fine).reshape(-1)[:size]


def _band_window(grid, band, pad: int = _GRID_PAD):
    """The band's index window on the pad grid, without a transform:
    (nfft, d, lo, freqs, keep) for the transform length, the polyphase
    count, the window's first bin, its frequencies and the mask of those
    inside the band.

    d is the largest power of two that divides n, is at most log2(nfft)
    and keeps the window's last bin at or below nfft / (2d), the last bin
    of a phase transform; a band up to Nyquist, or an odd n, gives d = 1.
    Horner's rule rounds once per phase, so the cap keeps the split's
    rounding of the order of the transform's own, eps * log2(nfft)."""
    nfft, spacing = _fft_grid(grid, pad)
    size = nfft // 2 + 1
    lo_cell, hi_cell = band[0] / spacing, band[1] / spacing
    # the comparisons send a NaN or infinite band edge to an end of the
    # spectrum, where the band test below decides as it would on all of it
    lo = math.floor(min(lo_cell, size)) - 1 if lo_cell > 1.0 else 0
    hi = min(math.ceil(max(hi_cell, 0.0)) + 2, size) if hi_cell < size else size
    d = grid.n & -grid.n
    while d > 1 and (d > nfft.bit_length() - 1 or hi - 1 > nfft // (2 * d)):
        d //= 2
    freqs = np.arange(lo, hi) * spacing
    keep = (freqs >= band[0]) & (freqs <= band[1])
    return nfft, d, lo, freqs, keep


def detect_frequencies(
    path: SamplePath,
    n_harmonics: int,
    band=DEFAULT_BAND,
) -> np.ndarray:
    """Iterative periodogram peak-picking with separation constraints.

    Each pick is the admissible argmax of the periodogram on the detection
    grid, zero-padded to 4n and so twice as coarse as periodogram_grid,
    moved to the vertex of the parabola through it and its two neighbours
    when it is their largest (Quinn 1994); the vertex stays within half a
    grid cell, and refine does the rest. Grid points within min_gap(T) of
    an accepted pick become inadmissible. A first pick at or below the noise
    floor (4x the median periodogram over the band) raises
    NoiseFloorWarning; a later one raises InsufficientPeaksError.
    """
    require_count("n_harmonics", n_harmonics, 1)
    require_band(band, path.grid)
    gap = min_gap(path.grid.horizon)
    cell = _fft_grid(path.grid, _DETECT_PAD)[1]
    freqs, vals = _band_periodogram(path.values, path.grid, band, _DETECT_PAD)
    if len(freqs) < 2:
        raise ValidationError(
            f"band ({band[0]}, {band[1]}) holds {len(freqs)} frequencies of the "
            f"detection grid, whose spacing is {cell:.6g}; need at least two"
        )
    spacing = freqs[1] - freqs[0]
    admissible = freqs >= max(band[0], gap)
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
        admissible &= np.abs(freqs - pick) >= gap
    return np.sort(np.asarray(picks))


def amplitudes_given_frequencies(
    path: SamplePath, phis, design=None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the 2N x 2N normal equations for (A_k, B_k) at fixed
    frequencies; entries are (dt/T)-weighted products of the trigonometric
    regressors. Falls back to the decoupled approximation A_j = 2c_j^(1),
    B_j = 2c_j^(2) when the Gram matrix condition number exceeds 1e8.
    design, when given, is the trigonometric design (cos, sin) at phis,
    each of shape (N, n)."""
    phis = np.asarray(phis, dtype=float)
    nh = len(phis)
    if nh == 0:
        raise ValidationError("need at least one frequency")
    if np.min(np.diff(np.sort(phis)), initial=np.inf) < 1e-12:
        raise SingularSystemError("duplicate frequencies in amplitude solve")
    w = path.grid.dt / path.grid.horizon
    c, s = trig_design(path.grid.times(), phis) if design is None else design
    regressors = np.vstack([c, s])
    gram = w * np.einsum("ji,ki->jk", regressors, regressors)
    rhs = w * np.einsum("ji,i->j", regressors, path.values)
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
        return 2.0 * rhs[:nh], 2.0 * rhs[nh:]
    try:
        sol = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"amplitude normal equations singular: {exc}")
    return sol[:nh], sol[nh:]


def _project_frequencies(phi, band, horizon) -> np.ndarray:
    gap = min_gap(horizon)
    eps = 1e-9 * (band[1] - band[0])
    out = np.sort(phi)
    lo = max(band[0] + eps, gap)
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
    dq = w * float(np.einsum("i,i->", d, ssum))
    size = np.abs(m) + np.abs(m1) + np.abs(d) + reach * t
    err = 4.0 * eps * w * float(np.einsum("i,i->", np.abs(ssum), size))
    return dq, err


def refine(
    path: SamplePath,
    a0,
    b0,
    phi0,
    band=DEFAULT_BAND,
    design=None,
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
    and min_gap. Every step counts as an iteration. design,
    when given, is the trigonometric design (cos, sin) at phi0, each of
    shape (N, n), used if the projection leaves phi0 unchanged. Returns (a,
    b, phi, objective, iterations, converged)."""
    x = path.values
    t = path.grid.times()
    horizon = path.grid.horizon
    a = np.asarray(a0, dtype=float).copy()
    b = np.asarray(b0, dtype=float).copy()
    phi0 = np.asarray(phi0, dtype=float)
    phi = _project_frequencies(phi0, band, horizon)
    nh = len(a)
    scale = np.concatenate([np.ones(2 * nh), np.full(nh, horizon)])
    w = path.grid.dt / horizon

    # one trigonometric design per evaluated point: the signal values m,
    # the residual r, the Jacobian and the Hessian all come from (c, s)
    if design is None or not np.array_equal(phi, phi0):
        design = trig_design(t, phi)
    c, s = design
    m = signal(c, s, a, b)
    r = x - m
    q = w * float(np.einsum("i,i->", r, r))
    mu = 0.0
    it = 0
    while True:
        jac = jacobian(t, c, s, a, b)
        grad = np.einsum("ji,i->j", jac, r)
        converged = (2.0 * w) * float(np.max(np.abs(grad / scale))) < GRAD_TOL
        if it >= MAX_ITER:
            break
        it += 1
        # column equilibration keeps the solve well-conditioned: the
        # frequency columns grow like T relative to the amplitude ones
        col = np.sqrt(np.einsum("ji,ji->j", jac, jac))
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
                cphi = _project_frequencies(phi + step[2 * nh:], band, horizon)
                c1, s1 = trig_design(t, cphi)
                m1 = signal(c1, s1, ca, cb)
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
    truth: HarmonicModel | None = None,
) -> EstimationResult:
    """Full pipeline: detect frequencies, solve amplitudes, refine.

    The refined objective never exceeds the detected-stage objective.
    When the true model is supplied the result carries the normalized
    errors (sqrt(T) for amplitudes, T^{3/2} for frequencies).
    """
    phis = detect_frequencies(path, n_harmonics, band)
    # one design at the detected frequencies serves the amplitude solve,
    # the initial objective and refine's starting point
    design = trig_design(path.grid.times(), phis)
    a0, b0 = amplitudes_given_frequencies(path, phis, design)
    horizon = path.grid.horizon
    q0 = _objective_raw(path, design, a0, b0)
    a, b, phi, q, it, conv = refine(path, a0, b0, phis, band, design)
    model = HarmonicModel(tuple(zip(a, b, phi)), band=tuple(band))
    res = EstimationResult(
        model=model,
        objective=q,
        initial_objective=q0,
        horizon=horizon,
        iterations=it,
        converged=conv,
        grid_resolution=_fft_grid(path.grid, _DETECT_PAD)[1],
    )
    if truth is not None:
        res.normalized_errors = normalized_errors(model, truth, horizon)
    return res
