"""Sample-path generation: Gaussian base process, subordinated noise, and
observed harmonic signal on a uniform grid."""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, NyquistError, ValidationError
from .hermite import TransformSpec
from .spectral import NoiseSpec, covariance

logger = logging.getLogger("harmreg")

DEFAULT_DT = 0.25
DEFAULT_BAND = (0.1, 3.0)
DEFAULT_MAX_COV_ERROR = 1e-3

_EIG_CLAMP = 1e-8
_MAX_PAD = 16
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform grid of n = T / dt points t_i = i * dt, i = 0..n-1."""

    horizon: float
    dt: float = DEFAULT_DT

    def __post_init__(self):
        if self.horizon <= 0.0 or self.dt <= 0.0:
            raise ValidationError("grid horizon and step must be positive")
        n = round(self.horizon / self.dt)
        if n < 2 or abs(n * self.dt - self.horizon) > 1e-12 * max(1.0, self.horizon):
            raise ValidationError(
                f"horizon {self.horizon} is not an integer multiple of dt {self.dt}"
            )

    @property
    def n(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def nyquist(self) -> float:
        return math.pi / self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


@dataclass(frozen=True)
class HarmonicModel:
    """Sum of N harmonics A_k cos(phi_k t) + B_k sin(phi_k t).

    ``harmonics`` is a tuple of (A_k, B_k, phi_k); frequencies must be
    strictly increasing and strictly inside the band.
    """

    harmonics: tuple[tuple[float, float, float], ...]
    band: tuple[float, float] = DEFAULT_BAND

    def __post_init__(self):
        harm = tuple(
            (float(a), float(b), float(p)) for a, b, p in self.harmonics
        )
        object.__setattr__(self, "harmonics", harm)
        object.__setattr__(self, "band", (float(self.band[0]), float(self.band[1])))
        lo, hi = self.band
        if not 0.0 <= lo < hi:
            raise ValidationError(f"invalid frequency band {self.band}")
        freqs = [p for _, _, p in harm]
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise ValidationError(f"frequencies must be strictly increasing, got {freqs}")
        for a, b, p in harm:
            if a * a + b * b <= 0.0:
                raise ValidationError(f"zero amplitude at frequency {p}")
            if not lo < p < hi:
                raise ValidationError(
                    f"frequency {p} must lie strictly inside the band {self.band}"
                )

    @property
    def n_harmonics(self) -> int:
        return len(self.harmonics)

    def amplitudes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        arr = np.asarray(self.harmonics, dtype=float).reshape(-1, 3)
        return arr[:, 0], arr[:, 1], arr[:, 2]


@dataclass(frozen=True)
class SamplePath:
    """Observed values on a grid, with optional retained components."""

    grid: SamplingGrid
    values: np.ndarray
    signal: np.ndarray | None = None
    noise: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.values, self.signal, self.noise):
            if arr is not None and len(arr) != self.grid.n:
                raise ValidationError("component length does not match grid")

    def to_csv(self, path) -> None:
        cols = [self.grid.times(), self.values]
        header = "t,x"
        if self.signal is not None and self.noise is not None:
            cols += [self.signal, self.noise]
            header = "t,x,signal,noise"
        np.savetxt(path, np.column_stack(cols), delimiter=",",
                   header=header, comments="", fmt="%.17g")

    @classmethod
    def from_csv(cls, path) -> "SamplePath":
        with open(path) as fh:
            header = fh.readline().strip()
        names = header.split(",")
        if names[:2] != ["t", "x"]:
            raise ValidationError(f"path CSV must start with header 't,x', got {header!r}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t = data[:, 0]
        if len(t) < 2:
            raise ValidationError("path CSV needs at least two rows")
        dt = t[1] - t[0]
        if not np.allclose(np.diff(t), dt, rtol=0.0, atol=1e-9 * max(dt, 1.0)):
            raise ValidationError("path CSV must be uniformly sampled")
        if abs(t[0]) > 1e-12:
            raise ValidationError("path CSV must start at t = 0")
        grid = SamplingGrid(horizon=dt * len(t), dt=dt)
        signal = noise = None
        if "signal" in names:
            signal = data[:, names.index("signal")]
        if "noise" in names:
            noise = data[:, names.index("noise")]
        return cls(grid=grid, values=data[:, 1], signal=signal, noise=noise)


def _embedding_eigenvalues(spec: NoiseSpec, dt: float, m: int) -> np.ndarray:
    lags = np.arange(m + 1) * dt
    row = covariance(spec, lags)
    circ = np.concatenate([row, row[-2:0:-1]])
    return np.fft.fft(circ).real


@functools.lru_cache(maxsize=8)
def _clamped_embedding(
    spec: NoiseSpec, dt: float, n: int, max_cov_error: float
) -> tuple[np.ndarray, float]:
    """The read-only scaled root sqrt(eigs / size) of the clamped
    embedding, and the bound sum(|negative eigs|) / size on the bias that
    clamping puts on every covariance entry (0.0 for an exact embedding)."""
    base = 1 << (n - 1).bit_length()
    pad = 1
    best = None
    while True:
        eigs = _embedding_eigenvalues(spec, dt, base * pad)
        worst = float(eigs.min())
        if worst >= -_EIG_CLAMP:
            break
        delta = -float(eigs[eigs < 0.0].sum()) / len(eigs)
        if best is None or delta < best[0]:
            best = (delta, eigs, worst)
        if pad >= _MAX_PAD:
            delta, eigs, worst = best
            if delta > max_cov_error:
                raise EmbeddingError(
                    f"circulant embedding indefinite (min eigenvalue {worst:.3e}, "
                    f"covariance error bound {delta:.3e}) after {_MAX_PAD}x padding"
                )
            logger.warning(
                "indefinite embedding after %dx padding; clamping biases "
                "covariances by at most %.3e (min eigenvalue %.3e)",
                _MAX_PAD, delta, worst,
            )
            break
        pad *= 2
    bound = 0.0
    if worst < 0.0:
        if worst >= -_EIG_CLAMP:
            logger.warning(
                "clamping %d slightly negative embedding eigenvalues (min %.3e)",
                int((eigs < 0.0).sum()), worst,
            )
        bound = -float(eigs[eigs < 0.0].sum()) / len(eigs)
        eigs = np.clip(eigs, 0.0, None)
    root = np.sqrt(eigs / len(eigs))
    root.setflags(write=False)
    return root, bound


def gaussian_path(
    spec: NoiseSpec,
    grid: SamplingGrid,
    seed,
    max_cov_error: float = DEFAULT_MAX_COV_ERROR,
) -> np.ndarray:
    """Stationary Gaussian samples with covariance B on the grid.

    Circulant embedding: exact in distribution when the embedding is
    nonnegative definite. The embedding size starts at the next power of
    two above n and doubles up to 16x; eigenvalues in [-1e-8, 0) are
    clamped to zero with a logged warning.

    Slowly decaying covariances with an oscillating carrier can stay
    indefinite at the 1e-3 scale no matter how far the row is padded. In
    that case clamping biases every covariance entry by at most
    sum(|negative eigenvalues|) / size; if that bound is within
    ``max_cov_error`` the path is still generated (with a logged warning
    reporting the bound), otherwise EmbeddingError is raised. Pass
    ``max_cov_error=0.0`` to forbid the approximation. Deterministic per
    seed either way. The scaled root sqrt(eigs / size) of the clamped
    embedding is cached per (spec, grid).

    The path is M * irfft(W, M)[:n] for the embedding size M, the scaled
    root r and a Hermitian half spectrum W built from one vector z of M
    standard normals: W_0 = r_0 z_0, W_{M/2} = r_{M/2} z_1 and
    W_k = r_k (z_{2k} + i z_{2k+1}) / sqrt(2) for 0 < k < M/2 (Wood & Chan
    1994; Dietrich & Newsam 1997). Its covariance at lag j - l is
    sum_k r_k^2 cos(2 pi k (j - l) / M), which is exactly the (clamped)
    embedded covariance. The normals are drawn straight into the
    interleaved real and imaginary parts of W, whose spare entries (the
    imaginary parts of the two real terms) are zeroed; W is scaled by
    sqrt(2) so that r alone scales it, and the sqrt(2) comes off the n
    kept outputs.
    """
    n = grid.n
    root, _ = _clamped_embedding(spec, grid.dt, n, max_cov_error)
    size = root.size
    half = np.empty(size // 2 + 1, dtype=complex)
    z = half.view(float)  # Re W_0, Im W_0, Re W_1, Im W_1, ...
    np.random.default_rng(seed).standard_normal(out=z[:size])
    z[size] = _SQRT2 * z[1]
    z[0] *= _SQRT2
    z[1] = z[size + 1] = 0.0
    half *= root[:half.size]
    return (size / _SQRT2) * np.fft.irfft(half, size)[:n]


def subordinate(xi: np.ndarray, transform: TransformSpec) -> np.ndarray:
    """Apply the (zero-mean) transform pointwise: eps = G(xi)."""
    return np.asarray(transform.g(xi), dtype=float)


def regression_signal(model: HarmonicModel, grid: SamplingGrid) -> np.ndarray:
    """g(t_i, theta) on the grid; the band must clear the Nyquist bound."""
    if model.band[1] >= grid.nyquist:
        raise NyquistError(
            f"band upper edge {model.band[1]} reaches Nyquist {grid.nyquist:.4f}"
        )
    t = grid.times()
    out = np.zeros(grid.n)
    for a, b, phi in model.harmonics:
        out += a * np.cos(phi * t) + b * np.sin(phi * t)
    return out


def observe(
    model: HarmonicModel,
    spec: NoiseSpec,
    transform: TransformSpec,
    grid: SamplingGrid,
    seed,
    keep_components: bool = True,
    allow_a4_violation: bool = False,
    noise_scale: float = 1.0,
) -> SamplePath:
    """Full pipeline x = g + noise_scale * G(xi); checks alpha_min * rank.

    noise_scale=0 produces a noiseless path without drawing the Gaussian
    process at all.
    """
    if noise_scale < 0.0:
        raise ValidationError("noise_scale must be nonnegative")
    if spec.alpha_min * transform.rank <= 1.0:
        msg = (
            f"alpha_min * rank = {spec.alpha_min} * {transform.rank} <= 1: "
            "the limit theory does not apply"
        )
        if not allow_a4_violation:
            raise ValidationError(msg)
        warnings.warn(msg)
    signal = regression_signal(model, grid)
    if noise_scale == 0.0:
        noise = np.zeros(grid.n)
    else:
        xi = gaussian_path(spec, grid, seed)
        noise = noise_scale * subordinate(xi, transform)
    values = signal + noise
    if keep_components:
        return SamplePath(grid=grid, values=values, signal=signal, noise=noise)
    return SamplePath(grid=grid, values=values)
