"""Sample-path generation: Gaussian base process, subordinated noise, and
observed harmonic signal on a uniform grid."""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import signal, trig_design
from .errors import EmbeddingError, NyquistError, ValidationError
from .hermite import TransformSpec
from .spectral import NoiseSpec, _workspace, covariance

logger = logging.getLogger("harmreg")

DEFAULT_DT = 0.25
DEFAULT_BAND = (0.1, 3.0)
# the largest bias on every covariance entry that clamping an indefinite
# circulant embedding may put there
MAX_COV_ERROR = 1e-3

_EIG_CLAMP = 1e-8
_PADS = (1, 2, 4, 8, 16)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform grid of n = T / dt points t_i = i * dt, i = 0..n-1."""

    horizon: float
    dt: float = DEFAULT_DT

    def __post_init__(self):
        if not (0.0 < self.horizon < math.inf and 0.0 < self.dt < math.inf):
            raise ValidationError("grid horizon and step must be positive and finite")
        if not math.isfinite(self.horizon / self.dt):
            raise ValidationError(
                f"grid horizon / dt must be finite, got {self.horizon:g} / {self.dt:g}"
            )
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


def require_band(band, *grids) -> None:
    """Refuse a frequency band unless 0 < lo < hi and hi lies below the
    Nyquist frequency of every grid given (NyquistError)."""
    lo, hi = band
    if not 0.0 < lo < hi:
        raise ValidationError(f"band must satisfy 0 < lo < hi, got ({lo}, {hi})")
    for grid in grids:
        if hi >= grid.nyquist:
            raise NyquistError(
                f"band upper edge {hi} reaches Nyquist {grid.nyquist:.4f} "
                f"of grid T={grid.horizon:g}, dt={grid.dt:g}"
            )


def grid_labels(grids) -> tuple[str, ...]:
    """The ``T{horizon:g}`` label of each grid of a sequence, which names
    its output files; ValidationError when two grids share one."""
    labels = tuple(f"T{grid.horizon:g}" for grid in grids)
    for i, label in enumerate(labels):
        first = labels.index(label)
        if first < i:
            raise ValidationError(f"grids {grids[first]} and {grids[i]} share the output label {label}")
    return labels


def replication_seed(master_seed: int, g: int, r: int) -> np.random.SeedSequence:
    """The stream of replication r on grid g, SeedSequence(master_seed,
    spawn_key=(g, r)): it depends on no other replication, so no schedule
    of the replications changes a draw."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(g, r))


def require_noise_scale(scale) -> None:
    """Refuse a noise scale that is negative, NaN or infinite."""
    if not 0.0 <= scale < math.inf:
        raise ValidationError(f"noise_scale must be nonnegative and finite, got {scale}")


def require_a4(spec: NoiseSpec, transform: TransformSpec, allow: bool = False) -> None:
    """Refuse noise and a transform with decay_exponent * rank <= 1, where
    |B|^rank is not integrable, the subordinated noise has long memory and
    the limit theory does not apply (assumption A4); with ``allow``, warn
    instead."""
    if spec.decay_exponent * transform.rank <= 1.0:
        override = "allow_a4_violation is set" if allow else "set allow_a4_violation to override"
        msg = (f"decay_exponent * rank = {spec.decay_exponent} * {transform.rank} <= 1: the "
               f"limit theory does not apply ({override})")
        if not allow:
            raise ValidationError(msg)
        warnings.warn(msg)


def amplitude_squared(a: float, b: float) -> float:
    """C^2 = a^2 + b^2 of the harmonic a cos + b sin; ValidationError when
    it is zero."""
    c2 = a * a + b * b
    if c2 <= 0.0:
        raise ValidationError("harmonic amplitude is zero")
    return c2


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
        require_band(self.band)
        lo, hi = self.band
        freqs = [p for _, _, p in harm]
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise ValidationError(f"frequencies must be strictly increasing, got {freqs}")
        for a, b, p in harm:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValidationError(f"non-finite amplitude at frequency {p}")
            amplitude_squared(a, b)
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


def _embedding_eigenvalues(
    spec: NoiseSpec, dt: float, m: int, taper_from: int | None = None
) -> np.ndarray:
    """Eigenvalues of the size-2m circulant whose first row is B(j dt),
    j = 0..m, mirrored. With ``taper_from = n`` the row is multiplied
    beyond lag n - 1 by the cosine bell
    w_j = (1 + cos(pi (j - n + 1) / (m - n + 1))) / 2, which is 1 at lag
    n - 1 and falls to 0 with zero slope at the mirror point m; the lags
    0..n-1 that a path of n points uses keep B."""
    row = covariance(spec, np.arange(m + 1) * dt)
    if taper_from is not None:
        free = np.arange(1, m - taper_from + 2)
        row[taper_from:] *= 0.5 * (1.0 + np.cos(np.pi * free / (m - taper_from + 1)))
    circ = np.concatenate([row, row[-2:0:-1]])
    return np.fft.fft(circ).real


def _scaled_root(eigs: np.ndarray) -> tuple[np.ndarray, float]:
    """The read-only sqrt(eigs / size) with negative eigenvalues clamped
    to zero, and the clamp bound sum(|negative eigs|) / size."""
    worst = float(eigs.min())
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


@functools.lru_cache(maxsize=8)
def _clamped_embedding(spec: NoiseSpec, dt: float, n: int) -> tuple[np.ndarray, float]:
    """The read-only scaled root sqrt(eigs / size) of the clamped
    embedding, and the bound sum(|negative eigs|) / size on the bias that
    clamping puts on every covariance entry (0.0 for an exact embedding).

    The half size m doubles from the next power of two at or above n up
    to 16x; at each size the natural row is tried first, then the row
    tapered beyond lag n - 1, and the first candidate whose eigenvalues
    reach no lower than -1e-8 is taken. Failing that, the candidate with
    the smallest clamp bound over every one tried is clamped, within
    MAX_COV_ERROR."""
    base = 1 << (n - 1).bit_length()
    best = None
    for pad in _PADS:
        for taper_from in (None, n):
            eigs = _embedding_eigenvalues(spec, dt, base * pad, taper_from)
            worst = float(eigs.min())
            if worst >= -_EIG_CLAMP:
                return _scaled_root(eigs)
            delta = -float(eigs[eigs < 0.0].sum()) / len(eigs)
            if best is None or delta < best[0]:
                best = (delta, eigs, worst)
    delta, eigs, worst = best
    if delta > MAX_COV_ERROR:
        raise EmbeddingError(
            f"circulant embedding indefinite (min eigenvalue {worst:.3e}, "
            f"covariance error bound {delta:.3e}) after {_PADS[-1]}x padding"
        )
    logger.warning(
        "indefinite embedding after %dx padding; clamping biases "
        "covariances by at most %.3e (min eigenvalue %.3e)",
        _PADS[-1], delta, worst,
    )
    return _scaled_root(eigs)


def gaussian_path(spec: NoiseSpec, grid: SamplingGrid, seed) -> np.ndarray:
    """Stationary Gaussian samples with covariance B on the grid.

    Circulant embedding: exact in distribution when the embedding is
    nonnegative definite. The embedding only has to equal B on the lags
    0..n-1 (Wood & Chan 1994; Dietrich & Newsam 1997). Its size starts at
    twice the next power of two at or above n and doubles up to 16x; at
    each size the natural row B(j dt) is tried first, then the same row
    tapered to zero by a cosine bell beyond lag n - 1, and the first
    candidate without eigenvalues below -1e-8 is taken; eigenvalues in
    [-1e-8, 0) are clamped to zero with a logged warning. An oscillating
    carrier (the ``seasonal`` and ``mixed`` presets) embeds exactly this
    way, at a size of at most 4 * 2^ceil(log2 n).

    A carrier that decays very slowly (alpha below about 0.1) can stay
    indefinite at any size, tapered or not. Then the candidate with the
    smallest bound sum(|negative eigenvalues|) / size on the bias that
    clamping puts on every covariance entry is clamped; if that bound is
    within MAX_COV_ERROR (1e-3) the path is still generated (with a logged
    warning reporting the bound), otherwise EmbeddingError is raised.
    Deterministic per seed either way. The scaled root sqrt(eigs / size)
    of the chosen embedding is cached per (spec, grid). ``_fill_paths``
    describes the draw.
    """
    root, _ = _clamped_embedding(spec, grid.dt, grid.n)
    return _fill_paths(root, (seed,), np.empty((1, grid.n)))[0]


def _fill_paths(root, seeds, out):
    """One stationary Gaussian path per seed on the scaled root r of an
    embedding of size M, written into the (rows, n) array out, which is
    returned; row r is bit for bit ``gaussian_path`` at ``seeds[r]``. The
    (rows, M/2 + 1) complex half spectrum and the (rows, M) output of its
    inverse FFT live in this thread's "fft" workspace, which
    ``_band_periodogram`` takes next for its phase transforms.

    Each path is M * irfft(W, M)[:n] for a Hermitian half spectrum W built
    from one vector z of M standard normals: W_0 = r_0 z_0,
    W_{M/2} = r_{M/2} z_1 and W_k = r_k (z_{2k} + i z_{2k+1}) / sqrt(2) for
    0 < k < M/2 (Wood & Chan 1994; Dietrich & Newsam 1997). Its covariance
    at lag j - l is sum_k r_k^2 cos(2 pi k (j - l) / M), which is exactly
    the (clamped) embedded covariance. Row r draws its normals from
    default_rng(seeds[r]) straight into the interleaved real and imaginary
    parts of its own row of the half spectrum, whose spare entries (the
    imaginary parts of the two real terms) are zeroed; W is scaled by
    sqrt(2) so that r alone scales it, and the sqrt(2) comes off the n kept
    outputs. All rows share one inverse real FFT along the last axis, whose
    rows are the bits of the one-row transform."""
    size, rows = root.size, len(seeds)
    scratch = _workspace("fft", rows * (2 * size + 2))
    z = scratch[:rows * (size + 2)].reshape(rows, -1)
    half = z.view(complex)  # z per row: Re W_0, Im W_0, Re W_1, Im W_1, ...
    inverse = scratch[rows * (size + 2):].reshape(rows, size)
    for row, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=row[:size])
    z[:, size] = _SQRT2 * z[:, 1]
    z[:, 0] *= _SQRT2
    z[:, 1] = z[:, size + 1] = 0.0
    half *= root[:half.shape[1]]
    np.fft.irfft(half, size, out=inverse)
    return np.multiply(inverse[:, :out.shape[1]], size / _SQRT2, out=out)


def subordinate(xi: np.ndarray, transform: TransformSpec) -> np.ndarray:
    """Apply the (zero-mean) transform pointwise: eps = G(xi)."""
    return np.asarray(transform.g(xi), dtype=float)


def _scaled_noise(spec: NoiseSpec, transform: TransformSpec, grid: SamplingGrid,
                  seed, scale: float) -> np.ndarray:
    """scale * G(xi) on the grid; zeros, with no draw of xi, at scale 0."""
    if scale == 0.0:
        return np.zeros(grid.n)
    return scale * subordinate(gaussian_path(spec, grid, seed), transform)


def regression_signal(model: HarmonicModel, grid: SamplingGrid) -> np.ndarray:
    """g(t_i, theta) on the grid, by the kernel the estimator fits with;
    the band must clear the Nyquist bound."""
    require_band(model.band, grid)
    a, b, phi = model.amplitudes()
    return signal(*trig_design(grid.times(), phi), a, b)


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
    """Full pipeline x = g + noise_scale * G(xi); checks A4 (require_a4).

    noise_scale=0 produces a noiseless path without drawing the Gaussian
    process at all.
    """
    require_noise_scale(noise_scale)
    require_a4(spec, transform, allow_a4_violation)
    signal = regression_signal(model, grid)
    noise = _scaled_noise(spec, transform, grid, seed, noise_scale)
    values = signal + noise
    if keep_components:
        return SamplePath(grid=grid, values=values, signal=signal, noise=noise)
    return SamplePath(grid=grid, values=values)
