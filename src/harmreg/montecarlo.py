"""Monte Carlo replication harness.

Runs simulate -> estimate over a grid schedule, aggregates normalized
errors, compares their empirical covariance against the limit blocks, and
emits deterministic reports. Replication r on grid g draws its generator
from SeedSequence(master_seed, spawn_key=(g, r)), so the stream never
depends on how replications are scheduled across workers; aggregation is
a sequential fold in replication order.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import (
    DegenerateVarianceError,
    ExperimentError,
    InsufficientSamplesError,
    ValidationError,
)
from .estimator import (
    _band_periodogram,
    _fft_grid,
    estimate_harmonics,
    periodogram_grid,
)
from .hermite import TransformSpec
from .simulate import (
    DEFAULT_BAND,
    DEFAULT_MAX_COV_ERROR,
    HarmonicModel,
    SamplingGrid,
    _clamped_embedding,
    gaussian_paths,
    observe,
    subordinate,
)
from .spectral import NoiseSpec

FAILURE_CAP = 0.2
COVERAGE_LEVELS = (0.90, 0.95, 0.99)
_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}
_FLOOR = 1e-12  # raw-error floor below which slopes are floor-limited
# budget for the largest array of one lemma2_decay chunk of rows
_SWEEP_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    noise: NoiseSpec
    transform: TransformSpec
    model: HarmonicModel
    grids: tuple[SamplingGrid, ...]
    replications: int
    master_seed: int
    j_max: int = asymptotics.DEFAULT_J_MAX
    noise_scale: float = 1.0
    allow_a4_violation: bool = False

    def __post_init__(self):
        if self.replications < 2:
            raise ValidationError("need at least 2 replications")
        if self.master_seed < 0:
            raise ValidationError(
                f"master_seed must be nonnegative, got {self.master_seed}"
            )
        if not self.grids:
            raise ValidationError("grid schedule is empty")
        for grid in self.grids:
            if self.model.band[1] >= grid.nyquist:
                raise ValidationError(
                    f"band {self.model.band} reaches Nyquist of grid "
                    f"T={grid.horizon}, dt={grid.dt}"
                )
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValidationError("noise_scale must be nonnegative and finite")
        if (
            not self.allow_a4_violation
            and self.noise.alpha_min * self.transform.rank <= 1.0
        ):
            raise ValidationError(
                "alpha_min * rank <= 1: limit theory does not apply "
                "(set allow_a4_violation to override)"
            )


def _replication(config: ExperimentConfig, grid_index: int, r: int):
    """One simulate -> estimate cycle. Returns (r, errors, converged) or
    (r, message, None) on failure."""
    grid = config.grids[grid_index]
    seed = np.random.SeedSequence(
        entropy=config.master_seed, spawn_key=(grid_index, r)
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = observe(
                config.model,
                config.noise,
                config.transform,
                grid,
                seed,
                keep_components=False,
                allow_a4_violation=config.allow_a4_violation,
                noise_scale=config.noise_scale,
            )
            result = estimate_harmonics(
                path,
                len(config.model.harmonics),
                band=config.model.band,
                truth=config.model,
            )
    except (ExperimentError, ValidationError) as exc:
        return r, f"{type(exc).__name__}: {exc}", None
    return r, result.normalized_errors, bool(result.converged)


@dataclass
class GridResult:
    """Converged normalized-error samples for one grid of the schedule."""

    grid: SamplingGrid
    samples: np.ndarray  # (R_ok, 3, N): rows of (errA, errB, errPhi) per harmonic
    n_requested: int
    n_nonconverged: int
    failures: tuple[str, ...]
    # bound on the covariance bias from clamping the circulant embedding
    # the grid's paths were drawn from; 0.0 when exact or noiseless
    embedding_clamp_bound: float
    # size M of that embedding; 0 when noiseless
    embedding_size: int

    @property
    def n_ok(self) -> int:
        return self.samples.shape[0]

    def empirical_mean(self, k: int) -> np.ndarray:
        return self.samples[:, :, k].mean(axis=0)

    def empirical_cov(self, k: int) -> np.ndarray:
        return np.cov(self.samples[:, :, k].T, ddof=1)


@dataclass
class MonteCarloReport:
    config: ExperimentConfig
    results: tuple[GridResult, ...]
    gamma_derived: tuple[np.ndarray, ...]
    gamma_printed: tuple[np.ndarray, ...]
    s_values: tuple[float, ...]
    tail_bounds: tuple[float, ...]
    quad_errors: tuple[float, ...]

    def deviations(self, grid_index: int, k: int, mode: str = "derived") -> np.ndarray:
        """Entry-wise |empirical - theory| / |theory| for harmonic k; a zero
        theory entry yields 0 when matched exactly and inf otherwise. mode
        is one of asymptotics.MODES."""
        if mode not in asymptotics.MODES:
            raise ValidationError(
                f"mode must be one of {asymptotics.MODES}, got {mode!r}"
            )
        emp = self.results[grid_index].empirical_cov(k)
        theory = (
            self.gamma_derived[k] if mode == "derived" else self.gamma_printed[k]
        )
        diff = np.abs(emp - theory)
        denom = np.abs(theory)
        out = np.full_like(diff, np.inf)
        np.divide(diff, denom, out=out, where=denom > 0.0)
        out[(denom == 0.0) & (diff == 0.0)] = 0.0
        return out

    def coverage(self, grid_index: int, k: int, level: float = 0.95) -> np.ndarray:
        """Fraction of replications with |error_i| <= z * sqrt(Gamma_ii)
        (derived mode), per component; level is one of COVERAGE_LEVELS."""
        z = _Z.get(round(level, 2))
        if z is None:
            raise ValidationError(
                f"coverage level {level!r} is not one of COVERAGE_LEVELS "
                f"{COVERAGE_LEVELS}"
            )
        sd = np.sqrt(np.diag(self.gamma_derived[k]))
        samp = self.results[grid_index].samples[:, :, k]
        return (np.abs(samp) <= z * sd).mean(axis=0)

    def consistency_slopes(self) -> dict:
        """Log-log slopes of median raw absolute errors vs T, per class
        ('amplitude' pools A and B). Floor-limited classes report -inf."""
        if len(self.results) < 3:
            raise ValidationError("consistency slopes need at least 3 horizons")
        horizons = np.array([res.grid.horizon for res in self.results])
        med_amp, med_phi = [], []
        for res in self.results:
            t = res.grid.horizon
            raw_ab = np.abs(res.samples[:, :2, :]) / math.sqrt(t)
            raw_phi = np.abs(res.samples[:, 2, :]) / t**1.5
            med_amp.append(float(np.median(raw_ab)))
            med_phi.append(float(np.median(raw_phi)))
        out = {}
        for name, med in (("amplitude", med_amp), ("frequency", med_phi)):
            med = np.asarray(med)
            if np.all(med < _FLOOR):
                out[name] = (-math.inf, True)
            else:
                slope = np.polyfit(np.log(horizons), np.log(np.maximum(med, 1e-300)), 1)[0]
                out[name] = (float(slope), False)
        return out

    def to_text(self) -> str:
        """Deterministic structured-text summary (no timing metadata)."""
        lines = ["[report]"]
        lines.append(f"replications = {self.config.replications}")
        lines.append(f"master_seed = {self.config.master_seed}")
        lines.append(f"j_max = {self.config.j_max}")
        nh = len(self.config.model.harmonics)
        for k in range(nh):
            lines.append("")
            lines.append("[gamma]")
            lines.append(f"harmonic = {k}")
            lines.append(f"s = {self.s_values[k]:.17g}")
            lines.append(f"tail_bound = {self.tail_bounds[k]:.17g}")
            lines.append(f"quad_error = {self.quad_errors[k]:.17g}")
            for label, mat in (
                ("derived", self.gamma_derived[k]),
                ("as-printed", self.gamma_printed[k]),
            ):
                for i in range(3):
                    row = ", ".join(f"{mat[i, j]:.17g}" for j in range(3))
                    lines.append(f"{label}_row = {row}")
        for gi, res in enumerate(self.results):
            lines.append("")
            lines.append("[grid_result]")
            lines.append(f"horizon = {res.grid.horizon:.17g}")
            lines.append(f"dt = {res.grid.dt:.17g}")
            lines.append(f"embedding_clamp_bound = {res.embedding_clamp_bound:.17g}")
            lines.append(f"embedding_size = {res.embedding_size}")
            lines.append(f"converged = {res.n_ok}")
            lines.append(f"nonconverged = {res.n_nonconverged}")
            lines.append(f"failed = {len(res.failures)}")
            for note in res.failures:
                lines.append(f"failure = {note}")
            for k in range(nh):
                mean = res.empirical_mean(k)
                cov = res.empirical_cov(k)
                lines.append(
                    f"mean_{k} = " + ", ".join(f"{v:.17g}" for v in mean)
                )
                for i in range(3):
                    lines.append(
                        f"cov_{k}_row = "
                        + ", ".join(f"{cov[i, j]:.17g}" for j in range(3))
                    )
                dev = self.deviations(gi, k, "derived")
                lines.append(
                    f"deviation_{k} = "
                    + ", ".join(
                        f"{dev[i, j]:.17g}" for i in range(3) for j in range(i, 3)
                    )
                )
                for level in COVERAGE_LEVELS:
                    covg = self.coverage(gi, k, level)
                    lines.append(
                        f"coverage{int(level * 100)}_{k} = "
                        + ", ".join(f"{v:.17g}" for v in covg)
                    )
        if len(self.results) >= 3:
            lines.append("")
            lines.append("[slopes]")
            for name, (slope, floored) in self.consistency_slopes().items():
                lines.append(f"{name} = {slope:.17g}")
                lines.append(f"{name}_floor_limited = {str(floored).lower()}")
        return "\n".join(lines) + "\n"

    def samples_csv(self, grid_index: int) -> str:
        """CSV of normalized errors, one line per converged replication."""
        res = self.results[grid_index]
        nh = res.samples.shape[2]
        cols = []
        for k in range(nh):
            cols += [f"errA_{k}", f"errB_{k}", f"errPhi_{k}"]
        rows = [",".join(cols)]
        for r in range(res.n_ok):
            flat = res.samples[r].T.reshape(-1)
            rows.append(",".join(f"{v:.17g}" for v in flat))
        return "\n".join(rows) + "\n"

    def write(self, out_dir: str, runtime_note: str | None = None) -> None:
        """Emit report.txt and per-grid CSVs; runtime metadata, which is
        not part of the determinism contract, goes to a separate sidecar."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(self.to_text())
        for gi, res in enumerate(self.results):
            name = f"samples_T{res.grid.horizon:g}.csv"
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(self.samples_csv(gi))
        if runtime_note is not None:
            with open(
                os.path.join(out_dir, "runtime.txt"), "w", encoding="utf-8"
            ) as fh:
                fh.write(runtime_note)


def _grid_result(config: ExperimentConfig, gi: int, pool) -> GridResult:
    """Run grid gi's replications, serially or on ``pool``, and fold them
    in replication order."""
    mapper = map if pool is None else pool.map
    rows = mapper(
        functools.partial(_replication, config, gi), range(config.replications)
    )
    samples = []
    failures = []
    nonconverged = 0
    for r, payload, converged in rows:  # sequential fold in r order
        if converged is None:
            failures.append(f"r={r}: {payload}")
        elif not converged:
            nonconverged += 1
        else:
            samples.append(payload)
    unusable = len(failures) + nonconverged
    if unusable > FAILURE_CAP * config.replications:
        raise ExperimentError(
            f"{unusable}/{config.replications} replications unusable on "
            f"grid T={config.grids[gi].horizon} "
            f"({len(failures)} failed, {nonconverged} non-converged)"
        )
    grid = config.grids[gi]
    clamp, size = 0.0, 0
    if config.noise_scale > 0.0:
        # usable replications drew from this embedding, so it exists
        root, clamp = _clamped_embedding(
            config.noise, grid.dt, grid.n, DEFAULT_MAX_COV_ERROR
        )
        size = root.size
    return GridResult(
        grid=grid,
        samples=np.stack(samples),
        n_requested=config.replications,
        n_nonconverged=nonconverged,
        failures=tuple(failures),
        embedding_clamp_bound=clamp,
        embedding_size=size,
    )


def run_replications(config: ExperimentConfig, workers: int = 1) -> MonteCarloReport:
    """Simulate and estimate R replications on every grid of the schedule.

    Failures are recorded per replication and never fatal individually,
    but more than 20% unusable replications on any grid aborts. The limit
    blocks are computed before the first draw, so a config they reject
    fails at once. The report is identical for any worker count.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    nh = len(config.model.harmonics)
    if config.noise_scale == 0.0:
        zero = np.zeros((3, 3))
        theory = dict(
            gamma_derived=tuple(zero.copy() for _ in range(nh)),
            gamma_printed=tuple(zero.copy() for _ in range(nh)),
            s_values=(0.0,) * nh,
            tail_bounds=(0.0,) * nh,
            quad_errors=(0.0,) * nh,
        )
    else:
        report_d = asymptotics.gamma_report(
            config.model, config.transform, config.noise, config.j_max, "derived"
        )
        # the as-printed blocks reuse the derived report's s, one quadrature
        # per harmonic
        printed = [
            asymptotics.gamma_matrix(
                a, b, phi, config.transform, config.noise, config.j_max,
                "as-printed", s_value=s,
            )
            for a, b, phi, s in zip(*config.model.amplitudes(), report_d.s_values)
        ]
        scale2 = config.noise_scale**2
        theory = dict(
            gamma_derived=tuple(scale2 * m for m in report_d.matrices),
            gamma_printed=tuple(scale2 * m for m in printed),
            s_values=tuple(scale2 * s for s in report_d.s_values),
            tail_bounds=tuple(scale2 * t for t in report_d.tail_bounds),
            quad_errors=tuple(scale2 * e for e in report_d.quad_errors),
        )
    # one pool serves every grid of the schedule
    executor = (
        concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        if workers > 1
        else contextlib.nullcontext()
    )
    with executor as pool:
        results = [_grid_result(config, gi, pool) for gi in range(len(config.grids))]
    return MonteCarloReport(config=config, results=tuple(results), **theory)


def consistency_sweep(config: ExperimentConfig, workers: int = 1) -> dict:
    """run_replications over a >= 3 horizon schedule, reduced to log-log
    slope estimates of the median raw errors per parameter class."""
    if len(config.grids) < 3:
        raise ValidationError("consistency sweep needs at least 3 horizons")
    report = run_replications(config, workers)
    return report.consistency_slopes()


def normality_diagnostics(samples, gamma: np.ndarray | None = None) -> dict:
    """Standardized skewness and excess kurtosis per component, plus
    coverage of nominal 90/95/99% intervals under the supplied covariance.

    samples: (R, q) array of error vectors. Requires R >= 100 and
    nondegenerate variances.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    r = samples.shape[0]
    if r < 100:
        raise InsufficientSamplesError(f"need >= 100 samples, got {r}")
    sd = samples.std(axis=0, ddof=1)
    if np.any(sd < 1e-12 * (1.0 + np.abs(samples.mean(axis=0)))):
        raise DegenerateVarianceError("a component has (near-)zero variance")
    centered = (samples - samples.mean(axis=0)) / sd
    skew = (centered**3).mean(axis=0)
    kurt = (centered**4).mean(axis=0) - 3.0
    se_skew = math.sqrt(6.0 / r)
    se_kurt = math.sqrt(24.0 / r)
    out = {
        "n": r,
        "skewness": skew,
        "skewness_se": se_skew,
        "skewness_standardized": skew / se_skew,
        "excess_kurtosis": kurt,
        "excess_kurtosis_se": se_kurt,
        "excess_kurtosis_standardized": kurt / se_kurt,
    }
    if gamma is not None:
        sd_th = np.sqrt(np.diag(np.asarray(gamma, dtype=float)))
        coverage = {}
        for level in COVERAGE_LEVELS:
            z = _Z[round(level, 2)]
            coverage[level] = (np.abs(samples) <= z * sd_th).mean(axis=0)
        out["coverage"] = coverage
    return out


def eta_squared(path, band=DEFAULT_BAND) -> float:
    """Lemma-2 functional: sup over the fine frequency grid of the
    periodogram, i.e. sup_lambda |(dt/T) sum x e^(-i lambda t)|^2."""
    _, vals = periodogram_grid(path, band)
    return float(np.max(vals))


def lemma2_decay(
    noise: NoiseSpec,
    transform: TransformSpec,
    horizons,
    replications: int,
    master_seed: int,
    dt: float = 0.25,
    band=DEFAULT_BAND,
) -> dict:
    """Mean eta^2 per horizon over pure-noise replications, with the
    strict-decrease verdict across the schedule.

    Replication r on horizon g draws from SeedSequence(master_seed,
    spawn_key=(g, r)). Per horizon the replications are simulated,
    subordinated and periodogrammed in chunks of rows that fit in
    _SWEEP_CHUNK_BYTES (8 MiB; at least one row), counted per row as the
    larger of the zero-padded spectrum and the embedding's half spectrum
    plus inverse FFT output, so the chunk size depends on the grid and the
    embedding size alone. Each row is the path
    ``gaussian_path`` draws from its own stream, and the row maxima are
    summed in replication order, so the means are bit for bit those of a
    loop over single paths through ``eta_squared``.
    """
    if replications < 1:
        raise ValidationError("need at least 1 replication")
    grids = tuple(SamplingGrid(float(h), dt) for h in horizons)
    if not grids:
        raise ValidationError("horizon schedule is empty")
    means = []
    for gi, grid in enumerate(grids):
        nfft, _ = _fft_grid(grid)
        size = _clamped_embedding(noise, grid.dt, grid.n, DEFAULT_MAX_COV_ERROR)[0].size
        # per row: complex128 bins of the zero-padded spectrum, or of the
        # half spectrum plus the float64 output of its inverse FFT
        row_bytes = max(16 * (nfft // 2 + 1), 16 * (size // 2 + 1) + 8 * size)
        chunk = max(1, _SWEEP_CHUNK_BYTES // row_bytes)
        acc = 0.0
        for start in range(0, replications, chunk):
            seeds = [
                np.random.SeedSequence(entropy=master_seed, spawn_key=(gi, r))
                for r in range(start, min(start + chunk, replications))
            ]
            eps = subordinate(gaussian_paths(noise, grid, seeds), transform)
            for row_max in _band_periodogram(eps, grid, band)[1].max(axis=-1):
                acc += float(row_max)
        means.append(acc / replications)
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    return {"horizons": tuple(g.horizon for g in grids),
            "mean_eta_squared": tuple(means),
            "strictly_decreasing": decreasing}
