"""Monte Carlo replication harness.

Runs simulate -> estimate over a grid schedule, aggregates normalized
errors, compares their empirical covariance against the limit blocks, and
emits deterministic reports. Replication r on grid g draws its generator
from replication_seed(master_seed, g, r), so the stream never depends on
how replications are scheduled across workers; aggregation is a
sequential fold in replication order.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import math
import os
import pathlib
import warnings
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .config import format_block, format_csv
from .errors import (
    DegenerateVarianceError,
    ExperimentError,
    InsufficientSamplesError,
    ValidationError,
    require_count,
)
from .estimator import (
    _band_periodogram,
    _band_window,
    estimate_harmonics,
    periodogram_grid,
)
from .hermite import TransformSpec
from .simulate import (
    DEFAULT_BAND,
    HarmonicModel,
    SamplingGrid,
    _clamped_embedding,
    _fill_paths,
    grid_labels,
    observe,
    require_a4,
    require_band,
    require_noise_scale,
    replication_seed,
    subordinate,
)
from .spectral import NoiseSpec, _workspace

FAILURE_CAP = 0.2
# two-sided standard normal quantile of each tabulated coverage level
_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}
COVERAGE_LEVELS = tuple(_Z)
_FLOOR = 1e-12  # raw-error floor below which slopes are floor-limited
# budget for the largest arrays of every lemma2_decay chunk in flight
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
        require_count("replications", self.replications, 2)
        require_count("master_seed", self.master_seed, 0)
        # gamma_report refuses a j_max below the transform's rank
        require_count("j_max", self.j_max, 0)
        if not self.grids:
            raise ValidationError("grid schedule is empty")
        grid_labels(self.grids)
        require_band(self.model.band, *self.grids)
        require_noise_scale(self.noise_scale)
        if not self.allow_a4_violation:
            require_a4(self.noise, self.transform)


def _replication(config: ExperimentConfig, grid_index: int, r: int):
    """One simulate -> estimate cycle. Returns (r, errors, converged) or
    (r, message, None) on failure."""
    grid = config.grids[grid_index]
    seed = replication_seed(config.master_seed, grid_index, r)
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


def _coverage(samples: np.ndarray, gamma, level: float) -> np.ndarray:
    """Fraction of the rows of samples with |x_i| <= z * sqrt(gamma_ii), per
    component, for z the two-sided normal quantile of level."""
    z = _Z.get(level)
    if z is None:
        raise ValidationError(
            f"coverage level {level!r} is not one of COVERAGE_LEVELS "
            f"{COVERAGE_LEVELS}"
        )
    sd = np.sqrt(np.diag(np.asarray(gamma, dtype=float)))
    return (np.abs(samples) <= z * sd).mean(axis=0)


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
        asymptotics.require_mode(mode)
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
        samples = self.results[grid_index].samples[:, :, k]
        return _coverage(samples, self.gamma_derived[k], level)

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
        blocks = [format_block("report", [
            ("replications", self.config.replications),
            ("master_seed", self.config.master_seed),
            ("j_max", self.config.j_max),
        ])]
        nh = len(self.config.model.harmonics)
        for k in range(nh):
            blocks.append(format_block("gamma", [
                ("harmonic", k),
                ("s", self.s_values[k]),
                ("tail_bound", self.tail_bounds[k]),
                ("quad_error", self.quad_errors[k]),
                *(("derived_row", row) for row in self.gamma_derived[k]),
                *(("as-printed_row", row) for row in self.gamma_printed[k]),
            ]))
        for gi, res in enumerate(self.results):
            pairs = [
                ("horizon", res.grid.horizon),
                ("dt", res.grid.dt),
                ("embedding_clamp_bound", res.embedding_clamp_bound),
                ("embedding_size", res.embedding_size),
                ("converged", res.n_ok),
                ("nonconverged", res.n_nonconverged),
                ("failed", len(res.failures)),
            ]
            pairs += [("failure", note) for note in res.failures]
            for k in range(nh):
                pairs.append((f"mean_{k}", res.empirical_mean(k)))
                pairs += [(f"cov_{k}_row", row) for row in res.empirical_cov(k)]
                dev = self.deviations(gi, k, "derived")
                pairs.append((f"deviation_{k}", dev[np.triu_indices(3)]))
                pairs += [(f"coverage{int(level * 100)}_{k}", self.coverage(gi, k, level))
                          for level in COVERAGE_LEVELS]
            blocks.append(format_block("grid_result", pairs))
        if len(self.results) >= 3:
            pairs = []
            for name, (slope, floored) in self.consistency_slopes().items():
                pairs += [(name, slope), (f"{name}_floor_limited", floored)]
            blocks.append(format_block("slopes", pairs))
        return "\n".join(blocks)

    def samples_csv(self, grid_index: int) -> str:
        """CSV of normalized errors, one line per converged replication."""
        samples = self.results[grid_index].samples
        nh = samples.shape[2]
        header = [f"{name}_{k}" for k in range(nh) for name in ("errA", "errB", "errPhi")]
        return format_csv(header, samples.transpose(0, 2, 1).reshape(-1, 3 * nh).tolist())

    def write(self, out_dir: str, runtime_note: str | None = None) -> None:
        """Emit report.txt and per-grid CSVs; runtime metadata, which is
        not part of the determinism contract, goes to a separate sidecar."""
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(self.to_text(), encoding="utf-8")
        for gi, label in enumerate(grid_labels(self.config.grids)):
            (out / f"samples_{label}.csv").write_text(self.samples_csv(gi), encoding="utf-8")
        if runtime_note is not None:
            (out / "runtime.txt").write_text(runtime_note, encoding="utf-8")


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
        root, clamp = _clamped_embedding(config.noise, grid.dt, grid.n)
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
    require_count("workers", workers, 1)
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
        a_arr, b_arr, _ = config.model.amplitudes()
        printed = [
            asymptotics.gamma_matrix(a, b, s, "as-printed")
            for a, b, s in zip(a_arr, b_arr, report_d.s_values)
        ]
        scale2 = config.noise_scale**2
        theory = dict(
            gamma_derived=tuple(scale2 * m for m in report_d.matrices),
            gamma_printed=tuple(scale2 * m for m in printed),
            s_values=tuple(scale2 * s for s in report_d.s_values),
            tail_bounds=tuple(scale2 * t for t in report_d.tail_bounds),
            quad_errors=tuple(scale2 * e for e in report_d.quad_errors),
        )
    # one pool serves every grid of the schedule; it starts every worker at
    # once, and a grid has no more tasks than replications
    executor = contextlib.nullcontext()
    if workers > 1:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, config.replications))
    with executor as pool:
        results = [_grid_result(config, gi, pool) for gi in range(len(config.grids))]
    return MonteCarloReport(config=config, results=tuple(results), **theory)


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
        out["coverage"] = {
            level: _coverage(samples, gamma, level) for level in COVERAGE_LEVELS
        }
    return out


def _check_band(grid, band) -> None:
    """Refuse a band that breaks the band rule of ``require_band``, so the
    sup leaves out the zero frequency, or that holds no frequency of the
    grid's 8n periodogram."""
    require_band(band, grid)
    if not np.any(_band_window(grid, band)[4]):
        raise ValidationError(
            f"band {tuple(band)} holds no frequency of the periodogram grid "
            f"of T={grid.horizon:g}, dt={grid.dt:g}"
        )


def eta_squared(path, band=DEFAULT_BAND) -> float:
    """Lemma-2 functional: sup over the fine frequency grid of the
    periodogram, i.e. sup_lambda |(dt/T) sum x e^(-i lambda t)|^2."""
    _check_band(path.grid, band)
    _, vals = periodogram_grid(path, band)
    return float(np.max(vals))


def _sweep_threads() -> int:
    """Threads lemma2_decay runs its chunks on: one per CPU this process
    may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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

    Replication r on horizon g draws from replication_seed(master_seed, g,
    r). Per horizon the replications are split into one contiguous share
    per thread, w = min(threads, replications) shares for one thread per
    CPU this process may use: share k holds replications k * R // w up to
    (k + 1) * R // w. The calling thread runs share 0 and one helper
    thread each further share. A thread simulates, subordinates and
    periodograms its share in chunks of rows, one chunk at a time, so the
    _SWEEP_CHUNK_BYTES budget (8 MiB) is shared by every chunk in flight:
    a chunk holds at most budget // (threads * row_bytes) rows, and at
    least one, and a share's rows are spread evenly over the fewest
    chunks that keep to that: each chunk holds ceil(m / chunks) rows or
    one fewer, for a share of m rows. A row counts as the larger of the
    phase transforms of ``_band_periodogram`` (nfft + 2d float64 words,
    for the transform length nfft and d phases) and the embedding's half
    spectrum plus inverse FFT output, so the chunk size depends on the
    grid, the band, the embedding size, the thread count and the
    replication count alone. A chunk's paths, half spectra, inverse FFT
    outputs and phase transforms live in its thread's workspace
    (``spectral._workspace``), which grows to the thread's largest chunk;
    a helper's goes with it when the pool is joined. Each row is the path
    ``gaussian_path`` draws from its own stream, and the row maxima are
    summed in replication order, so for any thread count the means are bit
    for bit those of a loop over single paths through ``eta_squared``. A
    bad count, seed or band raises ValidationError before the first draw.
    A thread whose chunk raises stops its own share; the calling thread's
    exception propagates, else the first helper's in thread order. The
    helpers live in a pool that is shut down, and its threads joined,
    before the call returns.
    """
    require_count("replications", replications, 1)
    require_count("master_seed", master_seed, 0)
    grids = tuple(SamplingGrid(float(h), dt) for h in horizons)
    if not grids:
        raise ValidationError("horizon schedule is empty")
    for grid in grids:
        _check_band(grid, band)
    threads = _sweep_threads()
    shares = min(threads, replications)

    def horizon_mean(gi, grid, pool):
        nfft, d = _band_window(grid, band)[:2]
        root = _clamped_embedding(noise, grid.dt, grid.n)[0]
        size = root.size
        # per row, in float64 words: the d complex phase transforms of
        # nfft / (2d) + 1 bins, or the complex half spectrum and the output
        # of its inverse FFT
        row_words = max(nfft + 2 * d, 2 * size + 2)
        most = max(1, _SWEEP_CHUNK_BYTES // (threads * 8 * row_words))

        def share_maxima(k):
            first = k * replications // shares
            count = (k + 1) * replications // shares - first
            chunks = -(-count // most)
            maxima = []
            for c in range(chunks):
                seeds = [replication_seed(master_seed, gi, first + r)
                         for r in range(c * count // chunks, (c + 1) * count // chunks)]
                paths = _workspace("paths", len(seeds) * grid.n).reshape(-1, grid.n)
                eps = subordinate(_fill_paths(root, seeds, paths), transform)
                maxima.extend(_band_periodogram(eps, grid, band)[1].max(axis=-1))
            return maxima

        helpers = [pool.submit(share_maxima, k) for k in range(1, shares)]
        acc = 0.0
        for maxima in [share_maxima(0)] + [helper.result() for helper in helpers]:
            for row_max in maxima:  # sequential fold in replication order
                acc += float(row_max)
        return acc / replications

    # one pool serves every horizon of the call
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(threads - 1, 1)) as pool:
        means = [horizon_mean(gi, grid, pool) for gi, grid in enumerate(grids)]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    return {"horizons": tuple(g.horizon for g in grids),
            "mean_eta_squared": tuple(means),
            "strictly_decreasing": decreasing}
