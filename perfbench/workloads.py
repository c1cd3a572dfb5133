"""The four workloads of the simulate -> estimate -> validate loop.

Every workload is a closed-loop batch job with a single caller: the next
top-level call starts when the previous one has returned. Inputs are
generated from the seed only. Each workload has

* an untraced step: one top-level call into harmreg's public API, timed
  as a whole (``run_replications`` plus writing its report, one README
  quick-start iteration, or one ``lemma2_decay`` call);
* a traced step: the same seeds driven through the public stage functions,
  with a span around every call;
* output checks that accept any numerically different but correct result.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from harmreg import config as hconfig
from harmreg import estimator as hestimator
from harmreg.asymptotics import (
    DEFAULT_J_MAX,
    b_m,
    gamma_report,
    gram_block,
    plug_in_gamma,
    sigma_general,
    trig_spectral_measure,
)
from harmreg.errors import ExperimentError, ValidationError
from harmreg.estimator import (
    EstimationResult,
    amplitudes_given_frequencies,
    detect_frequencies,
    estimate_harmonics,
    normalized_errors,
    periodogram_grid,
    refine,
)
from harmreg.hermite import make_transform
from harmreg.montecarlo import ExperimentConfig, lemma2_decay, run_replications
from harmreg.simulate import DEFAULT_BAND, HarmonicModel, observe

from tracing import Tracer

SEED_STRIDE = 1_000_003  # batch b of seed s uses master seed s + b * SEED_STRIDE
FREQ_CELLS = 4.0  # a usable frequency estimate lies this many grid cells from the truth
PLUGIN_DEVIATION_LIMIT = 0.10  # acceptance criterion 8
SELF_CONV_TOL = 1e-5  # error budget of each self_convolution call (its default tol)
REPRO_RTOL = 1e-9  # traced stage calls must reproduce the untraced errors
UNTRACED_SHARE = 1.0 / 3.0  # share of a traced run spent on its untraced pass
NOISE_ONLY = HarmonicModel(())

CLT = """
[noise]
preset = smooth
[transform]
kind = identity
[model]
a = 1.0
b = 0.5
phi = 1.3
[grid]
horizon = 4096
dt = 0.25
[experiment]
replications = 50
master_seed = 20260813
"""

TWO_HARMONIC = """
[noise]
preset = smooth
[transform]
kind = identity
[model]
a = 1.0
b = 0.5
phi = 1.3
[model]
a = 0.6
b = -0.4
phi = 2.1
[grid]
horizon = 4096
dt = 0.25
[experiment]
replications = 40
master_seed = 20260819
"""

PLUGIN = """
[noise]
d = 0.6
alpha = 1.5
kappa = 0
rho = 2
[noise]
d = 0.4
alpha = 0.8
kappa = 2.0
rho = 2
[transform]
kind = centered-absolute-value
[model]
a = 1.0
b = 0.5
phi = 1.3
[grid]
horizon = 1024
dt = 0.25
[experiment]
master_seed = 20260818
"""

SWEEP = """
[noise]
preset = smooth
[transform]
kind = identity
[grid]
horizon = 512
dt = 0.25
[grid]
horizon = 2048
dt = 0.25
[grid]
horizon = 8192
dt = 0.25
[experiment]
replications = 20
master_seed = 20260817
"""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "montecarlo", "plugin" or "sweep"
    config_text: str
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("clt-serial", "montecarlo", CLT),
        Workload("two-harmonic-pool", "montecarlo", TWO_HARMONIC, workers=2),
        Workload("plugin-validate", "plugin", PLUGIN),
        Workload("noise-sweep", "sweep", SWEEP),
    )
}


@dataclasses.dataclass
class Case:
    """A workload after set-up: everything the first replication call needs."""

    workload: Workload
    seed: int
    noise: object
    transform: object
    model: HarmonicModel | None
    grids: tuple
    replications: int
    experiment: ExperimentConfig | None
    out_dir: str

    def batch_seed(self, b: int) -> int:
        return self.seed + b * SEED_STRIDE


@dataclasses.dataclass
class Outcome:
    """One untraced top-level call."""

    attempted: int
    wall: float
    nonconverged: int = 0
    failed: int = 0
    check_failed: int = 0
    notes: tuple = ()
    payload: object = None  # what the traced step must reproduce
    deviation: object = None  # plug-in Gamma against the truth, entry-wise

    @property
    def lost(self) -> int:
        """Replications not usable: non-converged, failed or check-failing."""
        return min(self.attempted, self.nonconverged + self.failed + self.check_failed)


def default_seed(workload: Workload) -> int:
    return hconfig.load_experiment(hconfig.parse_blocks(workload.config_text))["master_seed"]


def setup(workload: Workload, seed: int | None, out_dir: str) -> Case:
    """Load the config blocks through harmreg.config, build the transform
    and, for run_replications workloads, the ExperimentConfig."""
    blocks = hconfig.parse_blocks(workload.config_text)
    noise = hconfig.load_noise(blocks)
    transform = hconfig.load_transform(blocks)
    model = hconfig.load_model(blocks)
    grids = hconfig.load_grids(blocks)
    experiment = hconfig.load_experiment(blocks)
    if seed is None:
        seed = experiment["master_seed"]
    exp_config = None
    if workload.kind == "montecarlo":
        exp_config = ExperimentConfig(
            noise=noise,
            transform=transform,
            model=model,
            grids=grids,
            **{**experiment, "master_seed": seed},
        )
    return Case(
        workload=workload,
        seed=seed,
        noise=noise,
        transform=transform,
        model=model,
        grids=grids,
        replications=experiment.get("replications", 1),
        experiment=exp_config,
        out_dir=out_dir,
    )


# ---------------------------------------------------------------------------
# references computed at start-up and the checks that use them


def grid_cell(grid) -> float:
    """Spacing of the zero-padded periodogram grid that detection scans."""
    nfft = 1 << (8 * grid.n - 1).bit_length()
    return 2.0 * math.pi / (nfft * grid.dt)


def reference_gammas(case: Case) -> list[np.ndarray]:
    """Derived Gamma blocks through the general spectral-measure route,
    D (Sigma0) D, independent of gamma_matrix's closed form."""
    out = []
    for a, b, phi in case.model.harmonics:
        _, sigma0 = sigma_general(case.transform, case.noise, trig_spectral_measure(a, b, phi))
        d = np.diag(1.0 / gram_block(a, b).scalers)
        out.append(d @ sigma0 @ d)
    return out


def gamma_budget(case: Case, reference: np.ndarray, s_value: float) -> np.ndarray:
    """Entry-wise tolerance: Gamma is linear in s, and s carries at most
    SELF_CONV_TOL per order times the order weights, from either side."""
    coeffs = case.transform.coeffs
    weight = sum(
        coeffs[j] ** 2 / math.factorial(j)
        for j in range(case.transform.rank, min(DEFAULT_J_MAX, case.transform.k_max) + 1)
    )
    return np.abs(reference) / s_value * 2.0 * SELF_CONV_TOL * weight + 1e-12


def gamma_mismatches(case: Case, reference, matrices, s_values) -> int:
    return sum(
        int(np.any(np.abs(m - ref) > gamma_budget(case, ref, s)))
        for ref, m, s in zip(reference, matrices, s_values)
    )


def freq_misses(grid, errors: np.ndarray) -> int:
    """Number of harmonics whose estimate lies more than FREQ_CELLS grid
    cells from the truth; errors is the (3, N) normalized-error block."""
    dphi = np.abs(errors[2]) / grid.horizon**1.5
    return int(np.sum(~(dphi <= FREQ_CELLS * grid_cell(grid))))


# ---------------------------------------------------------------------------
# untraced steps


def _run_replications_step(case: Case, b: int, state: dict) -> Outcome:
    config = dataclasses.replace(case.experiment, master_seed=case.batch_seed(b))
    report_dir = os.path.join(case.out_dir, "report")
    t0 = time.perf_counter()
    try:
        report = run_replications(config, workers=case.workload.workers)
        report.write(report_dir)
    except ExperimentError as exc:
        wall = time.perf_counter() - t0
        return Outcome(config.replications, wall, failed=config.replications,
                       notes=(f"batch {b} aborted: {exc}",))
    wall = time.perf_counter() - t0
    res = report.results[0]
    grid = case.grids[0]
    misses = sum(int(freq_misses(grid, s) > 0) for s in res.samples)
    notes = []
    if misses:
        notes.append(f"batch {b}: {misses} usable replications off the truth")
    if gamma_mismatches(case, state["gamma_ref"], report.gamma_derived, report.s_values):
        notes.append(f"batch {b}: Gamma blocks outside the quadrature budget")
        misses = res.n_ok
    if b == 0 and "serial_report" in state and report.to_text() != state["serial_report"]:
        notes.append("batch 0: report differs from the workers=1 report")
        misses = res.n_ok
    return Outcome(
        attempted=config.replications,
        wall=wall,
        nonconverged=res.n_nonconverged,
        failed=len(res.failures),
        check_failed=misses,
        notes=tuple(notes),
        payload=report,
    )


def _plugin_step(case: Case, b: int, state: dict) -> Outcome:
    model, grid = case.model, case.grids[0]
    seed = np.random.SeedSequence(entropy=case.seed, spawn_key=(0, b))
    t0 = time.perf_counter()
    try:
        path = observe(model, case.noise, case.transform, grid, seed)
        result = estimate_harmonics(path, model.n_harmonics, truth=model)
        plug = plug_in_gamma(result, case.transform, case.noise)
    except (ExperimentError, ValidationError) as exc:
        return Outcome(1, time.perf_counter() - t0, failed=1, notes=(f"iteration {b}: {exc}",))
    wall = time.perf_counter() - t0
    if not result.converged:
        return Outcome(1, wall, nonconverged=1, payload=result.normalized_errors)
    miss = freq_misses(grid, result.normalized_errors)
    deviation = [np.abs(g - t) / np.abs(t) for g, t in zip(plug.matrices, state["gamma_truth"])]
    return Outcome(1, wall, check_failed=int(miss > 0), payload=result.normalized_errors,
                   deviation=deviation,
                   notes=(f"iteration {b}: frequency off the truth",) if miss else ())


def _sweep_step(case: Case, b: int, state: dict) -> Outcome:
    horizons = tuple(g.horizon for g in case.grids)
    attempted = case.replications * len(horizons)
    t0 = time.perf_counter()
    out = lemma2_decay(case.noise, case.transform, horizons, case.replications,
                       case.batch_seed(b), dt=case.grids[0].dt)
    wall = time.perf_counter() - t0
    means = out["mean_eta_squared"]
    ok = out["strictly_decreasing"] and all(m > 0.0 for m in means)
    return Outcome(attempted, wall, check_failed=0 if ok else attempted, payload=means,
                   notes=() if ok else (f"call {b}: mean eta^2 {means} not strictly decreasing",))


UNTRACED_STEPS = {
    "montecarlo": _run_replications_step,
    "plugin": _plugin_step,
    "sweep": _sweep_step,
}


def prepare(case: Case, tracer: Tracer | None) -> dict:
    """Start-up work outside the timed loop: cold probes (traced runs
    only), the references the checks compare against, and one warm-up
    simulation per grid so the cached embeddings are built before timing."""
    state: dict = {}
    kind = case.workload.kind
    if tracer is not None:
        with tracer.span("hermite.make_transform"):
            make_transform(case.transform.kind)
        with tracer.span("asymptotics.b_m"):
            b_m.__wrapped__(case.noise, case.transform.rank)
        if case.model is not None:
            with tracer.span("asymptotics.gamma_report.cold"):
                gamma_report(case.model, case.transform, case.noise)
            with tracer.span("asymptotics.gamma_report.warm"):
                gamma_report(case.model, case.transform, case.noise)
    if case.model is not None:
        reference = reference_gammas(case)
        state["gamma_ref"] = reference
        truth = gamma_report(case.model, case.transform, case.noise)
        if gamma_mismatches(case, reference, truth.matrices, truth.s_values):
            state["startup_note"] = "Gamma at the truth outside the quadrature budget"
        state["gamma_truth"] = truth.matrices
    model = case.model if case.model is not None else NOISE_ONLY
    for gi, grid in enumerate(case.grids):
        seed = np.random.SeedSequence(entropy=case.batch_seed(0), spawn_key=(gi, 0))
        if tracer is None:
            observe(model, case.noise, case.transform, grid, seed, keep_components=False)
        else:
            with tracer.span("simulate.first_call"):
                observe(model, case.noise, case.transform, grid, seed, keep_components=False)
    if kind == "montecarlo" and case.workload.workers > 1:
        # the criterion-10 reference: same config and seed at workers=1
        config = dataclasses.replace(case.experiment, master_seed=case.batch_seed(0))
        try:
            state["serial_report"] = run_replications(config, workers=1).to_text()
        except ExperimentError:
            pass  # the timed batch aborts as well and counts as failed
    return state


def finish_checks(case: Case, state: dict, outcomes: list[Outcome]) -> list[str]:
    """Checks over the whole run; a failure marks every replication of
    the run as check-failing."""
    notes = []
    if "startup_note" in state:
        notes.append(state["startup_note"])
    if case.workload.kind == "plugin":
        # criterion 8: entry-wise median over usable iterations, worst entry
        devs = [o.deviation for o in outcomes if o.deviation is not None]
        med = float(np.max(np.median(devs, axis=0))) if devs else math.inf
        if not med < PLUGIN_DEVIATION_LIMIT:
            notes.append(f"median plug-in deviation {med:.4f} not below {PLUGIN_DEVIATION_LIMIT}")
    return notes


def run_untraced(case: Case, state: dict, seconds: float) -> tuple[list[Outcome], dict]:
    """Top-level calls until ``seconds`` have passed; returns the outcomes
    and the process's own CPU time and wall time over the timed calls."""
    step = UNTRACED_STEPS[case.workload.kind]
    outcomes = []
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    b = 0
    while time.perf_counter() - start < seconds:
        outcomes.append(step(case, b, state))
        b += 1
    usage = {"cpu_s": _cpu_seconds() - cpu0, "wall_s": time.perf_counter() - start}
    return outcomes, usage


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


# ---------------------------------------------------------------------------
# traced steps


def traced_replication(model, noise, transform, grid, seed, rep, *,
                       observe_kwargs=None, plug_in=False) -> dict:
    """One replication through the public stage functions, with a span per
    call. After the replication span closes, the same path is handed to
    periodogram_grid and estimate_harmonics as probes: the first times the
    FFT grid on its own, the second whole-estimate latency and the check
    that the stages reproduce it. Module-level so the pool can pickle it."""
    tracer = Tracer()
    out = {"rep": rep, "errors": None, "converged": None, "iterations": 0, "failure": None,
           "points": grid.n}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as run_replications does
        try:
            with tracer.span("replication", rep):
                with tracer.span("simulate.observe", rep):
                    path = observe(model, noise, transform, grid, seed, **(observe_kwargs or {}))
                with tracer.span("estimator.detect", rep):
                    phis = detect_frequencies(path, model.n_harmonics, band=model.band)
                with tracer.span("estimator.amplitudes", rep):
                    a0, b0 = amplitudes_given_frequencies(path, phis)
                with tracer.span("estimator.refine", rep):
                    a, b, phi, q, it, conv = refine(path, a0, b0, phis, band=model.band)
                estimate = HarmonicModel(tuple(zip(a, b, phi)), band=model.band)
                errors = normalized_errors(estimate, model, grid.horizon)
                if plug_in:
                    result = EstimationResult(
                        model=estimate, objective=q, initial_objective=q,
                        horizon=grid.horizon, iterations=it, converged=conv,
                        grid_resolution=grid_cell(grid),
                    )
                    with tracer.span("asymptotics.plug_in", rep):
                        plug_in_gamma(result, transform, noise)
        except (ExperimentError, ValidationError) as exc:
            out["failure"] = f"{type(exc).__name__}: {exc}"
            out["spans"] = tracer.spans
            return out
        out.update(errors=errors, converged=bool(conv), iterations=it,
                   max_iter_hit=(it >= hestimator.MAX_ITER and not conv))
        with tracer.span("estimator.periodogram_grid", rep):
            periodogram_grid(path, model.band)
        with tracer.span("estimator.estimate", rep):
            full = estimate_harmonics(path, model.n_harmonics, band=model.band, truth=model)
    out["reproduces_estimate"] = bool(
        np.allclose(full.normalized_errors, errors, rtol=REPRO_RTOL, atol=REPRO_RTOL)
        and full.converged == conv
    )
    out["spans"] = tracer.spans
    return out


def _probe_busy(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] in ("estimator.periodogram_grid", "estimator.estimate"))


def _traced_run_replications(case: Case, b: int, ref: Outcome, tracer: Tracer, stats: dict) -> float:
    """One batch: replications (serial or on a pool, as run_replications
    schedules them), both Gamma reports and the report write. Returns the
    batch's wall time less the probes' share."""
    config = dataclasses.replace(case.experiment, master_seed=case.batch_seed(b))
    workers = case.workload.workers
    grid = config.grids[0]
    args = [
        (config.model, config.noise, config.transform, grid,
         np.random.SeedSequence(entropy=config.master_seed, spawn_key=(0, r)), [b, r])
        for r in range(config.replications)
    ]
    kwargs = {"observe_kwargs": {
        "keep_components": False,
        "allow_a4_violation": config.allow_a4_violation,
        "noise_scale": config.noise_scale,
    }}
    t0 = time.perf_counter()
    if workers == 1:
        rows = [traced_replication(*a, **kwargs) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(traced_replication, *a, **kwargs) for a in args]
            rows = [f.result() for f in futures]
    stats["replications_wall"] += time.perf_counter() - t0
    for mode in ("derived", "as-printed"):
        with tracer.span("asymptotics.gamma_report.warm"):
            gamma_report(config.model, config.transform, config.noise, config.j_max, mode)
    if ref.payload is not None:
        with tracer.span("montecarlo.report"):
            ref.payload.write(os.path.join(case.out_dir, "report"))
    wall = time.perf_counter() - t0
    probes = 0.0
    for row in rows:
        tracer.merge(row["spans"])
        probes += _probe_busy(row["spans"])
    stats["probes_s"] += probes
    _tally(stats, rows)
    if ref.payload is not None:
        converged = [row["errors"] for row in rows if row["converged"]]
        samples = ref.payload.results[0].samples
        same = len(converged) == len(samples) and all(
            np.allclose(e, s, rtol=REPRO_RTOL, atol=REPRO_RTOL) for e, s in zip(converged, samples)
        )
        stats["repro_mismatch"] += 0 if same else 1
    return wall - probes / workers


def _traced_plugin(case: Case, b: int, ref: Outcome, tracer: Tracer, stats: dict) -> float:
    seed = np.random.SeedSequence(entropy=case.seed, spawn_key=(0, b))
    row = traced_replication(case.model, case.noise, case.transform, case.grids[0], seed, [b],
                             plug_in=True)
    tracer.merge(row["spans"])
    _tally(stats, [row])
    if (row["errors"] is None) != (ref.payload is None) or (
        ref.payload is not None
        and not np.allclose(row["errors"], ref.payload, rtol=REPRO_RTOL, atol=REPRO_RTOL)
    ):
        stats["repro_mismatch"] += 1
    rep = [s for s in row["spans"] if s["name"] == "replication"]
    return sum(s["end"] - s["start"] for s in rep)


def _traced_sweep(case: Case, b: int, ref: Outcome, tracer: Tracer, stats: dict) -> float:
    """lemma2_decay's loop with observe on a harmonic-free model in place
    of gaussian_path + subordinate: the values are the same numbers."""
    means = []
    t0 = time.perf_counter()
    for gi, grid in enumerate(case.grids):
        acc = 0.0
        for r in range(case.replications):
            seed = np.random.SeedSequence(entropy=case.batch_seed(b), spawn_key=(gi, r))
            with tracer.span("replication", [b, gi, r]):
                with tracer.span("simulate.observe", [b, gi, r]):
                    path = observe(NOISE_ONLY, case.noise, case.transform, grid, seed,
                                   keep_components=False)
                with tracer.span("estimator.periodogram_grid", [b, gi, r]):
                    _, vals = periodogram_grid(path, DEFAULT_BAND)
            acc += float(np.max(vals))
        means.append(acc / case.replications)
    wall = time.perf_counter() - t0
    stats["attempted"] += case.replications * len(case.grids)
    stats["points"] += case.replications * sum(g.n for g in case.grids)
    if not np.allclose(means, ref.payload, rtol=REPRO_RTOL, atol=0.0):
        stats["repro_mismatch"] += 1
    return wall


TRACED_STEPS = {
    "montecarlo": _traced_run_replications,
    "plugin": _traced_plugin,
    "sweep": _traced_sweep,
}


def _tally(stats: dict, rows) -> None:
    for row in rows:
        stats["attempted"] += 1
        stats["points"] += row["points"]
        if row["failure"] is not None:
            continue
        stats["iterations"] += row["iterations"]
        stats["converged"] += int(row["converged"])
        stats["max_iter_hits"] += int(row["max_iter_hit"])
        stats["refine_calls"] += 1
        stats["repro_mismatch"] += 0 if row["reproduces_estimate"] else 1


def run_traced(case: Case, refs: list[Outcome], tracer: Tracer) -> dict:
    """Drive the batches of the untraced pass again, traced."""
    stats = dict(attempted=0, iterations=0, converged=0, max_iter_hits=0,
                 refine_calls=0, repro_mismatch=0, points=0, work_s=0.0,
                 replications_wall=0.0, probes_s=0.0)
    step = TRACED_STEPS[case.workload.kind]
    for b, ref in enumerate(refs):
        stats["work_s"] += step(case, b, ref, tracer, stats)
    return stats
