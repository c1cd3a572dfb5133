"""Per-thread workspaces of the plug-in quadrature, of the path draw and
of the periodogram: the reused buffers change no bit, leak into no
returned array, and keep two threads apart."""

import sys
import threading

import numpy as np
import pytest

from harmreg import estimator as est
from harmreg import spectral
from harmreg.asymptotics import plug_in_gamma
from harmreg.estimator import EstimationResult
from harmreg.hermite import make_transform
from harmreg.simulate import (
    HarmonicModel,
    SamplePath,
    SamplingGrid,
    gaussian_path,
    regression_signal,
)
from harmreg.spectral import NoiseComponent, NoiseSpec, preset_noise

# the two-component noise of the plugin-validate benchmark workload
PLUGIN_NOISE = NoiseSpec(
    (NoiseComponent(0.6, 1.5, 0.0, 2.0), NoiseComponent(0.4, 0.8, 2.0, 2.0))
)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _powers_allocating(cov, orders):
    """_powers as it was before the workspaces: a fresh array per gap and a
    copy for the running power."""
    steps = {}
    power, prev = None, 0
    for k in orders:
        gap = k - prev
        if gap not in steps:
            step = cov
            for _ in range(gap - 1):
                step = step * cov
            steps[gap] = step
        if power is None:
            power = steps[gap].copy()
        else:
            power *= steps[gap]
        prev = k
        yield power


@pytest.mark.parametrize(
    "orders", [(1, 2, 4, 7), (3, 5), (2, 5, 7), (2, 4, 6, 8), (2, 3, 5, 8, 9), (1,), (4,)]
)
def test_powers_match_allocating_algorithm(orders):
    # several gaps in one order set each keep their own step buffer (gap 2
    # comes back after gap 3 in (2, 5, 7)); the sizes grow past the
    # largest chunk and shrink again
    rng = np.random.default_rng(sum(orders))
    for size in (100, 49152, 60000, 3000):
        cov = rng.uniform(-1.0, 1.0, size)
        got = [_bits(p).copy() for p in spectral._powers(cov, orders)]
        want = [_bits(p).copy() for p in _powers_allocating(cov, orders)]
        assert len(got) == len(orders)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_interleaved_power_transforms():
    spec = preset_noise("smooth")
    orders = (1, 2, 4, 7)
    alone = {lam: spectral._power_transforms(spec, lam, orders) for lam in (0.4, 1.3)}
    first = spectral._power_transforms(spec, 0.4, orders)
    kept = list(first)
    for lam in (1.3, 0.4, 1.3):
        assert spectral._power_transforms(spec, lam, orders) == alone[lam]
    assert first == kept == alone[0.4]


def _paths():
    model = HarmonicModel(((1.0, 0.5, 1.3), (0.6, -0.4, 2.1)))
    rng = np.random.default_rng(11)
    out = []
    # two grids that share a transform length, one that does not
    for horizon in (256.0, 250.0, 1024.0):
        grid = SamplingGrid(horizon, 0.25)
        values = regression_signal(model, grid) + 0.3 * rng.standard_normal(grid.n)
        out.append(SamplePath(grid=grid, values=values))
    return out


@pytest.mark.parametrize(
    "call",
    [lambda p: est.detect_frequencies(p, 2), lambda p: est.periodogram_grid(p)],
    ids=["detect_frequencies", "periodogram_grid"],
)
def test_interleaved_calls_keep_earlier_results(call):
    paths = _paths()
    alone = [[_bits(a).copy() for a in np.atleast_1d(call(p))] for p in paths]
    held = [call(p) for p in paths]
    for p in reversed(paths):
        call(p)
    for result, want in zip(held, alone):
        got = [_bits(a) for a in np.atleast_1d(result)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _loop_calls():
    """gaussian_path, periodogram_grid and detect_frequencies on each of
    the paths in turn: the loop's three users of the "fft" workspace."""
    noise = preset_noise("smooth")
    calls = []
    for seed, path in enumerate(_paths()):
        calls += [
            lambda p=path, s=seed: gaussian_path(noise, p.grid, s),
            lambda p=path: est.periodogram_grid(p),
            lambda p=path: est.detect_frequencies(p, 2),
        ]
    return calls


def _arrays(result) -> list:
    return list(result) if isinstance(result, tuple) else [result]


def test_loop_results_do_not_share_the_workspace():
    # every array the loop returns is its own; the workspace holds only
    # scratch that the next call overwrites
    for call in _loop_calls():
        arrays = _arrays(call())
        buffers = list(spectral._WORKSPACES.arrays.values())
        assert buffers
        for array in arrays:
            assert not any(np.shares_memory(array, buf) for buf in buffers)


def test_loop_calls_in_turn_keep_earlier_results():
    # the three calls share one workspace key over grids of three sizes;
    # later calls grow and rewrite it without touching what earlier ones
    # returned
    calls = _loop_calls()
    alone = [[_bits(a).copy() for a in _arrays(call())] for call in calls]
    held = [_arrays(call()) for call in calls]
    for call in reversed(calls):
        call()
    for got, want in zip(held, alone):
        assert len(got) == len(want)
        assert all(np.array_equal(_bits(g), w) for g, w in zip(got, want))


def _run_switching(threads):
    """Start and join the threads with the switch interval cut short, so
    they swap often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_threads_match_serial_paths():
    # each thread draws into its own half spectrum and inverse FFT output;
    # a shared one shows as changed bits
    noise = preset_noise("seasonal")
    grids = [SamplingGrid(h, 0.25) for h in (64.25, 1024.0, 250.0, 2048.0)]
    serial = [_bits(gaussian_path(noise, g, 7 + i)).copy() for i, g in enumerate(grids)]
    start = threading.Barrier(len(grids))
    mismatches = []

    def worker(i):
        start.wait()
        for _ in range(16):
            if not np.array_equal(_bits(gaussian_path(noise, grids[i], 7 + i)), serial[i]):
                mismatches.append(i)

    _run_switching([threading.Thread(target=worker, args=(i,)) for i in range(len(grids))])
    assert mismatches == []


def test_threads_match_serial_plug_ins():
    transform = make_transform("centered-absolute-value")

    def plug(phi):
        result = EstimationResult(
            model=HarmonicModel(((1.01, 0.49, phi),)),
            objective=0.0,
            initial_objective=0.0,
            horizon=1024.0,
            iterations=0,
            converged=True,
            grid_resolution=1e-3,
        )
        report = plug_in_gamma(result, transform, PLUGIN_NOISE)
        return [_bits(m).copy() for m in report.matrices] + [_bits(report.s_values).copy()]

    # more threads than cores, switching often, each at its own estimate
    estimates = (1.3 + 2.1e-5, 0.7 - 3.3e-6, 1.9 + 4.4e-6, 1.1 - 1.7e-5)
    serial = {phi: plug(phi) for phi in estimates}
    start = threading.Barrier(len(estimates))
    mismatches = []

    def worker(phi):
        # a shared buffer shows as changed bits or as a failed quadrature
        # gate; either is recorded, since a thread's exception is not raised
        start.wait()
        for _ in range(8):
            try:
                got = plug(phi)
            except Exception as exc:
                mismatches.append((phi, repr(exc)))
                return
            if not all(np.array_equal(g, w) for g, w in zip(got, serial[phi])):
                mismatches.append((phi, "bits differ"))

    _run_switching([threading.Thread(target=worker, args=(phi,)) for phi in estimates])
    assert mismatches == []
