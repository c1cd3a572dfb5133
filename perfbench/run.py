"""Layered benchmark of harmreg's simulate -> estimate -> validate loop.

    python3 perfbench/run.py --workload clt-serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run from the root of a source checkout: the benchmark imports harmreg from
``src/`` next to this directory and exits with code 2 when it is missing.
With ``--trace 0`` it times the workload's top-level calls and reports the
end-to-end metrics; with ``--trace 1`` it also drives the same seeds through
the stage functions with a span around every call and reports the
per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Any failed output check
makes ``correct`` false and the exit code 1. See README.md for the
workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("clt-serial", "two-harmonic-pool", "plugin-validate", "noise-sweep")
TIMING_NOTE = (
    "wall times from time.perf_counter, CPU times and peak RSS from getrusage "
    "of this process and its children; no system-wide tracing, no cache "
    "control, no thread variable set"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="master seed; defaults to the workload's own")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="load the workload, print 'ready' and exit (setup_s probe)")
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    from harmreg import _kernels

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "numba_imports": bool(_kernels.HAS_NUMBA),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "timing": TIMING_NOTE,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start until the workload is ready for its first replication
    call, in fresh interpreters, one after another."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {child.returncode}")
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of its largest child
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(outcomes, setup_samples) -> tuple[dict, dict]:
    attempted = sum(o.attempted for o in outcomes)
    wall = sum(o.wall for o in outcomes)
    lost = sum(o.lost for o in outcomes)
    metrics = {
        "reps_per_s": metric(attempted / wall, "1/s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    extra = {"failed_frac": metric(lost / attempted, "frac")}
    return metrics, extra


def per_layer(case, tracer, stats, outcomes, usage) -> tuple[dict, dict]:
    from tracing import median, tail

    ms = 1000.0
    d = tracer.durations
    details = {}

    def timing(name):
        values = d(name)
        value, label = tail(values)
        details[name] = {"samples": len(values), "tail_percentile": label}
        return median(values) * ms, value * ms

    obs = d("simulate.observe")
    obs_p50, _ = timing("simulate.observe")
    pgram_p50, _ = timing("estimator.periodogram_grid")
    detect_p50, _ = timing("estimator.detect")
    refine_p50, refine_tail = timing("estimator.refine")
    est_p50, est_tail = timing("estimator.estimate")
    plug_p50, plug_tail = timing("asymptotics.plug_in")
    rep_p50, rep_tail = timing("replication")
    warm_p50, _ = timing("asymptotics.gamma_report.warm")

    kind = case.workload.kind
    workers = case.workload.workers
    serial_busy = tracer.busy("replication")
    wall = stats["work_s"]
    if kind == "montecarlo":
        overhead = stats["replications_wall"] - (serial_busy + stats["probes_s"]) / workers
        report_ms = median(d("montecarlo.report")) * ms
    else:
        overhead = wall - serial_busy
        report_ms = 0.0
    uses_montecarlo = kind != "plugin"  # plugin-validate never calls harmreg.montecarlo
    attempted = sum(o.attempted for o in outcomes)
    untraced_rate = attempted / sum(o.wall for o in outcomes)
    traced_rate = stats["attempted"] / wall
    lost = sum(o.lost for o in outcomes)
    obs_busy = sum(obs)
    first = d("simulate.first_call")

    m = {
        "simulate.observe.calls": metric(len(obs), "count"),
        "simulate.observe.busy_s": metric(obs_busy, "s"),
        "simulate.observe.p50_ms": metric(obs_p50, "ms"),
        "simulate.first_call_ms": metric(statistics.fmean(first) * ms if first else 0.0, "ms"),
        "simulate.points_per_s": metric(stats["points"] / obs_busy if obs_busy else 0.0, "1/s"),
        "estimator.periodogram_grid.p50_ms": metric(pgram_p50, "ms"),
        "estimator.detect.busy_s": metric(tracer.busy("estimator.detect"), "s"),
        "estimator.detect.p50_ms": metric(detect_p50, "ms"),
        "estimator.amplitudes.busy_s": metric(tracer.busy("estimator.amplitudes"), "s"),
        "estimator.refine.busy_s": metric(tracer.busy("estimator.refine"), "s"),
        "estimator.refine.p50_ms": metric(refine_p50, "ms"),
        "estimator.refine.tail_ms": metric(refine_tail, "ms"),
        "estimator.refine.iterations": metric(stats["iterations"], "count"),
        "estimator.refine.max_iter_hits": metric(stats["max_iter_hits"], "count"),
        "estimator.refine.converged_ratio": metric(
            stats["converged"] / stats["refine_calls"] if stats["refine_calls"] else 0.0, "frac"),
        "estimator.estimate.p50_ms": metric(est_p50, "ms"),
        "estimator.estimate.tail_ms": metric(est_tail, "ms"),
        "asymptotics.plug_in.busy_s": metric(tracer.busy("asymptotics.plug_in"), "s"),
        "asymptotics.plug_in.p50_ms": metric(plug_p50, "ms"),
        "asymptotics.plug_in.tail_ms": metric(plug_tail, "ms"),
        "asymptotics.gamma_report.cold_s": metric(tracer.busy("asymptotics.gamma_report.cold"), "s"),
        "asymptotics.gamma_report.warm_ms": metric(warm_p50, "ms"),
        "asymptotics.b_m.ms": metric(tracer.busy("asymptotics.b_m") * ms, "ms"),
        "hermite.make_transform.ms": metric(tracer.busy("hermite.make_transform") * ms, "ms"),
        "montecarlo.serial_busy_s": metric(serial_busy if uses_montecarlo else 0.0, "s"),
        "montecarlo.parallel_efficiency": metric(
            serial_busy / (workers * wall) if uses_montecarlo else 0.0, "frac"),
        "montecarlo.overhead_s": metric(overhead if uses_montecarlo else 0.0, "s"),
        "montecarlo.cpu_per_wall": metric(
            usage["cpu_s"] / usage["wall_s"] if uses_montecarlo else 0.0, "frac"),
        "montecarlo.report_ms": metric(report_ms, "ms"),
        "replication.p50_ms": metric(rep_p50, "ms"),
        "replication.tail_ms": metric(rep_tail, "ms"),
        "replication.stage_coverage": metric(median(tracer.child_coverage("replication")), "frac"),
        "failed_frac": metric(min(attempted, lost + stats["repro_mismatch"]) / attempted, "frac"),
        "trace.overhead_frac": metric(1.0 - traced_rate / untraced_rate, "frac"),
    }
    return m, details


def _untraced_child(conn, workloads, case, state, seconds):
    try:
        conn.send(workloads.run_untraced(case, state, seconds))
    finally:
        conn.close()


def untraced_in_fork(workloads, case, state, seconds):
    """The untraced pass of a traced run, in a forked copy of this process.
    The traced pass then replays the same seeds here, where harmreg's
    caches are as cold as they were for the untraced pass; replaying in
    one process would hand the traced pass the plug-in quadratures that
    the untraced pass had already cached."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_untraced_child, args=(sender, workloads, case, state, seconds))
    child.start()
    sender.close()
    try:
        result = receiver.recv()  # drain the pipe before joining
    finally:
        child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"untraced pass exited with code {child.exitcode}")
    return result


def run_workload(args) -> int:
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else workloads.default_seed(workload)
    out_dir = os.path.join(OUT, workload.name)
    os.makedirs(out_dir, exist_ok=True)
    if args.setup_only:
        workloads.setup(workload, seed, out_dir)
        print("ready", flush=True)
        return 0

    setup_samples = measure_setup(workload.name, seed)
    case = workloads.setup(workload, seed, out_dir)
    tracer = Tracer() if args.trace else None
    state = workloads.prepare(case, tracer)
    if args.trace:
        outcomes, usage = untraced_in_fork(workloads, case, state,
                                           args.seconds * workloads.UNTRACED_SHARE)
    else:
        outcomes, usage = workloads.run_untraced(case, state, args.seconds)

    final = workloads.finish_checks(case, state, outcomes)
    if final:  # a check over the whole run fails every replication in it
        for o in outcomes:
            o.check_failed = o.attempted
    notes = [n for o in outcomes for n in o.notes] + final
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(min(o.attempted, o.failed + o.check_failed) for o in outcomes)

    facts = machine_facts()
    metrics, extra = end_to_end(outcomes, setup_samples)
    details = {}
    if args.trace:
        stats = workloads.run_traced(case, outcomes, tracer)
        if stats["repro_mismatch"]:
            notes.append(f"{stats['repro_mismatch']} traced calls did not reproduce "
                         "estimate_harmonics / the untraced run")
            failed = min(attempted, failed + stats["repro_mismatch"])
        metrics, details = per_layer(case, tracer, stats, outcomes, usage)
        spans_path = os.path.join(out_dir, f"spans-seed{seed}.jsonl")
        tracer.write(spans_path)
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
    correct = not notes

    for note in notes:
        print(f"CHECK FAILED: {note}")
    print(f"{workload.name} seed={seed} trace={args.trace} machine={json.dumps(facts)}")
    for name, m in {**metrics, **(extra if not args.trace else {})}.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"result-seed{seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "workload": workload.name, "seed": seed, "seconds": args.seconds,
                   "setup_samples_s": setup_samples, "untraced_extra": extra,
                   "untraced_call_walls_s": [o.wall for o in outcomes],
                   "details": details, "notes": notes, "machine": facts}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each measures its own set-up
    and peak memory; prints their lines and one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        code = max(code, proc.returncode)
        try:
            part = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, m in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return code if combined["correct"] else max(code, 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "harmreg", "__init__.py")):
        print(f"perfbench: no harmreg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
