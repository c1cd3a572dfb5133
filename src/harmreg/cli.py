"""Command-line surface.

Subcommands: simulate, estimate, asymptotics, montecarlo, moments.
Each takes only the flags it reads: --out (output directory) on all but
moments, --seed (master seed override) on simulate and montecarlo, and
--workers on montecarlo. Exit codes: 0 success, 2 validation error or
unknown flag, 3 experiment failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import config as cfg
from .asymptotics import DEFAULT_J_MAX, MODES, gamma_report
from .diagrams import enumerate_diagrams, hermite_product_moment, regular_census
from .errors import ExperimentError, ValidationError
from .estimator import estimate_harmonics
from .montecarlo import ExperimentConfig, run_replications
from .simulate import (
    DEFAULT_BAND,
    SamplePath,
    gaussian_path,
    observe,
    subordinate,
)


def _parse_band(text: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValidationError("band must be 'lo,hi'")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"band must be numeric, got {text!r}")


def _require(value, what: str, source: str):
    if value is None:
        raise ValidationError(f"{source} does not define {what}")
    return value


def _out_path(args, name: str) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _cmd_simulate(args) -> int:
    blocks = cfg.read_file(args.config)
    noise = _require(cfg.load_noise(blocks), "a [noise] block", args.config)
    transform = _require(cfg.load_transform(blocks), "a [transform] block", args.config)
    model = cfg.load_model(blocks)
    grids = cfg.load_grids(blocks)
    if not grids:
        raise ValidationError(f"{args.config} does not define a [grid] block")
    exp = cfg.load_experiment(blocks)
    master = args.seed if args.seed is not None else exp.get("master_seed", 0)
    allow = exp.get("allow_a4_violation", False)
    scale = exp.get("noise_scale", 1.0)
    if not scale >= 0.0:
        # observe checks this too (NaN included), but the noise-only branch
        # does not call it
        raise ValidationError("noise_scale must be nonnegative")
    for gi, grid in enumerate(grids):
        seed = np.random.SeedSequence(entropy=master, spawn_key=(gi, 0))
        if model is None:
            values = subordinate(gaussian_path(noise, grid, seed), transform)
            path = SamplePath(grid=grid, values=scale * values)
        else:
            path = observe(model, noise, transform, grid, seed,
                           allow_a4_violation=allow, noise_scale=scale)
        name = f"path_T{grid.horizon:g}.csv"
        target = _out_path(args, name)
        path.to_csv(target)
        print(f"wrote {target} ({grid.n} samples, dt = {grid.dt:g})")
    return 0


def _cmd_estimate(args) -> int:
    path = SamplePath.from_csv(args.input)
    band = _parse_band(args.band) if args.band else DEFAULT_BAND
    truth = None
    if args.truth:
        truth = _require(
            cfg.load_model(cfg.read_file(args.truth)), "a [model] block", args.truth
        )
    result = estimate_harmonics(path, args.n_harmonics, band=band, truth=truth)
    print("[estimate]")
    print(f"horizon = {result.horizon:.17g}")
    print(f"objective = {result.objective:.17g}")
    print(f"initial_objective = {result.initial_objective:.17g}")
    print(f"iterations = {result.iterations}")
    print(f"converged = {str(result.converged).lower()}")
    print(f"grid_resolution = {result.grid_resolution:.17g}")
    for a, b, phi in result.model.harmonics:
        print()
        print("[model]")
        print(f"a = {a:.17g}")
        print(f"b = {b:.17g}")
        print(f"phi = {phi:.17g}")
    if result.normalized_errors is not None:
        err = result.normalized_errors
        print()
        print("[normalized_errors]")
        for label, row in zip(("a", "b", "phi"), err):
            print(f"{label} = " + ", ".join(f"{v:.17g}" for v in row))
        if args.out:
            target = _out_path(args, "normalized_errors.csv")
            np.savetxt(target, err.T, delimiter=",", fmt="%.17g",
                       header="errA,errB,errPhi", comments="")
            print(f"\nwrote {target}")
    return 0


def _cmd_asymptotics(args) -> int:
    model = _require(
        cfg.load_model(cfg.read_file(args.model)), "a [model] block", args.model
    )
    noise = _require(
        cfg.load_noise(cfg.read_file(args.noise)), "a [noise] block", args.noise
    )
    transform = _require(
        cfg.load_transform(cfg.read_file(args.transform)),
        "a [transform] block",
        args.transform,
    )
    report = gamma_report(model, transform, noise, j_max=args.j_max, mode=args.mode)
    print("[gamma_report]")
    print(f"mode = {report.mode}")
    print(f"j_max = {report.j_max}")
    rows = []
    for k, phi in enumerate(report.frequencies):
        mat = report.matrices[k]
        print()
        print("[gamma]")
        print(f"harmonic = {k}")
        print(f"phi = {phi:.17g}")
        print(f"s = {report.s_values[k]:.17g}")
        print(f"tail_bound = {report.tail_bounds[k]:.17g}")
        print(f"quad_error = {report.quad_errors[k]:.17g}")
        print(
            "eigenvalues = "
            + ", ".join(f"{v:.17g}" for v in report.eigenvalues[k])
        )
        for i in range(3):
            print("row = " + ", ".join(f"{mat[i, j]:.17g}" for j in range(3)))
        for i in range(3):
            for j in range(3):
                rows.append((k, phi, i, j, mat[i, j]))
    if args.out:
        target = _out_path(args, "gamma.csv")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write("harmonic,phi,i,j,value\n")
            for k, phi, i, j, v in rows:
                fh.write(f"{k},{phi:.17g},{i},{j},{v:.17g}\n")
        print(f"\nwrote {target}")
    return 0


def _cmd_montecarlo(args) -> int:
    blocks = cfg.read_file(args.config)
    exp = cfg.load_experiment(blocks)
    if args.seed is not None:
        exp["master_seed"] = args.seed
    if "replications" not in exp or "master_seed" not in exp:
        raise ValidationError(
            f"{args.config} must define replications and master_seed "
            "(or pass --seed)"
        )
    conf = ExperimentConfig(
        noise=_require(cfg.load_noise(blocks), "a [noise] block", args.config),
        transform=_require(
            cfg.load_transform(blocks), "a [transform] block", args.config
        ),
        model=_require(cfg.load_model(blocks), "a [model] block", args.config),
        grids=cfg.load_grids(blocks),
        **exp,
    )
    start = time.perf_counter()
    report = run_replications(conf, workers=args.workers)
    elapsed = time.perf_counter() - start
    text = report.to_text()
    if args.out:
        runtime = (
            f"wall_seconds = {elapsed:.3f}\n"
            f"workers = {args.workers}\n"
        )
        report.write(args.out, runtime_note=runtime)
        print(f"wrote report to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_moments(args) -> int:
    blocks = cfg.read_file(args.config)
    orders = _require(cfg.load_orders(blocks), "a [moments] block", args.config)
    corr = _require(
        cfg.load_correlation(blocks), "a [correlation] block", args.config
    )
    moment = hermite_product_moment(orders, corr)
    diagrams = enumerate_diagrams(orders)
    print("[moments]")
    print("orders = " + ", ".join(str(v) for v in orders))
    print(f"moment = {moment:.17g}")
    print(f"diagrams = {len(diagrams)}")
    print(f"regular_diagrams = {regular_census(orders)}")
    return 0


def _seed_flag(text: str) -> int:
    try:
        return cfg.as_seed(text, "master seed")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed_flag, default=None,
                      help="master seed override")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output directory")

    parser = argparse.ArgumentParser(
        prog="harmreg",
        description="Simulate, estimate and validate hidden harmonics "
        "in cyclically dependent noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[seed, out],
                       help="draw sample paths from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", parents=[out],
                       help="estimate harmonics from a path CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--n-harmonics", type=int, required=True)
    p.add_argument("--band", default=None, help="frequency band 'lo,hi'")
    p.add_argument("--truth", default=None,
                   help="model config for normalized errors")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("asymptotics", parents=[out],
                       help="limit covariance blocks for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--transform", required=True)
    p.add_argument("--mode", choices=MODES, default="derived")
    p.add_argument("--j-max", type=int, default=DEFAULT_J_MAX)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("montecarlo", parents=[seed, out],
                       help="replication experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for replications")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("moments",
                       help="Hermite product moment and diagram census")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
