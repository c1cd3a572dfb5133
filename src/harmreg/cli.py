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
    _scaled_noise,
    grid_labels,
    observe,
    replication_seed,
    require_noise_scale,
)


def _parse_band(text: str) -> tuple[float, float]:
    band = cfg._as_floats(text, "band")
    if len(band) != 2:
        raise ValidationError(f"band must be 'lo,hi', got {text!r}")
    return band


def _require(value, block: str, source: str):
    if value is None:
        raise ValidationError(f"{source} does not define a [{block}] block")
    return value


def _out_path(args, name: str) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _cmd_simulate(args) -> int:
    blocks = cfg.read_file(args.config)
    noise = _require(cfg.load_noise(blocks), "noise", args.config)
    transform = _require(cfg.load_transform(blocks), "transform", args.config)
    model = cfg.load_model(blocks)
    # a config without grids is refused like one without any other block
    grids = _require(cfg.load_grids(blocks) or None, "grid", args.config)
    exp = cfg.load_experiment(blocks)
    master = args.seed if args.seed is not None else exp.get("master_seed", 0)
    allow = exp.get("allow_a4_violation", False)
    scale = exp.get("noise_scale", 1.0)
    # the noise-only branch does not go through observe, which checks it too
    require_noise_scale(scale)
    for gi, (grid, label) in enumerate(zip(grids, grid_labels(grids))):
        seed = replication_seed(master, gi, 0)
        if model is None:
            values = _scaled_noise(noise, transform, grid, seed, scale)
            path = SamplePath(grid=grid, values=values)
        else:
            path = observe(model, noise, transform, grid, seed,
                           allow_a4_violation=allow, noise_scale=scale)
        target = _out_path(args, f"path_{label}.csv")
        cfg.write_path(path, target)
        print(f"wrote {target} ({grid.n} samples, dt = {grid.dt:g})")
    return 0


def _cmd_estimate(args) -> int:
    path = cfg.read_path(args.input)
    band = _parse_band(args.band) if args.band else DEFAULT_BAND
    truth = None
    if args.truth:
        truth = _require(cfg.load_model(cfg.read_file(args.truth)), "model", args.truth)
    result = estimate_harmonics(path, args.n_harmonics, band=band, truth=truth)
    blocks = [cfg.format_block("estimate", [
        ("horizon", result.horizon),
        ("objective", result.objective),
        ("initial_objective", result.initial_objective),
        ("iterations", result.iterations),
        ("converged", result.converged),
        ("grid_resolution", result.grid_resolution),
    ])]
    blocks += [cfg.format_block("model", [("a", a), ("b", b), ("phi", phi)])
               for a, b, phi in result.model.harmonics]
    err = result.normalized_errors
    if err is not None:
        blocks.append(cfg.format_block("normalized_errors", zip(("a", "b", "phi"), err)))
    print("\n".join(blocks), end="")
    if err is not None and args.out:
        target = _out_path(args, "normalized_errors.csv")
        cfg.write_csv(target, ["errA", "errB", "errPhi"], err.T.tolist())
        print(f"\nwrote {target}")
    return 0


def _cmd_asymptotics(args) -> int:
    model = _require(cfg.load_model(cfg.read_file(args.model)), "model", args.model)
    noise = _require(cfg.load_noise(cfg.read_file(args.noise)), "noise", args.noise)
    transform = _require(cfg.load_transform(cfg.read_file(args.transform)), "transform",
                         args.transform)
    report = gamma_report(model, transform, noise, j_max=args.j_max, mode=args.mode)
    blocks = [cfg.format_block("gamma_report", [("mode", report.mode), ("j_max", report.j_max)])]
    for k, phi in enumerate(report.frequencies):
        blocks.append(cfg.format_block("gamma", [
            ("harmonic", k),
            ("phi", phi),
            ("s", report.s_values[k]),
            ("tail_bound", report.tail_bounds[k]),
            ("quad_error", report.quad_errors[k]),
            ("eigenvalues", report.eigenvalues[k]),
            *(("row", row) for row in report.matrices[k]),
        ]))
    print("\n".join(blocks), end="")
    if args.out:
        target = _out_path(args, "gamma.csv")
        rows = [(k, phi, i, j, v)
                for k, (phi, mat) in enumerate(zip(report.frequencies, report.matrices))
                for (i, j), v in np.ndenumerate(mat)]
        cfg.write_csv(target, ["harmonic", "phi", "i", "j", "value"], rows)
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
        noise=_require(cfg.load_noise(blocks), "noise", args.config),
        transform=_require(cfg.load_transform(blocks), "transform", args.config),
        model=_require(cfg.load_model(blocks), "model", args.config),
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
    orders = _require(cfg.load_orders(blocks), "moments", args.config)
    corr = _require(cfg.load_correlation(blocks), "correlation", args.config)
    print(cfg.format_block("moments", [
        ("orders", orders),
        ("moment", hermite_product_moment(orders, corr)),
        ("diagrams", len(enumerate_diagrams(orders))),
        ("regular_diagrams", regular_census(orders)),
    ]), end="")
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
