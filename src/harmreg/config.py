"""Structured key-value config files.

A config is a sequence of ``[block]`` headers followed by ``key = value``
lines; ``#`` starts a comment. Blocks may repeat: each ``[noise]`` block is
one covariance component, each ``[model]`` block one harmonic, each
``[grid]`` block one sampling grid of the schedule. Keys may repeat inside
a block where noted (``row`` in ``[correlation]``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .hermite import TransformSpec, make_transform
from .simulate import DEFAULT_BAND, DEFAULT_DT, HarmonicModel, SamplingGrid, _load_csv
from .spectral import NoiseComponent, NoiseSpec, preset_noise

_BLOCK_KEYS = {
    "noise": {"preset", "d", "alpha", "kappa", "rho"},
    "transform": {"kind", "coeffs", "k_max", "table"},
    "model": {"a", "b", "phi"},
    "band": {"low", "high"},
    "grid": {"horizon", "dt"},
    "experiment": {
        "replications",
        "master_seed",
        "j_max",
        "noise_scale",
        "allow_a4_violation",
    },
    "correlation": {"row"},
    "moments": {"orders"},
}


def parse_blocks(text: str):
    """Parse config text into an ordered list of (block_name, pairs) where
    pairs is a list of (key, raw_value) preserving order and repeats."""
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _BLOCK_KEYS:
                raise ValidationError(f"line {lineno}: unknown block [{name}]")
            current = (name, [])
            blocks.append(current)
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ValidationError(f"line {lineno}: key outside any block")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _BLOCK_KEYS[current[0]]:
            raise ValidationError(
                f"line {lineno}: unknown key {key!r} in block [{current[0]}]"
            )
        current[1].append((key, value))
    return blocks


def _as_float(value: str, context: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ValidationError(f"{context}: not a number: {value!r}")
    if not math.isfinite(out):
        raise ValidationError(f"{context}: not a finite number: {value!r}")
    return out


def _as_int(value: str, context: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{context}: not an integer: {value!r}")


def as_seed(value: str, context: str) -> int:
    """A master seed: an integer >= 0, as numpy's SeedSequence takes."""
    out = _as_int(value, context)
    if out < 0:
        raise ValidationError(f"{context}: must be nonnegative, got {out}")
    return out


def _as_floats(value: str, context: str) -> tuple[float, ...]:
    return tuple(_as_float(p, context) for p in value.split(",") if p.strip())


def _single(pairs, context: str) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"{context}: duplicate key {key!r}")
        out[key] = value
    return out


def load_noise(blocks) -> NoiseSpec | None:
    comps = []
    preset = None
    for name, pairs in blocks:
        if name != "noise":
            continue
        d = _single(pairs, "[noise]")
        if "preset" in d:
            if len(d) > 1:
                raise ValidationError("[noise]: preset excludes other keys")
            preset = d["preset"]
            continue
        if "d" not in d or "alpha" not in d:
            raise ValidationError("[noise]: d and alpha are required")
        comps.append(
            NoiseComponent(
                weight=_as_float(d["d"], "[noise] d"),
                alpha=_as_float(d["alpha"], "[noise] alpha"),
                kappa=_as_float(d.get("kappa", "0"), "[noise] kappa"),
                rho=_as_float(d.get("rho", "2"), "[noise] rho"),
            )
        )
    if preset is not None:
        if comps:
            raise ValidationError("[noise]: mix of preset and explicit components")
        return preset_noise(preset)
    if not comps:
        return None
    return NoiseSpec(tuple(comps))


def load_transform(blocks) -> TransformSpec | None:
    for name, pairs in blocks:
        if name != "transform":
            continue
        d = _single(pairs, "[transform]")
        if "kind" not in d:
            raise ValidationError("[transform]: kind is required")
        kind = d["kind"]
        kwargs = {}
        if "k_max" in d:
            kwargs["k_max"] = _as_int(d["k_max"], "[transform] k_max")
        if kind == "hermite-polynomial":
            if "coeffs" not in d:
                raise ValidationError("[transform]: coeffs required for this kind")
            kwargs["coeffs"] = _as_floats(d["coeffs"], "[transform] coeffs")
        elif kind == "user-table":
            if "table" not in d:
                raise ValidationError("[transform]: table path required for this kind")
            kwargs["table"] = read_table(d["table"])
        elif "coeffs" in d or "table" in d:
            raise ValidationError(f"[transform]: extra keys for kind {kind!r}")
        return make_transform(kind, **kwargs)
    return None


def read_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Two-column (x, g) CSV, header row optional: a first row with a cell
    that does not parse as a number is the header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        try:
            [float(p) for p in first.split(",") if p.strip()]
            skip = 0
        except ValueError:
            skip = 1
        data = _load_csv(path, skip)
    except OSError as exc:
        raise ValidationError(f"cannot read table file {path!r}: {exc}")
    if data.shape[1] != 2:
        raise ValidationError(f"table file {path!r} must have two columns")
    return data[:, 0], data[:, 1]


def load_model(blocks) -> HarmonicModel | None:
    harmonics = []
    band = None
    for name, pairs in blocks:
        if name == "band":
            d = _single(pairs, "[band]")
            if set(d) != {"low", "high"}:
                raise ValidationError("[band]: needs exactly low and high")
            band = (
                _as_float(d["low"], "[band] low"),
                _as_float(d["high"], "[band] high"),
            )
        elif name == "model":
            d = _single(pairs, "[model]")
            if set(d) != {"a", "b", "phi"}:
                raise ValidationError("[model]: needs exactly a, b, phi")
            harmonics.append(
                (
                    _as_float(d["a"], "[model] a"),
                    _as_float(d["b"], "[model] b"),
                    _as_float(d["phi"], "[model] phi"),
                )
            )
    if not harmonics:
        if band is not None:
            raise ValidationError("[band] given without any [model] block")
        return None
    return HarmonicModel(tuple(harmonics), band=band or DEFAULT_BAND)


def load_grids(blocks) -> tuple[SamplingGrid, ...]:
    grids = []
    for name, pairs in blocks:
        if name != "grid":
            continue
        d = _single(pairs, "[grid]")
        if "horizon" not in d:
            raise ValidationError("[grid]: horizon is required")
        grids.append(
            SamplingGrid(
                horizon=_as_float(d["horizon"], "[grid] horizon"),
                dt=_as_float(d.get("dt", str(DEFAULT_DT)), "[grid] dt"),
            )
        )
    return tuple(grids)


def load_experiment(blocks) -> dict:
    for name, pairs in blocks:
        if name != "experiment":
            continue
        d = _single(pairs, "[experiment]")
        out = {}
        if "replications" in d:
            out["replications"] = _as_int(d["replications"], "replications")
        if "master_seed" in d:
            out["master_seed"] = as_seed(d["master_seed"], "master_seed")
        if "j_max" in d:
            out["j_max"] = _as_int(d["j_max"], "j_max")
        if "noise_scale" in d:
            out["noise_scale"] = _as_float(d["noise_scale"], "noise_scale")
        if "allow_a4_violation" in d:
            raw = d["allow_a4_violation"].lower()
            if raw not in ("true", "false", "0", "1"):
                raise ValidationError("allow_a4_violation must be boolean")
            out["allow_a4_violation"] = raw in ("true", "1")
        return out
    return {}


def load_correlation(blocks) -> np.ndarray | None:
    rows = []
    for name, pairs in blocks:
        if name != "correlation":
            continue
        for key, value in pairs:
            rows.append(_as_floats(value, "[correlation] row"))
    if not rows:
        return None
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise ValidationError("[correlation]: rows must form a square matrix")
    return np.array(rows)


def load_orders(blocks) -> tuple[int, ...] | None:
    for name, pairs in blocks:
        if name != "moments":
            continue
        d = _single(pairs, "[moments]")
        if "orders" not in d:
            raise ValidationError("[moments]: orders is required")
        return tuple(
            _as_int(p, "[moments] orders") for p in d["orders"].split(",") if p.strip()
        )
    return None


def read_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blocks(fh.read())

