"""Structured key-value text: config files in, reports out.

A config is a sequence of ``[block]`` headers followed by ``key = value``
lines; ``#`` starts a comment. Three blocks repeat: each ``[noise]`` block
is one covariance component, each ``[model]`` block one harmonic, each
``[grid]`` block one sampling grid of the schedule. Every other block may
appear once, and a ``preset`` ``[noise]`` block once. Keys may repeat
inside a block where noted (``row`` in ``[correlation]``). Reports are
written in the same syntax by ``format_block``.

CSV files (sample paths, transform tables and the tables of numbers the
command line writes) are written by ``format_csv`` and read by
``read_csv``.
"""

from __future__ import annotations

import math
import numbers
import pathlib

import numpy as np

from .errors import ValidationError, require_count
from .hermite import TransformSpec, make_transform
from .simulate import DEFAULT_BAND, DEFAULT_DT, HarmonicModel, SamplePath, SamplingGrid
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
    require_count(context, out, 0)
    return out


def _items(value: str, context: str) -> list[str]:
    """The comma-separated items of a list value; an empty item is refused,
    so a stray comma cannot shift the items after it."""
    items = value.split(",")
    if any(not p.strip() for p in items):
        raise ValidationError(f"{context}: empty list item in {value!r}")
    return items


def _as_floats(value: str, context: str) -> tuple[float, ...]:
    return tuple(_as_float(p, context) for p in _items(value, context))


def _render(value) -> str:
    """One value as report text: a real with 17 significant digits, so it
    reads back bit for bit, a sequence as its items joined by ", "."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(value)
    if isinstance(value, numbers.Real):
        return f"{value:.17g}"
    return ", ".join(_render(v) for v in value)


def format_block(name: str, pairs) -> str:
    """``[name]`` and one ``key = value`` line per (key, value) pair, each
    line ending in a newline; blocks joined by a newline read back through
    ``parse_blocks``."""
    return "".join([f"[{name}]\n"] + [f"{key} = {_render(v)}\n" for key, v in pairs])


def format_csv(header, rows) -> str:
    """The header line, then one line per row, each line ending in a
    newline; cells are rendered by ``_render``, so reals read back bit for
    bit."""
    return "".join(",".join(map(_render, cells)) + "\n" for cells in [header, *rows])


def write_csv(file, header, rows) -> None:
    """Write ``format_csv(header, rows)`` to a file, as UTF-8."""
    pathlib.Path(file).write_text(format_csv(header, rows), encoding="utf-8")


def read_csv(path) -> tuple[list[str] | None, np.ndarray]:
    """The header cells, or None, and the rows of a numeric CSV file as a
    2-D array. The first line is a header when one of its cells does not
    parse as a number; a file without data rows gives a 0 x 0 array.
    ValidationError on a data cell that does not parse as a number or is
    not finite; OSError when the file cannot be read."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].strip().split(",") if lines else None
    try:
        [float(p) for p in header or () if p.strip()]
        header = None
    except ValueError:
        pass
    skip = 0 if header is None else 1
    if not any(line.strip() for line in lines[skip:]):
        return header, np.zeros((0, 0))
    try:
        data = np.loadtxt(lines, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: holds a value that is not finite")
    return header, data


def write_path(sample: SamplePath, file) -> None:
    """Write a sample path as CSV: columns t,x, and signal,noise when the
    path keeps both components."""
    both = sample.signal is not None and sample.noise is not None
    cols = [sample.grid.times(), sample.values] + ([sample.signal, sample.noise] if both else [])
    write_csv(file, ["t", "x", "signal", "noise"][:len(cols)], np.column_stack(cols).tolist())


def read_path(file) -> SamplePath:
    """The sample path of a CSV file that ``write_path`` writes: a header
    starting t,x, uniform times from t = 0, and signal and noise columns
    when the header names them."""
    header, data = read_csv(file)
    if header is None or header[:2] != ["t", "x"]:
        # a first line of numbers is no header; it is shown as read back
        first = ",".join(header or map(_render, data[:1].ravel().tolist()))
        raise ValidationError(f"path CSV must start with header 't,x', got {first!r}")
    if len(data) < 2:
        raise ValidationError("path CSV needs at least two rows")
    t = data[:, 0]
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=0.0, atol=1e-9 * max(dt, 1.0)):
        raise ValidationError("path CSV must be uniformly sampled")
    if abs(t[0]) > 1e-12:
        raise ValidationError("path CSV must start at t = 0")
    if len(header) > data.shape[1]:
        raise ValidationError(f"path CSV header names {len(header)} columns, its rows hold {data.shape[1]}")
    grid = SamplingGrid(horizon=dt * len(t), dt=dt)
    signal, noise = (data[:, header.index(name)] if name in header else None
                     for name in ("signal", "noise"))
    return SamplePath(grid=grid, values=data[:, 1], signal=signal, noise=noise)


def _only(blocks, name: str):
    """The (key, value) pairs of the one [name] block, or None when it is
    absent; a repeated block is refused."""
    found = [pairs for block, pairs in blocks if block == name]
    if len(found) > 1:
        raise ValidationError(f"[{name}]: may appear only once, found {len(found)}")
    return found[0] if found else None


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
            if preset is not None:
                raise ValidationError("[noise]: a preset may appear only once")
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
    pairs = _only(blocks, "transform")
    if pairs is None:
        return None
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


def read_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Two-column (x, g) CSV, header row optional: a first row with a cell
    that does not parse as a number is the header."""
    try:
        _, data = read_csv(path)
    except OSError as exc:
        raise ValidationError(f"cannot read table file {path!r}: {exc}")
    if data.shape[1] != 2:
        raise ValidationError(f"table file {path!r} must have two columns")
    return data[:, 0], data[:, 1]


def load_model(blocks) -> HarmonicModel | None:
    band = None
    pairs = _only(blocks, "band")
    if pairs is not None:
        d = _single(pairs, "[band]")
        if set(d) != {"low", "high"}:
            raise ValidationError("[band]: needs exactly low and high")
        band = (_as_float(d["low"], "[band] low"), _as_float(d["high"], "[band] high"))
    harmonics = []
    for name, pairs in blocks:
        if name != "model":
            continue
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
    d = _single(_only(blocks, "experiment") or (), "[experiment]")
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


def load_correlation(blocks) -> np.ndarray | None:
    # every key of the block is a row
    rows = [_as_floats(value, "[correlation] row")
            for _, value in _only(blocks, "correlation") or ()]
    if not rows:
        return None
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise ValidationError("[correlation]: rows must form a square matrix")
    return np.array(rows)


def load_orders(blocks) -> tuple[int, ...] | None:
    pairs = _only(blocks, "moments")
    if pairs is None:
        return None
    d = _single(pairs, "[moments]")
    if "orders" not in d:
        raise ValidationError("[moments]: orders is required")
    return tuple(_as_int(p, "[moments] orders") for p in _items(d["orders"], "[moments] orders"))


def read_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blocks(fh.read())

