"""Structured key-value text: config files in, reports out.

A config is a sequence of ``[block]`` headers followed by ``key = value``
lines; ``#`` starts a comment. Three blocks repeat: each ``[noise]`` block
is one covariance component, each ``[model]`` block one harmonic, each
``[grid]`` block one sampling grid of the schedule. Every other block may
appear once, and a ``preset`` ``[noise]`` block once. Keys may repeat
inside a block where noted (``row`` in ``[correlation]``). One table,
``_BLOCKS``, holds each block's keys and the reader of each key's value;
the loaders take the values it has read and keep only the rules that tie
keys together. Reports are written in the same syntax by ``format_block``.

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
            if name not in _BLOCKS:
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
        if key not in _BLOCKS[current[0]]:
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


def _as_ints(value: str, context: str) -> tuple[int, ...]:
    return tuple(_as_int(p, context) for p in _items(value, context))


def _as_bool(value: str, context: str) -> bool:
    raw = value.lower()
    if raw not in ("true", "false", "0", "1"):
        raise ValidationError(f"{context} must be boolean")
    return raw in ("true", "1")


def _as_text(value: str, context: str) -> str:
    return value


# every block's keys, each with the reader of its value; a block's values
# are read in this order
_BLOCKS = {
    "noise": {"preset": _as_text, **dict.fromkeys(("d", "alpha", "kappa", "rho"), _as_float)},
    "transform": {
        "kind": _as_text,
        "k_max": _as_int,
        "coeffs": _as_floats,
        "table": lambda path, context: read_table(path),
    },
    "model": dict.fromkeys(("a", "b", "phi"), _as_float),
    "band": dict.fromkeys(("low", "high"), _as_float),
    "grid": dict.fromkeys(("horizon", "dt"), _as_float),
    "experiment": {
        "replications": _as_int,
        "master_seed": as_seed,
        "j_max": _as_int,
        "noise_scale": _as_float,
        "allow_a4_violation": _as_bool,
    },
    "correlation": {"row": _as_floats},
    "moments": {"orders": _as_ints},
}


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


def _read(name: str, key: str, value: str):
    """One value of a [name] block, read by the table's reader; a message
    names an [experiment] key without its block."""
    return _BLOCKS[name][key](value, key if name == "experiment" else f"[{name}] {key}")


def _typed(name: str, pairs) -> dict | None:
    """The values of one [name] block by key, read in the table's order, or
    None for an absent block (pairs None); a repeated key is refused before
    any value is read."""
    if pairs is None:
        return None
    raw = {}
    for key, value in pairs:
        if key in raw:
            raise ValidationError(f"[{name}]: duplicate key {key!r}")
        raw[key] = value
    return {key: _read(name, key, raw[key]) for key in _BLOCKS[name] if key in raw}


def _each(blocks, name: str):
    """The values of every [name] block, read one block at a time."""
    return (_typed(name, pairs) for block, pairs in blocks if block == name)


def load_noise(blocks) -> NoiseSpec | None:
    comps = []
    preset = None
    for d in _each(blocks, "noise"):
        if "preset" in d:
            if len(d) > 1:
                raise ValidationError("[noise]: preset excludes other keys")
            if preset is not None:
                raise ValidationError("[noise]: a preset may appear only once")
            preset = d["preset"]
        elif "d" not in d or "alpha" not in d:
            raise ValidationError("[noise]: d and alpha are required")
        else:
            comps.append(NoiseComponent(d["d"], d["alpha"], d.get("kappa", 0.0), d.get("rho", 2.0)))
    if preset is not None:
        if comps:
            raise ValidationError("[noise]: mix of preset and explicit components")
        return preset_noise(preset)
    if not comps:
        return None
    return NoiseSpec(tuple(comps))


def load_transform(blocks) -> TransformSpec | None:
    """The [transform] block as ``make_transform`` builds it from the
    block's keys; ``make_transform`` refuses a key the kind does not read."""
    d = _typed("transform", _only(blocks, "transform"))
    if d is None:
        return None
    if "kind" not in d:
        raise ValidationError("[transform]: kind is required")
    if d["kind"] == "hermite-polynomial" and "coeffs" not in d:
        raise ValidationError("[transform]: coeffs required for this kind")
    if d["kind"] == "user-table" and "table" not in d:
        raise ValidationError("[transform]: table path required for this kind")
    return make_transform(**d)


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
    band = _typed("band", _only(blocks, "band"))
    if band is not None and band.keys() != {"low", "high"}:
        raise ValidationError("[band]: needs exactly low and high")
    harmonics = []
    for d in _each(blocks, "model"):
        if d.keys() != {"a", "b", "phi"}:
            raise ValidationError("[model]: needs exactly a, b, phi")
        harmonics.append((d["a"], d["b"], d["phi"]))
    if not harmonics:
        if band is not None:
            raise ValidationError("[band] given without any [model] block")
        return None
    band = (band["low"], band["high"]) if band else DEFAULT_BAND
    return HarmonicModel(tuple(harmonics), band=band)


def load_grids(blocks) -> tuple[SamplingGrid, ...]:
    grids = []
    for d in _each(blocks, "grid"):
        if "horizon" not in d:
            raise ValidationError("[grid]: horizon is required")
        grids.append(SamplingGrid(horizon=d["horizon"], dt=d.get("dt", DEFAULT_DT)))
    return tuple(grids)


def load_experiment(blocks) -> dict:
    return _typed("experiment", _only(blocks, "experiment") or ())


def load_correlation(blocks) -> np.ndarray | None:
    # every key of the block is a row
    rows = [_read("correlation", "row", value) for _, value in _only(blocks, "correlation") or ()]
    if not rows:
        return None
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise ValidationError("[correlation]: rows must form a square matrix")
    return np.array(rows)


def load_orders(blocks) -> tuple[int, ...] | None:
    d = _typed("moments", _only(blocks, "moments"))
    if d is not None and "orders" not in d:
        raise ValidationError("[moments]: orders is required")
    return None if d is None else d["orders"]


def read_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blocks(fh.read())

