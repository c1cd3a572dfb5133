"""The repository tools, run as scripts on small inputs counted by hand,
the names the benchmark reads from harmreg, the one CSV writer and
reader, the one real FFT of a path, and the one owner of scratch
arrays."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
CODE_LINES = ROOT / "tools" / "code_lines.py"

# code lines: the import, the def line and the four lines of the call; the
# docstrings, the comment line and the blank lines do not count
MODULE = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment


def area(r):
    """A function docstring."""
    return math.pi * max(
        r,
        0.0,
    )
'''


def _code_lines(root):
    return subprocess.run(
        [sys.executable, str(CODE_LINES), str(root)],
        capture_output=True, text=True, check=False,
    )


def test_code_lines_counts_a_package_by_hand(tmp_path):
    (tmp_path / "__init__.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "shapes.py").write_text(MODULE)
    run = _code_lines(tmp_path)
    assert run.returncode == 0
    assert run.stdout == "     0  __init__.py\n     6  shapes.py\n     6  total\n"


def test_code_lines_refuses_an_empty_directory(tmp_path):
    run = _code_lines(tmp_path)
    assert run.returncode == 2
    assert "no Python modules" in run.stderr


def _lookup(path: str):
    """The module a dotted path names, else the attribute of the module
    before its last dot; ImportError or AttributeError when neither is."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        parent, _, name = path.rpartition(".")
        return getattr(_lookup(parent), name)


def _harmreg_reads(tree):
    """(owner, name) for every name the tree imports from a harmreg module,
    and for every attribute it reads through a name such an import binds."""
    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "harmreg":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                reads.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                reads.append((bound[node.value.id], node.attr))
    return reads


def test_benchmark_reads_only_names_harmreg_has():
    # a name deleted from src/ that the benchmark still reads would
    # otherwise show up only when the benchmark runs; the benchmark imports
    # harmreg only by `from ... import`, and attributes of the functions and
    # classes it imports are not checked
    reads = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reads += _harmreg_reads(ast.parse(path.read_text(), str(path)))
    missing = []
    for owner, name in reads:
        try:
            if isinstance(_lookup(owner), types.ModuleType):
                _lookup(f"{owner}.{name}")
        except (ImportError, AttributeError):
            missing.append(f"{owner}.{name}")
    assert missing == []
    names = {name for _, name in reads}
    assert {"sigma_general", "MAX_ITER", "load_experiment", "HAS_NUMBA"} <= names


def test_only_config_writes_and_reads_csv():
    # config.format_csv renders every CSV cell and config.read_csv parses
    # every CSV file; a second writer or reader elsewhere would bring back
    # its own cell format or header rule
    offenders = [
        f"{path.name}: {word}"
        for path in sorted((ROOT / "src" / "harmreg").glob("*.py"))
        if path.name != "config.py"
        for word in ("17g", "savetxt", "loadtxt")
        if word in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_only_the_estimator_takes_a_real_fft():
    # estimator._band_periodogram is the one route to the periodogram; a
    # real FFT elsewhere would bring back a whole-spectrum transform beside
    # the polyphase split
    offenders = [
        path.name
        for path in sorted((ROOT / "src" / "harmreg").glob("*.py"))
        if path.name != "estimator.py"
        and re.search(r"\brfft\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_only_spectral_imports_threading():
    # spectral.py keeps a thread-local workspace; the sweep threads of
    # lemma2_decay take fixed shares from a concurrent.futures pool, so no
    # other module needs a lock, an event or a thread of its own
    offenders = []
    for path in sorted((ROOT / "src" / "harmreg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "threading" in (name.split(".")[0] for name in names):
                offenders.append(path.name)
    assert offenders == ["spectral.py"]


def test_only_the_workspace_and_the_path_draw_allocate_empty_arrays():
    # spectral._workspace owns the loop's scratch and simulate.gaussian_path
    # the path it returns; an np.empty elsewhere would bring back a buffer
    # laid out beside the workspace
    offenders = [
        path.name
        for path in sorted((ROOT / "src" / "harmreg").glob("*.py"))
        if re.search(r"\bnp\.empty\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == ["simulate.py", "spectral.py"]
