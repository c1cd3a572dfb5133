"""The repository tools, run as scripts on small inputs counted by hand."""

import pathlib
import subprocess
import sys

CODE_LINES = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

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
