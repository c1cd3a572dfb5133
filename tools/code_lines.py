"""Count the code lines of each module of a Python package.

A code line is a physical line on which a token starts that is not a
comment, a newline or indent token, or part of a docstring (the string
statement that opens a module, class or function body). Blank lines,
comment lines and docstrings are left out; a line that holds code and a
trailing comment counts once.

Usage, from the root of a source checkout:

    python tools/code_lines.py [package_dir]

The package directory defaults to ``src/harmreg``. Prints one
``<lines>  <module>`` row per module, sorted by name, then the total.
Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        if any(start <= tok.start < end for start, end in spans):
            continue
        lines.add(tok.start[0])
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0] if args else "src/harmreg")
    modules = sorted(root.rglob("*.py"))
    if not modules:
        print(f"code_lines: no Python modules under {root}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
