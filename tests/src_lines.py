"""Line counts of the ``dirac_toa`` modules: total lines and code lines.

Code lines are the lines that hold a token of code: blank lines, comment
lines and the lines of module, class and function docstrings do not count.
Run from the repository root (pytest does not collect this file):

    python tests/src_lines.py [package directory, default src/dirac_toa]
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(total lines, code lines) of the Python file at ``path``."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv) -> None:
    package = Path(argv[1] if len(argv) > 1 else "src/dirac_toa")
    sums = [0, 0]
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        total, code = count(path)
        sums[0] += total
        sums[1] += code
        print(f"{path.name:<20} {total:>6} {code:>6}")
    print(f"{'sum':<20} {sums[0]:>6,} {sums[1]:>6,}")


if __name__ == "__main__":
    main(sys.argv)
