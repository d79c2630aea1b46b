"""Line counts of the ``dirac_toa`` modules: total lines and code lines.

Code lines are the lines that hold a token of code: blank lines, comment
lines and the lines of module, class and function docstrings do not count.
Run from the repository root (pytest does not collect this file):

    python tests/src_lines.py [--since REV] [package directory, default src/dirac_toa]

With ``--since REV`` each row and the sum also carry the change in both
counts against the module as ``git show REV:<path>`` prints it (a module
absent at REV counts 0 there).
"""
import argparse
import ast
import io
import subprocess
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


def count(text: str) -> tuple:
    """(total lines, code lines) of the Python source ``text``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def count_at(rev: str, path: Path) -> tuple:
    """``count`` of ``path`` at git revision ``rev``; (0, 0) if it is absent there."""
    shown = subprocess.run(["git", "show", f"{rev}:./{path.as_posix()}"], capture_output=True, text=True)
    return count(shown.stdout) if shown.returncode == 0 else (0, 0)


def main() -> None:
    parser = argparse.ArgumentParser(description="line counts of the dirac_toa modules")
    parser.add_argument("package", nargs="?", default="src/dirac_toa")
    parser.add_argument("--since", metavar="REV", help="also print the change against this git revision")
    args = parser.parse_args()
    rows = []
    for path in sorted(Path(args.package).glob("*.py")):
        now = count(path.read_text(encoding="utf-8"))
        then = count_at(args.since, path) if args.since else now
        rows.append((path.name, *now, now[0] - then[0], now[1] - then[1]))
    rows.append(("sum", *(sum(row[i] for row in rows) for i in range(1, 5))))
    print(f"{'module':<20} {'lines':>6} {'code':>6}" + (f" {'d lines':>8} {'d code':>7}" if args.since else ""))
    for name, total, code, d_total, d_code in rows:
        delta = f" {d_total:>+8,} {d_code:>+7,}" if args.since else ""
        print(f"{name:<20} {total:>6,} {code:>6,}" + delta)


if __name__ == "__main__":
    main()
