"""Count the code lines and optional parameters of the besovlab package.

A code line is a line that holds a token other than a comment, a newline
or an indentation token, and that is not part of a docstring (the leading
string constant of a module, class or function body).  An optional
parameter is a parameter with a default value, positional or keyword-only,
of any function or method.  Standard library only.

Run from the repository root:

    python3 tools/code_lines.py [package_dir]

It prints one line per module, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def optional_parameters(source):
    """Number of parameters with a default value in one module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/besovlab")
    total_lines = total_optional = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        n, k = code_lines(source), optional_parameters(source)
        total_lines += n
        total_optional += k
        print(f"{path.name:20s} {n:5d} lines {k:3d} optional")
    print(f"{'total':20s} {total_lines:5d} lines {total_optional:3d} optional")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
