"""Count the code lines and optional parameters of the besovlab package.

A code line is a line that holds a token other than a comment, a newline
or an indentation token, and that is not part of a docstring (the leading
string constant of a module, class or function body).  An optional
parameter is a parameter with a default value, positional or keyword-only,
of any function or method.  Standard library only.

Run from the repository root:

    python3 tools/code_lines.py [package_dir] [--params]

It prints one line per module, then the totals; with --params it prints
instead one line per optional parameter, as module.function(name=default),
so that two trees can be compared knob by knob.
"""

from __future__ import annotations

import argparse
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
    """(function, parameter, default) of each parameter with a default value
    in one module's source, in source order; a method or nested function is
    named by its qualified name, a lambda as <lambda>."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional)
                                            - len(args.defaults):],
                                 args.defaults))
                pairs += [(arg, default) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
                found.extend((name, arg.arg, ast.unparse(default))
                             for arg, default in pairs)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def main(argv):
    parser = argparse.ArgumentParser(
        description="Code lines and optional parameters per module.")
    parser.add_argument("package_dir", nargs="?", default="src/besovlab")
    parser.add_argument("--params", action="store_true",
                        help="list each optional parameter instead, as "
                             "module.function(name=default)")
    args = parser.parse_args(argv[1:])
    total_lines = total_optional = 0
    for path in sorted(Path(args.package_dir).glob("*.py")):
        source = path.read_text()
        optional = optional_parameters(source)
        if args.params:
            for function, name, default in optional:
                print(f"{path.stem}.{function}({name}={default})")
            continue
        n, k = code_lines(source), len(optional)
        total_lines += n
        total_optional += k
        print(f"{path.name:20s} {n:5d} lines {k:3d} optional")
    if not args.params:
        print(f"{'total':20s} {total_lines:5d} lines "
              f"{total_optional:3d} optional")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
