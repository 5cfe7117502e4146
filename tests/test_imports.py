"""Static import hygiene of the package, read with the standard library's
ast: outside __init__ (which re-exports), every module-level import is used
and no import hides inside a function, where it would mask an import cycle;
only grid imports csv and json, the formats of every artifact, and only
cli, beside grid, calls a file writer.  A process that imports the command
line loads neither scipy.signal nor scipy.stats.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "besovlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    """Names a module-level import binds (import a.b binds a)."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {node.lineno})" for node in tree.body
              for name in _bound_names(node) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    local = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and id(node) not in top]
    assert not local, f"{path.name}: imports inside a block at lines {local}"


def _imported_modules(tree):
    """Top-level names of the modules a parsed module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_grid_imports_csv_and_json():
    # the one home of the artifact format: grid.write_csv, grid.json_text
    importers = {path.name for path in MODULES
                 if {"csv", "json"} & set(_imported_modules(_tree(path)))}
    assert importers == {"grid.py"}


#: callees that write a file, by their last dotted name
WRITERS = {"open", "write_text", "write_bytes", "write_csv", "to_csv"}


def _writer_calls(tree):
    """Callee and line of each call that writes a file: a WRITERS name,
    alone or as an attribute, or np.save, np.savez, np.savetxt and kin."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if (callee.rsplit(".", 1)[-1] in WRITERS
                    or callee.startswith(("np.save", "numpy.save"))):
                yield f"{callee} (line {node.lineno})"


def test_only_cli_writes_artifacts():
    # grid holds the format (write_csv, json_text, save) and cli is the one
    # writer; an engine returns values and writes no file
    writers = {path.name: list(_writer_calls(_tree(path)))
               for path in MODULES if path.name not in {"grid.py", "cli.py"}}
    assert {name: calls for name, calls in writers.items() if calls} == {}


def test_cli_import_loads_no_scipy_signal_or_stats():
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH"))))
    code = ("import sys, besovlab.cli; print(sorted("
            "{'scipy.signal', 'scipy.stats'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                          capture_output=True, env=dict(os.environ,
                                                        PYTHONPATH=path))
    assert proc.stdout.strip() == "[]"
