"""The benchmark's contract with the package.

bench/spans.py traces functions by name and bench/workloads.py calls the
package directly; a renamed traced function would silently read zero in its
per-layer metrics, and a dropped keyword would fail a workload.  Both files
are only parsed here, never imported or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import besovlab

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _parse(name):
    return ast.parse((BENCH / name).read_text())


def _layers():
    """The LAYERS literal of bench/spans.py."""
    for node in _parse("spans.py").body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no LAYERS")


def _library_calls(tree, attr):
    """The calls lib.<attr>(...) in a parsed workload file."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr]


def test_every_traced_name_is_a_package_function():
    layers = _layers()
    assert layers
    for mod_name, fn_names in layers.items():
        module = importlib.import_module(f"besovlab.{mod_name}")
        for fn_name in fn_names:
            fn = getattr(module, fn_name, None)
            assert inspect.isfunction(fn), f"{mod_name}.{fn_name}"
            assert fn.__module__ == module.__name__, f"{mod_name}.{fn_name}"


def test_workload_library_attributes_exist():
    # every lib.<name> a workload reads is an attribute of the package
    tree = _parse("workloads.py")
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id == "lib"}
    assert "certify_lebesgue_suite" in names
    importlib.import_module("besovlab.cli")
    assert [n for n in sorted(names) if not hasattr(besovlab, n)] == []


def test_lebesgue_suite_binds_the_workload_call():
    # the lebesgue-2d workload passes budget= and seed= among its keywords
    calls = _library_calls(_parse("workloads.py"), "certify_lebesgue_suite")
    assert calls
    signature = inspect.signature(besovlab.certify_lebesgue_suite)
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        keywords = [k.arg for k in call.keywords]
        assert None not in keywords
        signature.bind(*call.args, **dict.fromkeys(keywords))
