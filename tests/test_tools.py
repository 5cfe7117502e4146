"""The repository tools run from a checkout and report consistent numbers."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW = re.compile(r"^(\S+)\s+(\d+) lines\s+(\d+) optional$")
PARAM = re.compile(r"^\w+\.[\w.<>]+\(\w+=.+\)$")


def _code_lines(*args):
    proc = subprocess.run([sys.executable, "tools/code_lines.py", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_code_lines_total_is_the_sum_of_its_modules():
    # the line and optional-parameter counts every refactor reports
    lines = _code_lines()
    rows = [ROW.match(line) for line in lines]
    assert all(rows), lines
    *modules, total = [(m[1], int(m[2]), int(m[3])) for m in rows]
    assert total[0] == "total"
    assert sorted(name for name, _, _ in modules) == sorted(
        p.name for p in (ROOT / "src" / "besovlab").glob("*.py"))
    assert total[1] == sum(n for _, n, _ in modules)
    assert total[2] == sum(k for _, _, k in modules)


def test_params_lists_each_optional_parameter_once():
    # one module.function(name=default) line per knob the total counts
    params = _code_lines("--params")
    assert all(PARAM.match(line) for line in params), params
    total = ROW.match(_code_lines()[-1])
    assert len(params) == int(total[3])
