"""The repository tools run from a checkout and report consistent numbers."""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


#: two entries as certificates.json holds them
CERTIFICATES = {
    "config": {"output_dir": "a"},
    "entries": [
        {"informative": False, "inputs": {"alpha": 1.0, "f": "hat", "p": 1.0,
                                          "t_points": 64},
         "lhs": 0.5, "margin": 1.5, "name": "v-le-u", "paper_ref": "V <= U",
         "pass": True, "rhs": 2.0, "slack": 0.0},
        {"informative": True, "inputs": {"alpha": 0.5, "f": "hat", "p": 2.0},
         "lhs": 0.0, "margin": 1.0, "name": "u-le-v", "paper_ref": "U <= V",
         "pass": True, "rhs": 1.0, "slack": 0.05},
    ],
}


def _cert_diff(tmp_path, edit):
    """Exit code and output of cert_diff on CERTIFICATES and an edited copy,
    whose config also names another output directory."""
    other = copy.deepcopy(CERTIFICATES)
    other["config"]["output_dir"] = "b"
    edit(other["entries"])
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, payload in zip(paths, (CERTIFICATES, other)):
        path.write_text(json.dumps(payload))
    proc = subprocess.run([sys.executable, "tools/cert_diff.py", *paths],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def _set(index, key, value, inputs=False):
    def edit(entries):
        (entries[index]["inputs"] if inputs else entries[index])[key] = value
    return edit


def test_cert_diff_accepts_equal_and_round_off(tmp_path):
    code, out = _cert_diff(tmp_path, lambda entries: None)
    assert code == 0 and out.splitlines()[-1].endswith("difference 0"), out
    code, out = _cert_diff(tmp_path, _set(0, "lhs", 0.5 * (1 + 4e-13)))
    assert code == 0, out
    assert "largest relative difference 4e-13 at entries[0].lhs" in out


@pytest.mark.parametrize("edit", [
    _set(0, "lhs", 0.5 * (1 + 1e-11)),
    _set(1, "lhs", 1e-300),
    _set(1, "p", 2.0 + 1e-9, inputs=True),
    _set(0, "name", "v-le-u-gamma"),
    _set(0, "paper_ref", "V <= 2 U"),
    _set(0, "pass", False),
    _set(1, "informative", False),
    _set(0, "f", "bump", inputs=True),
    _set(0, "t_points", 16, inputs=True),
    _set(0, "t_star", 1.0, inputs=True),
    lambda entries: entries.pop(),
], ids=["real-1e-11", "zero-vs-tiny", "real-input", "name", "paper_ref",
        "pass", "informative", "string-input", "int-input", "extra-input",
        "entry-count"])
def test_cert_diff_rejects(tmp_path, edit):
    code, out = _cert_diff(tmp_path, edit)
    assert code == 1, out
