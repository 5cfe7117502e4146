"""Compare the entries of two certificates.json files under the refactor rule.

A refactor must leave the certificates bit-identical or equal to within
1e-12 relative.  This tool reads the "entries" list of each file and walks
the two lists in step: every string, flag, integer and null (the entry
names, paper_ref, pass and informative flags, and the non-real inputs) must
be equal, lists and objects must have the same length and keys, and every
real (lhs, rhs, slack, margin and each real input) must agree within the
tolerance, measured as |a - b| / max(|a|, |b|).  The header (library
version and the config echo, which names the output directory) is not
compared.  Standard library only.

Run from anywhere:

    python3 tools/cert_diff.py A/certificates.json B/certificates.json

It prints each difference, then the largest relative difference of the
reals, and exits 0 when the files agree under the rule, 1 when they do not.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

REL_TOL = 1e-12


def _is_real(x):
    return isinstance(x, float)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|); 0 for equal values (infinities too), inf when
    exactly one side is non-finite."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(a, b, path, report):
    """Walk a and b in step.  Appends a message to report for each
    difference outside the rule, and returns the largest relative difference
    of the reals met on the way (with its path)."""
    worst = (0.0, path)
    if _is_number(a) and _is_number(b) and (_is_real(a) or _is_real(b)):
        diff = relative_difference(float(a), float(b))
        if not diff <= REL_TOL:
            report.append(f"{path}: {a!r} != {b!r} (relative {diff:.3g})")
        return diff, path
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            report.append(f"{path}: keys {sorted(a)} != {sorted(b)}")
            return worst
        items = [(a[k], b[k], f"{path}.{k}") for k in sorted(a)]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            report.append(f"{path}: length {len(a)} != {len(b)}")
            return worst
        items = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        if type(a) is not type(b) or a != b:
            report.append(f"{path}: {a!r} != {b!r}")
        return worst
    for x, y, sub in items:
        worst = max(worst, compare(x, y, sub, report),
                    key=lambda w: w[0])
    return worst


def _entries(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=f"compare two certificates.json files: equal names, "
                    f"paper_ref, flags and non-real inputs, reals within "
                    f"{REL_TOL:g} relative")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    a, b = _entries(args.a), _entries(args.b)
    report = []
    diff, where = compare(a, b, "entries", report)
    for line in report:
        print(line)
    print(f"{len(a)} vs {len(b)} entries; largest relative difference "
          f"{diff:.3g}" + (f" at {where}" if diff else ""))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
