"""Certificate suites: every inequality with its explicit constant.

A certificate entry compares a grid-computable left side against a right
side assembled from exact constants, with a recorded slack.  Entries whose
direction of conservativeness cannot certify (lower bound vs lower bound)
are flagged informative instead of pass/fail.  This script runs the
Lebesgue suite on the indicator and the Gaussian suite on H2 and prints
the resulting table.
"""

from besovlab import (
    build_corpus,
    certify_gaussian_suite,
    certify_lebesgue_suite,
    failures,
)


def show(entries):
    for e in sorted(entries, key=lambda e: e.name):
        tag = "info" if e.informative else ("PASS" if e.passed else "FAIL")
        print(f"  [{tag}] {e.name:26s} lhs={e.lhs:10.4f} "
              f"rhs={e.rhs:10.4f} slack={e.slack:.4f}")


def main():
    f = build_corpus("indicator")
    print("Lebesgue suite, indicator, p=1, alpha=1:")
    entries = certify_lebesgue_suite(f, 1, 1.0, f_name="indicator")
    show(entries)

    g = build_corpus("hermite(2)")
    print("\nGaussian suite, H2, p=2, alpha=1/2:")
    entries_g = certify_gaussian_suite(g, [(2, 0.5)],
                                       f_name="hermite(2)")
    show(entries_g)

    bad = failures(entries + entries_g)
    print(f"\nnon-informative failures: {len(bad)}")


if __name__ == "__main__":
    main()
