"""Ornstein-Uhlenbeck semigroup, Hermite spectra and Gaussian constants.

The OU semigroup averages f(e^(-t) x + sqrt(1 - e^(-2t)) y) over Gaussian
y; normalized Hermite polynomials are its eigenfunctions with eigenvalues
e^(-nt).  The script confirms the eigenrelation by quadrature, shows a
Hermite coefficient table for x^3, and prints the Gaussian moment
constants that appear throughout the certificate suites.
"""

import math

import numpy as np

from besovlab import build_corpus, hermite_transform, ou_apply
from besovlab.grid import GridFunction, lp_norm
from besovlab.ou import (
    abs_moment,
    cp_closed_form,
    ct_closed_form,
    hermite_synthesize,
    ou_apply_spectral,
)


def main():
    f = build_corpus("hermite(3)")
    for t in (0.1, 1.0):
        quadrature = ou_apply(f, t)
        spectral = hermite_synthesize(ou_apply_spectral(hermite_transform(f),
                                                        t))
        err = lp_norm(f.with_samples(quadrature.samples - spectral.samples),
                      2)
        print(f"H3, t={t}: quadrature vs eigenvalue multiplier, "
              f"L2(gamma) gap {err:.2e} (eigenvalue {math.exp(-3 * t):.4f})")

    x = np.linspace(-8.0, 8.0, 4097)
    cubic = GridFunction(((-8.0, 8.0),), x ** 3, "gaussian")
    coeffs = hermite_transform(cubic)
    print("\nHermite coefficients of x^3 (x^3 = 3 H1 + sqrt(6) H3):")
    for n, c in enumerate(coeffs.coeffs):
        if abs(c) > 1e-4:
            print(f"  n={n}: {c:.6f}")

    print(f"\nGaussian constants at p=2, alpha=1/2, n=1: "
          f"C(p)={cp_closed_form(2.0)}, c_alpha_n={abs_moment(0.5, 1):.6f}")
    print("c_t = arccos(e^(-t)) against the sqrt(2t) envelope:")
    for t in (0.01, 0.1, 1.0, 10.0):
        print(f"  t={t}: c_t={ct_closed_form(t):.6f} "
              f"<= {math.sqrt(2 * t):.6f}")


if __name__ == "__main__":
    main()
