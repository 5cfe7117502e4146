"""Heat semigroup smoothing and the small-time gradient functional.

Convolving with the variance-t Gaussian kernel smooths at rate t^(alpha/2)
exactly when f has fractional smoothness alpha: the approximation error
||f - P_t f||_p stays below a constant multiple of the seminorm times
t^(alpha/2), and the weighted gradient sup U = sup_t t^((1-alpha)/2)
||grad P_t f||_p is finite.  This script traces both curves for the
indicator and prints the constants that link them.
"""

import numpy as np

from besovlab import build_corpus, besov_seminorm, heat_apply, u_functional
from besovlab.grid import lp_norm, write_csv
from besovlab.heat import default_t_grid
from besovlab.ou import abs_moment


def main():
    f = build_corpus("indicator")
    p, alpha = 1, 0.5
    seminorm = besov_seminorm(f, p, alpha).value
    c = abs_moment(alpha, f.dim)
    print(f"indicator, p={p}, alpha={alpha}: seminorm {seminorm:.4f}, "
          f"smoothing constant {c:.4f}")
    print("t, ||f - P_t f||_1, bound c*seminorm*t^(alpha/2)")
    for t in np.geomspace(1e-3, 10.0, 8):
        diff = f.with_samples(heat_apply(f, t).samples - f.samples)
        lhs = lp_norm(diff, p)
        rhs = c * seminorm * t ** (alpha / 2.0)
        print(f"  {t:9.4f}  {lhs:.5f}  <=  {rhs:.5f}")
    t_grid = default_t_grid()
    value, t_star, values = u_functional(f, p, alpha, t_grid)
    print(f"\nU functional: sup value {value:.4f} at t = {t_star:.4f} "
          f"({len(values)} curve points)")
    write_csv("heat_u_curve.csv", ("t", "value"), zip(t_grid, values))
    print("curve written to heat_u_curve.csv")


if __name__ == "__main__":
    main()
