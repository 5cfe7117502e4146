"""Ornstein-Uhlenbeck semigroup, Hermite spectral transforms and the
Gaussian constants used by the inequality certificates.

Quadrature route: Gauss-Hermite averaging of grid samples (quintic-spline
interpolation off the grid, zero outside the box).  The nodes are computed
once per process and pruned to the K = 68 of 128 heavier than GH_PRUNE_WEIGHT
times the largest weight.  Each (t, axis) pass builds one spline along the
axis, evaluates it once on the node x grid-point block and contracts the block
with the stacked weights w and w*y in one product, which gives the plain
average (T_t) and the y-weighted one (the gradient kernel) together.  The
block takes K*n*m*8 bytes on an n x m grid, about 36 MB at 257^2.  ou_apply
makes dim passes; ou_gradient makes one pass in 1D and three in 2D, the
axis-0 pass being shared by both components.  Spectral route: the
eigenrelation "degree-n coefficient decays like exp(-n t)", derived from the
Mehler kernel; it is gated on the quadrature-agreement test before any
certificate relies on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import make_interp_spline

from .grid import (
    GAUSSIAN,
    Grid,
    GridFunction,
    MeasureMismatchError,
    VectorFieldGrid,
    lp_norm,
)
from .heat import gradient_supremum

GH_NODES = 128
#: Gauss-Hermite nodes lighter than this fraction of the heaviest weight are
#: dropped: 60 of the 128, holding 1.6e-22 of the Gaussian mass, every one at
#: |y| >= 9.88, outside the default box [-8, 8], so the transforms that
#: evaluate at the nodes themselves read zero there anyway
GH_PRUNE_WEIGHT = 1e-20
SPLINE_DEGREE = 5
HERMITE_TRUNCATION_1D = 64
HERMITE_TRUNCATION_2D = 32


@functools.lru_cache(maxsize=None)
def gauss_hermite(num=GH_NODES):
    """Nodes/weights for averaging against the standard Gaussian measure.

    Computed once per node count; nodes lighter than GH_PRUNE_WEIGHT times
    the heaviest are dropped.  The arrays are shared, hence read-only.
    """
    u, w = np.polynomial.hermite.hermgauss(num)
    keep = w >= GH_PRUNE_WEIGHT * np.max(w)
    y = math.sqrt(2.0) * u[keep]
    w = w[keep] / math.sqrt(math.pi)
    y.flags.writeable = False
    w.flags.writeable = False
    return y, w


def hermite_matrix(degree, y):
    """Rows H_0..H_degree of L2(gamma)-orthonormal Hermite polynomials at y."""
    if degree < 0:
        raise ValueError("Hermite degree must be nonnegative")
    out = np.empty((degree + 1, y.size))
    out[0] = 1.0
    if degree >= 1:
        out[1] = y
    for n in range(1, degree):
        out[n + 1] = y * out[n] - n * out[n - 1]
    norms = np.array([math.sqrt(math.factorial(n)) for n in range(degree + 1)])
    return out / norms[:, None]


def _check_ou_args(f, t):
    if f.measure != GAUSSIAN:
        raise MeasureMismatchError("OU semigroup requires the Gaussian tag")
    if not t > 0:
        raise ValueError("t must be positive")


def _axis_spline(f: GridFunction, axis):
    """Spline along `axis`, built on a view with that axis first, so that
    evaluating it at an array of points puts the point axes in front."""
    x = f.axes()[axis]
    return make_interp_spline(x, np.moveaxis(f.samples, axis, 0),
                              k=SPLINE_DEGREE)


def _ou_axis_average(f: GridFunction, axis, t):
    """Average f(..., e^{-t} x + sqrt(1-e^{-2t}) y, ...) over Gaussian y,
    plain and weighted by y (the gradient kernel), from one evaluation.

    The spline is evaluated once on the node x grid-point block, skipping
    nodes whose points all leave the box; points outside the box contribute
    zero (their Gaussian weight is below 1e-14 for the default box).
    Returns the plain and the y-weighted average stacked on a leading axis
    of length 2, each of f's shape.
    """
    y, w = gauss_hermite()
    x = f.axes()[axis]
    a, b = f.bounds[axis]
    spread = math.sqrt(1.0 - math.exp(-2.0 * t))
    pts = math.exp(-t) * x[None, :] + spread * y[:, None]
    inside = (pts >= a) & (pts <= b)
    rows = np.any(inside, axis=1)
    vals = _axis_spline(f, axis)(np.clip(pts[rows], a, b))
    vals[~inside[rows]] = 0.0
    weights = np.stack([w, w * y])[:, rows]
    avg = (weights @ vals.reshape(vals.shape[0], -1)).reshape(
        (2,) + vals.shape[1:])
    return np.moveaxis(avg, 1, axis + 1)


def ou_apply(f: GridFunction, t: float) -> GridFunction:
    """T_t f by tensorized Gauss-Hermite quadrature of the Mehler average."""
    _check_ou_args(f, t)
    out = f
    for axis in range(f.dim):
        out = out.with_samples(_ou_axis_average(out, axis, t)[0])
    return out


def ou_gradient(f: GridFunction, t: float) -> VectorFieldGrid:
    """grad T_t f via the Gaussian-average representation of the gradient.

    Component i weights the average along axis i by y and the other axis
    plainly; in 2D both components share the axis-0 pass.
    """
    _check_ou_args(f, t)
    factor = math.exp(-t) / math.sqrt(1.0 - math.exp(-2.0 * t))
    plain, weighted = _ou_axis_average(f, 0, t)
    if f.dim == 1:
        comps = (weighted,)
    else:
        comps = (_ou_axis_average(f.with_samples(weighted), 1, t)[0],
                 _ou_axis_average(f.with_samples(plain), 1, t)[1])
    return VectorFieldGrid(tuple(f.with_samples(factor * c) for c in comps))


def ou_field(phi: VectorFieldGrid, t: float) -> VectorFieldGrid:
    """Componentwise OU semigroup on a vector field."""
    return VectorFieldGrid(tuple(ou_apply(c, t) for c in phi.components))


def u_gamma_functional(f: GridFunction, p, alpha, t_grid=None):
    """Grid supremum of t^((1-alpha)/2) ||grad T_t f||_p (lower bound)."""
    return gradient_supremum(ou_gradient, f, p, alpha, t_grid)


def conditional_expectation(f: GridFunction, kept_axis: int) -> GridFunction:
    """Gaussian average over the dropped axis of a 2D function."""
    if f.dim != 2:
        raise ValueError("conditional expectation needs a 2D function")
    if f.measure != GAUSSIAN:
        raise MeasureMismatchError("conditional expectation requires the Gaussian tag")
    dropped = 1 - kept_axis
    y, w = gauss_hermite()
    a, b = f.bounds[dropped]
    vals = _axis_spline(f, dropped)(np.clip(y, a, b))  # node axis first
    vals[(y < a) | (y > b)] = 0.0
    return GridFunction((f.bounds[kept_axis],), w @ vals, GAUSSIAN)


# ---------------------------------------------------------------------------
# Hermite spectral side


@dataclass(frozen=True)
class HermiteCoeffs:
    """Coefficients against orthonormal Hermite polynomials (1D vector or
    2D tensor), with the truncation budget reported alongside."""

    coeffs: np.ndarray
    tail_energy: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.ndim not in (1, 2):
            raise ValueError("coefficients must be a vector or a matrix")

    @property
    def dim(self):
        return self.coeffs.ndim

    def energy(self):
        return float(np.sum(self.coeffs ** 2))

    def total_degree(self):
        """|n| = n_1 + n_2 multi-index array matching the coefficient shape."""
        if self.dim == 1:
            return np.arange(self.coeffs.size)
        m = np.arange(self.coeffs.shape[0])[:, None]
        n = np.arange(self.coeffs.shape[1])[None, :]
        return m + n

    def save_txt(self, path):
        with open(path, "w") as fh:
            if self.dim == 1:
                for n, c in enumerate(self.coeffs):
                    fh.write(f"{n},{c:.17g}\n")
            else:
                for m in range(self.coeffs.shape[0]):
                    for n in range(self.coeffs.shape[1]):
                        fh.write(f"{m},{n},{self.coeffs[m, n]:.17g}\n")


def hermite_transform(f: GridFunction, degree=None) -> HermiteCoeffs:
    """Project a Gaussian-tagged grid function on the Hermite basis."""
    if f.measure != GAUSSIAN:
        raise MeasureMismatchError("hermite transform requires the Gaussian tag")
    if degree is None:
        degree = HERMITE_TRUNCATION_1D if f.dim == 1 else HERMITE_TRUNCATION_2D
    y, w = gauss_hermite()
    if f.dim == 1:
        a, b = f.bounds[0]
        spline = _axis_spline(f, 0)
        vals = np.where((y >= a) & (y <= b), spline(np.clip(y, a, b)), 0.0)
        coeffs = hermite_matrix(degree, y) @ (w * vals)
    else:
        from scipy.interpolate import RectBivariateSpline
        x0, x1 = f.axes()
        spline = RectBivariateSpline(x0, x1, f.samples,
                                     kx=SPLINE_DEGREE, ky=SPLINE_DEGREE)
        (a0, b0), (a1, b1) = f.bounds
        in0 = (y >= a0) & (y <= b0)
        in1 = (y >= a1) & (y <= b1)
        vals = spline(np.clip(y, a0, b0), np.clip(y, a1, b1))
        vals = np.where(in0[:, None] & in1[None, :], vals, 0.0)
        h = hermite_matrix(degree, y)
        coeffs = h @ ((w[:, None] * w[None, :]) * vals) @ h.T
    tail = max(lp_norm(f, 2) ** 2 - float(np.sum(coeffs ** 2)), 0.0)
    return HermiteCoeffs(coeffs, tail_energy=tail)


def hermite_synthesize(c: HermiteCoeffs, bounds=None, shape=None) -> GridFunction:
    """Evaluate a Hermite series on a grid (Gaussian tag)."""
    from .corpus import (DEFAULT_BOUNDS_1D, DEFAULT_BOUNDS_2D,
                         DEFAULT_SHAPE_1D, DEFAULT_SHAPE_2D)
    if bounds is None:
        bounds = DEFAULT_BOUNDS_1D if c.dim == 1 else DEFAULT_BOUNDS_2D
    if shape is None:
        shape = DEFAULT_SHAPE_1D if c.dim == 1 else DEFAULT_SHAPE_2D
    axes = Grid(bounds, shape).axes()
    if c.dim == 1:
        h = hermite_matrix(c.coeffs.size - 1, axes[0])
        return GridFunction(bounds, c.coeffs @ h, GAUSSIAN)
    h0 = hermite_matrix(c.coeffs.shape[0] - 1, axes[0])
    h1 = hermite_matrix(c.coeffs.shape[1] - 1, axes[1])
    return GridFunction(bounds, h0.T @ c.coeffs @ h1, GAUSSIAN)


def ou_apply_spectral(c: HermiteCoeffs, t: float) -> HermiteCoeffs:
    """Exact spectral oracle: degree-n coefficients decay like exp(-n t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return HermiteCoeffs(c.coeffs * np.exp(-t * c.total_degree()),
                         tail_energy=c.tail_energy)


def sobolev_h_norm(c: HermiteCoeffs, alpha: float) -> float:
    """Spectral Sobolev norm: (sum (1+|n|)^alpha c_n^2)^(1/2)."""
    return math.sqrt(float(np.sum((1.0 + c.total_degree()) ** alpha
                                  * c.coeffs ** 2)))


# ---------------------------------------------------------------------------
# Constants


@dataclass(frozen=True)
class GaussianConstants:
    """C(p), the OU time constant c_t and the Gaussian |z|^alpha moment."""

    p: float
    Cp: float
    c_alpha_n: float

    @staticmethod
    def ct(t):
        """Closed form of the OU approximation time constant."""
        return np.arccos(np.exp(-np.asarray(t, dtype=float)))


def cp_closed_form(p: float) -> float:
    """p-th absolute moment of a standard Gaussian, to the power 1/p."""
    return (2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0)
            / math.sqrt(math.pi)) ** (1.0 / p)


def cp_quadrature(p: float) -> float:
    val, _ = quad(lambda s: s ** p * math.exp(-s * s / 2.0), 0.0, np.inf,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    return (2.0 * val / math.sqrt(2.0 * math.pi)) ** (1.0 / p)


def ct_quadrature(t: float) -> float:
    val, _ = quad(lambda u: math.exp(-u) / math.sqrt(1.0 - math.exp(-2.0 * u)),
                  0.0, t, points=[0.0])
    return val


def abs_moment(beta: float, n: int) -> float:
    """E |Z|^beta for a standard Gaussian vector in dimension n."""
    return (2.0 ** (beta / 2.0) * math.gamma((n + beta) / 2.0)
            / math.gamma(n / 2.0))


def heat_upper_constant(n: int, alpha: float) -> float:
    """Constant in the integration-by-parts upper arm on R^n (<= sqrt(n)+n)."""
    if n == 1:
        return 1.0 / (1.0 + alpha) + 1.0
    return abs_moment(alpha, n) + abs_moment(1.0 + alpha, n)


def constants(p: float, alpha: float, n: int) -> GaussianConstants:
    """C(p), c_t and c_{alpha,n}; closed forms cross-checked by quadrature."""
    cp = cp_closed_form(p)
    if abs(cp - cp_quadrature(p)) > 1e-10 * cp:
        raise AssertionError("C(p) closed form disagrees with quadrature")
    for t_check in (0.1, 1.0, 5.0):
        if abs(GaussianConstants.ct(t_check) - ct_quadrature(t_check)) > 1e-10:
            raise AssertionError("c_t closed form disagrees with quadrature")
    return GaussianConstants(p=float(p), Cp=cp, c_alpha_n=abs_moment(alpha, n))
