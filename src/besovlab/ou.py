"""Ornstein-Uhlenbeck semigroup, Hermite spectral transforms and the
Gaussian constants used by the inequality certificates.

Quadrature route: Gauss-Hermite averaging of grid samples (quintic-spline
interpolation off the grid, zero outside the box).  The nodes are computed
once per process and pruned to the K = 68 of 128 heavier than GH_PRUNE_WEIGHT
times the largest weight.  One contraction kernel, _gauss_average, serves
every Gaussian average: it evaluates a spline built along one axis once at
the points of the kept nodes, zeroes the points outside the box and
contracts them with a weight matrix.  T_t and the gradient kernel take the
points e^{-t} x + sqrt(1-e^{-2t}) y and the stacked weights w and w*y, so
each (t, axis) pass gives the plain and the y-weighted average together.
ou_step computes T_t f and grad T_t f together; ou_apply and ou_gradient
are its two halves, and a caller that needs both fields at one t calls
ou_step once.  In 1D the step is one pass, and the spline of its one column
is evaluated in piecewise-polynomial form.  In 2D the step makes three
passes, one along axis 0 and two along axis 1, each one matrix product with
that axis' pass as an (n, n) operator; the operator is the pass applied to
the identity, built once per distinct axis (one on a square grid) and
dropped with the step.  The spline evaluation holds the node x grid-point
block, K*n*m*8 bytes for m columns: about 36 MB for the identity at n = 257,
the same as one pass over a 257^2 grid.  The conditional expectation takes
the points y and the weights w; the Hermite transform contracts each axis in
turn with the rows H_n(y) w, in any dimension.

semigroup(f) returns (S_t, grad S_t, a weighted sum of grad S_t over times)
of f's measure tag, OU or heat; it is the only place that makes this choice.

Spectral route: the eigenrelation "degree-n coefficient decays like
exp(-n t)", derived from the Mehler kernel; it is gated on the
quadrature-agreement test before any certificate relies on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PPoly, make_interp_spline

from . import heat
from .grid import (
    DEFAULT_GRIDS,
    GAUSSIAN,
    Grid,
    GridFunction,
    VectorFieldGrid,
    lp_norm,
    require_tag,
)

GH_NODES = 128
#: Gauss-Hermite nodes lighter than this fraction of the heaviest weight are
#: dropped: 60 of the 128, holding 1.6e-22 of the Gaussian mass, every one at
#: |y| >= 9.88, outside the default box [-8, 8], so the transforms that
#: evaluate at the nodes themselves read zero there anyway
GH_PRUNE_WEIGHT = 1e-20
SPLINE_DEGREE = 5
#: default Hermite degree of the transform in each dimension
HERMITE_TRUNCATION = {1: 64, 2: 32}


@functools.cache
def gauss_hermite():
    """Nodes/weights for averaging against the standard Gaussian measure.

    Computed once per process from GH_NODES nodes; nodes lighter than
    GH_PRUNE_WEIGHT times the heaviest are dropped.  The arrays are shared,
    hence read-only.
    """
    u, w = np.polynomial.hermite.hermgauss(GH_NODES)
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


def _spline(samples, x, axis):
    """Quintic interpolating spline of samples along axis (nodes x), that
    axis first: the one spline build of the module."""
    return make_interp_spline(x, np.moveaxis(samples, axis, 0),
                              k=SPLINE_DEGREE)


def _gauss_average(spline, x, pts, weights):
    """Contract `weights` with `spline` (over the nodes x) at `pts`.

    The spline, a B-spline or its piecewise-polynomial form, is evaluated
    once at pts, whose first axis is the Gauss-Hermite node axis; nodes
    whose points all leave the box are skipped and the points outside it
    contribute zero (their Gaussian weight is below 1e-14 for the default
    box).  Returns weights[:, rows] @ vals: one leading axis per weight row,
    then pts' trailing axes, then the spline's columns.
    """
    a, b = x[0], x[-1]
    inside = (pts >= a) & (pts <= b)
    rows = inside.reshape(len(pts), -1).any(axis=1)
    vals = spline(np.clip(pts[rows], a, b))
    vals[~inside[rows]] = 0.0
    out = weights[:, rows] @ vals.reshape(len(vals), math.prod(vals.shape[1:]))
    return out.reshape(weights.shape[:1] + vals.shape[1:])


def _ou_axis_average(f: GridFunction, axis, t):
    """Average f(..., e^{-t} x + sqrt(1-e^{-2t}) y, ...) over Gaussian y,
    plain and weighted by y (the gradient kernel), from one evaluation.

    Returns the plain and the y-weighted average stacked on a leading axis
    of length 2, each of f's shape.  A 1D f is one spline column, which is
    evaluated in piecewise-polynomial form: at the 68 n points of a pass
    that is about three times faster than the B-spline, and differs from it
    by round-off.  On many columns the piecewise form is slower, and scipy
    does not convert them, so they keep the B-spline.
    """
    y, w = gauss_hermite()
    x = f.axes()[axis]
    spread = math.sqrt(1.0 - math.exp(-2.0 * t))
    pts = math.exp(-t) * x[None, :] + spread * y[:, None]
    spline = _spline(f.samples, x, axis)
    if f.dim == 1:
        spline = PPoly.from_spline(spline)
    avg = _gauss_average(spline, x, pts, np.stack([w, w * y]))
    return np.moveaxis(avg, 1, axis + 1)


def _ou_axis_operator(f: GridFunction, axis, t):
    """The pass of _ou_axis_average along `axis` as a linear operator.

    Returns the plain and the y-weighted (n, n) matrices stacked on a
    leading axis, n = f.shape[axis]: the pass applied to the identity on
    an n x n grid over the axis' interval.
    """
    eye = GridFunction((f.bounds[axis],) * 2, np.eye(f.shape[axis]), GAUSSIAN)
    return _ou_axis_average(eye, 0, t)


def ou_step(f: GridFunction, t: float):
    """(T_t f, grad T_t f) by tensorized Gauss-Hermite quadrature of the
    Mehler average: the only routine that computes either.

    Gradient component i weights the average along axis i by y and every
    other axis plainly; the plain average along every axis is T_t f.  Each
    pass along an axis gives both weightings, so the step makes one pass in
    1D and three in 2D.  A 2D step builds the operator of each distinct
    axis (interval, n) once, one for a square grid, and each pass is then
    one matrix product; the operators live for this step only.
    """
    heat.check_semigroup_args(f, t, GAUSSIAN)
    factor = math.exp(-t) / math.sqrt(1.0 - math.exp(-2.0 * t))
    if f.dim == 1:
        value, weighted = _ou_axis_average(f, 0, t)
        comps = [weighted]
    else:
        op0 = _ou_axis_operator(f, 0, t)
        op1 = (op0 if (f.bounds[1], f.shape[1]) == (f.bounds[0], f.shape[0])
               else _ou_axis_operator(f, 1, t))
        # axis 0 on f, then axis 1: both weightings on the plain average
        # (T_t f and component 1), the plain one on the weighted (component 0)
        plain, weighted = op0 @ f.samples
        value, last = plain @ op1.transpose(0, 2, 1)
        comps = [weighted @ op1[0].T, last]
    return f.with_samples(value), VectorFieldGrid(
        tuple(f.with_samples(factor * c) for c in comps))


def ou_apply(f: GridFunction, t: float) -> GridFunction:
    """T_t f, the first half of ou_step."""
    return ou_step(f, t)[0]


def ou_gradient(f: GridFunction, t: float) -> VectorFieldGrid:
    """grad T_t f, the second half of ou_step."""
    return ou_step(f, t)[1]


def ou_gradient_sum(f: GridFunction, times, weights) -> VectorFieldGrid:
    """sum_k weights[k] grad T_{times[k]} f, one ou_gradient per time."""
    grads = (ou_gradient(f, t).components for t in times)
    total = sum(w * np.stack([c.samples for c in g])
                for g, w in zip(grads, weights, strict=True))
    return VectorFieldGrid(tuple(f.with_samples(c) for c in total))


def semigroup(f: GridFunction):
    """(S_t, grad S_t, weighted sum of grad S_t over times) of f's measure
    tag: the OU semigroup T_t for a Gaussian tag, the heat semigroup P_t for
    a Lebesgue one.  The sum takes (f, times, weights).

    The one place that picks the semigroup of a tag.  The functions are read
    from the module globals at each call, so a wrapper installed on
    ou.ou_apply or heat.heat_apply (a tracer, a test) sees these calls too.
    """
    if f.measure == GAUSSIAN:
        return ou_apply, ou_gradient, ou_gradient_sum
    return heat.heat_apply, heat.heat_gradient, heat.heat_gradient_sum


def u_gamma_functional(f: GridFunction, p, alpha, t_grid=None):
    """Grid supremum of t^((1-alpha)/2) ||grad T_t f||_p (lower bound), as
    gradient_supremum's (value, argmax t, values)."""
    t_grid = heat.t_points(t_grid)
    return heat.gradient_supremum((ou_gradient(f, t) for t in t_grid),
                                  t_grid, p, alpha)


def conditional_expectation(f: GridFunction, kept_axis: int) -> GridFunction:
    """Gaussian average over the dropped axis of a 2D function."""
    if f.dim != 2:
        raise ValueError("conditional expectation needs a 2D function")
    require_tag(f, GAUSSIAN, "conditional expectation")
    dropped = 1 - kept_axis
    y, w = gauss_hermite()
    x = f.axes()[dropped]
    vals = _gauss_average(_spline(f.samples, x, dropped), x, y, w[None])
    return GridFunction((f.bounds[kept_axis],), vals[0], GAUSSIAN)


# ---------------------------------------------------------------------------
# Hermite spectral side


@dataclass(frozen=True)
class HermiteCoeffs:
    """Coefficients against orthonormal Hermite polynomials, one tensor axis
    per coordinate, with the truncation budget reported alongside."""

    coeffs: np.ndarray
    tail_energy: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.ndim < 1:
            raise ValueError("coefficients need at least one axis")

    @property
    def dim(self):
        return self.coeffs.ndim

    def energy(self):
        return float(np.sum(self.coeffs ** 2))

    def total_degree(self):
        """|n| = n_1 + ... + n_d multi-index array matching the coefficient
        shape."""
        return np.indices(self.coeffs.shape).sum(0)


def hermite_transform(f: GridFunction, degree=None) -> HermiteCoeffs:
    """Project a Gaussian-tagged grid function on the Hermite basis, one
    Gauss-Hermite contraction per axis."""
    require_tag(f, GAUSSIAN, "hermite transform")
    if degree is None:
        degree = HERMITE_TRUNCATION[f.dim]
    y, w = gauss_hermite()
    weights = hermite_matrix(degree, y) * w
    coeffs = f.samples
    for axis, x in enumerate(f.axes()):
        coeffs = np.moveaxis(
            _gauss_average(_spline(coeffs, x, axis), x, y, weights), 0, axis)
    tail = max(lp_norm(f, 2) ** 2 - float(np.sum(coeffs ** 2)), 0.0)
    return HermiteCoeffs(coeffs, tail_energy=tail)


def hermite_synthesize(c: HermiteCoeffs, bounds=None, shape=None) -> GridFunction:
    """Evaluate a Hermite series on a grid (Gaussian tag)."""
    grid = DEFAULT_GRIDS[c.dim]
    grid = Grid(grid.bounds if bounds is None else bounds,
                grid.shape if shape is None else shape)
    # each step contracts the leading coefficient axis and appends its grid
    # axis, so after dim steps the axes are back in order
    out = c.coeffs
    for x, n in zip(grid.axes(), c.coeffs.shape):
        out = np.tensordot(out, hermite_matrix(n - 1, x), axes=(0, 0))
    return GridFunction(grid.bounds, out, GAUSSIAN)


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


def ct_closed_form(t):
    """The OU approximation time constant c_t = arccos(e^-t), elementwise."""
    return np.arccos(np.exp(-np.asarray(t, dtype=float)))


def cp_closed_form(p: float) -> float:
    """p-th absolute moment of a standard Gaussian, to the power 1/p.

    C(inf) is ess sup |Z|, which is infinite, so p = inf is rejected.
    """
    if p == math.inf:
        raise ValueError("C(p) is infinite at p = inf")
    return abs_moment(p, 1) ** (1.0 / p)


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
