"""Uniformly sampled functions on 1D/2D boxes with Lebesgue or Gaussian weights.

All quadrature is composite midpoint on the node grid: every node owns a cell
of volume prod(dx) and the Gaussian density is folded into the weights when
the function carries the Gaussian tag.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

LEBESGUE = "lebesgue"
GAUSSIAN = "gaussian"

#: largest admissible shift, as a fraction of the shortest box side
SHIFT_CAP_FRACTION = 0.1
#: a Lebesgue-tagged function or test field counts as vanishing at the box
#: edge when its boundary values stay below this fraction of its peak
EDGE_TOLERANCE = 1e-8


class MeasureMismatchError(ValueError):
    """Operation invoked on a function with the wrong measure tag."""


class GridGeometry:
    """Uniform node grid over a box, shared by grid functions and measures.

    Subclasses provide ``bounds`` and ``shape`` and call ``_check_geometry``
    once their arrays are in place.
    """

    def _check_geometry(self):
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        if len(bounds) != len(self.shape):
            raise ValueError("bounds/shape dimension mismatch")
        for (a, b), n in zip(bounds, self.shape):
            if n < 2 or not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValueError("each axis needs n >= 2 and finite a < b")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dim(self):
        return len(self.shape)

    @property
    def dx(self):
        """Per-axis spacing."""
        return tuple((b - a) / (n - 1)
                     for (a, b), n in zip(self.bounds, self.shape))

    def axes(self):
        """Per-axis node coordinates."""
        return tuple(np.linspace(a, b, n)
                     for (a, b), n in zip(self.bounds, self.shape))

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def cell_volume(self):
        return float(np.prod(self.dx))

    def same_grid(self, other):
        return self.bounds == other.bounds and self.shape == other.shape


@dataclass(frozen=True)
class Grid(GridGeometry):
    """Bare grid geometry: bounds and node counts, no values."""

    bounds: tuple
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        self._check_geometry()


@dataclass(frozen=True)
class GridFunction(GridGeometry):
    """Real function sampled on a uniform grid over a box.

    bounds:  ((a1, b1),) in 1D or ((a1, b1), (a2, b2)) in 2D
    samples: array of shape (n1,) or (n1, n2), row-major
    measure: "lebesgue" or "gaussian"
    """

    bounds: tuple
    samples: np.ndarray
    measure: str = LEBESGUE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        self._check_geometry()
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if self.measure not in (LEBESGUE, GAUSSIAN):
            raise ValueError(f"unknown measure tag {self.measure!r}")

    @property
    def shape(self):
        return self.samples.shape

    def with_samples(self, samples):
        return GridFunction(self.bounds, samples, self.measure)

    def same_grid(self, other):
        return super().same_grid(other) and self.measure == other.measure


def gaussian_density(f: GridFunction) -> np.ndarray:
    """Standard Gaussian density evaluated on f's grid."""
    xs = f.meshgrid()
    r2 = sum(x * x for x in xs)
    return (2.0 * np.pi) ** (-f.dim / 2.0) * np.exp(-r2 / 2.0)


def quad_weights(f: GridFunction) -> np.ndarray:
    """Midpoint quadrature weights, with the Gaussian density folded in."""
    w = np.full(f.shape, f.cell_volume())
    if f.measure == GAUSSIAN:
        w = w * gaussian_density(f)
    return w


def integrate(f: GridFunction) -> float:
    return float(np.sum(quad_weights(f) * f.samples))


def inner(f: GridFunction, g: GridFunction) -> float:
    """Integral of f*g under f's tagged measure (shared grid)."""
    if not f.same_grid(g):
        raise ValueError("inner product requires a shared grid")
    return float(np.sum(quad_weights(f) * f.samples * g.samples))


def lp_norm(f: GridFunction, p) -> float:
    """L^p norm under the tagged measure; p = inf returns max |samples|."""
    if p == np.inf:
        return float(np.max(np.abs(f.samples)))
    p = float(p)
    if p < 1.0:
        raise ValueError("p must be >= 1 or inf")
    w = quad_weights(f)
    return float(np.sum(w * np.abs(f.samples) ** p) ** (1.0 / p))


def dual_exponent(p) -> float:
    if p == np.inf:
        return 1.0
    p = float(p)
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class Direction:
    """Unit vector in R^dim."""

    e: tuple

    def __post_init__(self):
        e = tuple(float(c) for c in self.e)
        object.__setattr__(self, "e", e)
        norm = float(np.hypot.reduce(e)) if len(e) > 1 else abs(e[0])
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")

    @property
    def dim(self):
        return len(self.e)


@dataclass(frozen=True)
class VectorFieldGrid:
    """Tuple of GridFunctions sharing one grid; the test fields Phi."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        first = comps[0]
        if len(comps) != first.dim:
            raise ValueError("need dim components")
        for c in comps[1:]:
            if not first.same_grid(c):
                raise ValueError("components must share one grid")

    @property
    def dim(self):
        return self.components[0].dim

    @property
    def measure(self):
        return self.components[0].measure

    def magnitude(self) -> GridFunction:
        """Pointwise Euclidean norm |Phi(x)| as a GridFunction."""
        m = np.sqrt(sum(c.samples ** 2 for c in self.components))
        return self.components[0].with_samples(m)


def field_lq_norm(phi: VectorFieldGrid, q) -> float:
    """L^q norm of the pointwise Euclidean magnitude of the field."""
    return lp_norm(phi.magnitude(), q)


def edge_ratio(samples) -> float:
    """Largest |value| on the boundary of the box over the largest |value|
    (0 for identically zero samples)."""
    a = np.abs(np.asarray(samples))
    edge = max(np.max(np.take(a, [0, -1], axis=ax)) for ax in range(a.ndim))
    return float(edge / np.max(a)) if np.any(a) else 0.0


def shift_cap(f: GridGeometry) -> float:
    return SHIFT_CAP_FRACTION * min(b - a for a, b in f.bounds)


def shift_axis(values, cells, axis):
    """Move node values along one axis by a possibly fractional cell count.

    The two-tap linear kernel shared by function and measure shifts: the
    integer part is an index shift and the remaining fraction is split
    linearly between the two neighboring nodes.  Values carried past either
    end of the axis are dropped, so mass is conserved as long as nothing
    crosses the boundary.
    """
    m = math.floor(cells)
    frac = cells - m
    out = np.zeros_like(values)
    n = values.shape[axis]
    for offset, weight in ((m, 1.0 - frac), (m + 1, frac)):
        if weight == 0.0 or abs(offset) >= n:
            continue
        src = [slice(None)] * values.ndim
        dst = [slice(None)] * values.ndim
        src[axis] = slice(max(0, -offset), n - max(0, offset))
        dst[axis] = slice(max(0, offset), n + min(0, offset))
        out[tuple(dst)] += weight * values[tuple(src)]
    return out


def shift(f: GridFunction, h) -> GridFunction:
    """f_h(x) = f(x - h) by linear interpolation, zero outside the box.

    A node whose source point x - h lies outside the box reads 0.  Restricted
    to Lebesgue-tagged functions with |h| below the shift cap so the zero
    extension cannot silently lose mass of the compactly supported corpus
    functions.
    """
    if f.measure != LEBESGUE:
        raise MeasureMismatchError("shift requires the Lebesgue tag")
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape != (f.dim,):
        raise ValueError("shift vector dimension mismatch")
    if float(np.linalg.norm(h)) > shift_cap(f) * (1.0 + 1e-12):
        raise ValueError("shift exceeds the boundary-error cap")
    vals = f.samples
    inside = np.ones(f.shape, dtype=bool)
    for axis, (hj, dxj, n) in enumerate(zip(h, f.dx, f.shape)):
        cells = hj / dxj
        if cells == 0.0:
            continue
        vals = shift_axis(vals, cells, axis)
        src = np.arange(n) - cells
        keep = (src >= 0.0) & (src <= n - 1)
        inside &= keep.reshape([n if a == axis else 1 for a in range(f.dim)])
    return f.with_samples(np.where(inside, vals, 0.0))


def partial_derivative(f: GridFunction, axis: int) -> GridFunction:
    """Second-order central differences; one-sided at the boundary layer."""
    d = np.gradient(f.samples, f.dx[axis], axis=axis, edge_order=2)
    return f.with_samples(d)


def directional_derivative(f: GridFunction, e: Direction) -> GridFunction:
    if e.dim != f.dim:
        raise ValueError("direction dimension mismatch")
    out = np.zeros(f.shape)
    for axis, comp in enumerate(e.e):
        if comp != 0.0:
            out += comp * partial_derivative(f, axis).samples
    return f.with_samples(out)


def gradient(f: GridFunction) -> VectorFieldGrid:
    return VectorFieldGrid(tuple(partial_derivative(f, ax)
                                 for ax in range(f.dim)))


def divergence(phi: VectorFieldGrid) -> GridFunction:
    out = np.zeros(phi.components[0].shape)
    for axis, comp in enumerate(phi.components):
        out += partial_derivative(comp, axis).samples
    return phi.components[0].with_samples(out)


def divergence_gamma(phi: VectorFieldGrid) -> GridFunction:
    """div Phi - sum_i x_i Phi_i, the Gaussian adjoint of the gradient."""
    if phi.measure != GAUSSIAN:
        raise MeasureMismatchError("divergence_gamma requires the Gaussian tag")
    div = divergence(phi).samples
    xs = phi.components[0].meshgrid()
    for x, comp in zip(xs, phi.components):
        div = div - x * comp.samples
    return phi.components[0].with_samples(div)


def coarsen(f: GridFunction) -> GridFunction:
    """Drop every other node (n must be odd); used for slack estimation."""
    for n in f.shape:
        if n % 2 == 0:
            raise ValueError("coarsening needs odd sample counts")
    sl = tuple(slice(None, None, 2) for _ in range(f.dim))
    return GridFunction(f.bounds, f.samples[sl], f.measure)


def save(f: GridFunction, path) -> None:
    """Self-describing binary container (npz)."""
    np.savez(path,
             dim=f.dim,
             bounds=np.asarray(f.bounds, dtype=float),
             n=np.asarray(f.shape, dtype=np.int64),
             measure=np.str_(f.measure),
             samples=f.samples)


def load(path) -> GridFunction:
    with np.load(path) as data:
        bounds = tuple(map(tuple, data["bounds"]))
        return GridFunction(bounds, data["samples"], str(data["measure"]))


def to_csv(f: GridFunction, path) -> None:
    """One coordinate tuple + value per line."""
    axes = f.axes()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(f.dim)] + ["value"])
        if f.dim == 1:
            for x, v in zip(axes[0], f.samples):
                writer.writerow([repr(float(x)), repr(float(v))])
        else:
            for i, x in enumerate(axes[0]):
                for j, y in enumerate(axes[1]):
                    writer.writerow([repr(float(x)), repr(float(y)),
                                     repr(float(f.samples[i, j]))])
