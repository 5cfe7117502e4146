"""Uniformly sampled functions on 1D/2D boxes with Lebesgue or Gaussian weights.

All quadrature is composite midpoint on the node grid: every node owns a cell
of volume prod(dx) and the Gaussian density is folded into the weights when
the function carries the Gaussian tag.
"""

from __future__ import annotations

import csv
import json
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


def require_tag(f, measure, what):
    """The one tag check: f (a function or a field) carries the measure tag
    that `what` needs."""
    if f.measure != measure:
        raise MeasureMismatchError(f"{what} requires the {measure} tag")


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


#: the default grid of each dimension: the box [-8, 8]^dim, 4097 nodes in 1D
#: and 513^2 in 2D
DEFAULT_GRIDS = {1: Grid(((-8.0, 8.0),), (4097,)),
                 2: Grid(((-8.0, 8.0), (-8.0, 8.0)), (513, 513))}


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


def density(f: GridFunction) -> np.ndarray:
    """Density of f's tagged measure on its grid: the standard Gaussian
    density for the Gaussian tag, 1 for the Lebesgue tag."""
    if f.measure == GAUSSIAN:
        return gaussian_density(f)
    return np.ones(f.shape)


def quad_weights(f: GridFunction) -> np.ndarray:
    """Midpoint quadrature weights, with the tag's density folded in."""
    return f.cell_volume() * density(f)


def _weights(f: GridFunction):
    """quad_weights, or for a Lebesgue tag the same weight as a scalar."""
    return quad_weights(f) if f.measure == GAUSSIAN else f.cell_volume()


def integrate(f: GridFunction) -> float:
    return float(np.sum(_weights(f) * f.samples))


#: a mean below this counts as zero: the Gaussian suite centers its
#: transport target only above it, and the Kantorovich norm rejects inputs
#: above it
ZERO_MEAN_TOLERANCE = 1e-8


def center(f: GridFunction):
    """Mean of f under the grid measure normalized to mass one, and f minus
    it: the one zero-mean rule.  The box holds a little less than the whole
    Gaussian mass (1 - 1.2e-15 on [-8, 8]); normalizing centers a constant
    to exactly zero."""
    mean = integrate(f) / float(np.sum(quad_weights(f)))
    return mean, f.with_samples(f.samples - mean)


def inner(f: GridFunction, g: GridFunction) -> float:
    """Integral of f*g under f's tagged measure (shared grid)."""
    if not f.same_grid(g):
        raise ValueError("inner product requires a shared grid")
    return float(np.sum(_weights(f) * f.samples * g.samples))


def _check_p(p):
    """p >= 1 or inf; a NaN fails the comparison and is rejected."""
    if not (p == np.inf or float(p) >= 1.0):
        raise ValueError("p must be >= 1 or inf")


def lp_norm(f: GridFunction, p) -> float:
    """L^p norm under the tagged measure; p = inf returns max |samples|."""
    _check_p(p)
    if p == np.inf:
        return float(np.max(np.abs(f.samples)))
    p = float(p)
    return float(np.sum(_weights(f) * np.abs(f.samples) ** p) ** (1.0 / p))


def check_exponents(p, alpha):
    """The admissible (p, alpha) of every functional: p >= 1 or inf, and
    0 < alpha <= 1."""
    _check_p(p)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def check_tag_exponent(f, p):
    """The one p rule of a measure tag: a Gaussian-tagged f takes no
    p = inf, where the Gaussian constant C(p) = ||Z||_p is infinite and no
    witness construction is admissible."""
    if f.measure == GAUSSIAN and p == np.inf:
        raise ValueError("a Gaussian target's C(p) is infinite at p = inf")


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


def along(psi: GridFunction, e: Direction) -> VectorFieldGrid:
    """The field psi * e, whose divergence is the derivative of psi along e:
    the directional test objects of V."""
    if e.dim != psi.dim:
        raise ValueError("direction dimension mismatch")
    return VectorFieldGrid(tuple(psi.with_samples(c * psi.samples)
                                 for c in e.e))


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


def _source_run(cells, n):
    """The nodes i of an n-node axis moved by `cells` whose source i - cells,
    rounded as node arithmetic rounds it, lies in [0, n - 1], as a slice.

    i - cells >= 0 holds in floating point exactly when i >= cells does;
    i - cells <= n - 1 may hold after rounding at one node past the exact
    run, the first node above n - 1 + cells.
    """
    lo = min(max(math.ceil(cells), 0), n)
    hi = n + math.floor(cells)
    if hi - cells <= n - 1:
        hi += 1
    return slice(lo, min(max(hi, lo), n))


def shift_values(values, h, dx):
    """Node values moved by the vector h: one shift_axis pass per axis with
    a nonzero cell count h_j / dx_j, the one shift loop of functions and
    measures.

    Returns (moved, inside), where inside holds one slice per axis: the nodes
    whose source point x - h lies in the box are moved[inside].  moved is
    `values` itself when h is zero.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape != (values.ndim,):
        raise ValueError("shift vector dimension mismatch")
    inside = []
    for axis, (hj, dxj, n) in enumerate(zip(h, dx, values.shape)):
        cells = hj / dxj
        if cells == 0.0:
            inside.append(slice(0, n))
            continue
        values = shift_axis(values, cells, axis)
        inside.append(_source_run(cells, n))
    return values, tuple(inside)


def shift(f: GridFunction, h) -> GridFunction:
    """f_h(x) = f(x - h) by linear interpolation, zero outside the box.

    A node whose source point x - h lies outside the box reads 0.  Restricted
    to Lebesgue-tagged functions with |h| below the shift cap so the zero
    extension cannot silently lose mass of the compactly supported corpus
    functions.
    """
    require_tag(f, LEBESGUE, "shift")
    if float(np.linalg.norm(h)) > shift_cap(f) * (1.0 + 1e-12):
        raise ValueError("shift exceeds the boundary-error cap")
    vals, inside = shift_values(f.samples, h, f.dx)
    if vals is f.samples:  # h = 0: nothing moved, nothing to zero
        return f.with_samples(vals.copy())
    for axis, run in enumerate(inside):
        before = (slice(None),) * axis
        vals[before + (slice(0, run.start),)] = 0.0
        vals[before + (slice(run.stop, None),)] = 0.0
    return f.with_samples(vals)


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
        if np.any(comp.samples):  # the zero components of an along() field
            out += partial_derivative(comp, axis).samples
    return phi.components[0].with_samples(out)


def divergence_gamma(phi: VectorFieldGrid) -> GridFunction:
    """div Phi - sum_i x_i Phi_i, the Gaussian adjoint of the gradient."""
    require_tag(phi, GAUSSIAN, "divergence_gamma")
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


def write_csv(path, header, rows):
    """The one CSV format of every artifact: the header row, then the rows,
    through csv.writer; every real is written as repr(float(v)), which reads
    back to the same float, and every other item unchanged."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating))
                          else v for v in row] for row in rows)


def json_text(payload) -> str:
    """The one JSON text of every artifact: sorted keys, two-space indent,
    a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def to_csv(f: GridFunction, path) -> None:
    """One coordinate tuple + value per line, nodes in row-major order."""
    columns = [x.ravel() for x in f.meshgrid()] + [f.samples.ravel()]
    write_csv(path, [f"x{i + 1}" for i in range(f.dim)] + ["value"],
              zip(*columns))
