"""Heat semigroup on Lebesgue grids and the small-time gradient functional."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .grid import (LEBESGUE, GridFunction, VectorFieldGrid, check_exponents,
                   field_lq_norm, require_tag, write_csv)

#: kernel truncation radius in units of sqrt(t); tail mass below 1e-15
KERNEL_RADIUS_SIGMAS = 8.0


@dataclass(frozen=True)
class SemigroupCurve:
    """Sampled map t -> value for semigroup quantities."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((float(t), float(v)) for t, v in self.entries)
        object.__setattr__(self, "entries", entries)
        ts = [t for t, _ in entries]
        if any(t <= 0 for t in ts):
            raise ValueError("t must be positive")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("t must be strictly increasing")
        if not all(np.isfinite(v) for _, v in entries):
            raise ValueError("values must be finite")

    @property
    def t(self):
        return np.array([t for t, _ in self.entries])

    @property
    def values(self):
        return np.array([v for _, v in self.entries])

    def to_csv(self, path):
        write_csv(path, ("t", "value"), self.entries)


def default_t_grid(num=64):
    """num geometric points from 1e-4 to 1e2."""
    return np.geomspace(1e-4, 1e2, num)


def _kernel_offsets(t, dx, n):
    radius = int(np.ceil(KERNEL_RADIUS_SIGMAS * np.sqrt(t) / dx))
    radius = min(radius, n - 1)
    return np.arange(-radius, radius + 1) * dx


def check_semigroup_args(f, t, measure):
    """The arguments of a semigroup of `measure`: f carries its tag, t > 0."""
    require_tag(f, measure, "this semigroup")
    if not t > 0:
        raise ValueError("t must be positive")


def _convolve_axis(samples, kernel, axis):
    shape = [1] * samples.ndim
    shape[axis] = kernel.size
    return fftconvolve(samples, kernel.reshape(shape), mode="same", axes=axis)


def _axis_kernel(t, dx, n):
    """Sampled Gaussian kernel normalized to unit mass.

    Normalizing by the discrete sum keeps the operator Markov even when
    sqrt(t) falls below the grid spacing; at resolved scales the factor
    differs from one by far less than the quadrature error.
    """
    u = _kernel_offsets(t, dx, n)
    kernel = np.exp(-u * u / (2.0 * t))
    return u, kernel / np.sum(kernel)


def _heat_pass(f: GridFunction, t, derivative_axis):
    """One separable convolution of f with the variance-t kernel, whose
    factor along derivative_axis (None for no axis) is the kernel's
    derivative: P_t f, or the component of grad P_t f along that axis."""
    out = f.samples
    for axis in range(f.dim):
        u, kernel = _axis_kernel(t, f.dx[axis], f.shape[axis])
        if axis == derivative_axis:
            kernel = kernel * (-u / t)
        out = _convolve_axis(out, kernel, axis)
    return f.with_samples(out)


def heat_apply(f: GridFunction, t: float) -> GridFunction:
    """Convolution with the variance-t Gaussian kernel (zero extension)."""
    check_semigroup_args(f, t, LEBESGUE)
    return _heat_pass(f, t, None)


def heat_gradient(f: GridFunction, t: float) -> VectorFieldGrid:
    """Gradient of P_t f, by convolving with the kernel gradient."""
    check_semigroup_args(f, t, LEBESGUE)
    return VectorFieldGrid(tuple(_heat_pass(f, t, axis)
                                 for axis in range(f.dim)))


def t_points(t_grid):
    """t_grid as a float array, or default_t_grid() for None."""
    return np.asarray(default_t_grid() if t_grid is None else t_grid, float)


def gradient_supremum(fields, t_grid, p, alpha):
    """Grid supremum of t^((1-alpha)/2) ||field_t||_p over t_grid, with the
    pointwise Euclidean magnitude of each field.

    fields holds the semigroup gradient at each grid t, in order, as the
    caller computed it (a lazy iterable is read only after the arguments
    are checked).  The supremum shared by the heat and OU functionals.
    Returns (value, argmax t, SemigroupCurve).
    """
    check_exponents(p, alpha)
    if len(t_grid) == 0:
        raise ValueError("t_grid must be nonempty")
    vals = [t ** ((1.0 - alpha) / 2.0) * field_lq_norm(field, p)
            for t, field in zip(t_grid, fields, strict=True)]
    curve = SemigroupCurve(tuple(zip(t_grid, vals)))
    k = int(np.argmax(vals))
    return vals[k], float(t_grid[k]), curve


def u_functional(f: GridFunction, p, alpha, t_grid=None):
    """Grid supremum of t^((1-alpha)/2) ||grad P_t f||_p.

    Returns (value, argmax t, SemigroupCurve); the value is a certified lower
    bound of the true supremum.
    """
    t_grid = t_points(t_grid)
    return gradient_supremum((heat_gradient(f, t) for t in t_grid), t_grid,
                             p, alpha)
