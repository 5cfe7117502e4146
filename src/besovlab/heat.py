"""Heat semigroup on Lebesgue grids and the small-time gradient functional.

P_t convolves the zero-extended samples with the sampled variance-t Gaussian
kernel, of unit discrete mass, separably along each axis; grad P_t takes the
kernel's derivative along one axis.  Every convolution is a zero-padded FFT
over scipy.fft: heat_apply and heat_gradient convolve one axis at a time at
the full convolution's fast length, and heat_gradient_sum, a weighted sum of
grad P_t over many times, is one Fourier multiplier on f padded to 2n - 1
points per axis.  t_points is the one check of a t grid (a nonempty 1D
sequence, positive, strictly increasing), and fills in the default grid;
every public entry point that takes a t grid runs it once.
gradient_supremum, shared with the OU functional, reads a grid so checked
and returns its curve as a float array aligned with the t grid; writing it
is left to the caller.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import fft, irfft, irfftn, next_fast_len, rfft, rfftn

from .grid import (LEBESGUE, GridFunction, VectorFieldGrid, check_exponents,
                   field_lq_norm, require_tag)

#: kernel truncation radius in units of sqrt(t); tail mass below 1e-15
KERNEL_RADIUS_SIGMAS = 8.0


def default_t_grid(num=64):
    """num geometric points from 1e-4 to 1e2."""
    return np.geomspace(1e-4, 1e2, num)


def check_semigroup_args(f, t, measure):
    """The arguments of a semigroup of `measure`: f carries its tag, t > 0."""
    require_tag(f, measure, "this semigroup")
    if not t > 0:
        raise ValueError("t must be positive")


def _axis_kernel(t, dx, n, derivative):
    """Sampled Gaussian kernel of unit mass, or its derivative -u/t times it,
    at the offsets u.  The mass is the discrete sum out to
    KERNEL_RADIUS_SIGMAS sqrt(t) (Markov even when sqrt(t) is below a cell);
    the cut at n - 1 cells, past which zero-extended data has no node, drops
    no mass even when the kernel is wider than the box."""
    radius = int(np.ceil(KERNEL_RADIUS_SIGMAS * np.sqrt(t) / dx))
    u = np.arange(-radius, radius + 1) * dx
    kernel = np.exp(-u * u / (2.0 * t))
    kernel = kernel / np.sum(kernel)
    cut = max(radius - (n - 1), 0)
    u, kernel = u[cut:u.size - cut], kernel[cut:kernel.size - cut]
    return kernel * (-u / t) if derivative else kernel


def _convolve_axis(samples, kernel, axis):
    """Linear convolution along one axis, cropped to the centred n nodes,
    with the zero-padded FFT of the full convolution's fast length."""
    n, size = samples.shape[axis], kernel.size
    length = next_fast_len(n + size - 1, True)
    shape = [1] * samples.ndim
    shape[axis] = -1
    out = irfft(rfft(samples, length, axis=axis)
                * rfft(kernel, length).reshape(shape), length, axis=axis)
    crop = [slice(None)] * samples.ndim
    crop[axis] = slice((size - 1) // 2, (size - 1) // 2 + n)
    return out[tuple(crop)]


def _heat_pass(f: GridFunction, t, derivative_axis):
    """One separable convolution of f with the variance-t kernel, whose
    factor along derivative_axis (None for no axis) is the kernel's
    derivative: P_t f, or the component of grad P_t f along that axis."""
    out = f.samples
    for axis in range(f.dim):
        kernel = _axis_kernel(t, f.dx[axis], f.shape[axis],
                              axis == derivative_axis)
        out = _convolve_axis(out, kernel, axis)
    return f.with_samples(out)


def _wrapped_kernels(times, dx, n, length):
    """The plain and the derivative kernel of each time, centred on index 0
    of a period of `length` points: an array (2, len(times), length)."""
    kernels = np.zeros((2, len(times), length))
    for row, t in enumerate(times):
        for derivative in (0, 1):
            kernel = _axis_kernel(t, dx, n, derivative)
            kernels[derivative, row,
                    np.arange(kernel.size) - kernel.size // 2] = kernel
    return kernels


def heat_apply(f: GridFunction, t: float) -> GridFunction:
    """Convolution with the variance-t Gaussian kernel (zero extension)."""
    check_semigroup_args(f, t, LEBESGUE)
    return _heat_pass(f, t, None)


def heat_gradient(f: GridFunction, t: float) -> VectorFieldGrid:
    """Gradient of P_t f, by convolving with the kernel gradient."""
    check_semigroup_args(f, t, LEBESGUE)
    return VectorFieldGrid(tuple(_heat_pass(f, t, axis)
                                 for axis in range(f.dim)))


def heat_gradient_sum(f: GridFunction, times, weights) -> VectorFieldGrid:
    """sum_k weights[k] grad P_{times[k]} f, as one Fourier multiplier.

    The terms are heat_gradient's convolutions, with the same kernels.  Each
    axis is padded to at least 2n - 1 points, and no kernel reaches past
    n - 1 cells, so the circular convolution with kernels centred on index 0
    is the linear one on the n nodes.  Component i multiplies the spectrum
    of f by the weighted sum over times of the derivative kernel's spectrum
    along axis i times the plain one's along the other axis: one forward
    FFT of f and one inverse per component, whatever the number of times.
    """
    for t in times:
        check_semigroup_args(f, t, LEBESGUE)
    weights = np.asarray(weights, float)
    lengths = [next_fast_len(2 * n - 1, True) for n in f.shape]
    # the last axis is the half spectrum of rfftn, the others full spectra
    spectra = [(rfft if axis == f.dim - 1 else fft)(
        _wrapped_kernels(times, f.dx[axis], f.shape[axis], lengths[axis]))
        for axis in range(f.dim)]
    data = rfftn(f.samples, lengths)
    crop = tuple(slice(n) for n in f.shape)
    comps = []
    for i in range(f.dim):
        # the derivative kernels along axis i, the plain ones elsewhere
        factors = [s[int(axis == i)] for axis, s in enumerate(spectra)]
        multiplier = (weights @ factors[0] if f.dim == 1
                      else (factors[0].T * weights) @ factors[1])
        comps.append(f.with_samples(irfftn(data * multiplier, lengths)[crop]))
    return VectorFieldGrid(tuple(comps))


def t_points(t_grid):
    """t_grid as a float array, or default_t_grid() for None: the one check
    of a t grid, run once by each public entry point that takes one.  The
    grid must be a nonempty 1D sequence, positive and strictly increasing."""
    ts = np.asarray(default_t_grid() if t_grid is None else t_grid, float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty 1D sequence")
    if not np.all(ts > 0):
        raise ValueError("t must be positive")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("t must be strictly increasing")
    return ts


def gradient_supremum(fields, t_grid, p, alpha):
    """Grid supremum of t^((1-alpha)/2) ||field_t||_p over t_grid, with the
    pointwise Euclidean magnitude of each field.

    t_grid must be nonempty, positive and strictly increasing, as t_points
    returns it; the caller checked it once, and it is not checked again here.
    fields holds the semigroup gradient at each grid t, in order, as the
    caller computed it (a lazy iterable is read only after p and alpha are
    checked).  The supremum shared by the heat and OU functionals.  Returns
    (value, argmax t, values), values a float array of the weighted norms
    aligned with t_grid.
    """
    check_exponents(p, alpha)
    vals = [t ** ((1.0 - alpha) / 2.0) * field_lq_norm(field, p)
            for t, field in zip(t_grid, fields, strict=True)]
    k = int(np.argmax(vals))
    return vals[k], float(t_grid[k]), np.array(vals, float)


def u_functional(f: GridFunction, p, alpha, t_grid=None):
    """Grid supremum of t^((1-alpha)/2) ||grad P_t f||_p.

    Returns gradient_supremum's (value, argmax t, values); the value is a
    certified lower bound of the true supremum.
    """
    t_grid = t_points(t_grid)
    return gradient_supremum((heat_gradient(f, t) for t in t_grid), t_grid,
                             p, alpha)
