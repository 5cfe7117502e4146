"""The standard test-function corpus.

Lebesgue-tagged functions are effectively compactly supported inside the box
(boundary samples below grid.EDGE_TOLERANCE of the max); Gaussian-tagged
functions are the L2(gamma)-normalized Hermite polynomials and low-degree
polynomials.
"""

from __future__ import annotations

import re

import numpy as np

from .grid import (DEFAULT_GRIDS, EDGE_TOLERANCE, GAUSSIAN, LEBESGUE, Grid,
                   GridFunction, edge_ratio)
from .ou import hermite_matrix

#: octave count of the truncated lacunary-cosine corpus function
WEIERSTRASS_OCTAVES = 10


def indicator_samples(x, a, b, dx):
    """Cell-averaged indicator of [a, b]: exact unit mass on any grid."""
    lo = np.clip(b, x - dx / 2, x + dx / 2) - np.clip(a, x - dx / 2, x + dx / 2)
    return np.maximum(lo, 0.0) / dx


def smooth_cutoff(x, radius=7.0):
    """C-infinity bump, identically zero for |x| >= radius."""
    out = np.zeros_like(x)
    inside = np.abs(x) < radius
    u = x[inside] / radius
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u * u))
    return out


def weierstrass_samples(x, alpha):
    """Truncated lacunary cosine series of Holder order alpha, cut off smoothly."""
    acc = np.zeros_like(x)
    for j in range(WEIERSTRASS_OCTAVES + 1):
        acc += 2.0 ** (-alpha * j) * np.cos(2.0 ** j * x)
    return smooth_cutoff(x) * acc


_PARAM = re.compile(r"^([a-z0-9_+\-]+?)\((.*)\)$")


def parse_name(name):
    """Split 'hermite(3)' into ('hermite', ('3',)); bare names get no args."""
    m = _PARAM.match(name.strip())
    if m is None:
        return name.strip(), ()
    args = tuple(s.strip() for s in m.group(2).split(",") if s.strip())
    return m.group(1), args


def name_dim(name) -> int:
    """Dimension of a corpus name: 2 for the names ending in '2d', else 1."""
    return 2 if parse_name(name)[0].endswith("2d") else 1


def build_corpus(name, bounds=None, shape=None) -> GridFunction:
    """Build a corpus function by name on the given (or the dimension's
    default, grid.DEFAULT_GRIDS) grid.

    1D Lebesgue: zero, indicator, hat, bump, weierstrass(alpha)
    1D Gaussian: hermite(n)
    2D Lebesgue: indicator2d, bump2d, hat2d
    2D Gaussian: x2d, xy2d, xplusysq2d, hermite2d(m, n)
    """
    base, args = parse_name(name)
    dim = name_dim(name)
    default = DEFAULT_GRIDS[dim]
    grid = Grid(default.bounds if bounds is None else bounds,
                default.shape if shape is None else shape)
    bounds = grid.bounds
    axes = grid.axes()

    if dim == 1:
        x = axes[0]
        if base == "zero":
            return GridFunction(bounds, np.zeros_like(x))
        if base == "indicator":
            return _checked(GridFunction(
                bounds, indicator_samples(x, 0.0, 1.0, grid.dx[0])))
        if base == "hat":
            return _checked(GridFunction(bounds, np.maximum(0.0, 1.0 - np.abs(x))))
        if base == "bump":
            return _checked(GridFunction(bounds, np.exp(-x * x / 2.0)))
        if base == "weierstrass":
            alpha = float(args[0]) if args else 0.5
            return _checked(GridFunction(bounds, weierstrass_samples(x, alpha)))
        if base == "hermite":
            n = int(args[0]) if args else 0
            return GridFunction(bounds, hermite_matrix(n, x)[n], GAUSSIAN)
        raise ValueError(f"unknown corpus name {name!r}")

    xx, yy = np.meshgrid(*axes, indexing="ij")
    if base == "indicator2d":
        sx = indicator_samples(axes[0], 0.0, 1.0, grid.dx[0])
        sy = indicator_samples(axes[1], 0.0, 1.0, grid.dx[1])
        return _checked(GridFunction(bounds, np.outer(sx, sy)))
    if base == "bump2d":
        return _checked(GridFunction(bounds, np.exp(-(xx ** 2 + yy ** 2) / 2.0)))
    if base == "hat2d":
        sx = np.maximum(0.0, 1.0 - np.abs(axes[0]))
        sy = np.maximum(0.0, 1.0 - np.abs(axes[1]))
        return _checked(GridFunction(bounds, np.outer(sx, sy)))
    if base == "x2d":
        return GridFunction(bounds, xx.copy(), GAUSSIAN)
    if base == "xy2d":
        return GridFunction(bounds, xx * yy, GAUSSIAN)
    if base == "xplusysq2d":
        return GridFunction(bounds, xx + yy ** 2, GAUSSIAN)
    if base == "hermite2d":
        m = int(args[0]) if args else 0
        n = int(args[1]) if len(args) > 1 else 0
        hx = hermite_matrix(m, axes[0])[m]
        hy = hermite_matrix(n, axes[1])[n]
        return GridFunction(bounds, np.outer(hx, hy), GAUSSIAN)
    raise ValueError(f"unknown corpus name {name!r}")


def _checked(f: GridFunction) -> GridFunction:
    """Enforce effective compact support of Lebesgue corpus functions."""
    assert f.measure == LEBESGUE
    if edge_ratio(f.samples) > EDGE_TOLERANCE:
        raise ValueError("corpus function does not vanish at the boundary")
    return f


#: names used by the default certification runs
LEBESGUE_CORPUS_1D = ("indicator", "hat", "bump", "weierstrass(0.5)")
LEBESGUE_CORPUS_2D = ("indicator2d", "hat2d", "bump2d")
GAUSSIAN_CORPUS_1D = tuple(f"hermite({n})" for n in range(5))
GAUSSIAN_CORPUS_2D = ("x2d", "xy2d", "xplusysq2d")
