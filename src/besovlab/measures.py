"""Shifted measures on grids: total variation profiles, Holder fits,
metric checks for the shift distance, disintegration into slices, and the
dyadic-to-continuum chaining bound.

A GridMeasure assigns a nonnegative weight to every grid node; total
variation is the cell-wise sum of absolute weight differences, which is the
grid analog of the L1 distance between densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Direction, GridFunction, GridGeometry, quad_weights,
                   shift_values)

#: below this many cell widths a shift is dominated by grid artifacts
FIT_CELL_FLOOR = 4.0
#: points of the default profile t grid, which runs from the fit floor to 1
PROFILE_T_POINTS = 32
#: random triples of the triangle-inequality check, and their seed
TRIANGLE_TRIPLES = 20
TRIANGLE_SEED = 20240
#: random shifts per slice of the chaining check
CHAINING_SAMPLES = 50


@dataclass(frozen=True)
class GridMeasure(GridGeometry):
    """Nonnegative weights on the nodes of a rectangular grid."""

    bounds: tuple
    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        self._check_geometry()
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")

    @property
    def shape(self):
        return self.weights.shape

    @property
    def total(self):
        return float(np.sum(self.weights))

    def with_weights(self, weights):
        return GridMeasure(self.bounds, weights)


def measure_from_density(f: GridFunction) -> GridMeasure:
    """Quadrature weights times density values; nonnegative densities only.

    The density is read against the function's tagged measure, so a
    Gaussian-tagged f yields the measure with density f against the
    standard Gaussian.
    """
    return GridMeasure(f.bounds, quad_weights(f) * f.samples)


def point_mass(bounds, shape, index) -> GridMeasure:
    weights = np.zeros(shape)
    weights[index] = 1.0
    return GridMeasure(bounds, weights)


def tv_distance(mu: GridMeasure, nu: GridMeasure) -> float:
    if not mu.same_grid(nu):
        raise ValueError("measures must share a grid")
    return float(np.sum(np.abs(mu.weights - nu.weights)))


def shift_measure(mu: GridMeasure, h) -> GridMeasure:
    """mu shifted by the vector h, one linear redistribution per axis."""
    return mu.with_weights(shift_values(mu.weights, h, mu.dx)[0])


def _shift_tv(mu: GridMeasure, direction: Direction, t) -> float:
    """tv(mu shifted by t along the direction, mu)."""
    h = tuple(t * e for e in direction.e)
    return tv_distance(shift_measure(mu, h), mu)


# ---------------------------------------------------------------------------
# Holder profiles


@dataclass(frozen=True)
class HolderFit:
    """Log-log least squares of a TV profile: tv(t) ~ constant * t^exponent.

    The residual is the rms of the fit in log space and is always reported;
    t_range is the window actually used.
    """

    exponent: float
    constant: float
    t_range: tuple
    residual: float

    def __post_init__(self):
        if not np.isfinite(self.exponent):
            raise ValueError("exponent must be finite")


def _fit_floor(mu: GridMeasure, direction: Direction):
    """FIT_CELL_FLOOR cell widths along the direction."""
    return FIT_CELL_FLOOR * max(
        abs(e) * d for e, d in zip(direction.e, mu.dx) if e != 0.0)


def default_profile_t_grid(mu: GridMeasure, direction: Direction):
    return tuple(np.geomspace(_fit_floor(mu, direction), 1.0,
                              PROFILE_T_POINTS))


def holder_profile(mu: GridMeasure, direction: Direction, t_grid=None):
    """TV curve t -> ||mu_(t h) - mu|| and its log-log Holder fit.

    Points below FIT_CELL_FLOOR cell widths are excluded from the fit
    window.  Returns (curve rows, HolderFit); the fitted constant over a
    small-t window is a grid lower bound for the shift smoothness constant.
    """
    if len(direction.e) != mu.dim:
        raise ValueError("direction dimension does not match the measure")
    if t_grid is None:
        t_grid = default_profile_t_grid(mu, direction)
    floor = _fit_floor(mu, direction)
    curve = [(float(t), _shift_tv(mu, direction, t)) for t in t_grid]
    pts = [(t, v) for t, v in curve if t >= floor * (1.0 - 1e-12) and v > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two usable points in the fit window")
    log_t = np.log([t for t, _ in pts])
    log_v = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    residual = float(np.sqrt(np.mean(
        (log_v - (slope * log_t + intercept)) ** 2)))
    fit = HolderFit(float(slope), float(math.exp(intercept)),
                    (pts[0][0], pts[-1][0]), residual)
    return curve, fit


# ---------------------------------------------------------------------------
# Metric checks for the shift distance


def shift_distance(mu: GridMeasure, h1, h2, alpha, t_grid=None) -> float:
    """Grid estimate of the alpha-shift distance between h1 and h2.

    Sup over the t-window of tv(mu shifted by t(h1-h2), mu) / t^alpha; a
    range-restricted lower bound for the true infimum constant.
    """
    diff = np.asarray(h1, dtype=float) - np.asarray(h2, dtype=float)
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        return 0.0
    direction = Direction(tuple(diff / norm))
    if t_grid is None:
        t_grid = default_profile_t_grid(mu, direction)
    return max((_shift_tv(mu, direction, t * norm) / (t * norm) ** alpha
                for t in t_grid), default=0.0)


def metric_axioms_check(mu: GridMeasure, h_list, alpha, t_grid=None):
    """Symmetry, identity, triangle and translation invariance on h_list.

    Completeness and compactness of the underlying space are out of numeric
    reach and deliberately not checked.  Returns a report dict.
    """
    h_list = [np.atleast_1d(np.asarray(h, dtype=float)) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("need at least three shifts")

    def d(a, b):
        return shift_distance(mu, a, b, alpha, t_grid)

    identity_max = max(d(h, h) for h in h_list)
    symmetry_max = max(abs(d(a, b) - d(b, a))
                       for i, a in enumerate(h_list)
                       for b in h_list[i + 1:])
    rng = np.random.default_rng(TRIANGLE_SEED)
    triangle_worst = -math.inf
    for _ in range(TRIANGLE_TRIPLES):
        i, j, k = rng.choice(len(h_list), size=3, replace=False)
        lhs = d(h_list[i], h_list[k])
        rhs = d(h_list[i], h_list[j]) + d(h_list[j], h_list[k])
        triangle_worst = max(triangle_worst, lhs - rhs)
    g = h_list[0] * 0.5
    translation_max = max(abs(d(a + g, b + g) - d(a, b))
                          for a, b in zip(h_list, h_list[1:]))
    return {
        "alpha": alpha,
        "identity_max": identity_max,
        "symmetry_max": symmetry_max,
        "triangle_worst_violation": triangle_worst,
        "translation_max": translation_max,
        "n_shifts": len(h_list),
        "n_triples": TRIANGLE_TRIPLES,
    }


# ---------------------------------------------------------------------------
# Disintegration and chaining


def conditional_slices(mu: GridMeasure, axis=1):
    """Disintegrate a 2D measure along one axis.

    Returns (slices, marginal): one normalized 1D measure per node of the
    chosen axis plus the 1D marginal carrying the mass.  Zero-mass rows
    yield zero slices.
    """
    if mu.dim != 2:
        raise ValueError("disintegration needs a 2D measure")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    kept = 1 - axis
    marginal_weights = np.sum(mu.weights, axis=kept)
    slices = []
    for j in range(mu.shape[axis]):
        row = np.take(mu.weights, j, axis=axis)
        mass = float(np.sum(row))
        slices.append(GridMeasure((mu.bounds[kept],),
                                  row / mass if mass > 0.0 else row))
    marginal = GridMeasure((mu.bounds[axis],), marginal_weights)
    return slices, marginal


def reassemble(slices, marginal: GridMeasure, axis=1) -> GridMeasure:
    """Inverse of conditional_slices, for the disintegration identity."""
    rows = np.stack([s.weights * m
                     for s, m in zip(slices, marginal.weights)])
    weights = rows if axis == 0 else rows.T
    bounds = ((marginal.bounds[0], slices[0].bounds[0]) if axis == 0
              else (slices[0].bounds[0], marginal.bounds[0]))
    return GridMeasure(bounds, weights)


def chaining_constant(mu: GridMeasure, direction: Direction, beta,
                      depth) -> float:
    """C = max over n <= depth of 2^(n beta) tv(mu shifted by 2^-n, mu)."""
    return max((2.0 ** (n * beta) * _shift_tv(mu, direction, 2.0 ** (-n))
                for n in range(1, depth + 1)), default=0.0)


def chaining_check(slices, beta, depth, seed=20240):
    """Dyadic-to-continuum shift bound for 1D slices, slice by slice, along
    the positive axis.

    From the dyadic constants C(y) the continuum bound uses exactly
    max(2, C(y) / (1 - 2^-beta)): for each of CHAINING_SAMPLES shifts s in
    (0, 1) the TV must stay below bound * s^beta.  Returns a report dict
    with one row per slice.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if depth < 1:
        raise ValueError("depth must be positive")
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, 1.0, size=CHAINING_SAMPLES)
    samples = samples[samples > 0.0]
    geometric = 1.0 / (1.0 - 2.0 ** (-beta))
    rows = []
    all_pass = True
    for idx, mu in enumerate(slices):
        direction = Direction((1.0,) * mu.dim)
        c = chaining_constant(mu, direction, beta, depth)
        bound = max(2.0, geometric * c)
        worst = max((_shift_tv(mu, direction, s) / (bound * s ** beta)
                     for s in samples), default=0.0)
        ok = bool(worst <= 1.0)
        all_pass = all_pass and ok
        rows.append({"slice": idx, "C": float(c),
                     "bound_constant": float(bound),
                     "max_ratio": float(worst), "pass": ok})
    return {"beta": beta, "depth": depth, "n_samples": int(samples.size),
            "pass": all_pass, "rows": rows}

