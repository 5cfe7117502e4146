"""Fractional smoothness functionals on grids.

Shift seminorm sup_h |h|^(-alpha) ||f_h - f||_p, lower-bound witnesses for
the variational functional V (the best constant in the nonlinear
integration-by-parts inequality), and the one-dimensional Gaussian
Kantorovich norm.  Every V test object is a vector field: the directional
form of V is the supremum over fields psi * e along one direction e
(grid.along), and the Gaussian form pairs the same quotient with
div_gamma.  The witnesses are the two constructions of the proofs, both
deterministic: a near-dual-optimal phi integrated along the shift segment
(segment-integral) or along the heat / OU semigroup (semigroup-integral).

All suprema are grid maxima and therefore certified lower bounds of the
continuum quantities; witnesses are concrete test objects whose quotient can
be re-evaluated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.ndimage import gaussian_filter

from .grid import (
    EDGE_TOLERANCE,
    GAUSSIAN,
    LEBESGUE,
    ZERO_MEAN_TOLERANCE,
    Direction,
    GridFunction,
    VectorFieldGrid,
    along,
    center,
    check_exponents,
    check_tag_exponent,
    density,
    divergence,
    divergence_gamma,
    dual_exponent,
    edge_ratio,
    field_lq_norm,
    gaussian_density,
    inner,
    lp_norm,
    quad_weights,
    require_tag,
    shift,
    shift_cap,
)
from .ou import semigroup

DEFAULT_SHIFT_COUNT = 40
MOLLIFIER_WIDTH_CELLS = 2.0
BISECTION_STEPS = 25
#: the refined golden-section point replaces the grid argmax only when its
#: quotient is larger by more than this relative amount, so that on a plateau
#: of the quotient round-off does not pick the reported shift
REFINE_GAIN = 1e-12
MIN_DIV_NORM = 1e-10
#: times of the semigroup-integral witnesses
SEMIGROUP_T = np.geomspace(1e-3, 2.0, 6)
#: Gauss-Legendre nodes of the 2D semigroup integral in u = sqrt(s)
SEMIGROUP_NODES = 12


def default_shift_magnitudes(f: GridFunction, num=DEFAULT_SHIFT_COUNT):
    """Log-spaced shift magnitudes between 4 cells and the shift cap."""
    cap = shift_cap(f)
    lo = 4.0 * max(f.dx)
    if lo >= cap:
        raise ValueError("grid too coarse for the default shift range")
    return np.geomspace(lo, cap, num)


def _default_directions(dim):
    if dim == 1:
        return (Direction((1.0,)),)
    r = 1.0 / math.sqrt(2.0)
    return (Direction((1.0, 0.0)), Direction((0.0, 1.0)), Direction((r, r)))


@dataclass(frozen=True)
class BesovEstimate:
    """Grid estimate of a shift seminorm with the attaining shift."""

    value: float
    witness_h: tuple
    p: float
    alpha: float
    cap_limited: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("value must be nonnegative")


def shift_quotient(f: GridFunction, h, p, alpha) -> float:
    """|h|^(-alpha) ||f_h - f||_p for one shift vector."""
    h = np.asarray(h, dtype=float)
    mag = float(np.linalg.norm(h))
    if mag == 0.0:
        raise ValueError("shift must be nonzero")
    d = f.with_samples(shift(f, h).samples - f.samples)
    return mag ** (-alpha) * lp_norm(d, p)


def _estimate(f, p, alpha, shifts):
    vals = [shift_quotient(f, h, p, alpha) for h in shifts]
    k = int(np.argmax(vals))
    best_h = np.asarray(shifts[k], dtype=float)
    best = vals[k]
    mags = [float(np.linalg.norm(np.asarray(h))) for h in shifts]
    cap = max(mags)
    direction = best_h / np.linalg.norm(best_h)

    # one local refinement pass: golden-section in magnitude around the
    # argmax; the kept inner point is the next step's other inner point, so
    # each step after the first evaluates one new quotient
    a = max(mags[k] / 1.6, 2.0 * max(f.dx))
    b = min(mags[k] * 1.6, cap)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    m1, m2 = b - invphi * (b - a), a + invphi * (b - a)
    v1 = v2 = None
    for _ in range(BISECTION_STEPS):
        v1 = shift_quotient(f, m1 * direction, p, alpha) if v1 is None else v1
        v2 = shift_quotient(f, m2 * direction, p, alpha) if v2 is None else v2
        if v1 >= v2:
            b, m2, v2 = m2, m1, v1
            m1, v1 = b - invphi * (b - a), None
        else:
            a, m1, v1 = m1, m2, v2
            m2, v2 = a + invphi * (b - a), None
    m_star = 0.5 * (a + b)
    v_star = shift_quotient(f, m_star * direction, p, alpha)
    if v_star > best * (1.0 + REFINE_GAIN):
        best, best_h = v_star, m_star * direction
    cap_limited = float(np.linalg.norm(best_h)) >= cap * (1 - 1e-9)
    return BesovEstimate(best, tuple(best_h), float(p), float(alpha),
                         cap_limited)


def besov_seminorm(f: GridFunction, p, alpha) -> BesovEstimate:
    """Grid supremum of the shift quotient over the default magnitudes
    along each default direction (a certified lower bound)."""
    check_exponents(p, alpha)
    require_tag(f, LEBESGUE, "a shift seminorm")
    mags = default_shift_magnitudes(f)
    return _estimate(f, p, alpha, [m * np.asarray(e.e)
                                   for e in _default_directions(f.dim)
                                   for m in mags])


# ---------------------------------------------------------------------------
# Variational quotients


@dataclass(frozen=True)
class QuotientWitness:
    """A test field together with its certified quotient.

    Every finite quotient is a lower bound for the variational functional V
    (Lebesgue or Gaussian, selected by the measure tag of the target
    function).
    """

    field: VectorFieldGrid
    quotient: float
    numerator: float
    norm_field: float
    norm_div: float
    p: float
    alpha: float
    construction: str = ""

    def __post_init__(self):
        if self.norm_div <= 0:
            raise ValueError("norm_div must be positive")
        expect = self.numerator / (self.norm_field ** self.alpha
                                   * self.norm_div ** (1.0 - self.alpha))
        if abs(self.quotient - expect) > 1e-12 * max(1.0, abs(expect)):
            raise ValueError("quotient does not match its factorization")


def v_quotient(f: GridFunction, field: VectorFieldGrid, p, alpha,
               construction="") -> QuotientWitness:
    """Evaluate the integration-by-parts quotient of one test field.

    The divergence flavor follows f's measure tag; the directional form is
    the field psi * e built by grid.along.
    """
    check_exponents(p, alpha)
    q = dual_exponent(p)
    if not field.components[0].same_grid(f):
        raise ValueError("test field must share f's grid")
    if f.measure == GAUSSIAN:
        # div_gamma v has Gaussian mean zero, so it is paired with f centered
        # by grid.center: a constant target gets the quotient 0 of V
        div, f = divergence_gamma(field), center(f)[1]
    else:
        div = divergence(field)
    norm_field = field_lq_norm(field, q)
    norm_div = lp_norm(div, q)
    if norm_div <= MIN_DIV_NORM:
        raise ValueError("test object has (numerically) vanishing divergence")
    numerator = abs(inner(div, f))
    quotient = numerator / (norm_field ** alpha * norm_div ** (1.0 - alpha))
    return QuotientWitness(field, quotient, numerator, norm_field, norm_div,
                           float(p), float(alpha), construction)


def _mollify(samples):
    return gaussian_filter(samples, sigma=MOLLIFIER_WIDTH_CELLS,
                           mode="constant")


def _dual_optimal(g: GridFunction, p) -> GridFunction:
    """Mollified near-maximizer of int(phi*g) subject to ||phi||_q <= 1."""
    q = dual_exponent(p)
    peak = np.max(np.abs(g.samples))
    if p == 1:
        # suppress roundoff-scale values so the sign stays supported where
        # g genuinely lives; otherwise noise inflates the segment integral
        phi = np.sign(np.where(np.abs(g.samples) > 1e-12 * peak,
                               g.samples, 0.0))
    elif p == np.inf:
        # the q = 1 dual: the sign of g where |g| attains its peak
        phi = np.sign(np.where(np.abs(g.samples) == peak, g.samples, 0.0))
    else:
        norm = lp_norm(g, p)
        if norm == 0:
            phi = np.zeros(g.shape)
        else:
            phi = (np.sign(g.samples) * np.abs(g.samples) ** (p - 1.0)
                   / norm ** (p - 1.0))
    phi = _mollify(phi)
    out = g.with_samples(phi)
    if q == np.inf:
        out = g.with_samples(np.clip(phi, -1.0, 1.0))
    else:
        n = lp_norm(out, q)
        if n > 1.0:
            out = g.with_samples(phi / n)
    return out


def _antiderivative_shift(phi: GridFunction, h, axis) -> GridFunction:
    """psi(x) = int_0^h phi(x + s e_axis) ds via the running integral A,
    vanishing on the whole boundary of the box.

    phi vanishes past the box, so A holds its end value A(b) there:
    psi = A(min(x + h, b)) - A(x) is zero at the far end.  phi is zeroed
    within h of the near end, where psi(a) = int_a^(a+h) phi, and on the
    boundary nodes of the other axes; for a target supported inside the box
    these nodes carry no mass of phi anyway.
    """
    samples = phi.samples.copy()
    for ax in range(phi.dim):
        edge = [slice(None)] * phi.dim
        edge[ax] = (slice(0, int(math.ceil(h / phi.dx[axis])) + 1)
                    if ax == axis else [0, -1])
        samples[tuple(edge)] = 0.0
    acc = cumulative_trapezoid(samples, dx=phi.dx[axis], axis=axis,
                               initial=0.0)
    end = np.take(acc, [-1], axis=axis)
    vec = np.zeros(phi.dim)
    vec[axis] = -h
    shifted = shift(phi.with_samples(acc - end), vec)
    return phi.with_samples(shifted.samples + end - acc)


def _segment_difference(f: GridFunction, h, axis) -> GridFunction:
    """f_h - f for the shift h e_axis."""
    vec = np.zeros(f.dim)
    vec[axis] = h
    return f.with_samples(shift(f, vec).samples - f.samples)


def _segment_witness(f, h, axis, diff, p, alpha) -> QuotientWitness:
    """psi_witness from the difference diff = f_h - f."""
    psi = _antiderivative_shift(_dual_optimal(diff, p), h, axis)
    e = Direction(tuple(1.0 if i == axis else 0.0 for i in range(f.dim)))
    return v_quotient(f, along(psi, e), p, alpha,
                      construction=f"segment-integral h={h:.6g} axis={axis}")


def psi_witness(f: GridFunction, h: float, axis: int, p, alpha) -> QuotientWitness:
    """The proof-construction witness at one shift magnitude.

    Builds the near-dual-optimal phi of f_h - f along the axis, integrates it
    over the shift segment into psi, and evaluates the quotient of the field
    psi * e_axis.  Realizes at least 2^(alpha-1) |h|^(-alpha) ||f_h - f||_p up
    to mollification error.
    """
    require_tag(f, LEBESGUE, "the segment-integral witness")
    return _segment_witness(f, h, axis, _segment_difference(f, h, axis), p,
                            alpha)


def semigroup_witness(f: GridFunction, t: float, p, alpha) -> QuotientWitness:
    """The semigroup-integral witness at time t.

    S is the semigroup of f's tag (ou.semigroup): heat for Lebesgue targets,
    OU for Gaussian ones.  With phi the near-dual-optimal function of
    S_t f - f, the field v = int_0^t grad S_s phi ds has
    div v = c (S_t phi - phi) (c = 2 for heat, whose kernel has variance t;
    1 for OU), so <div v, f> = c <phi, S_t f - f>.  In 1D v is that exact
    solution, rho^-1 int (S_t phi - phi) rho with rho the density of f's
    tag (grid.density), taken from the nearer end of the box after removing
    the rho-mean.  In 2D the integral runs over u = sqrt(s) on
    SEMIGROUP_NODES Gauss-Legendre nodes (_semigroup_nodes), and the
    weighted sum of grad S_s phi over them is the semigroup's gradient sum
    (ou.semigroup): for heat one Fourier multiplier on phi, for OU one
    ou_gradient per node.
    """
    return _semigroup_witness(f, t, _semigroup_difference(f, t), p, alpha)


def _semigroup_nodes(t):
    """Times s and weights of int_0^t g(s) ds on SEMIGROUP_NODES
    Gauss-Legendre nodes in u = sqrt(s): s = u^2, weight 2u (du/dx) w."""
    nodes, weights = np.polynomial.legendre.leggauss(SEMIGROUP_NODES)
    half = 0.5 * math.sqrt(t)
    u = half * (nodes + 1.0)
    return u * u, 2.0 * u * half * weights


def _semigroup_difference(f: GridFunction, t) -> GridFunction:
    """S_t f - f, with S the semigroup of f's tag."""
    return f.with_samples(semigroup(f)[0](f, t).samples - f.samples)


def _semigroup_witness(f, t, diff, p, alpha) -> QuotientWitness:
    """semigroup_witness from the difference diff = S_t f - f."""
    apply_fn, _, gradient_sum = semigroup(f)
    phi = _dual_optimal(diff, p)
    if f.dim == 1:
        rho = density(f)
        g = apply_fn(phi, t).samples - phi.samples
        w = (g - np.trapezoid(g * rho) / np.trapezoid(rho)) * rho
        left = cumulative_trapezoid(w, dx=f.dx[0], initial=0.0)
        right = -cumulative_trapezoid(w[::-1], dx=f.dx[0], initial=0.0)[::-1]
        v = np.where(f.axes()[0] <= 0.0, left, right) / rho
        field = VectorFieldGrid((f.with_samples(v),))
    else:
        field = gradient_sum(phi, *_semigroup_nodes(t))
    return v_quotient(f, field, p, alpha,
                      construction=f"semigroup-integral t={t:.6g}")


def v_lower_bounds(f: GridFunction, pairs) -> list:
    """Best lower-bound witness of the two proof constructions, for each
    (p, alpha) of pairs, in order.

    The segment-integral witnesses at 12 shift magnitudes per axis (Lebesgue
    targets) and the semigroup-integral witnesses at every SEMIGROUP_T.  The
    difference f_h - f or S_t f - f of a candidate does not depend on
    (p, alpha), so it is computed once and serves every pair; every pair
    sees the same candidates in the same order.  A Lebesgue candidate is a
    test object only if it vanishes at the box edge (grid.edge_ratio within
    EDGE_TOLERANCE); others are skipped.  Gaussian fields are not cut.
    Deterministic: no random search, no seed.  A Gaussian target at p = inf
    is rejected (grid.check_tag_exponent).
    """
    for p, alpha in pairs:
        check_exponents(p, alpha)
        check_tag_exponent(f, p)
    candidates = [(_segment_difference, _segment_witness, (float(h), axis))
                  for axis in range(f.dim)
                  for h in default_shift_magnitudes(f, num=12)
                  ] if f.measure == LEBESGUE else []
    candidates += [(_semigroup_difference, _semigroup_witness, (float(t),))
                   for t in SEMIGROUP_T]
    best = [None] * len(pairs)
    for difference, build, args in candidates if pairs else ():
        diff = difference(f, *args)
        for i, pair in enumerate(pairs):
            try:
                w = build(f, *args, diff, *pair)
            except ValueError:
                continue
            if (f.measure == LEBESGUE and edge_ratio(
                    w.field.magnitude().samples) > EDGE_TOLERANCE):
                continue
            if best[i] is None or w.quotient > best[i].quotient:
                best[i] = w
    for i, pair in enumerate(pairs):
        if best[i] is None:
            if np.any(f.samples):
                raise RuntimeError("no admissible witness found")
            # every construction degenerates on f = 0, where any field
            # attains V = 0; take the Gaussian bump in each component
            bump = f.with_samples(gaussian_density(f))
            best[i] = v_quotient(f, VectorFieldGrid((bump,) * f.dim), *pair,
                                 construction="zero-target")
    return best


def v_lower_bound(f: GridFunction, p, alpha) -> QuotientWitness:
    """v_lower_bounds for the one pair (p, alpha)."""
    return v_lower_bounds(f, [(p, alpha)])[0]


# ---------------------------------------------------------------------------
# Kantorovich norm (1D Gaussian)


def kantorovich_norm_1d(f: GridFunction) -> float:
    """sup over 1-Lipschitz g of int f g dgamma, by the exact 1D dual.

    Equals the integral of |F| where F is the running Gaussian-weighted
    integral of f.  Both are midpoint sums: F at a node takes the cells to
    its left plus half of its own, so F returns to 0 at the right end when
    the midpoint mean is 0.  Requires a zero-mean (Gaussian-tagged) input:
    the grid.center mean within grid.ZERO_MEAN_TOLERANCE, the rule the
    Gaussian suite uses to decide whether to center.
    """
    if f.dim != 1:
        raise ValueError("the closed form is one-dimensional")
    require_tag(f, GAUSSIAN, "the Kantorovich norm")
    mean = center(f)[0]
    if abs(mean) > ZERO_MEAN_TOLERANCE:
        raise ValueError(f"input must have zero Gaussian mean (got {mean:.3g})")
    weighted = quad_weights(f) * f.samples
    big_f = np.cumsum(weighted) - 0.5 * weighted
    return float(np.sum(np.abs(big_f)) * f.dx[0])
