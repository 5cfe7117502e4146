"""Fractional smoothness functionals on grids.

Shift seminorm sup_h |h|^(-alpha) ||f_h - f||_p, its directional variant,
lower-bound witnesses for the variational functional V (the best constant in
the nonlinear integration-by-parts inequality), and the one-dimensional
Gaussian Kantorovich norm.  The witnesses are the two constructions of the
proofs, both deterministic: a near-dual-optimal phi integrated along the
shift segment (segment-integral) or along the heat / OU semigroup
(semigroup-integral).

All suprema are grid maxima and therefore certified lower bounds of the
continuum quantities; witnesses are concrete test objects whose quotient can
be re-evaluated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.ndimage import gaussian_filter

from .grid import (
    EDGE_TOLERANCE,
    GAUSSIAN,
    LEBESGUE,
    Direction,
    GridFunction,
    VectorFieldGrid,
    directional_derivative,
    divergence,
    divergence_gamma,
    dual_exponent,
    edge_ratio,
    field_lq_norm,
    gaussian_density,
    inner,
    lp_norm,
    shift,
    shift_cap,
)
from .heat import heat_apply, heat_gradient
from .ou import ou_apply, ou_gradient

DEFAULT_SHIFT_COUNT = 40
MOLLIFIER_WIDTH_CELLS = 2.0
BISECTION_STEPS = 25
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
    kind: str
    cap_limited: bool = False

    def __post_init__(self):
        if self.kind not in ("shift", "directional"):
            raise ValueError("kind must be 'shift' or 'directional'")
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


def _estimate(f, p, alpha, shifts, kind):
    vals = [shift_quotient(f, h, p, alpha) for h in shifts]
    if not vals:
        raise ValueError("empty shift grid")
    k = int(np.argmax(vals))
    best_h = np.asarray(shifts[k], dtype=float)
    best = vals[k]
    mags = [float(np.linalg.norm(np.asarray(h))) for h in shifts]
    cap = max(mags)
    direction = best_h / np.linalg.norm(best_h)

    # one local refinement pass: golden-section in magnitude around the argmax
    lo = mags[k] / 1.6
    hi = min(mags[k] * 1.6, cap)
    lo = max(lo, 2.0 * max(f.dx))
    a, b = lo, hi
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(BISECTION_STEPS):
        m1 = b - invphi * (b - a)
        m2 = a + invphi * (b - a)
        v1 = shift_quotient(f, m1 * direction, p, alpha)
        v2 = shift_quotient(f, m2 * direction, p, alpha)
        if v1 >= v2:
            b = m2
        else:
            a = m1
    m_star = 0.5 * (a + b)
    v_star = shift_quotient(f, m_star * direction, p, alpha)
    if v_star > best:
        best, best_h = v_star, m_star * direction
    cap_limited = float(np.linalg.norm(best_h)) >= cap * (1 - 1e-9)
    return BesovEstimate(best, tuple(best_h), float(p), float(alpha), kind,
                         cap_limited)


def besov_seminorm(f: GridFunction, p, alpha, h_grid=None) -> BesovEstimate:
    """Grid supremum of the shift quotient (a certified lower bound)."""
    if f.measure != LEBESGUE:
        raise ValueError("shift seminorms need a Lebesgue-tagged function")
    if h_grid is None:
        mags = default_shift_magnitudes(f)
        h_grid = [m * np.asarray(e.e) for e in _default_directions(f.dim)
                  for m in mags]
    return _estimate(f, p, alpha, list(h_grid), "shift")


def directional_seminorm(f: GridFunction, p, alpha, e: Direction,
                         t_grid=None) -> BesovEstimate:
    """Shift seminorm restricted to shifts t*e."""
    if f.measure != LEBESGUE:
        raise ValueError("shift seminorms need a Lebesgue-tagged function")
    if t_grid is None:
        t_grid = default_shift_magnitudes(f)
    shifts = [t * np.asarray(e.e) for t in t_grid]
    return _estimate(f, p, alpha, shifts, "directional")


# ---------------------------------------------------------------------------
# Variational quotients


@dataclass(frozen=True)
class QuotientWitness:
    """A test object together with its certified quotient.

    Every finite quotient is a lower bound for the variational functional V
    of the corresponding definition (vector-field, directional, or Gaussian,
    selected by the measure tag of the target function).
    """

    field: object  # VectorFieldGrid, or GridFunction for the directional form
    quotient: float
    numerator: float
    norm_field: float
    norm_div: float
    p: float
    alpha: float
    construction: str = ""
    direction: tuple = ()

    def __post_init__(self):
        if self.norm_div <= 0:
            raise ValueError("norm_div must be positive")
        expect = self.numerator / (self.norm_field ** self.alpha
                                   * self.norm_div ** (1.0 - self.alpha))
        if abs(self.quotient - expect) > 1e-12 * max(1.0, abs(expect)):
            raise ValueError("quotient does not match its factorization")


def v_quotient(f: GridFunction, test, p, alpha,
               direction: Direction | None = None,
               construction="") -> QuotientWitness:
    """Evaluate the integration-by-parts quotient of one test object.

    test is a VectorFieldGrid (vector-field form) or a GridFunction with a
    Direction (directional form).  The divergence flavor follows f's measure
    tag.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    q = dual_exponent(p)
    if isinstance(test, VectorFieldGrid):
        if not test.components[0].same_grid(f):
            raise ValueError("test field must share f's grid")
        div = divergence_gamma(test) if f.measure == GAUSSIAN else divergence(test)
        norm_field = field_lq_norm(test, q)
        dir_tuple = ()
    else:
        if direction is None:
            raise ValueError("scalar test objects need a Direction")
        if not test.same_grid(f):
            raise ValueError("test function must share f's grid")
        div = directional_derivative(test, direction)
        norm_field = lp_norm(test, q)
        dir_tuple = tuple(direction.e)
    norm_div = lp_norm(div, q)
    if norm_div <= MIN_DIV_NORM:
        raise ValueError("test object has (numerically) vanishing divergence")
    numerator = abs(inner(div, f))
    quotient = numerator / (norm_field ** alpha * norm_div ** (1.0 - alpha))
    return QuotientWitness(test, quotient, numerator, norm_field, norm_div,
                           float(p), float(alpha), construction, dir_tuple)


def reevaluate(f: GridFunction, w: QuotientWitness) -> float:
    """Recompute a stored witness's quotient from its test object."""
    direction = Direction(w.direction) if w.direction else None
    return v_quotient(f, w.field, w.p, w.alpha, direction=direction).quotient


def _mollify(samples, dim):
    return gaussian_filter(samples, sigma=MOLLIFIER_WIDTH_CELLS,
                           mode="constant")


def _dual_optimal(g: GridFunction, p) -> GridFunction:
    """Mollified near-maximizer of int(phi*g) subject to ||phi||_q <= 1."""
    q = dual_exponent(p)
    if p == 1:
        # suppress roundoff-scale values so the sign stays supported where
        # g genuinely lives; otherwise noise inflates the segment integral
        peak = np.max(np.abs(g.samples))
        cleaned = np.where(np.abs(g.samples) > 1e-12 * peak, g.samples, 0.0)
        phi = np.sign(cleaned)
    else:
        norm = lp_norm(g, p)
        if norm == 0:
            phi = np.zeros(g.shape)
        else:
            phi = (np.sign(g.samples) * np.abs(g.samples) ** (p - 1.0)
                   / norm ** (p - 1.0))
    phi = _mollify(phi, g.dim)
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


def psi_witness(f: GridFunction, h: float, axis: int, p, alpha) -> QuotientWitness:
    """The proof-construction witness at one shift magnitude.

    Builds the near-dual-optimal phi of f_h - f along the axis, integrates it
    over the shift segment, and evaluates the directional quotient.  Realizes
    at least 2^(alpha-1) |h|^(-alpha) ||f_h - f||_p up to mollification error.
    """
    if f.measure != LEBESGUE:
        raise ValueError("the segment-integral witness needs a Lebesgue tag")
    vec = np.zeros(f.dim)
    vec[axis] = h
    g = f.with_samples(shift(f, vec).samples - f.samples)
    phi = _dual_optimal(g, p)
    psi = _antiderivative_shift(phi, h, axis)
    e = Direction(tuple(1.0 if i == axis else 0.0 for i in range(f.dim)))
    return v_quotient(f, psi, p, alpha, direction=e,
                      construction=f"segment-integral h={h:.6g} axis={axis}")


def semigroup_witness(f: GridFunction, t: float, p, alpha) -> QuotientWitness:
    """The semigroup-integral witness at time t.

    S is the heat semigroup for Lebesgue targets and the OU semigroup for
    Gaussian ones.  With phi the near-dual-optimal function of S_t f - f,
    the field v = int_0^t grad S_s phi ds has div v = c (S_t phi - phi)
    (c = 2 for heat, whose kernel has variance t; 1 for OU), so
    <div v, f> = c <phi, S_t f - f>.  In 1D v is that exact solution,
    rho^-1 int (S_t phi - phi) rho with rho = 1 or the Gaussian density,
    taken from the nearer end of the box after removing the rho-mean; in 2D
    the integral runs over u = sqrt(s) on SEMIGROUP_NODES Gauss-Legendre
    nodes.
    """
    apply_fn, grad = ((ou_apply, ou_gradient) if f.measure == GAUSSIAN
                      else (heat_apply, heat_gradient))
    phi = _dual_optimal(f.with_samples(apply_fn(f, t).samples - f.samples), p)
    if f.dim == 1:
        rho = gaussian_density(f) if f.measure == GAUSSIAN else np.ones(f.shape)
        g = apply_fn(phi, t).samples - phi.samples
        w = (g - np.trapezoid(g * rho) / np.trapezoid(rho)) * rho
        left = cumulative_trapezoid(w, dx=f.dx[0], initial=0.0)
        right = -cumulative_trapezoid(w[::-1], dx=f.dx[0], initial=0.0)[::-1]
        v = np.where(f.axes()[0] <= 0.0, left, right) / rho
        field = VectorFieldGrid((f.with_samples(v),))
    else:
        nodes, weights = np.polynomial.legendre.leggauss(SEMIGROUP_NODES)
        half = 0.5 * math.sqrt(t)
        comps = np.zeros((f.dim,) + f.shape)
        for x, w in zip(nodes, weights):
            u = half * (x + 1.0)
            comps += 2.0 * u * half * w * np.stack(
                [c.samples for c in grad(phi, u * u).components])
        field = VectorFieldGrid(tuple(f.with_samples(c) for c in comps))
    return v_quotient(f, field, p, alpha,
                      construction=f"semigroup-integral t={t:.6g}")


def v_lower_bound(f: GridFunction, p, alpha) -> QuotientWitness:
    """Best lower-bound witness of the two proof constructions.

    The segment-integral witnesses at 12 shift magnitudes per axis (Lebesgue
    targets) and the semigroup-integral witnesses at every SEMIGROUP_T.  A
    Lebesgue candidate is a test object only if it vanishes at the box edge
    (grid.edge_ratio within EDGE_TOLERANCE); others are skipped.  Gaussian
    fields are not cut.  Deterministic: no random search, no seed.
    """
    attempts = []
    if f.measure == LEBESGUE:
        attempts = [partial(psi_witness, f, float(h), axis, p, alpha)
                    for axis in range(f.dim)
                    for h in default_shift_magnitudes(f, num=12)]
    attempts += [partial(semigroup_witness, f, float(t), p, alpha)
                 for t in SEMIGROUP_T]
    best = None
    for build in attempts:
        try:
            w = build()
        except ValueError:
            continue
        test = (w.field.magnitude() if isinstance(w.field, VectorFieldGrid)
                else w.field)
        if f.measure == LEBESGUE and edge_ratio(test.samples) > EDGE_TOLERANCE:
            continue
        if best is None or w.quotient > best.quotient:
            best = w
    if best is None:
        if np.any(f.samples):
            raise RuntimeError("no admissible witness found")
        # every construction degenerates on f = 0, where any field attains
        # V = 0; take the Gaussian bump in each component
        bump = f.with_samples(gaussian_density(f))
        best = v_quotient(f, VectorFieldGrid((bump,) * f.dim), p, alpha,
                          construction="zero-target")
    return best


# ---------------------------------------------------------------------------
# Kantorovich norm (1D Gaussian)


def kantorovich_norm_1d(f: GridFunction) -> float:
    """sup over 1-Lipschitz g of int f g dgamma, by the exact 1D dual.

    Equals the integral of |F| where F is the running Gaussian-weighted
    integral of f; requires a zero-mean (Gaussian-tagged) input.
    """
    if f.dim != 1:
        raise ValueError("the closed form is one-dimensional")
    if f.measure != GAUSSIAN:
        raise ValueError("Kantorovich norm requires the Gaussian tag")
    density = gaussian_density(f)
    weighted = f.samples * density
    mean = float(np.trapezoid(weighted, dx=f.dx[0]))
    if abs(mean) > 1e-8:
        raise ValueError(f"input must have zero Gaussian mean (got {mean:.3g})")
    big_f = cumulative_trapezoid(weighted, dx=f.dx[0], initial=0.0)
    return float(np.trapezoid(np.abs(big_f), dx=f.dx[0]))
