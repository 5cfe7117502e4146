"""A function that is directionally smooth of order alpha in x while no
x-slice has that smoothness.

The construction stacks sine modes sin(kx) whose y-supports J_k are short
intervals placed deterministically around the unit circle; the total length
of the J_k diverges, so every y is covered infinitely often as the
truncation grows, and at a covered y the slice's k-th sine coefficient
violates the k^(-alpha) decay that slice smoothness would force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

from .corpus import smooth_cutoff
from .grid import LEBESGUE, Direction, GridFunction, along
from .seminorms import v_quotient

X_PERIOD = 2.0 * math.pi
DEFAULT_SHAPE = (513, 513)
#: minimum samples per oscillation for the sine quadrature
SAMPLES_PER_OSCILLATION = 8
#: modulation frequencies of the directional scan's test family
PHI_FREQUENCIES = (1, 2, 4, 8, 16, 32, 64)
#: spectrum entries per inverse FFT block of the build; an 80001-node column
#: carries 40001, so the block's temporaries stay at a few MB on any grid
SPECTRUM_BLOCK = 2 ** 18


@dataclass(frozen=True)
class CounterexampleSpec:
    """Deterministic description of the truncated construction.

    alpha: smoothness order in (0, 1)
    n_terms: largest sine index N
    k_start: first index (>= 2, since the k = 1 interval length degenerates)

    The per-k arrays (indices, left endpoints L_k of the wrapped intervals
    J_k, right ends L_k + |J_k| and amplitudes) are built once here and take
    no part in equality: (alpha, n_terms, k_start) determine them.
    """

    alpha: float
    n_terms: int
    k_start: int = 2
    _indices: np.ndarray = field(init=False, repr=False, compare=False)
    _lefts: np.ndarray = field(init=False, repr=False, compare=False)
    _ends: np.ndarray = field(init=False, repr=False, compare=False)
    _amplitudes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.k_start < 2:
            raise ValueError("k_start must be at least 2")
        if self.n_terms < self.k_start:
            raise ValueError("n_terms must be at least k_start")
        ks = range(self.k_start, self.n_terms + 1)
        lengths = np.array([interval_length(k) for k in ks])
        # running sums in k order, the same additions as a scalar loop
        lefts = np.concatenate(([0.0], np.cumsum(lengths[:-1]))) % 1.0
        for name, value in (
                ("_indices", np.array(ks)),
                ("_lefts", lefts),
                ("_ends", lefts + lengths),
                ("_amplitudes", np.array([self.amplitude(k) for k in ks]))):
            object.__setattr__(self, name, value)

    def left_endpoint(self, k):
        return float(self._lefts[k - self.k_start])

    def amplitude(self, k):
        """k^(-alpha) sqrt(ln k), the height of the k-th block."""
        return k ** (-self.alpha) * math.sqrt(math.log(k))

    def covering_indices(self, y):
        """All k with y in the wrapped interval J_k."""
        lo, hi, wrap_hi = self._runs(np.array([y % 1.0]))
        return self._indices[(lo < hi) | (wrap_hi > 0)].tolist()

    def _runs(self, nodes):
        """Where each J_k meets the sorted nodes (values in [0, 1)).

        Returns (lo, hi, wrap_hi): J_k holds the nodes at positions lo..hi-1
        and, when it wraps around 1, also those at 0..wrap_hi-1; wrap_hi is
        0 for an interval that does not wrap.  Every |J_k| < 1, so a wrapped
        J_k ends at L_k + |J_k| - 1, computed exactly.
        """
        return (np.searchsorted(nodes, self._lefts),
                np.searchsorted(nodes, np.minimum(self._ends, 1.0)),
                np.searchsorted(nodes, self._ends - 1.0))

    def coverage_sum(self):
        """Total placed length; diverges like ln ln N in the truncation."""
        return sum(interval_length(k)
                   for k in range(self.k_start, self.n_terms + 1))

    def to_dict(self):
        return {"alpha": self.alpha, "n_terms": self.n_terms,
                "k_start": self.k_start}


def interval_length(k: int) -> float:
    return 1.0 / (k * math.log(k))


def tail_energy(spec: CounterexampleSpec) -> float:
    """L2 energy pi * sum_(k>N) k^(-2 alpha - 1) beyond the truncation."""
    s = 2.0 * spec.alpha + 1.0
    partial = sum(float(k) ** (-s) for k in range(1, spec.n_terms + 1))
    return math.pi * (float(zeta(s)) - partial)


def energy_oracle(spec: CounterexampleSpec) -> float:
    """Closed-form squared L2 norm of the truncated sum."""
    return math.pi * sum(float(k) ** (-(2.0 * spec.alpha + 1.0))
                         for k in range(spec.k_start, spec.n_terms + 1))


def _covered_pairs(spec: CounterexampleSpec, y):
    """(term, column) for every column with y[column] mod 1 in J_k, ordered
    by k; term indexes the spec's per-k arrays."""
    nodes = y % 1.0
    order = np.argsort(nodes, kind="stable")
    lo, hi, wrap_hi = spec._runs(nodes[order])
    starts = np.stack([lo, np.zeros_like(lo)], axis=1).ravel()
    counts = np.stack([hi - lo, wrap_hi], axis=1).ravel()
    term = np.repeat(np.repeat(np.arange(spec._indices.size), 2), counts)
    # position i of a run starting at s, after `before` earlier pairs
    before = np.cumsum(counts) - counts
    pos = np.arange(counts.sum()) + np.repeat(starts - before, counts)
    return term, order[pos]


def build_counterexample(spec: CounterexampleSpec, shape=None):
    """Sample the truncated sum on [0, 2 pi] x [0, 1).

    Returns (GridFunction, tail_energy).  At the nodes x_m = 2 pi m / M,
    M = n_x - 1, sin(kx) is periodic in k with period M, so each covered
    (k, column) pair folds onto one resolved sine mode, with a sign.  The
    cost is one pass over those pairs plus one inverse real FFT per column
    of a block that holds a covered column, independent of N * n_x.
    Against direct summation of the sines the samples move at round-off (a
    few 1e-13 at N = 10^4, where k x_m carries the rounding of an argument
    near 6e4); the row x = 2 pi equals the row x = 0, and an uncovered
    column stays exactly zero.
    """
    if shape is None:
        shape = DEFAULT_SHAPE
    bounds = ((0.0, X_PERIOD), (0.0, 1.0))
    n_x, n_y = shape
    samples = np.zeros(shape)
    m = n_x - 1
    term, cols = _covered_pairs(spec, np.linspace(0.0, 1.0, n_y))
    # sin(k x_m) = sin(j x_m) for j = k mod M, and = -sin((M - j) x_m)
    mode = spec._indices[term] % m
    flip = 2 * mode > m
    mode = np.where(flip, m - mode, mode)
    # irfft without its 1/M turns the bin -i a / 2 into a sin(j x_m)
    amp = np.where(flip, 0.5, -0.5) * spec._amplitudes[term]
    # modes 0 and M/2 vanish at every node; by column, in k order within one
    live = np.flatnonzero((mode != 0) & (2 * mode != m))
    live = live[np.argsort(cols[live], kind="stable")]
    mode, cols, amp = mode[live], cols[live], amp[live]
    width = max(1, SPECTRUM_BLOCK // (m // 2 + 1))
    for start in range(0, n_y, width):
        stop = min(start + width, n_y)
        a, b = np.searchsorted(cols, (start, stop))
        if a == b:
            continue
        coef = np.zeros((stop - start, m // 2 + 1), dtype=complex)
        np.add.at(coef.imag, (cols[a:b] - start, mode[a:b]), amp[a:b])
        samples[:m, start:stop] = np.fft.irfft(
            coef, n=m, axis=1, norm="forward").T
    samples[m] = samples[0]
    return GridFunction(bounds, samples, LEBESGUE), tail_energy(spec)


# ---------------------------------------------------------------------------
# Slice analysis


def max_resolved_index(f: GridFunction) -> int:
    return (f.shape[0] - 1) // SAMPLES_PER_OSCILLATION


def _column(f: GridFunction, y: float):
    ys = f.axes()[1]
    return f.samples[:, int(np.argmin(np.abs(ys - y)))]


def slice_coefficients(f: GridFunction, y: float, k_max=None):
    """Sine coefficients a_k = int_0^(2 pi) sin(kx) f(x, y) dx, k = 1..k_max.

    Uses the periodic trapezoid rule (an FFT), exact for resolved modes; the
    y argument snaps to the nearest grid column.
    """
    if k_max is None:
        k_max = max_resolved_index(f)
    if k_max > max_resolved_index(f):
        raise ValueError("k_max exceeds the resolved frequency budget "
                         f"(n_x/{SAMPLES_PER_OSCILLATION})")
    col = _column(f, y)
    n = f.shape[0] - 1
    spectrum = np.fft.rfft(col[:-1])
    dx = X_PERIOD / n
    return -dx * spectrum.imag[1:k_max + 1]


def slice_blowup_profile(f: GridFunction, y: float, alpha: float):
    """(max over k of k^alpha * a_k(y), argmax k).

    At a covered y the maximum is near pi sqrt(ln k*) for the largest
    covering index k*; its growth along truncations witnesses that the
    slice fails alpha-smoothness.
    """
    coeffs = slice_coefficients(f, y)
    k = np.arange(1, coeffs.size + 1)
    weighted = k ** alpha * coeffs
    j = int(np.argmax(weighted))
    return float(weighted[j]), int(k[j])


def reconstruct_slice(coeffs, n_x):
    """Rebuild a slice from sine coefficients (inverse of the quadrature)."""
    x = np.linspace(0.0, X_PERIOD, n_x)
    out = np.zeros(n_x)
    for k, a in enumerate(coeffs, start=1):
        out += a / math.pi * np.sin(k * x)
    return out


# ---------------------------------------------------------------------------
# Directional quotient scan


def default_phi_family(f: GridFunction):
    """Smooth bumps and modulated bumps on f's grid, named for reports."""
    top = max(2, max_resolved_index(f))
    frequencies = [m for m in PHI_FREQUENCIES if m <= top]
    x, y = f.meshgrid()
    # C-infinity bump in both variables, vanishing at the boundary
    bump_x = smooth_cutoff((x - math.pi) / math.pi, radius=1.0)
    bump_y = smooth_cutoff(2.0 * (y - 0.5), radius=1.0)
    base = bump_x * bump_y
    family = [("bump", f.with_samples(base))]
    for m in frequencies:
        family.append((f"bump*sin({m}x)",
                       f.with_samples(base * np.sin(m * x))))
        family.append((f"bump*cos({m}x)",
                       f.with_samples(base * np.cos(m * x))))
    return family


def directional_bound_scan(spec: CounterexampleSpec, n_list, shape=None):
    """Max directional quotient per truncation N in n_list, over the fields
    phi * e_x of default_phi_family.

    Boundedness of the row of maxima across truncations is the numeric
    certificate that the construction stays directionally alpha-smooth
    while its slices blow up.  Returns a list of
    (N, max_quotient, best_phi_name) rows.
    """
    x_axis = Direction((1.0, 0.0))
    rows, fields = [], None
    for n in n_list:
        sub = CounterexampleSpec(spec.alpha, int(n), spec.k_start)
        f, _ = build_counterexample(sub, shape=shape)
        if fields is None:
            # the family depends only on the grid, the same for every N
            fields = [(name, along(phi, x_axis))
                      for name, phi in default_phi_family(f)]
        best, best_name = 0.0, ""
        for name, field in fields:
            val = v_quotient(f, field, 1, spec.alpha).quotient
            if val > best:
                best, best_name = val, name
        rows.append((int(n), best, best_name))
    return rows
