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


@dataclass(frozen=True)
class CounterexampleSpec:
    """Deterministic description of the truncated construction.

    alpha: smoothness order in (0, 1)
    n_terms: largest sine index N
    k_start: first index (>= 2, since the k = 1 interval length degenerates)
    placements: left endpoints L_k of the wrapped intervals J_k, k_start..N
    """

    alpha: float
    n_terms: int
    k_start: int = 2
    placements: tuple = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.k_start < 2:
            raise ValueError("k_start must be at least 2")
        if self.n_terms < self.k_start:
            raise ValueError("n_terms must be at least k_start")
        acc = 0.0
        placements = []
        for k in range(self.k_start, self.n_terms + 1):
            placements.append(acc % 1.0)
            acc += interval_length(k)
        object.__setattr__(self, "placements", tuple(placements))

    def left_endpoint(self, k):
        return self.placements[k - self.k_start]

    def amplitude(self, k):
        """k^(-alpha) sqrt(ln k), the height of the k-th block."""
        return k ** (-self.alpha) * math.sqrt(math.log(k))

    def covering_indices(self, y):
        """All k with y in the wrapped interval J_k."""
        y = y % 1.0
        out = []
        for k in range(self.k_start, self.n_terms + 1):
            if _wrapped_mask(self.left_endpoint(k), interval_length(k), y):
                out.append(k)
        return out

    def coverage_sum(self):
        """Total placed length; diverges like ln ln N in the truncation."""
        return sum(interval_length(k)
                   for k in range(self.k_start, self.n_terms + 1))

    def to_dict(self):
        return {"alpha": self.alpha, "n_terms": self.n_terms,
                "k_start": self.k_start}


def interval_length(k: int) -> float:
    return 1.0 / (k * math.log(k))


def _wrapped_mask(left, length, y):
    """Whether y (a number or an array) lies in the interval of the given
    length that starts at left and wraps around 1."""
    end = left + length
    if end <= 1.0:
        return (y >= left) & (y < end)
    return (y >= left) | (y < end % 1.0)


def tail_energy(spec: CounterexampleSpec) -> float:
    """L2 energy pi * sum_(k>N) k^(-2 alpha - 1) beyond the truncation."""
    s = 2.0 * spec.alpha + 1.0
    partial = sum(float(k) ** (-s) for k in range(1, spec.n_terms + 1))
    return math.pi * (float(zeta(s)) - partial)


def energy_oracle(spec: CounterexampleSpec) -> float:
    """Closed-form squared L2 norm of the truncated sum."""
    return math.pi * sum(float(k) ** (-(2.0 * spec.alpha + 1.0))
                         for k in range(spec.k_start, spec.n_terms + 1))


def build_counterexample(spec: CounterexampleSpec, shape=None):
    """Sample the truncated sum on [0, 2 pi] x [0, 1).

    Returns (GridFunction, tail_energy).  Accumulation is per index k and
    touches only the y-columns inside J_k, so the cost is proportional to
    the total placed length rather than to N * n_y.
    """
    if shape is None:
        shape = DEFAULT_SHAPE
    bounds = ((0.0, X_PERIOD), (0.0, 1.0))
    x = np.linspace(0.0, X_PERIOD, shape[0])
    y = np.linspace(0.0, 1.0, shape[1])
    samples = np.zeros(shape)
    for k in range(spec.k_start, spec.n_terms + 1):
        cols = np.nonzero(_wrapped_mask(spec.left_endpoint(k),
                                        interval_length(k), y % 1.0))[0]
        if cols.size == 0:
            continue
        samples[:, cols] += spec.amplitude(k) * np.sin(k * x)[:, None]
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
    rows = []
    for n in n_list:
        sub = CounterexampleSpec(spec.alpha, int(n), spec.k_start)
        f, _ = build_counterexample(sub, shape=shape)
        best, best_name = 0.0, ""
        for name, phi in default_phi_family(f):
            val = v_quotient(f, along(phi, x_axis), 1, spec.alpha).quotient
            if val > best:
                best, best_name = val, name
        rows.append((int(n), best, best_name))
    return rows
