"""Properties of the two-tap shift kernel shared by grid.shift and
measures.shift_measure, on data that does not vanish at the box edge."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besovlab.grid import GridFunction, inner, shift, shift_axis, shift_cap
from besovlab.measures import GridMeasure, shift_measure

BOUNDS = ((-1.0, 2.0), (0.5, 3.0))


def interp_oracle(f, h):
    """f(x - h) by np.interp along each axis in turn, zero outside the box."""
    out = f.samples
    for axis, (x, hj) in enumerate(zip(f.axes(), h)):
        out = np.apply_along_axis(
            lambda row: np.interp(x - hj, x, row, left=0.0, right=0.0),
            axis, out)
    return out


def fractional_shift(f, fractions):
    """Shift vector within the cap, each component the given fraction of
    cap / sqrt(dim), kept at least 1/100 cell off the nodes."""
    h = np.asarray(fractions) * shift_cap(f) / np.sqrt(f.dim)
    cells = h / np.asarray(f.dx)
    assume(np.all(np.abs(cells - np.round(cells)) >= 0.01))
    return h


fractions = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
cell_counts = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
sizes = st.integers(min_value=21, max_value=64)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def edge_heavy(seed, shape):
    """Random samples bounded away from zero, so every edge node matters."""
    return 1.0 + np.random.default_rng(seed).random(shape)


def interior(seed, shape, margin):
    """Random samples vanishing within `margin` nodes of every edge."""
    out = np.zeros(shape)
    core = tuple(slice(margin, n - margin) for n in shape)
    out[core] = np.random.default_rng(seed).normal(size=out[core].shape)
    return out


@given(seed=seeds, n=sizes, t=fractions)
@settings(max_examples=60, deadline=None)
def test_shift_matches_interp_1d(seed, n, t):
    f = GridFunction(BOUNDS[:1], edge_heavy(seed, (n,)))
    h = fractional_shift(f, [t])
    got = shift(f, h).samples
    assert np.max(np.abs(got - interp_oracle(f, h))) <= 1e-12


@given(seed=seeds, n0=sizes, n1=sizes, t0=fractions, t1=fractions)
@settings(max_examples=60, deadline=None)
def test_shift_matches_interp_2d(seed, n0, n1, t0, t1):
    f = GridFunction(BOUNDS, edge_heavy(seed, (n0, n1)))
    h = fractional_shift(f, [t0, t1])
    got = shift(f, h).samples
    assert np.max(np.abs(got - interp_oracle(f, h))) <= 1e-12


@given(seed=seeds, n0=sizes, n1=sizes, c0=cell_counts, c1=cell_counts)
@settings(max_examples=60, deadline=None)
def test_shift_measure_conserves_interior_mass(seed, n0, n1, c0, c1):
    # six cells cover |h| on every axis, so no mass reaches the edge
    weights = np.abs(interior(seed, (n0, n1), 7))
    mu = GridMeasure(BOUNDS, weights)
    h = np.array([c0, c1]) * np.asarray(mu.dx)
    assert shift_measure(mu, h).total == pytest.approx(mu.total, rel=1e-12)


@given(seed=seeds, n0=sizes, n1=sizes, t0=fractions, t1=fractions)
@settings(max_examples=60, deadline=None)
def test_shift_adjoint(seed, n0, n1, t0, t1):
    # int f_h g = int f g_(-h) for f and g vanishing beyond the cap (at
    # most 6.3 cells for these sizes) from every edge
    shape = (n0, n1)
    f = GridFunction(BOUNDS, interior(seed, shape, 7))
    g = GridFunction(BOUNDS, interior(seed + 1, shape, 7))
    h = fractional_shift(f, [t0, t1])
    lhs = inner(shift(f, h), g)
    rhs = inner(f, shift(g, -h))
    scale = np.sum(np.abs(f.samples)) * np.max(np.abs(g.samples))
    assert abs(lhs - rhs) <= 1e-12 * scale * f.cell_volume()


def mask_reference(values, h, dx):
    """The moved values and a boolean per node: whether its source x - h
    lies in the box, each axis's test i - cells in [0, n - 1] done on the
    float array of source positions."""
    inside = np.ones(values.shape, dtype=bool)
    for axis, (hj, dxj, n) in enumerate(zip(h, dx, values.shape)):
        cells = hj / dxj
        if cells == 0.0:
            continue
        values = shift_axis(values, cells, axis)
        src = np.arange(n) - cells
        keep = (src >= 0.0) & (src <= n - 1)
        inside &= keep.reshape([n if a == axis else 1
                                for a in range(values.ndim)])
    return values, inside


#: cell counts: integer, fractional, one ulp past an integer (below -3,
#: i - cells rounds onto n - 1 at one node past the exact run), and past
#: the far end of a 65-node axis
RUN_CELLS = (0.0, 2.0, -1.0, 0.5, -1.25, np.nextafter(3.0, 4.0),
             np.nextafter(-3.0, -4.0), 40.5, 70.5, -66.0)


@pytest.mark.parametrize("shape", [(65,), (65, 49)], ids=["1d", "2d"])
def test_shift_runs_match_the_mask(shape):
    # dx = 1/16 on both axes, so h / dx gives back each cell count exactly
    bounds = ((0.0, 4.0), (0.0, 3.0))[:len(shape)]
    values = edge_heavy(3, shape)
    f = GridFunction(bounds, values)
    mu = GridMeasure(bounds, values)
    checked = 0
    for cells in itertools.product(RUN_CELLS, repeat=len(shape)):
        h = np.asarray(cells) / 16.0
        moved, inside = mask_reference(values, h, f.dx)
        assert shift_measure(mu, h).weights.tobytes() == moved.tobytes()
        if np.linalg.norm(h) <= shift_cap(f):
            got = shift(f, h).samples
            assert got.tobytes() == np.where(inside, moved, 0.0).tobytes()
            assert not np.shares_memory(got, f.samples)
            checked += 1
    assert checked >= 5 ** len(shape)
