import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.signal import fftconvolve
from scipy.special import erf

from besovlab.corpus import build_corpus
from besovlab.grid import (GridFunction, MeasureMismatchError, integrate,
                           lp_norm, write_csv)
from besovlab.heat import (_axis_kernel, _convolve_axis, default_t_grid,
                           heat_apply, heat_gradient, heat_gradient_sum,
                           t_points, u_functional)
from besovlab.seminorms import _semigroup_nodes


def bump(n=4097):
    return build_corpus("bump", shape=(n,))


def heat_bump_oracle(x, t):
    # Gaussian-Gaussian convolution closed form
    return np.exp(-x * x / (2.0 * (1.0 + t))) / np.sqrt(1.0 + t)


class TestHeatApply:
    def test_identity_at_small_t(self):
        f = bump()
        g = heat_apply(f, 1e-4)
        diff = f.with_samples(g.samples - f.samples)
        assert lp_norm(diff, 2) <= 1e-2

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_gaussian_closed_form(self, t):
        f = bump()
        g = heat_apply(f, t)
        x = f.axes()[0]
        interior = np.abs(x) <= 4.0
        expect = heat_bump_oracle(x[interior], t)
        rel = np.abs(g.samples[interior] - expect) / expect
        assert np.max(rel) <= 1e-6

    @pytest.mark.parametrize("t", [25.0, 50.0, 100.0])
    def test_indicator_closed_form_past_the_box(self, t):
        # 8 sqrt(t) exceeds the box width: the kernel is cut at n - 1 cells
        # but keeps the mass of the uncut kernel, so P_t 1_[0,1] and its
        # derivative k_t(x) - k_t(x - 1) match the closed forms
        f = build_corpus("indicator")
        x = f.axes()[0]
        interior = np.abs(x) <= 4.0
        s = np.sqrt(2.0 * t)
        expect = 0.5 * (erf(x / s) - erf((x - 1.0) / s))
        rel = np.abs(heat_apply(f, t).samples / expect - 1.0)
        assert np.max(rel[interior]) <= 1e-6
        kernel = np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
        slope = kernel - np.exp(-(x - 1.0) ** 2 / (2.0 * t)) \
            / np.sqrt(2.0 * np.pi * t)
        gap = np.abs(heat_gradient(f, t).components[0].samples - slope)
        assert np.max(gap[interior]) <= 1e-6 * np.max(np.abs(slope))

    def test_mass_conservation(self):
        f = build_corpus("indicator")
        assert integrate(heat_apply(f, 1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_semigroup_property(self):
        f = bump()
        a = heat_apply(heat_apply(f, 0.4), 0.6)
        b = heat_apply(f, 1.0)
        diff = f.with_samples(a.samples - b.samples)
        assert lp_norm(diff, 2) <= 1e-6

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_contraction(self, p):
        f = build_corpus("weierstrass(0.5)")
        assert lp_norm(heat_apply(f, 0.5), p) <= lp_norm(f, p) * (1 + 1e-10)

    def test_rejects_bad_args(self):
        f = bump(257)
        with pytest.raises(ValueError):
            heat_apply(f, 0.0)
        with pytest.raises(ValueError, match="t must be positive"):
            heat_apply(f, math.nan)
        with pytest.raises(MeasureMismatchError):
            heat_apply(build_corpus("hermite(1)"), 1.0)


class TestHeatGradient:
    def test_antisymmetry_for_even_input(self):
        g = heat_gradient(bump(), 0.5).components[0]
        assert np.max(np.abs(g.samples + g.samples[::-1])) <= 1e-9

    def test_closed_form_gradient(self):
        t = 0.5
        f = bump()
        g = heat_gradient(f, t).components[0]
        x = f.axes()[0]
        interior = np.abs(x) <= 3.0
        expect = -x[interior] / (1.0 + t) * heat_bump_oracle(x[interior], t)
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(g.samples[interior] - expect)) <= 1e-5 * scale

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    def test_indicator_gradient_l1_oracle(self, t):
        # grad P_t 1_[0,1] = k_t(x) - k_t(x-1); its L1 norm in closed form
        f = build_corpus("indicator")
        expect = 2.0 * erf(1.0 / (2.0 * np.sqrt(2.0 * t)))
        norm = lp_norm(heat_gradient(f, t).magnitude(), 1)
        assert norm == pytest.approx(expect, rel=2e-3)

    def test_matches_derivative_of_heat_apply(self):
        f = build_corpus("hat")
        t = 0.3
        from besovlab.grid import Direction, directional_derivative
        a = heat_gradient(f, t).components[0]
        b = directional_derivative(heat_apply(f, t), Direction((1.0,)))
        assert np.max(np.abs(a.samples - b.samples)) <= 10 * f.dx[0] ** 2


@pytest.mark.parametrize("shape,axis", [((1025,), 0), ((65, 33), 0),
                                        ((65, 33), 1)])
@pytest.mark.parametrize("t", [1e-3, 0.1, 2.0])
def test_convolve_axis_matches_fftconvolve(shape, axis, t):
    data = np.random.default_rng(3).normal(size=shape)
    for derivative in (False, True):
        kernel = _axis_kernel(t, 16.0 / (shape[axis] - 1), shape[axis],
                              derivative)
        along = [1] * len(shape)
        along[axis] = kernel.size
        expect = fftconvolve(data, kernel.reshape(along), mode="same",
                             axes=axis)
        assert np.array_equal(_convolve_axis(data, kernel, axis), expect)


def _stacked(field):
    return np.stack([c.samples for c in field.components])


class TestHeatGradientSum:
    # t = 60 makes 8 sqrt(t) wider than the box, which caps the kernel at
    # n - 1 cells; 1e-3 leaves it a few cells wide
    TIMES = (1e-3, 0.05, 0.7, 2.0, 60.0)
    WEIGHTS = (0.3, -1.2, 0.8, 2.5, 0.1)

    @pytest.mark.parametrize("shape", [(97, 97), (33, 41), (17, 9), (129,)])
    @pytest.mark.parametrize("nodes", ["mixed", "semigroup-integral"])
    def test_matches_node_loop(self, shape, nodes):
        data = np.random.default_rng(5).normal(size=shape)
        f = build_corpus("hat2d" if len(shape) == 2 else "hat",
                         shape=shape).with_samples(data)
        times, weights = ((self.TIMES, self.WEIGHTS) if nodes == "mixed"
                          else _semigroup_nodes(2.0))
        expect = sum(w * _stacked(heat_gradient(f, t))
                     for t, w in zip(times, weights))
        got = _stacked(heat_gradient_sum(f, times, weights))
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_capped_radius_is_exercised(self):
        dx = 16.0 / 32
        assert _axis_kernel(60.0, dx, 33, False).size == 2 * 33 - 1
        assert _axis_kernel(1e-3, dx, 33, False).size < 33

    def test_rejects_bad_args(self):
        f = build_corpus("hat2d", shape=(17, 17))
        with pytest.raises(ValueError, match="t must be positive"):
            heat_gradient_sum(f, (0.1, 0.0), (1.0, 1.0))
        with pytest.raises(MeasureMismatchError):
            heat_gradient_sum(build_corpus("x2d", shape=(17, 17)), (0.1,),
                              (1.0,))


class TestUFunctional:
    def test_zero_function(self):
        f = GridFunction(((-8.0, 8.0),), np.zeros(257))
        value, _, _ = u_functional(f, 1, 1.0, t_grid=[0.1, 1.0])
        assert value == 0.0

    def test_indicator_alpha_one(self):
        t_grid = np.geomspace(1e-4, 1e2, 64)
        value, t_star, values = u_functional(build_corpus("indicator"), 1, 1.0,
                                             t_grid)
        assert value >= 1.98
        assert values.shape == t_grid.shape and value == values.max()
        assert t_star == t_grid[np.argmax(values)]

    def test_indicator_alpha_half_scalar_oracle(self):
        # oracle: maximize t^(1/4) * 2 erf(1/(2 sqrt(2 t))) by scalar search
        res = minimize_scalar(
            lambda u: -(np.exp(u) ** 0.25 * 2.0 * erf(1.0 / (2.0 * np.sqrt(2.0 * np.exp(u))))),
            bounds=(-9, 4), method="bounded")
        oracle = -res.fun
        value, _, _ = u_functional(build_corpus("indicator"), 1, 0.5)
        assert value <= oracle * 1.01
        assert value >= oracle * 0.95

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            u_functional(bump(257), 2, 0.5, t_grid=[])

    def test_monotone_t_required(self):
        # t must be positive and strictly increasing
        for t_grid in ([1.0, 0.5], [0.5, 0.5], [0.0, 1.0], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="t must be"):
                u_functional(bump(257), 2, 0.5, t_grid=t_grid)


class TestTPoints:
    def test_default_and_float_array(self):
        # the rejections are tested through every entry point in
        # test_certify.TestTGrid
        assert np.array_equal(t_points(None), default_t_grid())
        ts = t_points([1, 2])
        assert ts.dtype == float and ts.tolist() == [1.0, 2.0]


class TestSemigroupCurve:
    def test_csv_format(self, tmp_path):
        # the curve is written as the semigroup command and demo write it
        t_grid = [0.1, 1.0]
        _, _, values = u_functional(bump(257), 2, 0.5, t_grid=t_grid)
        path = tmp_path / "curve.csv"
        write_csv(path, ("t", "value"), zip(t_grid, values))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 3
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert rows == list(zip(t_grid, values))


# s, t >= 0.01 keeps sqrt(s) at 6 or more cells of the 1025-point grid; an
# unresolved kernel (sqrt(s) below a cell) breaks the law at the 1e-4 level
heat_times = st.floats(0.01, 1.0)


@given(name=st.sampled_from(["bump", "hat"]), s=heat_times, t=heat_times)
@settings(max_examples=25, deadline=None)
def test_heat_semigroup_law(name, s, t):
    # on |x| <= 4: the zero extension drops what P_t f carries past the box
    # (7e-9 of the peak at the edge for the bump at s = t = 1)
    f = build_corpus(name, shape=(1025,))
    interior = np.abs(f.axes()[0]) <= 4.0
    twice = heat_apply(heat_apply(f, t), s).samples[interior]
    once = heat_apply(f, s + t).samples[interior]
    assert np.max(np.abs(twice - once)) <= 1e-9 * np.max(np.abs(f.samples))


@given(seed=st.integers(0, 2 ** 32 - 1), t=st.floats(1e-4, 10.0),
       p=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_heat_lp_contraction(seed, t, p):
    # unit-mass kernel and zero extension: ||P_t f||_p <= ||f||_p for any data
    data = np.random.default_rng(seed).normal(size=257)
    f = GridFunction(((-8.0, 8.0),), data)
    assert lp_norm(heat_apply(f, t), p) <= lp_norm(f, p) * (1 + 1e-12)
