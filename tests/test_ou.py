import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RectBivariateSpline, make_interp_spline
from scipy.optimize import minimize_scalar

from besovlab import heat, ou
from besovlab.certify import certify_gaussian_suite, certify_lebesgue_suite
from besovlab.corpus import build_corpus
from besovlab.grid import (
    GAUSSIAN,
    GridFunction,
    MeasureMismatchError,
    inner,
    lp_norm,
    quad_weights,
)
from besovlab.ou import (
    GH_NODES,
    GH_PRUNE_WEIGHT,
    HermiteCoeffs,
    abs_moment,
    conditional_expectation,
    cp_closed_form,
    cp_quadrature,
    ct_closed_form,
    ct_quadrature,
    gauss_hermite,
    heat_upper_constant,
    hermite_matrix,
    hermite_synthesize,
    hermite_transform,
    ou_apply,
    ou_apply_spectral,
    ou_gradient,
    ou_step,
    semigroup,
    sobolev_h_norm,
    u_gamma_functional,
    _ou_axis_average,
)
from besovlab.heat import default_t_grid
from besovlab.seminorms import semigroup_witness

WIDE_BOUNDS = ((-16.0, 16.0),)
WIDE_SHAPE = (16385,)


def gauss_fn(fn, n=4097, lo=-8.0, hi=8.0):
    x = np.linspace(lo, hi, n)
    return GridFunction(((lo, hi),), fn(x), GAUSSIAN)


def interior_mask(f, radius=4.0):
    return np.abs(f.axes()[0]) <= radius


class TestOuApply:
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_preserves_constants(self, t):
        f = build_corpus("hermite(0)")
        g = ou_apply(f, t)
        assert np.max(np.abs(g.samples[interior_mask(f)] - 1.0)) <= 1e-10

    def test_linear_eigenfunction(self):
        t = 0.5
        f = build_corpus("hermite(1)")
        g = ou_apply(f, t)
        x = f.axes()[0]
        mask = interior_mask(f)
        expect = math.exp(-t) * x[mask]
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(g.samples[mask] - expect)) <= 1e-8 * scale

    @pytest.mark.parametrize("t", [0.2, 1.0])
    def test_h3_eigenfunction(self, t):
        f = build_corpus("hermite(3)")
        g = ou_apply(f, t)
        mask = interior_mask(f)
        expect = math.exp(-3.0 * t) * f.samples[mask]
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(g.samples[mask] - expect)) <= 1e-8 * scale

    def test_contraction_and_mean(self):
        f = gauss_fn(lambda x: np.sin(x) + 0.3)
        g = ou_apply(f, 0.7)
        assert lp_norm(g, 2) <= lp_norm(f, 2) * (1 + 1e-10)
        w = quad_weights(f)
        assert np.sum(w * g.samples) == pytest.approx(np.sum(w * f.samples),
                                                      abs=1e-9)

    def test_rejects_bad_args(self):
        f = build_corpus("hermite(1)")
        with pytest.raises(ValueError):
            ou_apply(f, 0.0)
        with pytest.raises(ValueError):
            ou_apply(f, math.nan)
        with pytest.raises(ValueError):
            ou_gradient(f, math.nan)
        with pytest.raises(MeasureMismatchError):
            ou_apply(build_corpus("bump"), 1.0)

    def test_2d_product_eigenfunction(self):
        t = 0.4
        f = build_corpus("xy2d", shape=(257, 257))
        g = ou_apply(f, t)
        xx, yy = f.meshgrid()
        mask = (np.abs(xx) <= 4.0) & (np.abs(yy) <= 4.0)
        expect = math.exp(-2.0 * t) * (xx * yy)[mask]
        assert np.max(np.abs(g.samples[mask] - expect)) <= 1e-8 * 16.0

    def test_2d_quadratic_closed_form(self):
        # T_t (x + y^2) = e^{-t} x + e^{-2t}(y^2 - 1) + 1
        t = 0.7
        f = build_corpus("xplusysq2d", shape=(257, 257))
        g = ou_apply(f, t)
        xx, yy = f.meshgrid()
        mask = (np.abs(xx) <= 4.0) & (np.abs(yy) <= 4.0)
        expect = (math.exp(-t) * xx + math.exp(-2 * t) * (yy ** 2 - 1) + 1.0)[mask]
        assert np.max(np.abs(g.samples[mask] - expect)) <= 1e-7 * np.max(np.abs(expect))


def test_pruned_gauss_hermite_nodes():
    y, w = gauss_hermite()
    u, full = np.polynomial.hermite.hermgauss(GH_NODES)
    full = full / math.sqrt(math.pi)
    dropped = full < GH_PRUNE_WEIGHT * np.max(full)
    assert y.size == GH_NODES - np.count_nonzero(dropped) == 68
    assert abs(np.sum(w) - 1.0) <= 1e-15
    assert np.sum(full[dropped]) <= 2e-22  # documented: 1.6e-22
    assert np.min(np.abs(math.sqrt(2.0) * u[dropped])) >= 9.88
    assert abs(np.sum(w * y * y) - 1.0) <= 1e-14
    assert gauss_hermite()[1] is w and not w.flags.writeable


def per_node_average(f, axis, t):
    """Reference: plain and y-weighted averages node by node, all nodes."""
    u, w = np.polynomial.hermite.hermgauss(GH_NODES)
    y, w = math.sqrt(2.0) * u, w / math.sqrt(math.pi)
    x = f.axes()[axis]
    a, b = f.bounds[axis]
    spline = make_interp_spline(x, f.samples, k=5, axis=axis)
    plain, weighted = np.zeros(f.shape), np.zeros(f.shape)
    for yk, wk in zip(y, w):
        pts = math.exp(-t) * x + math.sqrt(1.0 - math.exp(-2.0 * t)) * yk
        inside = (pts >= a) & (pts <= b)
        vals = spline(np.clip(pts, a, b))
        mask = inside.reshape([-1 if i == axis else 1 for i in range(f.dim)])
        vals = np.where(mask, vals, 0.0)
        plain += wk * vals
        weighted += wk * yk * vals
    return plain, weighted


@pytest.mark.parametrize("shape, axis", [((257,), 0), ((33, 41), 0),
                                         ((33, 41), 1), ((4097,), 0)])
@pytest.mark.parametrize("t", [1e-3, 0.3, 4.0])
def test_axis_average_matches_per_node_loop(shape, axis, t):
    # summation order differs, and a 1D pass evaluates the spline in
    # piecewise-polynomial form, so agreement is to round-off of a
    # 128-term sum, relative to max |f|; 4097 is the full-default 1D grid
    rng = np.random.default_rng(7)
    bounds = ((-8.0, 8.0), (-6.0, 7.0))[:len(shape)]
    f = GridFunction(bounds, rng.standard_normal(shape), GAUSSIAN)
    got = _ou_axis_average(f, axis, t)
    for g, ref in zip(got, per_node_average(f, axis, t)):
        assert g.shape == f.shape
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(f.samples))


@pytest.mark.parametrize("bounds, shape", [
    (((-8.0, 8.0), (-8.0, 8.0)), (33, 33)),
    (((-8.0, 8.0), (-6.0, 7.0)), (33, 41))])
@pytest.mark.parametrize("t", [1e-3, 0.3, 4.0])
def test_ou_step_matches_per_node_loop(bounds, shape, t):
    # the 2D step applies each axis as a matrix (one shared by both axes of
    # the square grid); the reference runs the per-node loop axis by axis:
    # T_t f is plain along both axes, gradient component i is y-weighted
    # along axis i and plain along the other
    rng = np.random.default_rng(7)
    f = GridFunction(bounds, rng.standard_normal(shape), GAUSSIAN)
    factor = math.exp(-t) / math.sqrt(1.0 - math.exp(-2.0 * t))
    plain, weighted = per_node_average(f, 0, t)
    value, last = per_node_average(f.with_samples(plain), 1, t)
    first = per_node_average(f.with_samples(weighted), 1, t)[0]
    got_value, grad = ou_step(f, t)
    tol = 1e-13 * np.max(np.abs(f.samples))
    for got, ref, scale in [(got_value, value, 1.0),
                            (grad.components[0], factor * first, factor),
                            (grad.components[1], factor * last, factor)]:
        assert got.shape == f.shape
        assert np.max(np.abs(got.samples - ref)) <= scale * tol


@pytest.mark.parametrize("shape, bounds, builds", [
    ((1025,), ((-8.0, 8.0),), 1),
    ((33, 33), ((-8.0, 8.0), (-8.0, 8.0)), 1),
    ((33, 33), ((-8.0, 8.0), (-6.0, 7.0)), 2),
    ((33, 41), ((-8.0, 8.0), (-8.0, 8.0)), 2)])
def test_one_spline_build_per_distinct_axis(monkeypatch, shape, bounds,
                                            builds):
    # a 1D step is one pass; a 2D step builds one operator per distinct
    # (interval, n) axis and applies it in all three of its passes
    calls = []

    def counting(*args, _fn=ou._spline):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(ou, "_spline", counting)
    ou_step(GridFunction(bounds, np.ones(shape), GAUSSIAN), 0.3)
    assert len(calls) == builds


def full_nodes():
    u, w = np.polynomial.hermite.hermgauss(GH_NODES)
    return math.sqrt(2.0) * u, w / math.sqrt(math.pi)


def tensor_spline_transform(f, degree):
    """Reference: the Hermite transform from one spline over the whole grid
    (scipy's tensor-product spline in 2D) at all 128 nodes."""
    y, w = full_nodes()
    h = hermite_matrix(degree, y) * w
    inside = [(y >= a) & (y <= b) for a, b in f.bounds]
    clipped = [np.clip(y, a, b) for a, b in f.bounds]
    if f.dim == 1:
        vals = make_interp_spline(f.axes()[0], f.samples, k=5)(clipped[0])
        return h @ np.where(inside[0], vals, 0.0)
    spline = RectBivariateSpline(*f.axes(), f.samples, kx=5, ky=5)
    vals = np.where(np.outer(*inside), spline(*clipped), 0.0)
    return h @ vals @ h.T


def random_gaussian_grid(shape):
    rng = np.random.default_rng(7)
    bounds = ((-8.0, 8.0), (-6.0, 7.0))[:len(shape)]
    return GridFunction(bounds, rng.standard_normal(shape), GAUSSIAN)


@pytest.mark.parametrize("shape", [(257,), (33, 41)])
@pytest.mark.parametrize("degree", [None, 8])
def test_transform_matches_tensor_spline(shape, degree):
    # the per-axis contraction equals the tensor-product interpolant to
    # round-off (measured 1.3e-15 of max |c|)
    f = random_gaussian_grid(shape)
    got = hermite_transform(f, degree).coeffs
    ref = tensor_spline_transform(f, got.shape[0] - 1)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kept_axis", [0, 1])
def test_conditional_expectation_matches_full_node_sum(kept_axis):
    f = random_gaussian_grid((33, 41))
    dropped = 1 - kept_axis
    y, w = full_nodes()
    a, b = f.bounds[dropped]
    spline = make_interp_spline(f.axes()[dropped], f.samples, k=5,
                                axis=dropped)
    vals = np.moveaxis(spline(np.clip(y, a, b)), dropped, 0)
    ref = w @ np.where(((y >= a) & (y <= b))[:, None], vals, 0.0)
    got = conditional_expectation(f, kept_axis).samples
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(f.samples))


hermite_coeffs = st.lists(st.floats(min_value=-1.0, max_value=1.0),
                          min_size=5, max_size=5)
times = st.floats(min_value=0.05, max_value=1.0)


def hermite_combination(coeffs):
    x = np.linspace(-8.0, 8.0, 1025)
    samples = np.asarray(coeffs) @ hermite_matrix(4, x)
    return GridFunction(((-8.0, 8.0),), samples, GAUSSIAN)


@given(coeffs=hermite_coeffs, s=times, t=times)
@settings(max_examples=25, deadline=None)
def test_ou_semigroup_law(coeffs, s, t):
    f = hermite_combination(coeffs)
    mask = interior_mask(f)
    twice = ou_apply(ou_apply(f, t), s).samples[mask]
    once = ou_apply(f, s + t).samples[mask]
    assert np.max(np.abs(twice - once)) <= 1e-8


@given(coeffs=hermite_coeffs, t=times)
@settings(max_examples=25, deadline=None)
def test_ou_l2_contraction(coeffs, t):
    f = hermite_combination(coeffs)
    assert lp_norm(ou_apply(f, t), 2) <= lp_norm(f, 2) * (1 + 1e-10)


@given(a=hermite_coeffs, b=hermite_coeffs, t=times)
@settings(max_examples=25, deadline=None)
def test_ou_self_adjoint(a, b, t):
    # <T_t f, g>_gamma = <f, T_t g>_gamma
    f, g = hermite_combination(a), hermite_combination(b)
    lhs = inner(ou_step(f, t)[0], g)
    rhs = inner(f, ou_step(g, t)[0])
    assert abs(lhs - rhs) <= 1e-10


@given(coeffs=hermite_coeffs, t=times)
@settings(max_examples=25, deadline=None)
def test_ou_gradient_commutes_with_derivative(coeffs, t):
    # grad T_t f = e^{-t} T_t(f'), with f' = sum c_n sqrt(n) h_{n-1} for the
    # orthonormal Hermite polynomials h_n
    f = hermite_combination(coeffs)
    x = f.axes()[0]
    derivative = (np.asarray(coeffs[1:]) * np.sqrt(np.arange(1, 5))) \
        @ hermite_matrix(3, x)
    grad = ou_step(f, t)[1]
    expect = math.exp(-t) * ou_step(f.with_samples(derivative), t)[0].samples
    mask = interior_mask(f)
    assert np.max(np.abs(grad.components[0].samples[mask]
                         - expect[mask])) <= 1e-7


class TestSpectralAgreement:
    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
    def test_quadrature_matches_multiplier_up_to_degree_12(self, t):
        # gate for every spectral shortcut: both routes agree in L2(gamma),
        # relative to the unit norm of the input mode
        x = np.linspace(*WIDE_BOUNDS[0], WIDE_SHAPE[0])
        h = hermite_matrix(12, x)
        for n in range(13):
            f = GridFunction(WIDE_BOUNDS, h[n], GAUSSIAN)
            quad_route = ou_apply(f, t)
            spectral = math.exp(-n * t) * h[n]
            diff = f.with_samples(quad_route.samples - spectral)
            assert lp_norm(diff, 2) <= 1e-8, (n, t)


class TestOuGradient:
    def test_constant_input(self):
        g = ou_gradient(build_corpus("hermite(0)"), 0.5).components[0]
        assert np.max(np.abs(g.samples[interior_mask(g)])) <= 1e-10

    def test_linear_input(self):
        t = 0.7
        g = ou_gradient(build_corpus("hermite(1)"), t).components[0]
        mask = interior_mask(g)
        assert np.max(np.abs(g.samples[mask] - math.exp(-t))) <= 1e-8
        assert lp_norm(g, 2) == pytest.approx(math.exp(-t), abs=1e-8)

    def test_matches_derivative_of_ou_apply(self):
        from besovlab.grid import Direction, directional_derivative
        f = gauss_fn(np.sin)
        t = 0.3
        a = ou_gradient(f, t).components[0]
        b = directional_derivative(ou_apply(f, t), Direction((1.0,)))
        mask = interior_mask(f)
        assert np.max(np.abs(a.samples[mask] - b.samples[mask])) <= 10 * f.dx[0] ** 2

    @pytest.mark.parametrize("name, grad", [
        # grad T_t (x y) = e^{-2t} (y, x)
        ("xy2d", lambda t, x, y: (math.exp(-2 * t) * y,
                                  math.exp(-2 * t) * x)),
        # grad T_t (x + y^2) = (e^{-t}, 2 e^{-2t} y); swapped components fail
        ("xplusysq2d", lambda t, x, y: (math.exp(-t) + 0.0 * x,
                                        2.0 * math.exp(-2 * t) * y)),
    ])
    def test_2d_closed_form(self, name, grad):
        t = 0.6
        f = build_corpus(name, shape=(129, 129))
        xx, yy = f.meshgrid()
        mask = (np.abs(xx) <= 4.0) & (np.abs(yy) <= 4.0)
        comps = ou_gradient(f, t).components
        for comp, expect in zip(comps, grad(t, xx, yy), strict=True):
            assert np.max(np.abs(comp.samples[mask] - expect[mask])) <= 1e-8

    def test_hermite2_gradient(self):
        # grad T_t H2 = e^{-2t} sqrt(2) x
        t = 0.4
        g = ou_gradient(build_corpus("hermite(2)"), t).components[0]
        x = g.axes()[0]
        mask = interior_mask(g)
        expect = math.exp(-2 * t) * math.sqrt(2.0) * x[mask]
        assert np.max(np.abs(g.samples[mask] - expect)) <= 1e-7


class TestUGammaFunctional:
    def test_zero_mean_constant(self):
        value, _, _ = u_gamma_functional(build_corpus("hermite(0)"), 2, 0.5,
                                         t_grid=[0.1, 1.0])
        assert value <= 1e-7

    def test_linear_alpha_half_scalar_oracle(self):
        res = minimize_scalar(lambda u: -(math.exp(u) ** 0.25 * math.exp(-math.exp(u))),
                              bounds=(-9, 3), method="bounded")
        oracle = -res.fun
        assert oracle == pytest.approx(0.25 ** 0.25 * math.exp(-0.25), rel=1e-8)
        t_grid = np.geomspace(1e-4, 1e2, 64)
        value, t_star, values = u_gamma_functional(build_corpus("hermite(1)"),
                                                   2, 0.5, t_grid)
        assert value <= oracle * (1 + 1e-6)
        assert value >= oracle * 0.995
        assert t_star == t_grid[np.argmax(values)]

    def test_linear_alpha_one(self):
        value, _, _ = u_gamma_functional(build_corpus("hermite(1)"), 2, 1.0)
        assert value >= 0.999
        assert value <= 1.0 + 1e-8


class TestConditionalExpectation:
    def test_no_dependence_on_dropped_axis(self):
        f = build_corpus("x2d", shape=(257, 257))
        g = conditional_expectation(f, kept_axis=0)
        assert np.max(np.abs(g.samples - f.axes()[0])) <= 1e-10

    def test_odd_moment_vanishes(self):
        f = build_corpus("xy2d", shape=(257, 257))
        g = conditional_expectation(f, kept_axis=0)
        assert np.max(np.abs(g.samples)) <= 1e-10

    def test_second_moment(self):
        f = build_corpus("xplusysq2d", shape=(257, 257))
        g = conditional_expectation(f, kept_axis=0)
        assert np.max(np.abs(g.samples - (f.axes()[0] + 1.0))) <= 1e-9
        h = conditional_expectation(f, kept_axis=1)
        assert np.max(np.abs(h.samples - f.axes()[1] ** 2)) <= 1e-9

    def test_commutes_with_semigroup(self):
        # E[T_t f | x] equals T_t E[f | x] on the product chaos corpus
        t = 0.7
        for name in ("xy2d", "xplusysq2d"):
            f = build_corpus(name, shape=(257, 257))
            a = conditional_expectation(ou_apply(f, t), kept_axis=0)
            b = ou_apply(conditional_expectation(f, kept_axis=0), t)
            mask = np.abs(a.axes()[0]) <= 4.0
            assert np.max(np.abs(a.samples[mask] - b.samples[mask])) <= 1e-6

    def test_requires_2d_gaussian(self):
        with pytest.raises(ValueError):
            conditional_expectation(build_corpus("hermite(1)"), 0)
        with pytest.raises(MeasureMismatchError):
            conditional_expectation(build_corpus("indicator2d", shape=(65, 65)), 0)


class TestHermiteTransform:
    def test_cubic_coefficients(self):
        # x^3 = sqrt(6) H3 + 3 H1 in the orthonormal basis
        f = gauss_fn(lambda x: x ** 3)
        c = hermite_transform(f)
        assert c.coeffs[1] == pytest.approx(3.0, abs=1e-8)
        assert c.coeffs[3] == pytest.approx(math.sqrt(6.0), abs=1e-8)
        assert np.max(np.abs(np.delete(c.coeffs, [1, 3]))) <= 1e-5

    def test_parseval_with_tail(self):
        f = gauss_fn(lambda x: x ** 3)
        c = hermite_transform(f)
        assert c.energy() + c.tail_energy == pytest.approx(lp_norm(f, 2) ** 2,
                                                           rel=1e-6)
        assert c.energy() == pytest.approx(15.0, rel=1e-6)

    def test_single_mode(self):
        # the grid function vanishes outside the box, which trims about
        # 1.4e-8 of the mode's energy
        c = hermite_transform(build_corpus("hermite(5)"))
        assert c.coeffs[5] == pytest.approx(1.0, abs=1e-7)
        assert c.tail_energy <= 1e-6

    def test_2d_product_mode(self):
        c = hermite_transform(build_corpus("xy2d", shape=(257, 257)))
        assert c.coeffs[1, 1] == pytest.approx(1.0, abs=1e-8)
        off = c.coeffs.copy()
        off[1, 1] = 0.0
        assert np.max(np.abs(off)) <= 1e-5

    def test_synthesize_round_trip(self):
        f = build_corpus("hermite(3)")
        c = hermite_transform(f)
        g = hermite_synthesize(c, bounds=f.bounds, shape=f.shape)
        diff = f.with_samples(f.samples - g.samples)
        assert lp_norm(diff, 2) <= 1e-5


@settings(max_examples=25, deadline=None)
@given(m=st.integers(0, 4), n=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hermite_transform_recovers_2d_coefficients(m, n, seed):
    # a quintic spline reproduces these polynomials exactly, so the only
    # loss is the Gaussian mass outside the box (about 2e-9 here; it grows
    # with the transform degree)
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, (m + 1, n + 1))
    f = hermite_synthesize(HermiteCoeffs(c), shape=(129, 129))
    got = hermite_transform(f, degree=4).coeffs
    expect = np.zeros_like(got)
    expect[:m + 1, :n + 1] = c
    assert np.max(np.abs(got - expect)) <= 1e-8


class TestSpectralOperators:
    def test_identity_at_t_zero(self):
        c = HermiteCoeffs(np.arange(5, dtype=float))
        assert np.array_equal(ou_apply_spectral(c, 0.0).coeffs, c.coeffs)

    def test_single_mode_half_life(self):
        c = HermiteCoeffs(np.array([0.0, 1.0, 0.0]))
        out = ou_apply_spectral(c, math.log(2.0))
        assert np.allclose(out.coeffs, [0.0, 0.5, 0.0])

    def test_ergodic_limit(self):
        c = HermiteCoeffs(np.array([2.0, 1.0, 1.0, 1.0]))
        out = ou_apply_spectral(c, 500.0)
        assert out.coeffs[0] == 2.0
        assert np.max(np.abs(out.coeffs[1:])) <= 1e-200

    def test_2d_total_degree(self):
        c = HermiteCoeffs(np.eye(3))
        out = ou_apply_spectral(c, 1.0)
        assert out.coeffs[1, 1] == pytest.approx(math.exp(-2.0))

    def test_any_dimension(self):
        c = HermiteCoeffs(np.ones((2, 3, 2)))
        assert c.total_degree()[1, 2, 1] == 4
        out = ou_apply_spectral(c, 1.0)
        assert out.coeffs[1, 2, 1] == pytest.approx(math.exp(-4.0))
        with pytest.raises(ValueError):
            HermiteCoeffs(1.0)

    def test_sobolev_norm_single_mode(self):
        for n in range(5):
            c = HermiteCoeffs(np.eye(6)[n])
            assert sobolev_h_norm(c, 0.8) == pytest.approx((1.0 + n) ** 0.4)


class TestConstants:
    def test_cp_special_values(self):
        assert cp_closed_form(2.0) == pytest.approx(1.0, abs=1e-14)
        assert cp_closed_form(1.0) == pytest.approx(math.sqrt(2.0 / math.pi),
                                                    abs=1e-14)

    def test_cp_rejects_p_inf(self):
        # C(inf) = ess sup |Z| is infinite; the formula's limit reads 1.0
        with pytest.raises(ValueError):
            cp_closed_form(math.inf)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_cp_quadrature_cross_check(self, p):
        assert cp_quadrature(p) == pytest.approx(cp_closed_form(p), abs=1e-12)

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 5.0])
    def test_ct_closed_form_vs_quadrature(self, t):
        assert abs(ct_closed_form(t) - ct_quadrature(t)) <= 1e-10

    def test_ct_bounds_and_limit(self):
        t = np.geomspace(1e-4, 50, 200)
        assert np.all(ct_closed_form(t) <= np.sqrt(2 * t) + 1e-15)
        assert ct_closed_form(40.0) == pytest.approx(math.pi / 2.0,
                                                           abs=1e-12)

    def test_abs_moments(self):
        assert abs_moment(1.0, 1) == pytest.approx(math.sqrt(2.0 / math.pi))
        assert abs_moment(2.0, 3) == pytest.approx(3.0)
        for n in (1, 2, 3):
            for alpha in (0.25, 0.5, 0.75, 1.0):
                assert heat_upper_constant(n, alpha) <= math.sqrt(n) + n + 1e-12

    def test_constants_bundle(self):
        # the constants the OU certificate reads at p = 2, alpha = 1/2, n = 1
        assert cp_closed_form(2.0) == pytest.approx(1.0, abs=1e-10)
        expect = 2.0 ** 0.25 * math.gamma(0.75) / math.gamma(0.5)
        assert abs_moment(0.5, 1) == pytest.approx(expect, rel=1e-12)


class TestSemigroupDispatch:
    def test_semigroup_of_each_tag(self):
        assert semigroup(build_corpus("hermite(1)", shape=(65,))) == \
            (ou.ou_apply, ou.ou_gradient, ou.ou_gradient_sum)
        assert semigroup(build_corpus("hat", shape=(65,))) == \
            (heat.heat_apply, heat.heat_gradient, heat.heat_gradient_sum)

    def test_calls_reach_wrapped_module_attributes(self, monkeypatch):
        # a tracer wraps ou.ou_apply and the heat functions where the
        # modules bind them; the dispatch must read them there at call time,
        # not hold the function objects it saw at import
        calls = {}
        for module, name in ((ou, "ou_apply"), (heat, "heat_apply"),
                             (heat, "heat_gradient"),
                             (heat, "heat_gradient_sum")):
            def counting(*args, _fn=getattr(module, name), _name=name,
                         **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)

        def called(run):
            calls.clear()
            run()
            return set(calls)

        hat = build_corpus("hat", shape=(129,))
        bump2d = build_corpus("bump2d", shape=(33, 33))
        h2 = build_corpus("hermite(2)", shape=(129,))
        t_grid = default_t_grid(4)
        assert called(lambda: semigroup_witness(hat, 0.1, 2, 0.5)) == \
            {"heat_apply"}
        assert called(lambda: semigroup_witness(bump2d, 0.1, 2, 0.5)) == \
            {"heat_apply", "heat_gradient_sum"}
        assert called(lambda: semigroup_witness(h2, 0.1, 2, 0.5)) == \
            {"ou_apply"}
        assert called(lambda: certify_lebesgue_suite(
            hat, 2, 0.5, t_grid=t_grid)) == {"heat_apply", "heat_gradient"}
        assert called(lambda: certify_gaussian_suite(
            h2, [(2, 0.5)], t_grid=t_grid)) == {"ou_apply"}
