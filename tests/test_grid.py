import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab.corpus import build_corpus
from besovlab.grid import (
    GAUSSIAN,
    Direction,
    GridFunction,
    MeasureMismatchError,
    VectorFieldGrid,
    along,
    density,
    directional_derivative,
    divergence,
    divergence_gamma,
    gaussian_density,
    gradient,
    inner,
    integrate,
    load,
    lp_norm,
    partial_derivative,
    quad_weights,
    save,
    shift,
    to_csv,
    write_csv,
)


def grid_1d(n=2049, lo=-8.0, hi=8.0, fn=None, measure="lebesgue"):
    x = np.linspace(lo, hi, n)
    vals = np.zeros_like(x) if fn is None else fn(x)
    return GridFunction(((lo, hi),), vals, measure)


class TestGridFunctionRejects:
    @pytest.mark.parametrize("bounds, samples, measure, match", [
        (((-1.0, 1.0),), [0.0, np.nan, 1.0], "lebesgue", "finite"),
        (((-1.0, 1.0),), [0.0, np.inf, 1.0], "gaussian", "finite"),
        (((-1.0, 1.0),) * 3, np.zeros((3, 3, 3)), "lebesgue", "1D and 2D"),
        (((-1.0, 1.0),) * 2, np.zeros(3), "lebesgue", "dimension mismatch"),
        (((-1.0, 1.0),), np.zeros((3, 3)), "lebesgue", "dimension mismatch"),
        (((-1.0, 1.0),), np.zeros(1), "lebesgue", "n >= 2"),
        (((-1.0, 1.0), (-1.0, 1.0)), np.zeros((3, 1)), "lebesgue", "n >= 2"),
        (((-np.inf, 1.0),), np.zeros(3), "lebesgue", "finite a < b"),
        (((-1.0, np.nan),), np.zeros(3), "lebesgue", "finite a < b"),
        (((1.0, -1.0),), np.zeros(3), "lebesgue", "finite a < b"),
        (((1.0, 1.0),), np.zeros(3), "lebesgue", "finite a < b"),
        (((-1.0, 1.0),), np.zeros(3), "uniform", "unknown measure tag"),
    ])
    def test_constructor_rejects(self, bounds, samples, measure, match):
        with pytest.raises(ValueError, match=match):
            GridFunction(bounds, samples, measure)

    def test_with_samples_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            grid_1d(5).with_samples([0.0, 0.0, np.nan, 0.0, 0.0])


class TestLpNorm:
    def test_zero_function(self):
        assert lp_norm(grid_1d(), 2) == 0.0

    def test_indicator_mass(self):
        # exact integral of the unit indicator on a non-aligned box
        f = build_corpus("indicator", bounds=((-4.0, 5.0),), shape=(3001,))
        assert lp_norm(f, 1) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_second_moment(self):
        # independent oracle: Gauss-Hermite quadrature of x^2 under gamma
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        oracle = math.sqrt(np.sum(weights * (math.sqrt(2) * nodes) ** 2) / math.sqrt(math.pi))
        f = grid_1d(4097, fn=lambda x: x, measure=GAUSSIAN)
        assert lp_norm(f, 2) == pytest.approx(oracle, abs=1e-4)
        assert oracle == pytest.approx(1.0, abs=1e-12)

    def test_inf_norm_is_grid_max(self):
        f = grid_1d(fn=lambda x: np.sin(x))
        assert lp_norm(f, np.inf) == np.max(np.abs(f.samples))

    @given(c=st.floats(min_value=-100, max_value=100, allow_nan=False),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, c, p):
        f = grid_1d(257, fn=lambda x: np.exp(-x * x / 2))
        scaled = f.with_samples(c * f.samples)
        assert lp_norm(scaled, p) == pytest.approx(abs(c) * lp_norm(f, p),
                                                   rel=1e-12, abs=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(grid_1d(), 0.5)

    def test_rejects_nan_p(self):
        # NaN fails every comparison, so it must fail the p >= 1 test too
        with pytest.raises(ValueError, match="p must be"):
            lp_norm(build_corpus("hat", shape=(129,)), math.nan)


class TestDensity:
    def test_density_of_each_tag(self):
        f = grid_1d(257, fn=np.cos)
        g = grid_1d(257, fn=np.cos, measure=GAUSSIAN)
        assert np.array_equal(density(f), np.ones(f.shape))
        assert np.array_equal(density(g), gaussian_density(g))
        for h in (f, g):
            assert np.array_equal(quad_weights(h),
                                  h.cell_volume() * density(h))


class TestShift:
    def test_identity_shift(self):
        f = build_corpus("indicator", shape=(2049,))
        assert np.array_equal(shift(f, [0.0]).samples, f.samples)

    def test_indicator_translation(self):
        f = build_corpus("indicator", shape=(4097,))
        g = shift(f, [0.5])
        x = f.axes()[0]
        inside = (x > 0.51) & (x < 1.49)
        outside = (x < 0.49) | (x > 1.51)
        assert np.all(g.samples[inside] > 0.99)
        assert np.all(np.abs(g.samples[outside]) < 1e-12)

    def test_symmetric_difference_area(self):
        f = build_corpus("indicator", shape=(4097,))
        dx = f.dx[0]
        for h in (0.013, 0.05, 0.1):
            d = f.with_samples(shift(f, [h]).samples - f.samples)
            assert lp_norm(d, 1) == pytest.approx(2 * h, abs=dx)

    def test_round_trip_interior(self):
        f = build_corpus("bump", shape=(2049,))
        g = shift(shift(f, [0.3]), [-0.3])
        dx = f.dx[0]
        interior = slice(200, -200)
        assert np.max(np.abs(g.samples[interior] - f.samples[interior])) < 5 * dx

    def test_cap_rejected(self):
        f = build_corpus("indicator")
        with pytest.raises(ValueError):
            shift(f, [2.0])

    def test_gaussian_tag_rejected(self):
        f = build_corpus("hermite(1)")
        with pytest.raises(MeasureMismatchError):
            shift(f, [0.1])

    def test_2d_shift_moves_square(self):
        f = build_corpus("indicator2d", shape=(257, 257))
        g = shift(f, [0.5, 0.0])
        assert integrate(g) == pytest.approx(1.0, abs=1e-3)


class TestDerivatives:
    def test_linear_function(self):
        f = grid_1d(fn=lambda x: x)
        d = directional_derivative(f, Direction((1.0,)))
        assert np.max(np.abs(d.samples - 1.0)) < 1e-10

    def test_sine_taylor_bound(self):
        f = grid_1d(4097, fn=np.sin)
        d = directional_derivative(f, Direction((1.0,)))
        x = f.axes()[0]
        err = np.abs(d.samples[5:-5] - np.cos(x[5:-5]))
        assert np.max(err) <= f.dx[0] ** 2

    def test_constant(self):
        f = grid_1d(fn=lambda x: np.full_like(x, 3.7))
        d = directional_derivative(f, Direction((1.0,)))
        assert np.max(np.abs(d.samples)) < 1e-12

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            Direction((1.0, 1.0))


def gaussian_field_2d(n=257):
    f = build_corpus("x2d", shape=(n, n))
    xx, yy = f.meshgrid()
    return f, xx, yy


class TestDivergence:
    def test_constant_field_lebesgue(self):
        f = build_corpus("bump", shape=(513,))
        c = f.with_samples(np.full(f.shape, 2.0))
        phi = VectorFieldGrid((c,))
        assert np.max(np.abs(divergence(phi).samples)) < 1e-12

    def test_gamma_divergence_constant_1d(self):
        f = build_corpus("hermite(0)", shape=(513,))
        phi = VectorFieldGrid((f,))
        x = f.axes()[0]
        assert np.max(np.abs(divergence_gamma(phi).samples + x)) < 1e-10

    def test_gamma_divergence_radial_2d(self):
        f, xx, yy = gaussian_field_2d()
        phi = VectorFieldGrid((f.with_samples(xx), f.with_samples(yy)))
        expect = 2.0 - xx ** 2 - yy ** 2
        assert np.max(np.abs(divergence_gamma(phi).samples - expect)) < 1e-8

    def test_gamma_requires_gaussian_tag(self):
        f = build_corpus("bump", shape=(257,))
        with pytest.raises(MeasureMismatchError):
            divergence_gamma(VectorFieldGrid((f,)))


ALONG_CASES = [("bump", (1.0,)), ("bump2d", (1.0, 0.0)),
               ("bump2d", (0.0, 1.0)),
               ("bump2d", (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))]


@pytest.mark.parametrize("name, e", ALONG_CASES)
def test_divergence_skips_zero_components_bit_for_bit(name, e):
    # divergence skips the all-zero components of an along() field; adding
    # their +-0 derivative changes no bit, so it equals the sum over every
    # component
    f = build_corpus(name, shape=(65,) * len(e))
    phi = along(f, Direction(e))
    div = np.zeros(f.shape)
    for axis, comp in enumerate(phi.components):
        div += partial_derivative(comp, axis).samples
    assert np.array_equal(divergence(phi).samples, div)


class TestGaussianDuality:
    def test_integration_by_parts(self):
        # int d_e(phi) dgamma == int phi <x, e> dgamma for smooth phi
        f = build_corpus("hermite(2)", shape=(4097,))
        d = directional_derivative(f, Direction((1.0,)))
        x = f.axes()[0]
        lhs = integrate(d)
        rhs = integrate(f.with_samples(f.samples * x))
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_divergence_gamma_duality(self):
        # int div_gamma(Phi) psi dgamma == -int <Phi, grad psi> dgamma
        psi = build_corpus("hermite(3)", shape=(4097,))
        phi_fun = build_corpus("hermite(2)", shape=(4097,))
        phi = VectorFieldGrid((phi_fun,))
        lhs = inner(divergence_gamma(phi), psi)
        rhs = -inner(phi_fun, directional_derivative(psi, Direction((1.0,))))
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestCorpus:
    def test_indicator_unit_mass(self):
        assert lp_norm(build_corpus("indicator"), 1) == pytest.approx(1.0, abs=1e-12)

    def test_hermite_one_is_identity(self):
        f = build_corpus("hermite(1)")
        assert np.allclose(f.samples, f.axes()[0])
        assert lp_norm(f, 2) == pytest.approx(1.0, abs=1e-4)

    def test_hermite_zero_is_one(self):
        f = build_corpus("hermite(0)")
        assert np.all(f.samples == 1.0)

    def test_hermite_orthonormal(self):
        f3 = build_corpus("hermite(3)")
        f5 = build_corpus("hermite(5)")
        assert inner(f3, f3) == pytest.approx(1.0, abs=1e-6)
        assert inner(f3, f5) == pytest.approx(0.0, abs=1e-6)

    def test_weierstrass_supported_inside(self):
        f = build_corpus("weierstrass(0.5)")
        assert abs(f.samples[0]) <= 1e-8 * np.max(np.abs(f.samples))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_corpus("mystery")


class TestSerialization:
    def test_npz_round_trip(self, tmp_path):
        f = build_corpus("hat", shape=(513,))
        path = tmp_path / "hat.npz"
        save(f, path)
        g = load(path)
        assert g.same_grid(f)
        assert np.array_equal(g.samples, f.samples)

    def test_csv_export(self, tmp_path):
        f = build_corpus("hat", shape=(65,))
        path = tmp_path / "hat.csv"
        to_csv(f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,value"
        assert len(lines) == 66

    def test_write_csv_reals_read_back_exactly(self, tmp_path):
        # a numpy real is written as the float it holds, not as its repr
        path = tmp_path / "rows.csv"
        reals = [0.1, 1.0 / 3.0, 1e-300]
        write_csv(path, ("k", "value"),
                  [(2, np.float64(1.5))] + list(enumerate(reals)))
        with open(path, newline="") as fh:
            header, first, *rest = csv.reader(fh)
        assert header == ["k", "value"]
        assert first == ["2", "1.5"]
        assert [float(v) for _, v in rest] == reals

    def test_gradient_of_bump_is_odd(self):
        f = build_corpus("bump", shape=(1025,))
        g = gradient(f).components[0]
        assert np.max(np.abs(g.samples + g.samples[::-1])) < 1e-9
