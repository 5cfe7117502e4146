import math

import numpy as np
import pytest
from scipy.stats import norm

from besovlab.counterexample import CounterexampleSpec, build_counterexample
from besovlab.grid import Direction, GridFunction, shift
from besovlab.measures import (
    GridMeasure,
    HolderFit,
    chaining_check,
    chaining_constant,
    conditional_slices,
    holder_profile,
    measure_from_density,
    metric_axioms_check,
    point_mass,
    reassemble,
    shift_distance,
    shift_measure,
    tv_distance,
)

BOUNDS_1D = ((-8.0, 8.0),)


def gridded_gaussian(mean=0.0, n=4097):
    x = np.linspace(-8.0, 8.0, n)
    return measure_from_density(GridFunction(BOUNDS_1D, norm.pdf(x - mean)))


class TestGridMeasure:
    def test_total(self):
        mu = gridded_gaussian()
        assert mu.total == pytest.approx(1.0, abs=1e-10)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            GridMeasure(BOUNDS_1D, np.full(9, -1.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GridMeasure(BOUNDS_1D, np.ones((4, 4)))


class TestTvDistance:
    def test_identical(self):
        mu = gridded_gaussian()
        assert tv_distance(mu, mu) == 0.0

    def test_disjoint_unit_masses(self):
        a = point_mass(BOUNDS_1D, (101,), (10,))
        b = point_mass(BOUNDS_1D, (101,), (90,))
        assert tv_distance(a, b) == 2.0

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_shifted_gaussian_oracle(self, t):
        # densities cross at t/2; integrating the difference gives the
        # closed form 2 (2 Phi(t/2) - 1)
        tv = tv_distance(gridded_gaussian(), gridded_gaussian(mean=t))
        oracle = 2.0 * (2.0 * norm.cdf(t / 2.0) - 1.0)
        assert tv == pytest.approx(oracle, abs=1e-4)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tv_distance(gridded_gaussian(), gridded_gaussian(n=2049))


class TestShiftMeasure:
    def test_zero_shift_identity(self):
        mu = gridded_gaussian()
        assert tv_distance(shift_measure(mu, 0.0), mu) == 0.0

    def test_integer_cell_shift_exact(self):
        mu = gridded_gaussian()
        shifted = shift_measure(mu, 5 * mu.dx[0])
        assert np.array_equal(shifted.weights[5:], mu.weights[:-5])

    def test_mass_conservation_fractional(self):
        mu = gridded_gaussian()
        shifted = shift_measure(mu, 0.3217)
        assert shifted.total == pytest.approx(mu.total, abs=1e-12)

    def test_negative_shift(self):
        mu = gridded_gaussian()
        left = shift_measure(mu, -1.0)
        right = shift_measure(mu, 1.0)
        assert tv_distance(left, mu) == pytest.approx(
            tv_distance(right, mu), abs=1e-10)

    def test_2d_diagonal(self):
        # wide box keeps the support interior so no mass crosses the edge
        x = np.linspace(-8.0, 8.0, 129)
        dens = np.outer(norm.pdf(x), norm.pdf(x))
        mu = measure_from_density(
            GridFunction(((-8.0, 8.0), (-8.0, 8.0)), dens))
        shifted = shift_measure(mu, (0.25, 0.25))
        assert shifted.total == pytest.approx(mu.total, abs=1e-12)
        assert tv_distance(shifted, mu) > 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shift_measure(gridded_gaussian(), (0.1, 0.1))

    @pytest.mark.parametrize("dim, h_shape", [(1, (1, 1)), (1, (1, 2)),
                                              (2, (1, 2))],
                             ids=["1d-1x1", "1d-1x2", "2d-1x2"])
    def test_h_shape_checked_as_for_functions(self, dim, h_shape):
        # one check of h's shape, (dim,), serves shift and shift_measure
        bounds = ((-1.0, 1.0),) * dim
        h = np.full(h_shape, 0.01)
        for move, target in (
                (shift_measure, GridMeasure(bounds, np.ones((33,) * dim))),
                (shift, GridFunction(bounds, np.ones((33,) * dim)))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                move(target, h)


class TestHolderProfile:
    def test_gaussian_exponent(self):
        _, fit = holder_profile(gridded_gaussian(), Direction((1.0,)))
        assert fit.exponent == pytest.approx(1.0, abs=0.02)

    def test_gaussian_small_t_constant(self):
        mu = gridded_gaussian()
        grid = tuple(np.geomspace(4.0 * mu.dx[0], 0.05, 16))
        _, fit = holder_profile(mu, Direction((1.0,)), t_grid=grid)
        assert fit.constant == pytest.approx(math.sqrt(2.0 / math.pi),
                                             rel=0.01)

    def test_uniform_interval(self):
        # shifting the block moves mass at both edges: tv = 2t exactly
        x = np.linspace(-2.0, 3.0, 2561)
        dens = np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)
        mu = measure_from_density(GridFunction(((-2.0, 3.0),), dens))
        grid = tuple(np.geomspace(4.0 * mu.dx[0], 0.2, 16))
        _, fit = holder_profile(mu, Direction((1.0,)), t_grid=grid)
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)
        assert fit.constant == pytest.approx(2.0, rel=1e-6)

    def test_point_mass_flat_profile(self):
        mu = point_mass(BOUNDS_1D, (4097,), (2048,))
        grid = tuple(np.geomspace(4.0 * mu.dx[0], 1.0, 16))
        curve, fit = holder_profile(mu, Direction((1.0,)), t_grid=grid)
        assert abs(fit.exponent) <= 1e-8
        assert all(v == pytest.approx(2.0) for _, v in curve)

    def test_residual_reported(self):
        _, fit = holder_profile(gridded_gaussian(), Direction((1.0,)))
        assert np.isfinite(fit.residual) and fit.residual >= 0.0

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            HolderFit(math.inf, 1.0, (0.0, 1.0), 0.0)


@pytest.fixture(scope="module")
def report():
    mu = gridded_gaussian(n=2049)
    shifts = [(0.5,), (1.0,), (-0.7,), (0.3,), (1.4,)]
    grid = tuple(np.geomspace(4.0 * mu.dx[0], 0.5, 8))
    return metric_axioms_check(mu, shifts, 0.5, t_grid=grid)


class TestMetricAxioms:
    def test_identity(self, report):
        assert report["identity_max"] == 0.0

    def test_symmetry(self, report):
        assert report["symmetry_max"] <= 1e-8

    def test_triangle(self, report):
        assert report["triangle_worst_violation"] <= 1e-10

    def test_translation_invariance(self, report):
        assert report["translation_max"] <= 1e-10

    def test_distance_zero_only_at_equal_shifts(self):
        mu = gridded_gaussian(n=2049)
        grid = tuple(np.geomspace(4.0 * mu.dx[0], 0.5, 8))
        assert shift_distance(mu, (0.5,), (0.5,), 0.5, t_grid=grid) == 0.0
        assert shift_distance(mu, (0.5,), (0.6,), 0.5, t_grid=grid) > 0.0

    def test_needs_three_shifts(self):
        with pytest.raises(ValueError):
            metric_axioms_check(gridded_gaussian(n=257), [(0.1,), (0.2,)],
                                0.5)


def product_measure(n=257):
    x = np.linspace(-4.0, 4.0, n)
    dens = np.outer(norm.pdf(x), norm.pdf(x))
    return measure_from_density(GridFunction(((-4.0, 4.0), (-4.0, 4.0)),
                                             dens))


def counterexample_measure():
    spec = CounterexampleSpec(0.5, 500)
    f, _ = build_counterexample(spec, shape=(513, 257))
    return measure_from_density(f.with_samples(1.0 + 0.2 * f.samples))


class TestConditionalSlices:
    def test_product_slices_identical(self):
        slices, _ = conditional_slices(product_measure(), axis=1)
        assert np.max(np.abs(slices[64].weights - slices[192].weights)) \
            <= 1e-12

    def test_marginal_mass(self):
        mu = product_measure()
        _, marginal = conditional_slices(mu, axis=1)
        assert marginal.total == pytest.approx(mu.total, abs=1e-12)

    def test_disintegration_identity(self):
        mu = counterexample_measure()
        slices, marginal = conditional_slices(mu, axis=1)
        back = reassemble(slices, marginal, axis=1)
        assert np.max(np.abs(back.weights - mu.weights)) <= 1e-12

    def test_density_proportionality(self):
        # slices of the 1 + eps f density are proportional to 1 + eps f(., y)
        spec = CounterexampleSpec(0.5, 500)
        f, _ = build_counterexample(spec, shape=(513, 257))
        mu = measure_from_density(f.with_samples(1.0 + 0.2 * f.samples))
        slices, _ = conditional_slices(mu, axis=1)
        j = 100
        target = 1.0 + 0.2 * f.samples[:, j]
        got = slices[j].weights
        ratio = got[target > 0.5] / target[target > 0.5]
        assert np.max(ratio) - np.min(ratio) <= 1e-12 * np.max(ratio)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            conditional_slices(gridded_gaussian(n=257))


class TestChaining:
    @pytest.mark.parametrize("beta", [0.25, 0.4])
    def test_product_measure(self, beta):
        slices, _ = conditional_slices(product_measure(), axis=1)
        sub = [slices[j] for j in range(40, 220, 30)]
        report = chaining_check(sub, beta, depth=5)
        assert report["pass"]
        constants = [r["C"] for r in report["rows"]]
        assert max(constants) == pytest.approx(min(constants), rel=1e-10)

    @pytest.mark.parametrize("beta", [0.25, 0.4])
    def test_counterexample_measure(self, beta):
        slices, _ = conditional_slices(counterexample_measure(), axis=1)
        sub = [slices[j] for j in range(10, 250, 40)]
        report = chaining_check(sub, beta, depth=5)
        assert report["pass"]
        constants = [r["C"] for r in report["rows"]]
        assert max(constants) > min(constants)

    def test_lipschitz_case(self):
        slices, _ = conditional_slices(product_measure(), axis=1)
        report = chaining_check([slices[128]], 1.0, depth=5)
        assert report["pass"]
        assert report["rows"][0]["max_ratio"] < 1.0
        # the same slice passes at beta = 0.25 and depth 4 too, one row
        report = chaining_check([slices[128]], 0.25, depth=4)
        assert report["pass"] is True and len(report["rows"]) == 1

    def test_exact_constant(self):
        slices, _ = conditional_slices(product_measure(), axis=1)
        mu = slices[128]
        beta = 0.4
        c = chaining_constant(mu, Direction((1.0,)), beta, 5)
        report = chaining_check([mu], beta, depth=5)
        expect = max(2.0, c / (1.0 - 2.0 ** (-beta)))
        assert report["rows"][0]["bound_constant"] == pytest.approx(
            expect, rel=1e-12)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            chaining_check([gridded_gaussian(n=257)], 1.5, depth=3)
