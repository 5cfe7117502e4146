import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import erf

from besovlab.corpus import build_corpus
from besovlab.grid import GridFunction, MeasureMismatchError, integrate, lp_norm
from besovlab.heat import SemigroupCurve, heat_apply, heat_gradient, u_functional


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


class TestUFunctional:
    def test_zero_function(self):
        f = GridFunction(((-8.0, 8.0),), np.zeros(257))
        value, _, _ = u_functional(f, 1, 1.0, t_grid=[0.1, 1.0])
        assert value == 0.0

    def test_indicator_alpha_one(self):
        value, t_star, curve = u_functional(build_corpus("indicator"), 1, 1.0)
        assert value >= 1.98
        assert t_star == pytest.approx(curve.t[np.argmax(curve.values)])

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


class TestSemigroupCurve:
    def test_monotone_t_required(self):
        with pytest.raises(ValueError):
            SemigroupCurve(((1.0, 0.0), (0.5, 0.0)))

    def test_csv_format(self, tmp_path):
        c = SemigroupCurve(((0.1, 1.0), (1.0, 0.5)))
        path = tmp_path / "curve.csv"
        c.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 3
