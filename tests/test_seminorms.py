import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab.corpus import (
    LEBESGUE_CORPUS_1D,
    LEBESGUE_CORPUS_2D,
    build_corpus,
)
from besovlab.grid import (
    EDGE_TOLERANCE,
    GAUSSIAN,
    Direction,
    GridFunction,
    VectorFieldGrid,
    edge_ratio,
)
from besovlab.seminorms import (
    BesovEstimate,
    besov_seminorm,
    default_shift_magnitudes,
    directional_seminorm,
    kantorovich_norm_1d,
    psi_witness,
    reevaluate,
    semigroup_witness,
    shift_quotient,
    v_lower_bound,
    v_quotient,
)


class TestBesovSeminorm:
    def test_zero_function(self):
        f = GridFunction(((-8.0, 8.0),), np.zeros(1025))
        assert besov_seminorm(f, 1, 0.5).value == 0.0

    def test_indicator_alpha_one(self):
        # symmetric-difference oracle: the quotient is 2 at every small h
        est = besov_seminorm(build_corpus("indicator"), 1, 1.0)
        assert est.value == pytest.approx(2.0, rel=0.02)

    def test_indicator_alpha_half_cap(self):
        # with shifts capped at 0.1 the increasing quotient 2 sqrt(h) tops
        # out at the cap
        f = build_corpus("indicator")
        h_grid = [(h,) for h in np.geomspace(4 * f.dx[0], 0.1, 40)]
        est = besov_seminorm(f, 1, 0.5, h_grid=h_grid)
        assert est.value == pytest.approx(2.0 * math.sqrt(0.1), rel=0.02)
        assert est.cap_limited

    def test_hat_total_variation(self):
        est = besov_seminorm(build_corpus("hat"), 1, 1.0)
        assert est.value == pytest.approx(2.0, rel=0.02)

    def test_recompute_invariant(self):
        f = build_corpus("bump")
        est = besov_seminorm(f, 2, 0.5)
        redo = shift_quotient(f, est.witness_h, est.p, est.alpha)
        assert redo == pytest.approx(est.value, rel=1e-12)

    @pytest.mark.parametrize("c", [2.0, 10.0, -3.0])
    def test_scaling(self, c):
        f = build_corpus("hat", shape=(1025,))
        scaled = f.with_samples(c * f.samples)
        a = besov_seminorm(f, 1, 0.5).value
        b = besov_seminorm(scaled, 1, 0.5).value
        assert b == pytest.approx(abs(c) * a, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            besov_seminorm(build_corpus("hat"), 1, 0.5, h_grid=[])

    def test_gaussian_tag_rejected(self):
        with pytest.raises(ValueError):
            besov_seminorm(build_corpus("hermite(1)"), 2, 0.5)


class TestDirectionalSeminorm:
    def test_axis_symmetry(self):
        # hat2d is symmetric in its axes, so the two axis values coincide
        f = build_corpus("hat2d", shape=(257, 257))
        a = directional_seminorm(f, 1, 0.5, Direction((1.0, 0.0))).value
        b = directional_seminorm(f, 1, 0.5, Direction((0.0, 1.0))).value
        assert a == pytest.approx(b, rel=1e-10)

    def test_square_slab_difference(self):
        f = build_corpus("indicator2d", shape=(513, 513))
        est = directional_seminorm(f, 1, 1.0, Direction((1.0, 0.0)))
        assert est.value == pytest.approx(2.0, rel=0.02)

    def test_matches_1d_value(self):
        f2 = build_corpus("indicator2d", shape=(513, 513))
        f1 = build_corpus("indicator")
        a = directional_seminorm(f2, 1, 1.0, Direction((1.0, 0.0))).value
        b = besov_seminorm(f1, 1, 1.0).value
        assert a == pytest.approx(b, rel=0.02)

    def test_kind_tag(self):
        est = directional_seminorm(build_corpus("hat"), 1, 1.0,
                                   Direction((1.0,)))
        assert est.kind == "directional"


class TestVQuotient:
    def test_zero_function(self):
        f = GridFunction(((-8.0, 8.0),), np.zeros(1025))
        x = f.axes()[0]
        phi = f.with_samples(np.exp(-x * x / 2.0))
        w = v_quotient(f, phi, 1, 0.5, direction=Direction((1.0,)))
        assert w.quotient == 0.0

    def test_gaussian_constant_field(self):
        # div_gamma(-1) = x, so the quotient against f(x) = x is exactly 1
        f = build_corpus("hermite(1)")
        phi = VectorFieldGrid((f.with_samples(np.full(f.shape, -1.0)),))
        w = v_quotient(f, phi, 2, 1.0)
        assert w.quotient == pytest.approx(1.0, abs=1e-10)

    def test_indicator_smoothed_step(self):
        # phi sliding from +1 to -1 across [0,1] integrates the full jump
        f = build_corpus("indicator")
        x = f.axes()[0]
        phi = f.with_samples(-np.tanh(8.0 * (x - 0.5)))
        w = v_quotient(f, phi, 1, 1.0, direction=Direction((1.0,)))
        assert w.quotient == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("c", [2.0, 10.0])
    def test_field_scaling_invariance(self, c):
        f = build_corpus("hat")
        x = f.axes()[0]
        phi = f.with_samples(np.exp(-x * x / 2.0) * np.sin(x))
        a = v_quotient(f, phi, 1, 0.5, direction=Direction((1.0,)))
        b = v_quotient(f, phi.with_samples(c * phi.samples), 1, 0.5,
                       direction=Direction((1.0,)))
        assert b.quotient == pytest.approx(a.quotient, rel=1e-12)

    def test_scalar_and_field_forms_agree_in_1d(self):
        f = build_corpus("hat")
        x = f.axes()[0]
        phi = f.with_samples(np.exp(-x * x / 2.0) * np.sin(2 * x))
        a = v_quotient(f, phi, 2, 0.5, direction=Direction((1.0,)))
        b = v_quotient(f, VectorFieldGrid((phi,)), 2, 0.5)
        assert a.quotient == pytest.approx(b.quotient, rel=1e-14)

    def test_vanishing_divergence_rejected(self):
        f = build_corpus("hat")
        phi = f.with_samples(np.full(f.shape, 0.5))
        with pytest.raises(ValueError):
            v_quotient(f, phi, 1, 0.5, direction=Direction((1.0,)))

    def test_witness_reevaluation(self):
        f = build_corpus("indicator")
        w = psi_witness(f, 0.5, 0, 1, 1.0)
        assert reevaluate(f, w) == pytest.approx(w.quotient, rel=1e-12)


class TestPsiWitness:
    def test_indicator_alpha_one(self):
        f = build_corpus("indicator")
        est = besov_seminorm(f, 1, 1.0)
        w = psi_witness(f, np.linalg.norm(est.witness_h), 0, 1, 1.0)
        assert w.quotient >= 2.0 * 0.95

    def test_indicator_alpha_half(self):
        f = build_corpus("indicator")
        est = besov_seminorm(f, 1, 0.5)
        w = v_lower_bound(f, 1, 0.5)
        assert w.quotient >= 2.0 ** (-0.5) * est.value * 0.95

    def test_requires_lebesgue(self):
        with pytest.raises(ValueError):
            psi_witness(build_corpus("hermite(2)"), 0.5, 0, 2, 0.5)


class TestVLowerBound:
    def test_indicator_total_variation(self):
        w = v_lower_bound(build_corpus("indicator"), 1, 1.0)
        assert w.quotient >= 2.0 * 0.95

    def test_zero_function(self):
        f = GridFunction(((-8.0, 8.0),), np.zeros(1025))
        assert v_lower_bound(f, 1, 1.0).quotient == 0.0

    def test_gaussian_linear(self):
        # the true Gaussian V of f(x) = x at p = 2, alpha = 1 equals 1
        w = v_lower_bound(build_corpus("hermite(1)"), 2, 1.0)
        assert 0.95 <= w.quotient <= 1.0 + 1e-6

    def test_deterministic_given_seed(self):
        f = build_corpus("hat", shape=(1025,))
        a = v_lower_bound(f, 2, 0.5)
        b = v_lower_bound(f, 2, 0.5)
        assert a.quotient == b.quotient


class TestSemigroupWitness:
    @pytest.mark.parametrize("name, shape", [("hermite(1)", (1025,)),
                                             ("x2d", (65, 65))])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_linear_gaussian_target(self, name, shape, t):
        # for f = x_1 the field is constant and div_gamma returns x_1, so
        # the quotient at p = 2, alpha = 1 is the true Gaussian V = 1; x2d
        # runs the 2D quadrature over the OU gradient
        w = semigroup_witness(build_corpus(name, shape=shape), t, 2, 1.0)
        assert w.quotient == pytest.approx(1.0, abs=1e-6)
        assert w.construction.startswith("semigroup-integral")


WITNESS_CASES = ([(name, (1025,)) for name in LEBESGUE_CORPUS_1D]
                 + [(name, (97, 97)) for name in LEBESGUE_CORPUS_2D])


class TestWitnessAdmissibility:
    @pytest.mark.parametrize("name, shape", WITNESS_CASES)
    @pytest.mark.parametrize("p, alpha", [(1, 1.0), (2, 0.5), (1, 0.5)])
    def test_returned_field_vanishes_at_edge(self, name, shape, p, alpha):
        # a test object must vanish at the box edge, to the tolerance the
        # corpus itself is held to; its quotient is reproducible
        f = build_corpus(name, shape=shape)
        w = v_lower_bound(f, p, alpha)
        field = w.field
        if isinstance(field, VectorFieldGrid):
            field = field.magnitude()
        assert edge_ratio(field.samples) <= EDGE_TOLERANCE, w.construction
        assert reevaluate(f, w) == w.quotient

    def test_bump_segment_integral_past_the_plateau(self):
        # needs the running integral held at its end value past the box;
        # zero-extending it leaves a plateau that caps this near 0.77
        f = build_corpus("bump")
        best = max(psi_witness(f, float(h), 0, 1, 0.5).quotient
                   for h in default_shift_magnitudes(f, 12))
        assert best >= 1.6


def _test_object(f, form):
    """A fixed smooth test function or field on f's grid."""
    x = f.axes()[0]
    phi = f.with_samples(np.exp(-x * x / 2.0) * np.sin(2.0 * x))
    if form == "directional":
        return phi, Direction((1.0,))
    return VectorFieldGrid((phi,)), None


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["hat", "hermite(2)"]),
       form=st.sampled_from(["directional", "field"]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       alpha=st.floats(0.05, 1.0),
       c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
def test_v_quotient_scaling(name, form, p, alpha, c):
    # V is invariant under phi -> c phi and scales by |c| under f -> c f,
    # on both forms and under both measures
    f = build_corpus(name, shape=(1025,))
    test, direction = _test_object(f, form)
    base = v_quotient(f, test, p, alpha, direction=direction).quotient
    if direction is None:
        scaled_test = VectorFieldGrid(tuple(
            comp.with_samples(c * comp.samples) for comp in test.components))
    else:
        scaled_test = test.with_samples(c * test.samples)
    same = v_quotient(f, scaled_test, p, alpha, direction=direction).quotient
    scaled = v_quotient(f.with_samples(c * f.samples), test, p, alpha,
                        direction=direction).quotient
    assert same == pytest.approx(base, rel=1e-12)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


class TestKantorovich:
    def test_zero(self):
        f = GridFunction(((-8.0, 8.0),), np.zeros(1025), GAUSSIAN)
        assert kantorovich_norm_1d(f) == 0.0

    def test_linear(self):
        assert kantorovich_norm_1d(build_corpus("hermite(1)")) == \
            pytest.approx(1.0, abs=1e-6)

    def test_hermite_two(self):
        expect = math.sqrt(2.0 / math.pi) / math.sqrt(2.0)
        assert kantorovich_norm_1d(build_corpus("hermite(2)")) == \
            pytest.approx(expect, abs=1e-5)

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValueError):
            kantorovich_norm_1d(build_corpus("hermite(0)"))

    def test_lebesgue_rejected(self):
        with pytest.raises(ValueError):
            kantorovich_norm_1d(build_corpus("bump"))


class TestShiftGrid:
    def test_default_magnitudes_range(self):
        f = build_corpus("hat")
        mags = default_shift_magnitudes(f)
        assert len(mags) == 40
        assert mags[0] == pytest.approx(4 * f.dx[0])
        assert mags[-1] == pytest.approx(1.6)

    def test_shift_quotient_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            shift_quotient(build_corpus("hat"), (0.0,), 1, 0.5)

    def test_estimate_kind_validation(self):
        with pytest.raises(ValueError):
            BesovEstimate(1.0, (0.1,), 1.0, 0.5, "bogus")
