import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import seminorms
from besovlab.corpus import (
    LEBESGUE_CORPUS_1D,
    LEBESGUE_CORPUS_2D,
    build_corpus,
    name_dim,
)
from besovlab.grid import (
    EDGE_TOLERANCE,
    GAUSSIAN,
    LEBESGUE,
    Direction,
    GridFunction,
    VectorFieldGrid,
    along,
    directional_derivative,
    divergence,
    edge_ratio,
    shift_cap,
)
from besovlab.heat import u_functional
from besovlab.seminorms import (
    BesovEstimate,
    besov_seminorm,
    default_shift_magnitudes,
    kantorovich_norm_1d,
    psi_witness,
    semigroup_witness,
    shift_quotient,
    v_lower_bound,
    v_lower_bounds,
    v_quotient,
)


class TestBesovSeminorm:
    @pytest.mark.parametrize("name, shape, count", [("hat", (129,), 67),
                                                    ("hat2d", (97, 97), 147)])
    def test_golden_section_reuses_one_point_per_step(self, monkeypatch,
                                                      name, shape, count):
        # 40 default shifts per direction (one in 1D, three in 2D), then 25
        # golden-section steps: two quotients for the first, one new point
        # for each later step, and one at the final bracket's midpoint
        calls = []

        def counting(*args, _fn=seminorms.shift_quotient):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(seminorms, "shift_quotient", counting)
        besov_seminorm(build_corpus(name, shape=shape), 2, 0.5)
        assert len(calls) == count

    def test_refinement_within_round_off_keeps_the_grid_argmax(
            self, monkeypatch):
        # the last refinement quotient beats the grid best by 1e-15
        # relative, a round-off gap: the grid argmax stays the witness
        f = build_corpus("hat", shape=(129,))
        h_grid = [(m,) for m in default_shift_magnitudes(f)]
        quotient = seminorms.shift_quotient
        grid_vals = [quotient(f, h, 2, 0.5) for h in h_grid]
        # the grid, two quotients for the first golden-section step, one
        # for each later step and one at the final bracket's midpoint
        last = len(h_grid) + seminorms.BISECTION_STEPS + 2
        calls = []

        def nudged(*args):
            calls.append(args)
            if len(calls) == last:
                return max(grid_vals) * (1.0 + 1e-15)
            return quotient(*args)

        monkeypatch.setattr(seminorms, "shift_quotient", nudged)
        est = seminorms._estimate(f, 2, 0.5, h_grid)
        assert len(calls) == last
        k = int(np.argmax(grid_vals))
        assert est.witness_h == h_grid[k]
        assert est.value == grid_vals[k]

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
        est = seminorms._estimate(f, 1, 0.5, h_grid)
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

    def test_gaussian_tag_rejected(self):
        with pytest.raises(ValueError):
            besov_seminorm(build_corpus("hermite(1)"), 2, 0.5)


class TestVQuotient:
    def test_zero_function(self):
        f = GridFunction(((-8.0, 8.0),), np.zeros(1025))
        x = f.axes()[0]
        phi = f.with_samples(np.exp(-x * x / 2.0))
        w = v_quotient(f, along(phi, Direction((1.0,))), 1, 0.5)
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
        w = v_quotient(f, along(phi, Direction((1.0,))), 1, 1.0)
        assert w.quotient == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("c", [2.0, 10.0])
    def test_field_scaling_invariance(self, c):
        f = build_corpus("hat")
        x = f.axes()[0]
        phi = f.with_samples(np.exp(-x * x / 2.0) * np.sin(x))
        e = Direction((1.0,))
        a = v_quotient(f, along(phi, e), 1, 0.5)
        b = v_quotient(f, along(phi.with_samples(c * phi.samples), e), 1, 0.5)
        assert b.quotient == pytest.approx(a.quotient, rel=1e-12)

    def test_along_axis_fields(self):
        # psi * e_axis has divergence d_axis psi and magnitude |psi|, bit for
        # bit, on each axis in 1D and 2D: the other components are exact
        # zeros
        for shape in ((257,), (257, 257)):
            f = build_corpus("hat" if len(shape) == 1 else "hat2d",
                             shape=shape)
            xs = f.meshgrid()
            psi = f.with_samples(np.exp(-sum(x * x for x in xs) / 2.0)
                                 * np.sin(2.0 * xs[0] - xs[-1]))
            for axis in range(f.dim):
                e = Direction(tuple(float(i == axis) for i in range(f.dim)))
                field = along(psi, e)
                assert np.array_equal(divergence(field).samples,
                                      directional_derivative(psi, e).samples)
                assert np.array_equal(field.magnitude().samples,
                                      np.abs(psi.samples))
            with pytest.raises(ValueError):
                along(psi, Direction((1.0,) if f.dim == 2 else (0.0, 1.0)))

    def test_vanishing_divergence_rejected(self):
        f = build_corpus("hat")
        phi = f.with_samples(np.full(f.shape, 0.5))
        with pytest.raises(ValueError):
            v_quotient(f, along(phi, Direction((1.0,))), 1, 0.5)

    def test_witness_reevaluation(self):
        f = build_corpus("indicator")
        w = psi_witness(f, 0.5, 0, 1, 1.0)
        assert v_quotient(f, w.field, w.p, w.alpha).quotient == \
            pytest.approx(w.quotient, rel=1e-12)


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

    @pytest.mark.parametrize("p, alpha", [(1, 0.5), (2, 0.5), (1, 1.0)])
    def test_gaussian_constant_is_zero(self, p, alpha):
        # V of a constant is 0; the Gaussian numerator pairs div_gamma v with
        # the target centered by grid.center, which maps a constant to 0
        f = build_corpus("hermite(0)", shape=(1025,))
        assert v_lower_bound(f, p, alpha).quotient == 0.0

    def test_gaussian_linear(self):
        # the true Gaussian V of f(x) = x at p = 2, alpha = 1 equals 1
        w = v_lower_bound(build_corpus("hermite(1)"), 2, 1.0)
        assert 0.95 <= w.quotient <= 1.0 + 1e-6

    def test_deterministic_given_seed(self):
        f = build_corpus("hat", shape=(1025,))
        a = v_lower_bound(f, 2, 0.5)
        b = v_lower_bound(f, 2, 0.5)
        assert a.quotient == b.quotient

    @pytest.mark.parametrize("name, shape", [("hermite(1)", (1025,)),
                                             ("x2d", (33, 33))])
    def test_gaussian_target_at_p_inf_rejected(self, name, shape):
        # the Gaussian constant C(inf) is infinite: an inadmissible input,
        # rejected by the rule that certify applies to a Gaussian name
        f = build_corpus(name, shape=shape)
        with pytest.raises(ValueError, match="C\\(p\\) is infinite"):
            v_lower_bound(f, np.inf, 0.5)


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


#: a repeated pair, and p = inf, which only Lebesgue targets take
MANY_PAIRS = [(1, 1.0), (2, 0.5), (1, 1.0), (np.inf, 0.5)]


class TestWitnessesOfManyPairs:
    @pytest.mark.parametrize("name, shape", [
        ("hat", (129,)), ("indicator", (129,)), ("bump", (129,)),
        ("hat2d", (97, 97)), ("hermite(1)", (129,)), ("hermite(2)", (129,)),
        ("hermite(3)", (129,))])
    def test_each_pair_as_its_own_search(self, name, shape):
        # the shared differences repeat the same arithmetic, and every pair
        # sees the same candidates in the same order, so each witness is
        # the one-pair search's, field and all
        f = build_corpus(name, shape=shape)
        pairs = MANY_PAIRS if f.measure == LEBESGUE else MANY_PAIRS[:3]
        many = v_lower_bounds(f, pairs)
        assert len(many) == len(pairs)
        for w, (p, alpha) in zip(many, pairs):
            one = v_lower_bound(f, p, alpha)
            assert (w.quotient, w.construction) == \
                (one.quotient, one.construction)
            assert all(np.array_equal(a.samples, b.samples) for a, b in
                       zip(w.field.components, one.field.components))

    def test_every_pair_checked_before_the_search(self, monkeypatch):
        # the second pair is rejected before any difference is computed
        def unreachable(*args):
            raise AssertionError("searched before checking every pair")

        monkeypatch.setattr(seminorms, "_semigroup_difference", unreachable)
        f = build_corpus("hermite(2)", shape=(129,))
        with pytest.raises(ValueError, match="C\\(p\\) is infinite"):
            v_lower_bounds(f, [(2, 0.5), (np.inf, 0.5)])
        with pytest.raises(ValueError, match="alpha must"):
            v_lower_bounds(f, [(2, 0.5), (2, 1.5)])
        assert v_lower_bounds(f, []) == []


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
        assert edge_ratio(w.field.magnitude().samples) <= EDGE_TOLERANCE, \
            w.construction
        assert v_quotient(f, w.field, w.p, w.alpha).quotient == w.quotient

    def test_bump_segment_integral_past_the_plateau(self):
        # needs the running integral held at its end value past the box;
        # zero-extending it leaves a plateau that caps this near 0.77
        f = build_corpus("bump")
        best = max(psi_witness(f, float(h), 0, 1, 0.5).quotient
                   for h in default_shift_magnitudes(f, 12))
        assert best >= 1.6


def _test_object(f, form):
    """A fixed smooth test field on f's grid, built by along or directly
    from its component."""
    x = f.axes()[0]
    phi = f.with_samples(np.exp(-x * x / 2.0) * np.sin(2.0 * x))
    if form == "directional":
        return along(phi, Direction((1.0,)))
    return VectorFieldGrid((phi,))


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
    test = _test_object(f, form)
    base = v_quotient(f, test, p, alpha).quotient
    scaled_test = VectorFieldGrid(tuple(
        comp.with_samples(c * comp.samples) for comp in test.components))
    same = v_quotient(f, scaled_test, p, alpha).quotient
    scaled = v_quotient(f.with_samples(c * f.samples), test, p, alpha
                        ).quotient
    assert same == pytest.approx(base, rel=1e-12)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["hat", "indicator", "hat2d"]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       alpha=st.floats(0.05, 1.0),
       data=st.data())
def test_besov_seminorm_translation_covariant(name, p, alpha, data):
    # a whole-cell translation that keeps the support at least one shift cap
    # from the box edge leaves the grid seminorm unchanged, and the witness
    # shift found for the moved function attains it on the original too
    # (the witness itself can differ where the quotient ties: hat2d's two
    # axes, or p = alpha = 1, where the quotient is flat in |h|)
    f = build_corpus(name, shape=(97, 97) if name == "hat2d" else (1025,))
    cells = []
    for axis in range(f.dim):
        others = tuple(a for a in range(f.dim) if a != axis)
        support = np.flatnonzero(np.any(f.samples != 0.0, axis=others))
        margin = math.ceil(shift_cap(f) / f.dx[axis])
        cells.append(data.draw(st.integers(
            margin - support[0], f.shape[axis] - 1 - margin - support[-1])))
    moved = f.with_samples(np.roll(f.samples, cells, axis=tuple(range(f.dim))))
    base = besov_seminorm(f, p, alpha)
    got = besov_seminorm(moved, p, alpha)
    assert got.value == pytest.approx(base.value, rel=1e-12)
    assert shift_quotient(f, got.witness_h, p, alpha) == pytest.approx(
        base.value, rel=1e-12)


@pytest.mark.parametrize("p, alpha", [(1.0, 1.0), (2.0, 0.5), (1.5, 0.3)])
@pytest.mark.parametrize("name, n", [("bump", 1025),
                                     ("weierstrass(0.5)", 1025),
                                     ("bump2d", 97)])
def test_besov_seminorm_translation_covariant_from_the_formula(name, n, p,
                                                               alpha):
    # np.roll would wrap the nonzero tails of these functions, so the
    # translate is sampled from the formula: the same function on a box
    # moved by 3 cells.  Farther moves carry mass to the box edge.
    f = build_corpus(name, shape=(n,) * name_dim(name))
    bounds = tuple((a + 3 * dx, b + 3 * dx)
                   for (a, b), dx in zip(f.bounds, f.dx))
    moved = build_corpus(name, bounds=bounds, shape=f.shape)
    assert besov_seminorm(moved, p, alpha).value == pytest.approx(
        besov_seminorm(f, p, alpha).value, rel=1e-11)


#: the public entries that take (p, alpha), as entry(f, p, alpha)
EXPONENT_ENTRIES = {
    "besov_seminorm": besov_seminorm,
    "v_lower_bound": v_lower_bound,
    "v_lower_bounds": lambda f, p, alpha: v_lower_bounds(f, [(p, alpha)]),
    "u_functional": u_functional,
    "v_quotient": lambda f, p, alpha: v_quotient(f, VectorFieldGrid((f,)),
                                                 p, alpha),
}


@pytest.mark.parametrize("p, alpha", [(1, 0.0), (0.5, 0.5), (1, 1.5),
                                      (math.nan, 0.5), (1, math.nan)])
@pytest.mark.parametrize("entry", EXPONENT_ENTRIES.values(),
                         ids=EXPONENT_ENTRIES.keys())
def test_inadmissible_exponents_rejected(entry, p, alpha):
    # one rule at every public entry: p >= 1 or inf, 0 < alpha <= 1; the
    # witness search used to swallow the error and report no witness
    with pytest.raises(ValueError, match="p must be|alpha must"):
        entry(build_corpus("hat", shape=(1025,)), p, alpha)


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

    def test_estimate_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BesovEstimate(-1.0, (0.1,), 1.0, 0.5)
