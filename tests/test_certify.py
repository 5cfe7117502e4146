import math

import numpy as np
import pytest

from besovlab import ou
from besovlab.corpus import build_corpus
from besovlab.certify import (
    CertificateEntry,
    _u_gamma_grid,
    certify_embedding_p2,
    certify_gaussian_suite,
    certify_lebesgue_suite,
    certify_projection_suite,
    embedding_constant,
    entries_to_json,
    failures,
    make_entry,
    slack_from_pair,
    v_gamma_upper_bound,
)
from besovlab.grid import (
    GAUSSIAN,
    GridFunction,
    VectorFieldGrid,
    coarsen,
    gaussian_density,
    integrate,
    lp_norm,
)
from besovlab.heat import default_t_grid, heat_apply, u_functional
from besovlab.ou import (
    cp_closed_form,
    ct_closed_form,
    hermite_matrix,
    hermite_transform,
    ou_apply,
    ou_gradient,
    u_gamma_functional,
)
from besovlab.seminorms import kantorovich_norm_1d


def _spike_pair():
    """Two opposite spikes at the left end of [-8, 8] (1025 nodes) whose
    midpoint Gaussian mean is 0."""
    f = GridFunction(((-8.0, 8.0),), np.zeros(1025), GAUSSIAN)
    rho = gaussian_density(f)
    s = np.zeros(1025)
    s[0] = 1e9
    s[1] = -1e9 * rho[0] / rho[1]
    return f.with_samples(s)


class TestEntryMechanics:
    def test_pass_iff_margin_nonnegative(self):
        e = make_entry("a", "stmt", lhs=1.0, rhs=1.0, slack=0.01, inputs={})
        assert e.passed and e.margin == pytest.approx(0.01)
        e = make_entry("a", "stmt", lhs=1.2, rhs=1.0, slack=0.01, inputs={})
        assert not e.passed

    def test_negative_sides_rejected(self):
        with pytest.raises(ValueError):
            CertificateEntry("a", "s", -1.0, 0.0, 0.0, 1.0, True, False, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", ["lhs", "rhs", "slack"])
    def test_non_finite_rejected(self, side, bad):
        # a NaN lhs compares false against 0 and would pass as an entry
        values = {"lhs": 1.0, "rhs": 1.0, "slack": 0.01, side: bad}
        with pytest.raises(ValueError, match="finite"):
            make_entry("a", "stmt", inputs={}, **values)

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError):
            CertificateEntry("a", "s", 2.0, 1.0, 0.0, -1.0, True, False, {})

    def test_slack_floor_and_cap(self):
        s, info = slack_from_pair(1.0, 1.0)
        assert s == 1e-4 and not info
        s, info = slack_from_pair(1.0, 0.99)
        assert s == pytest.approx(0.01) and not info
        s, info = slack_from_pair(1.0, 0.5)
        assert s == 0.05 and info
        s, info = slack_from_pair(0.0, 0.0)
        assert s == 1e-4 and not info


class TestLebesgueSuite:
    def test_indicator_alpha_one(self):
        f = build_corpus("indicator")
        entries = certify_lebesgue_suite(f, 1, 1.0, f_name="indicator")
        byname = {e.name: e for e in entries}
        lower = byname["v-lower-arm"]
        assert lower.lhs == pytest.approx(2.0, rel=0.02)
        assert lower.rhs >= 1.9
        assert lower.informative
        assert not failures(entries)

    def test_zero_function(self):
        f = GridFunction(((-8.0, 8.0),), np.zeros(4097))
        entries = certify_lebesgue_suite(f, 1, 0.5)
        for e in entries:
            assert e.lhs == 0.0 and e.rhs == 0.0 and e.passed

    def test_weierstrass_curve(self):
        f = build_corpus("weierstrass(0.5)")
        entries = certify_lebesgue_suite(f, 2, 0.5, f_name="weierstrass(0.5)")
        curve = [e for e in entries if e.name == "heat-smoothing-curve"][0]
        assert curve.passed
        assert curve.inputs["t_points"] == 64
        assert not failures(entries)

    def test_rejects_gaussian_tag(self):
        with pytest.raises(ValueError):
            certify_lebesgue_suite(build_corpus("hermite(1)"), 1, 0.5)

    def test_small_time_gradient_records_its_ratio_argmax(self):
        # the entry's lhs is the t^(alpha/2) ratio of heat-smoothing-curve,
        # so its t_star is that ratio's argmax; U peaks elsewhere (at its
        # only grid point, 1e-4, on a 4-point t grid)
        f = build_corpus("hat", shape=(1025,))
        t_grid = default_t_grid(4)
        byname = {e.name: e for e in certify_lebesgue_suite(
            f, 1, 1.0, t_grid=t_grid)}
        entry = byname["heat-small-time-gradient"]
        assert entry.lhs == byname["heat-smoothing-curve"].lhs
        ratio = [lp_norm(f.with_samples(f.samples - heat_apply(f, t).samples),
                         1) / math.sqrt(t) for t in t_grid]
        assert entry.inputs["t_star"] == t_grid[int(np.argmax(ratio))]
        assert entry.inputs["t_star"] != u_functional(f, 1, 1.0,
                                                      t_grid[::4])[1]

    def test_lower_arm_names_both_constructions(self):
        # the witness is the best of both constructions, and here the
        # semigroup-integral one wins
        entries = certify_lebesgue_suite(build_corpus("indicator"), 2, 0.5)
        lower = [e for e in entries if e.name == "v-lower-arm"][0]
        assert "segment-integral and semigroup-integral" in lower.paper_ref
        assert lower.inputs["witness"].startswith("semigroup-integral")

    def test_informative_direction_discipline(self):
        # the sup-vs-sup comparison is always flagged, never certified
        entries = certify_lebesgue_suite(build_corpus("hat"), 1, 0.5)
        byname = {e.name: e for e in entries}
        assert byname["u-le-v"].informative


@pytest.fixture(scope="module")
def linear_entries():
    return certify_gaussian_suite(build_corpus("hermite(1)"), [(2, 1.0)],
                                  f_name="hermite(1)")


class TestGaussianSuite:
    def test_poincare_linear(self, linear_entries):
        e = [x for x in linear_entries if x.name == "poincare"][0]
        assert e.lhs == pytest.approx(1.0, abs=1e-4)
        assert e.passed

    def test_transport_linear(self, linear_entries):
        e = [x for x in linear_entries
             if x.name == "transport-interpolation"][0]
        assert e.lhs == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-4)
        assert e.inputs["kantorovich"] == pytest.approx(1.0, abs=1e-5)
        assert e.passed

    def test_no_failures_linear(self, linear_entries):
        assert not failures(linear_entries)

    def test_hermite2_suite_p1(self):
        entries = certify_gaussian_suite(build_corpus("hermite(2)"),
                                         [(1, 0.5)], f_name="hermite(2)")
        assert not failures(entries)
        names = {e.name for e in entries}
        # q = infinity at p = 1: the evidence-only arm is dropped
        assert "u-le-v-gamma" not in names
        assert "transport-interpolation" in names

    def test_rejects_lebesgue_tag(self):
        with pytest.raises(ValueError):
            certify_gaussian_suite(build_corpus("bump"), [(2, 0.5)])

    def test_chain_bound_from_v_gamma_upper_bound(self):
        # both read U_gamma over the same sub-grid: all 4 t, or every
        # fourth of 20
        f = build_corpus("hermite(2)", shape=(1025,))
        for num in (4, 20):
            t_grid = default_t_grid(num)
            entries = certify_gaussian_suite(f, [(2, 0.5)], t_grid=t_grid)
            v_up, chain = v_gamma_upper_bound(f, 2, 0.5, t_grid)
            byname = {e.name: e for e in entries}
            assert byname["ou-approximation-curve"].inputs["v_upper"] == v_up
            assert byname["v-le-u-gamma"].rhs == \
                chain["constant"] * chain["u_value"]

    @pytest.mark.parametrize("p, alpha", [(2, 0.5), (1, 1.0)])
    def test_one_ou_sweep_per_grid_level(self, monkeypatch, p, alpha):
        # ou_step at each of the 4 grid t on f and coarsen(f) gives every
        # difference norm and U_gamma (8 axis passes); the six semigroup
        # witnesses make the other 12
        calls = []

        def counting(*args, _fn=ou._ou_axis_average):
            calls.append(args[1:])
            return _fn(*args)

        monkeypatch.setattr(ou, "_ou_axis_average", counting)
        f = build_corpus("hermite(2)", shape=(129,))
        certify_gaussian_suite(f, [(p, alpha)], t_grid=default_t_grid(4))
        assert len(calls) == 20

    def test_one_ou_sweep_for_every_pair(self, monkeypatch):
        # the 8 sweep passes and the witnesses' six S_t f serve both pairs;
        # each pair adds only its six T_t phi: 8 + 6 + 2 * 6 = 26, where
        # one call per pair makes 2 * 20 = 40
        calls = []

        def counting(*args, _fn=ou._ou_axis_average):
            calls.append(args[1:])
            return _fn(*args)

        monkeypatch.setattr(ou, "_ou_axis_average", counting)
        f = build_corpus("hermite(2)", shape=(129,))
        certify_gaussian_suite(f, [(1, 1.0), (2, 0.5)],
                               t_grid=default_t_grid(4))
        assert len(calls) == 26

    def test_one_target_sweep_for_every_pair(self, monkeypatch):
        # hermite(0) has nonzero mean, so its transport target is centered:
        # one sweep of grad T_t on the centered function and its coarsening
        # (8 passes) serves both pairs, where one sweep per pair makes 16;
        # with the 8 main sweep passes, the witnesses' six S_t f and each
        # pair's six T_t phi: 8 + 8 + 6 + 2 * 6 = 34
        calls = []

        def counting(*args, _fn=ou._ou_axis_average):
            calls.append(args[1:])
            return _fn(*args)

        monkeypatch.setattr(ou, "_ou_axis_average", counting)
        f = build_corpus("hermite(0)", shape=(129,))
        certify_gaussian_suite(f, [(1, 1.0), (2, 0.5)],
                               t_grid=default_t_grid(4))
        assert len(calls) == 34

    @pytest.mark.parametrize("name", ["hermite(0)", "hermite(3)"])
    def test_pairs_in_one_call_match_one_call_each(self, name):
        # the shared orbit repeats the same arithmetic, so every entry is
        # bit-identical to the one-pair call's, in the order of the pairs;
        # hermite(0) takes the centered transport target
        f = build_corpus(name, shape=(129,))
        pairs = [(1, 1.0), (2, 0.5), (1, 1.0)]
        t_grid = default_t_grid(4)
        together = certify_gaussian_suite(f, pairs, t_grid=t_grid)
        apart = [e for pair in pairs
                 for e in certify_gaussian_suite(f, [pair], t_grid=t_grid)]
        assert [e.to_dict() for e in together] == \
            [e.to_dict() for e in apart]

    def test_transport_slack_is_the_p1_chain_slack(self):
        # the transport entry bounds V by the chain at p = 1, so its slack is
        # the grid-doubling slack of U_gamma at p = 1, not at the suite's p
        f = build_corpus("hermite(3)", shape=(1025,))
        t_grid = default_t_grid(4)
        entries = certify_gaussian_suite(f, [(2, 0.5)], t_grid=t_grid)
        e = [x for x in entries if x.name == "transport-interpolation"][0]
        u1 = u_gamma_functional(f, 1, 0.5, t_grid)[0]
        u1_c = u_gamma_functional(coarsen(f), 1, 0.5, t_grid)[0]
        assert e.slack == slack_from_pair(u1, u1_c)[0]
        assert e.slack == pytest.approx(1.2208e-4, rel=1e-3)

    @pytest.mark.parametrize("n, p, samples", [
        (65, 1, lambda x: hermite_matrix(4, x)[1] + hermite_matrix(4, x)[4]),
        (33, 2, lambda x: np.maximum(x, 0.0)),
    ], ids=["h1+h4", "relu"])
    def test_small_time_slack_from_its_own_ratio(self, n, p, samples):
        # the t^(alpha/2) ratio and the c_t^alpha ratio of the approximation
        # curve peak at different t here (0.3 and 30), so their grid-doubling
        # pairs differ; the small-time entry takes the slack and the
        # informative flag of its own ratio, like heat-small-time-gradient
        x = np.linspace(-8.0, 8.0, n)
        f = GridFunction(((-8.0, 8.0),), samples(x), GAUSSIAN)
        t_grid = np.array([0.3, 30.0])
        entries = certify_gaussian_suite(f, [(p, 1.0)], t_grid=t_grid)
        byname = {e.name: e for e in entries}
        chain = byname["v-le-u-gamma"]
        pairs = {}
        for label, weights in (("t", np.sqrt(t_grid)),
                               ("ct", ct_closed_form(t_grid))):
            ratios = []
            for g in (f, coarsen(f)):
                diffs = [lp_norm(g.with_samples(g.samples
                                                - ou_apply(g, t).samples), p)
                         for t in t_grid]
                ratios.append(np.max(np.array(diffs) / weights))
            pairs[label] = slack_from_pair(*ratios)
        assert pairs["t"] != pairs["ct"]
        e = byname["ou-small-time-gradient"]
        assert e.slack == pytest.approx(max(chain.slack, pairs["t"][0]),
                                        rel=1e-12)
        assert e.slack != pytest.approx(max(chain.slack, pairs["ct"][0]),
                                        rel=1e-6)
        assert e.informative == (chain.informative or pairs["t"][1])

    def test_constant_centers_to_zero(self):
        # the box holds 1 - 1.2e-15 of the Gaussian mass; centering under the
        # grid measure normalized to mass one maps a constant to exactly
        # zero, so the transport entry certifies 0 <= 0 instead of comparing
        # a 1.2e-15 residue with a 1e-23 bound
        f = build_corpus("hermite(0)", shape=(1025,))
        for p in (1, 2):
            entries = certify_gaussian_suite(f, [(p, 0.5)],
                                             t_grid=default_t_grid(4))
            byname = {e.name: e for e in entries}
            assert byname["poincare"].lhs == 0.0
            transport = byname["transport-interpolation"]
            assert transport.lhs == 0.0 and transport.passed

    def test_zero_mean_rule_shared_with_kantorovich(self):
        # midpoint mean 0, trapezoid mean -3.9e-8: the suite does not
        # center this input, so the Kantorovich gate must accept it too
        f = _spike_pair()
        assert abs(integrate(f)) <= 1e-8
        assert kantorovich_norm_1d(f) > 0.0
        entries = certify_gaussian_suite(f, [(2, 0.5)],
                                         t_grid=default_t_grid(4))
        e = [x for x in entries if x.name == "transport-interpolation"][0]
        assert not e.inputs["centered"]

    def test_kantorovich_of_spike_pair_is_the_dipole_cost(self):
        # the midpoint running integral returns to 0 after the pair, so the
        # value is the dipole's own cost dx^2 w_0 = 1.23e-9; a trapezoid
        # running integral drifts by its -3.9e-8 mean to the right end
        f = _spike_pair()
        w0 = f.samples[0] * gaussian_density(f)[0]
        assert kantorovich_norm_1d(f) <= 2e-9
        assert kantorovich_norm_1d(f) == pytest.approx(f.dx[0] ** 2 * w0,
                                                       rel=1e-6)


class TestProjectionSuite:
    def test_y_independent(self):
        f = build_corpus("x2d", shape=(257, 257))
        entries = certify_projection_suite(f, 2, 1.0, f_name="x2d")
        mono = [e for e in entries if e.name == "projection-monotonicity"][0]
        assert mono.lhs == pytest.approx(1.0, rel=0.01)
        assert not failures(entries)

    def test_odd_product(self):
        f = build_corpus("xy2d", shape=(257, 257))
        entries = certify_projection_suite(f, 2, 0.5, f_name="xy2d")
        mono = [e for e in entries if e.name == "projection-monotonicity"][0]
        assert mono.lhs <= 1e-6
        assert not failures(entries)

    def test_commutation_residuals(self):
        f = build_corpus("xplusysq2d", shape=(257, 257))
        entries = certify_projection_suite(f, 2, 0.5, f_name="xplusysq2d")
        residuals = [e for e in entries if e.name == "projection-commutation"]
        assert len(residuals) == 2
        for e in residuals:
            assert e.lhs <= 1e-6 and e.passed

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            certify_projection_suite(build_corpus("hermite(1)"), 2, 0.5)


#: t grids every entry point rejects; of the last one, every fourth point
#: is increasing, which is all a 20-point U sub-grid reads
BAD_T_GRIDS = {
    "empty": [],
    "scalar": 0.5,
    "two-d": [[0.1, 1.0], [2.0, 3.0]],
    "zero": [0.0, 1.0],
    "nan": [0.1, math.nan, 1.0],
    "second-below-first": [0.5, 0.1, 1.0, 2.0, 3.0],
    "increasing-every-fourth": [0.5, 0.1, *range(1, 20)],
}


class TestTGrid:
    @pytest.mark.parametrize("t_grid", BAD_T_GRIDS.values(),
                             ids=BAD_T_GRIDS.keys())
    @pytest.mark.parametrize("call", [
        lambda ts: certify_lebesgue_suite(build_corpus("hat", shape=(257,)),
                                          1, 1.0, t_grid=ts),
        lambda ts: certify_gaussian_suite(
            build_corpus("hermite(1)", shape=(129,)), [(1, 1.0)], t_grid=ts),
        lambda ts: certify_projection_suite(
            build_corpus("x2d", shape=(17, 17)), 1, 1.0, t_grid=ts),
        lambda ts: u_functional(build_corpus("hat", shape=(257,)), 1, 1.0,
                                ts),
        lambda ts: u_gamma_functional(
            build_corpus("hermite(1)", shape=(129,)), 1, 1.0, ts),
    ], ids=["lebesgue", "gaussian", "projection", "u", "u-gamma"])
    def test_rejected(self, call, t_grid):
        with pytest.raises(ValueError, match="t_grid must be|t must be"):
            call(t_grid)

    def test_u_gamma_sub_grid(self):
        assert _u_gamma_grid(list(range(16))) == list(range(16))
        assert _u_gamma_grid(list(range(17))) == [0, 4, 8, 12, 16]

    def test_gaussian_suite_rejects_2d(self):
        with pytest.raises(ValueError, match="certify_projection_suite"):
            certify_gaussian_suite(build_corpus("x2d", shape=(17, 17)),
                                   [(2, 0.5)])

    def test_projection_suite_reads_its_grid(self):
        # at alpha = 1/2 U_gamma peaks inside the grid, so the grid shows
        f = build_corpus("x2d", shape=(33, 33))
        u_value = {num: next(e for e in certify_projection_suite(
            f, 2, 0.5, t_grid=default_t_grid(num))
            if e.name == "projection-monotonicity").inputs["u_value"]
            for num in (8, 16)}
        assert u_value[8] == v_gamma_upper_bound(
            f, 2, 0.5, default_t_grid(8))[1]["u_value"]
        assert u_value[16] == v_gamma_upper_bound(f, 2, 0.5, None)[1][
            "u_value"]
        assert u_value[8] != u_value[16]


class TestEmbedding:
    def test_constant_formula(self):
        alpha = 0.5
        g = math.gamma(alpha / 2.0)
        expect = (2.0 / alpha) / g + 2.0 / ((1.0 - alpha) * g)
        assert embedding_constant(alpha) == pytest.approx(expect, rel=1e-12)

    def test_h1_alpha_half(self):
        c = hermite_transform(build_corpus("hermite(1)"))
        e = certify_embedding_p2(c, 0.5, f_name="hermite(1)")
        assert e.rhs == pytest.approx(embedding_constant(0.5) * 2.0 ** 0.25,
                                      rel=1e-4)
        assert e.passed

    def test_h0_trivial(self):
        c = hermite_transform(build_corpus("hermite(0)"))
        e = certify_embedding_p2(c, 0.5, f_name="hermite(0)")
        assert e.lhs <= 1e-4 and e.passed

    def test_h4_alpha_quarter(self):
        c = hermite_transform(build_corpus("hermite(4)"))
        e = certify_embedding_p2(c, 0.25, f_name="hermite(4)")
        assert e.passed and e.margin > 0

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            embedding_constant(1.0)


class TestGaussianFieldBounds:
    # smoothing bounds for the semigroup acting on fields and gradients

    def test_divergence_field_bound(self):
        from besovlab.grid import divergence_gamma, field_lq_norm
        f = build_corpus("hermite(0)")
        # a fixed Hermite field of degree <= 4
        h = hermite_matrix(4, f.axes()[0])
        phi = VectorFieldGrid((f.with_samples(
            0.6 * h[1] - 0.3 * h[2] + 0.15 * h[3] + 0.1 * h[4]),))
        for t in (0.1, 1.0):
            # the OU semigroup componentwise on the field
            smoothed = VectorFieldGrid(tuple(ou_apply(c, t)
                                             for c in phi.components))
            for p in (1, 2):
                lhs = lp_norm(divergence_gamma(smoothed), p)
                rhs = (cp_closed_form(p)
                       / math.sqrt(1.0 - math.exp(-2.0 * t))
                       * field_lq_norm(phi, p))
                assert lhs <= rhs * 1.05, (t, p)

    def test_gradient_bound(self):
        f = build_corpus("hermite(3)")
        for t in (0.1, 1.0):
            for q in (2, np.inf):
                dual = 1.0 if q == np.inf else q / (q - 1.0)
                lhs = lp_norm(ou_gradient(f, t).components[0], q)
                rhs = (cp_closed_form(dual) * math.exp(-t)
                       / math.sqrt(1.0 - math.exp(-2.0 * t))
                       * lp_norm(f, q))
                assert lhs <= rhs * 1.05, (t, q)


class TestReporting:
    def test_json_deterministic(self):
        f = build_corpus("indicator")
        a = entries_to_json(certify_lebesgue_suite(f, 1, 1.0),
                            config={"p": 1, "alpha": 1.0})
        b = entries_to_json(certify_lebesgue_suite(f, 1, 1.0),
                            config={"p": 1, "alpha": 1.0})
        assert a == b

    def test_json_structure(self):
        import json
        f = build_corpus("hat")
        text = entries_to_json(certify_lebesgue_suite(f, 1, 0.5))
        payload = json.loads(text)
        assert "library_version" in payload
        names = [e["name"] for e in payload["entries"]]
        assert names == sorted(names)
        for e in payload["entries"]:
            assert set(e) == {"name", "paper_ref", "lhs", "rhs", "slack",
                              "margin", "pass", "informative", "inputs"}

    def test_failures_filter(self):
        good = make_entry("g", "s", 0.0, 1.0, 0.0, {})
        bad = make_entry("b", "s", 2.0, 1.0, 0.0, {})
        info = make_entry("i", "s", 2.0, 1.0, 0.0, {}, informative=True)
        assert failures([good, bad, info]) == [bad]
