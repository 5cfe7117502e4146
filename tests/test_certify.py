import math

import numpy as np
import pytest

from besovlab.corpus import build_corpus
from besovlab.certify import (
    CertificateEntry,
    certify_embedding_p2,
    certify_gaussian_suite,
    certify_lebesgue_suite,
    certify_projection_suite,
    embedding_constant,
    entries_to_json,
    failures,
    make_entry,
    slack_from_pair,
)
from besovlab.grid import GridFunction, VectorFieldGrid, lp_norm
from besovlab.ou import (
    cp_closed_form,
    hermite_matrix,
    hermite_transform,
    ou_field,
    ou_gradient,
)


class TestEntryMechanics:
    def test_pass_iff_margin_nonnegative(self):
        e = make_entry("a", "stmt", lhs=1.0, rhs=1.0, slack=0.01, inputs={})
        assert e.passed and e.margin == pytest.approx(0.01)
        e = make_entry("a", "stmt", lhs=1.2, rhs=1.0, slack=0.01, inputs={})
        assert not e.passed

    def test_negative_sides_rejected(self):
        with pytest.raises(ValueError):
            CertificateEntry("a", "s", -1.0, 0.0, 0.0, 1.0, True, False, {})

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

    def test_informative_direction_discipline(self):
        # the sup-vs-sup comparison is always flagged, never certified
        entries = certify_lebesgue_suite(build_corpus("hat"), 1, 0.5)
        byname = {e.name: e for e in entries}
        assert byname["u-le-v"].informative


@pytest.fixture(scope="module")
def linear_entries():
    return certify_gaussian_suite(build_corpus("hermite(1)"), 2, 1.0,
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
        entries = certify_gaussian_suite(build_corpus("hermite(2)"), 1, 0.5,
                                         f_name="hermite(2)")
        assert not failures(entries)
        names = {e.name for e in entries}
        # q = infinity at p = 1: the evidence-only arm is dropped
        assert "u-le-v-gamma" not in names
        assert "transport-interpolation" in names

    def test_rejects_lebesgue_tag(self):
        with pytest.raises(ValueError):
            certify_gaussian_suite(build_corpus("bump"), 2, 0.5)


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
            for p in (1, 2):
                lhs = lp_norm(divergence_gamma(ou_field(phi, t)), p)
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
