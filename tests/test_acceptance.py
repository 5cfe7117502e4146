"""Acceptance gate: one test per certified claim, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test states its tolerance inline; nothing here is
weakened to accommodate the implementation.
"""

import math
import time

import numpy as np
import pytest

from besovlab.certify import (
    certify_gaussian_suite,
    certify_projection_suite,
    failures,
)
from besovlab.cli import main
from besovlab.corpus import (
    GAUSSIAN_CORPUS_1D,
    LEBESGUE_CORPUS_1D,
    LEBESGUE_CORPUS_2D,
    build_corpus,
)
from besovlab.counterexample import (
    CounterexampleSpec,
    build_counterexample,
    directional_bound_scan,
    max_resolved_index,
    slice_blowup_profile,
)
from besovlab.grid import Direction, GridFunction, lp_norm
from besovlab.heat import heat_apply
from besovlab.measures import (
    chaining_check,
    conditional_slices,
    holder_profile,
    measure_from_density,
    tv_distance,
)
from besovlab.ou import (
    abs_moment,
    cp_closed_form,
    cp_quadrature,
    ct_closed_form,
    ct_quadrature,
    heat_upper_constant,
    hermite_matrix,
    ou_apply,
)
from besovlab.seminorms import (
    besov_seminorm,
    default_shift_magnitudes,
    kantorovich_norm_1d,
    psi_witness,
    v_lower_bound,
)

WIDE_BOUNDS = ((-16.0, 16.0),)
WIDE_SHAPE = (16385,)


def test_criterion_01_heat_closed_form():
    # unit Gaussian bump smoothed for time t has variance 1 + t; relative
    # error <= 1e-6 on the interior, under one second at n = 4097
    x = np.linspace(-8.0, 8.0, 4097)
    f = GridFunction(((-8.0, 8.0),), np.exp(-x * x / 2.0))
    start = time.perf_counter()
    for t in (0.1, 1.0):
        got = heat_apply(f, t)
        expect = np.exp(-x * x / (2.0 * (1.0 + t))) / math.sqrt(1.0 + t)
        interior = np.abs(x) <= 4.0
        rel = np.max(np.abs(got.samples[interior] - expect[interior])
                     / expect[interior])
        assert rel <= 1e-6, f"t={t}: relative error {rel:.3e}"
    assert time.perf_counter() - start < 1.0


def test_criterion_02_indicator_seminorm():
    est = besov_seminorm(build_corpus("indicator"), 1, 1.0)
    assert est.value == pytest.approx(2.0, rel=0.02)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_criterion_03_constructive_lower_arm(alpha):
    # the segment-integral witness realizes the lower arm within 5%
    f = build_corpus("indicator")
    est = besov_seminorm(f, 1, alpha)
    best = max(psi_witness(f, h, 0, 1, alpha).quotient
               for h in default_shift_magnitudes(f, 12))
    assert best >= 2.0 ** (alpha - 1.0) * est.value * 0.95


def test_criterion_04_upper_arm_full_corpus():
    # every witness quotient stays below the dimension constant times the
    # grid seminorm, with 5% slack; zero violations over the corpus
    violations = []
    for names, dim in ((LEBESGUE_CORPUS_1D, 1), (LEBESGUE_CORPUS_2D, 2)):
        for name in names:
            f = build_corpus(name)
            for p in (1.0, 2.0):
                for alpha in (0.5, 1.0):
                    witness = v_lower_bound(f, p, alpha).quotient
                    bound = (heat_upper_constant(dim, alpha)
                             * besov_seminorm(f, p, alpha).value)
                    if witness > bound * 1.05:
                        violations.append((name, p, alpha, witness, bound))
    assert not violations


def test_criterion_05_heat_smoothing_curve():
    # || f - P_t f ||_p <= c * seminorm * t^(alpha/2) at all 64 grid t
    t_grid = np.geomspace(1e-4, 1e2, 64)
    cases = [(name, 1) for name in LEBESGUE_CORPUS_1D] + \
            [(name, 2) for name in LEBESGUE_CORPUS_2D]
    for name, dim in cases:
        f = build_corpus(name)
        for p, alpha in ((1.0, 1.0), (2.0, 0.5)):
            rhs_const = abs_moment(alpha, dim) * \
                besov_seminorm(f, p, alpha).value
            for t in t_grid:
                diff = f.with_samples(heat_apply(f, t).samples - f.samples)
                lhs = lp_norm(diff, p)
                assert lhs <= rhs_const * t ** (alpha / 2.0) * 1.05, \
                    (name, p, alpha, t)


def test_criterion_06_gaussian_constants():
    assert abs(cp_closed_form(2.0) - 1.0) <= 1e-10
    assert abs(cp_closed_form(1.0) - math.sqrt(2.0 / math.pi)) <= 1e-10
    for p in (1.0, 2.0):
        assert abs(cp_closed_form(p) - cp_quadrature(p)) <= 1e-10
    for t in (0.05, 0.3, 1.0, 4.0):
        assert abs(ct_closed_form(t) - ct_quadrature(t)) <= 1e-10
    t_grid = np.linspace(1e-6, 50.0, 1000)
    assert np.all([ct_closed_form(t) <= math.sqrt(2.0 * t)
                   for t in t_grid])
    assert abs(ct_closed_form(20.0) - math.pi / 2.0) <= 1e-6


def test_criterion_07_ou_spectral_agreement():
    # quadrature semigroup vs the exact eigenvalue multiplier, 1e-8 in
    # L2(gamma) relative to the unit-norm input, at interior nodes of a
    # wide grid that keeps box truncation below the tolerance
    x = np.linspace(*WIDE_BOUNDS[0], WIDE_SHAPE[0])
    h = hermite_matrix(12, x)
    for degree in range(13):
        f = GridFunction(WIDE_BOUNDS, h[degree], "gaussian")
        for t in (0.1, 1.0, 3.0):
            got = ou_apply(f, t)
            expect = math.exp(-degree * t) * h[degree]
            err = lp_norm(f.with_samples(got.samples - expect), 2)
            assert err <= 1e-8, (degree, t, err)


def test_criterion_08_gaussian_poincare():
    # linear instance: lhs 1 against pi/2 times the witness V (true V = 1)
    f = build_corpus("hermite(1)")
    witness_v = v_lower_bound(f, 2, 1.0).quotient
    lhs = lp_norm(f, 2)
    rhs = 2.0 ** (1.0 - 2.0) * math.pi * cp_closed_form(2.0) * witness_v
    assert lhs == pytest.approx(1.0, abs=1e-6)
    assert rhs == pytest.approx(math.pi / 2.0, rel=0.05)
    assert lhs <= rhs, f"margin {rhs - lhs:.4f}"
    # full corpus through the theorem-chain V upper bounds
    for name in GAUSSIAN_CORPUS_1D:
        entries = certify_gaussian_suite(build_corpus(name),
                                         [(2.0, 0.5), (2.0, 1.0)],
                                         f_name=name)
        bad = [(e.inputs["p"], e.inputs["alpha"], e.name)
               for e in failures(entries)]
        assert not bad, (name, bad)


def test_criterion_09_transport_interpolation():
    # linear function: sqrt(2/pi) <= 3 * V^(1/2) * K^(1/2) with V = K = 1
    f = build_corpus("hermite(1)")
    lhs = lp_norm(f, 1)
    k = kantorovich_norm_1d(f)
    assert lhs == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-4)
    assert k == pytest.approx(1.0, abs=1e-5)
    assert lhs <= 3.0 * 1.0 * math.sqrt(k)
    entries = certify_gaussian_suite(build_corpus("hermite(2)"),
                                     [(1, 0.5), (1, 1.0)],
                                     f_name="hermite(2)")
    for alpha in (0.5, 1.0):
        transport = [e for e in entries
                     if e.name == "transport-interpolation"
                     and e.inputs["alpha"] == alpha]
        assert transport and transport[0].passed, (1, alpha)


def test_criterion_10_projection_suite():
    for name in ("x2d", "xy2d", "xplusysq2d"):
        f = build_corpus(name, shape=(257, 257))
        entries = certify_projection_suite(f, 2, 0.5, f_name=name)
        commutation = [e for e in entries
                       if e.name == "projection-commutation"]
        assert len(commutation) == 2
        for e in commutation:
            assert e.lhs <= 1e-6, (name, e.inputs)
        mono = [e for e in entries
                if e.name == "projection-monotonicity"][0]
        assert mono.margin >= 0.0, name
        assert not failures(entries), name


def test_criterion_11_counterexample_dichotomy():
    start = time.perf_counter()
    spec = CounterexampleSpec(0.5, 10000)
    # directional quotients stay flat across truncations (default grid)
    rows = directional_bound_scan(spec, [1000, 10000])
    (_, q3, _), (_, q4, _) = rows
    assert abs(q4 - q3) <= 0.10 * q3
    # slice profiles on a grid resolving every index up to the truncation
    shape = (80001, 201)
    f3, _ = build_counterexample(CounterexampleSpec(0.5, 1000), shape=shape)
    f4, _ = build_counterexample(spec, shape=shape)
    ys = (np.arange(100) + 0.5) / 100.0
    increases = 0
    for y in ys:
        v3, _ = slice_blowup_profile(f3, float(y), 0.5)
        v4, k4 = slice_blowup_profile(f4, float(y), 0.5)
        if v4 > v3:
            increases += 1
        resolved = [k for k in spec.covering_indices(float(y))
                    if k <= max_resolved_index(f4)]
        if resolved:
            k_star = max(resolved)
            assert v4 == pytest.approx(
                math.pi * math.sqrt(math.log(k_star)), rel=0.02), y
    assert time.perf_counter() - start < 300.0
    # the growth clause: new coverage between N = 1000 and N = 10000 has
    # total interval length ~ ln ln 10^4 - ln ln 10^3 = 0.29, so only about
    # a third of the y samples can gain a covering interval; the required
    # count is not reachable by any faithful computation of this profile
    assert increases >= 90, (
        f"only {increases}/100 sampled y increased; the deterministic "
        "placements add ~0.29 of total interval length between the two "
        "truncations, so ~29 increases is the expected ceiling")


def test_criterion_12_measure_module():
    from scipy.stats import norm
    x = np.linspace(-8.0, 8.0, 4097)
    mu = measure_from_density(GridFunction(((-8.0, 8.0),), norm.pdf(x)))
    for t in (0.5, 1.0):
        nu = measure_from_density(
            GridFunction(((-8.0, 8.0),), norm.pdf(x - t)))
        oracle = 2.0 * (2.0 * norm.cdf(t / 2.0) - 1.0)
        assert abs(tv_distance(mu, nu) - oracle) <= 1e-4
    _, fit = holder_profile(mu, Direction((1.0,)))
    assert fit.exponent == pytest.approx(1.0, abs=0.02)
    small = tuple(np.geomspace(4.0 * mu.dx[0], 0.05, 16))
    _, small_fit = holder_profile(mu, Direction((1.0,)), t_grid=small)
    assert small_fit.constant == pytest.approx(math.sqrt(2.0 / math.pi),
                                               rel=0.01)
    # chaining with the exact dyadic constant on both measure families
    xg = np.linspace(-8.0, 8.0, 257)
    product = measure_from_density(GridFunction(
        ((-8.0, 8.0), (-8.0, 8.0)), np.outer(norm.pdf(xg), norm.pdf(xg))))
    spec = CounterexampleSpec(0.5, 500)
    f, _ = build_counterexample(spec, shape=(513, 257))
    ce = measure_from_density(f.with_samples(1.0 + 0.2 * f.samples))
    for measure in (product, ce):
        slices, _ = conditional_slices(measure, axis=1)
        sub = [slices[j] for j in range(20, 240, 40)]
        for beta in (0.25, 0.4):
            report = chaining_check(sub, beta, depth=5)
            assert report["pass"], beta
            for row in report["rows"]:
                expect = max(2.0,
                             row["C"] / (1.0 - 2.0 ** (-beta)))
                assert row["bound_constant"] == pytest.approx(expect,
                                                              rel=1e-12)


def test_criterion_13_certify_determinism(tmp_path, monkeypatch):
    # two identical default-corpus runs: exit 0, >= 40 entries, same bytes
    import json
    outputs = []
    for sub in ("a", "b"):
        target = tmp_path / sub
        monkeypatch.setenv("BESOVLAB_OUTPUT_DIR", str(target))
        assert main(["certify"]) == 0
        outputs.append((target / "certificates.json").read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert len(payload["entries"]) >= 40
