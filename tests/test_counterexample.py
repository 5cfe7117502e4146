import math

import numpy as np
import pytest

from besovlab.counterexample import (
    X_PERIOD,
    CounterexampleSpec,
    build_counterexample,
    default_phi_family,
    directional_bound_scan,
    energy_oracle,
    interval_length,
    max_resolved_index,
    reconstruct_slice,
    slice_blowup_profile,
    slice_coefficients,
    tail_energy,
)
from besovlab.grid import Direction, along, write_csv
from besovlab.seminorms import v_quotient

#: the scan's directional form: p = 1 quotient of fields along the x axis
X_AXIS = Direction((1.0, 0.0))
from besovlab.grid import LEBESGUE, lp_norm


def covers(spec, k, y):
    """Whether y (an array of values in [0, 1)) lies in the wrapped interval
    J_k, one k at a time."""
    left = spec.left_endpoint(k)
    end = left + interval_length(k)
    if end <= 1.0:
        return (y >= left) & (y < end)
    return (y >= left) | (y < end % 1.0)


def loop_reference(spec, shape):
    """The truncated sum accumulated one k at a time from sin(kx)."""
    x = np.linspace(0.0, X_PERIOD, shape[0])
    y = np.linspace(0.0, 1.0, shape[1]) % 1.0
    samples = np.zeros(shape)
    for k in range(spec.k_start, spec.n_terms + 1):
        cols = np.nonzero(covers(spec, k, y))[0]
        samples[:, cols] += spec.amplitude(k) * np.sin(k * x)[:, None]
    return samples


class TestSpec:
    def test_placements_are_partial_sums_mod_one(self):
        # the running sum in k order, equal to a scalar loop bit for bit
        spec = CounterexampleSpec(0.5, 10000)
        acc = 0.0
        for k in range(2, 10001):
            assert spec.left_endpoint(k) == acc % 1.0
            acc += interval_length(k)

    def test_covering_indices_match_brute_force(self):
        spec = CounterexampleSpec(0.5, 3000)
        ks = range(spec.k_start, spec.n_terms + 1)
        # grid nodes, the ends of J_k (y equal to a placement), and y
        # outside [0, 1)
        ys = list(np.linspace(0.0, 1.0, 101)) + [1.0, -0.25, 1.37]
        ys += [spec.left_endpoint(k) for k in ks[::37]]
        ys += [(spec.left_endpoint(k) + interval_length(k)) % 1.0
               for k in ks[::41]]
        table = np.array([covers(spec, k, np.array(ys) % 1.0) for k in ks])
        for y, column in zip(ys, table.T):
            assert spec.covering_indices(y) == np.array(ks)[column].tolist()

    def test_interval_length(self):
        assert interval_length(2) == pytest.approx(1.0 / (2.0 * math.log(2.0)))

    def test_coverage_sum_monotone_in_truncation(self):
        values = [CounterexampleSpec(0.5, n).coverage_sum()
                  for n in (10, 100, 1000)]
        assert values[0] < values[1] < values[2]

    def test_k_start_below_two_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleSpec(0.5, 10, k_start=1)

    def test_n_terms_below_k_start_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleSpec(0.5, 2, k_start=3)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleSpec(1.0, 10)

    def test_deterministic(self):
        a = CounterexampleSpec(0.5, 200)
        b = CounterexampleSpec(0.5, 200)
        assert a == b
        assert [a.left_endpoint(k) for k in range(2, 201)] == \
            [b.left_endpoint(k) for k in range(2, 201)]


class TestBuild:
    def test_single_term(self):
        # N = k_start = 2: one slab carrying 2^(-alpha) sqrt(ln 2) sin(2x)
        spec = CounterexampleSpec(0.5, 2)
        f, _ = build_counterexample(spec, shape=(257, 257))
        x, y = f.meshgrid()
        # y is circular, so the node at 1.0 is the same point as 0.0
        expect = np.where(y % 1.0 < interval_length(2),
                          spec.amplitude(2) * np.sin(2.0 * x), 0.0)
        assert np.max(np.abs(f.samples - expect)) <= 1e-12
        assert f.measure == LEBESGUE

    @pytest.mark.parametrize("n_terms, shape", [
        (1000, (257, 257)),  # N > n_x - 1: the indices fold
        (300, (128, 65)),  # odd M = n_x - 1
        (300, (129, 65)),  # even M, with the Nyquist mode
    ], ids=["257x257", "odd-M", "even-M"])
    def test_matches_the_per_k_loop(self, n_terms, shape):
        spec = CounterexampleSpec(0.5, n_terms)
        assert any(spec.left_endpoint(k) + interval_length(k) > 1.0
                   for k in range(2, n_terms + 1))  # some J_k wraps
        f, _ = build_counterexample(spec, shape=shape)
        expect = loop_reference(spec, shape)
        assert np.max(np.abs(f.samples - expect)) <= 1e-12
        assert np.array_equal(np.any(f.samples != 0.0, axis=0),
                              np.any(expect != 0.0, axis=0))
        # y = 1 is the point y = 0 of the circle
        assert np.array_equal(f.samples[:, -1], f.samples[:, 0])

    def test_energy_oracle(self):
        spec = CounterexampleSpec(0.5, 10000)
        f, _ = build_counterexample(spec)
        assert lp_norm(f, 2) ** 2 == pytest.approx(energy_oracle(spec),
                                                   rel=0.01)

    def test_tail_energy_below_truncated_energy(self):
        spec = CounterexampleSpec(0.5, 10000)
        tail = tail_energy(spec)
        assert 0.0 < tail < 1e-3 * energy_oracle(spec)

    def test_full_coverage_at_ten_thousand_terms(self):
        # every y-grid node lies in at least 3 of the placed intervals
        spec = CounterexampleSpec(0.5, 10000)
        f, _ = build_counterexample(spec)
        y = f.axes()[1]
        counts = np.zeros(y.size, dtype=int)
        for k in range(2, spec.n_terms + 1):
            covered = [spec.left_endpoint(k) <= yy % 1.0
                       < (spec.left_endpoint(k) + interval_length(k))
                       or yy % 1.0 < (spec.left_endpoint(k)
                                      + interval_length(k)) - 1.0
                       for yy in y]
            counts += np.asarray(covered, dtype=int)
        assert counts.min() >= 3


class TestSliceCoefficients:
    def test_covered_oracle(self):
        spec = CounterexampleSpec(0.5, 10000)
        f, _ = build_counterexample(spec)
        y = 0.37
        coeffs = slice_coefficients(f, y)
        hits = 0
        for k in spec.covering_indices(y):
            if k <= max_resolved_index(f):
                oracle = math.pi * spec.amplitude(k)
                assert coeffs[k - 1] == pytest.approx(oracle, rel=0.01)
                hits += 1
        assert hits >= 1

    def test_uncovered_noise(self):
        spec = CounterexampleSpec(0.5, 200)
        f, _ = build_counterexample(spec)
        y = 0.37
        covering = set(spec.covering_indices(y))
        coeffs = slice_coefficients(f, y)
        quiet = [abs(a) for k, a in enumerate(coeffs, start=1)
                 if k not in covering]
        assert max(quiet) <= 1e-10

    def test_truncation_orthogonality(self):
        # indices above the truncation only see quadrature noise
        spec = CounterexampleSpec(0.5, 20)
        f, _ = build_counterexample(spec)
        coeffs = slice_coefficients(f, 0.1, k_max=60)
        assert np.max(np.abs(coeffs[20:])) <= 1e-10

    def test_frequency_budget_enforced(self):
        f, _ = build_counterexample(CounterexampleSpec(0.5, 20),
                                    shape=(257, 257))
        with pytest.raises(ValueError):
            slice_coefficients(f, 0.5, k_max=64)

    def test_reconstruction(self):
        # all indices resolved, so the sine coefficients determine the slice
        spec = CounterexampleSpec(0.5, 50)
        f, _ = build_counterexample(spec)
        y = f.axes()[1][77]
        coeffs = slice_coefficients(f, y, k_max=60)
        rebuilt = reconstruct_slice(coeffs, f.shape[0])
        col = f.samples[:, 77]
        norm = math.sqrt(np.trapezoid(col ** 2, dx=f.dx[0]))
        err = math.sqrt(np.trapezoid((rebuilt - col) ** 2, dx=f.dx[0]))
        assert err <= 0.01 * norm


class TestBlowupProfile:
    def test_covered_value(self):
        spec = CounterexampleSpec(0.5, 10000)
        f, _ = build_counterexample(spec)
        y = 0.37
        resolved = [k for k in spec.covering_indices(y)
                    if k <= max_resolved_index(f)]
        value, argmax = slice_blowup_profile(f, y, 0.5)
        k_star = max(resolved)
        assert argmax == k_star
        assert value == pytest.approx(math.pi * math.sqrt(math.log(k_star)),
                                      rel=0.02)

    def test_uncovered_near_zero(self):
        # with the single interval J_2 the band above it stays empty
        spec = CounterexampleSpec(0.5, 2)
        f, _ = build_counterexample(spec)
        assert not spec.covering_indices(0.9)
        value, _ = slice_blowup_profile(f, 0.9, 0.5)
        assert value <= 1e-8

    def test_growth_along_truncations(self):
        # tall grid resolving every index: the maximum grows whenever a new
        # interval covers y, which happens for roughly a third of the y
        # between N = 1000 and N = 10000 (total placed length grows like
        # ln ln N, so most sampled y see no new interval in that window)
        shape = (80001, 201)
        spec = CounterexampleSpec(0.5, 10000)
        f3, _ = build_counterexample(CounterexampleSpec(0.5, 1000),
                                     shape=shape)
        f4, _ = build_counterexample(spec, shape=shape)
        # a column no k in (1000, 10000] covers is the same sum of the same
        # terms in both builds, bit for bit
        same = [j for j, yy in enumerate(f4.axes()[1])
                if max(spec.covering_indices(yy), default=0) <= 1000]
        assert same
        assert (f3.samples[:, same].tobytes()
                == f4.samples[:, same].tobytes())
        ys = (np.arange(100) + 0.5) / 100.0
        increases = sum(
            slice_blowup_profile(f4, yy, 0.5)[0]
            > slice_blowup_profile(f3, yy, 0.5)[0]
            for yy in ys)
        assert increases >= 20
        assert increases <= 60


class TestDirectionalScan:
    def test_zero_function(self):
        f, _ = build_counterexample(CounterexampleSpec(0.5, 2),
                                    shape=(129, 129))
        zero = f.with_samples(np.zeros(f.shape))
        for _, phi in default_phi_family(zero):
            assert v_quotient(zero, along(phi, X_AXIS), 1,
                              0.5).quotient == 0.0

    def test_truncation_stability(self):
        spec = CounterexampleSpec(0.5, 10000)
        rows = directional_bound_scan(spec, [1000, 10000])
        (_, q3, _), (_, q4, _) = rows
        assert abs(q4 - q3) <= 0.10 * q3

    def test_single_term_closed_form(self):
        from scipy.integrate import quad
        spec = CounterexampleSpec(0.5, 2)
        f, _ = build_counterexample(spec)
        x, y = f.meshgrid()
        bump = np.zeros_like(y)
        inside = np.abs(2.0 * (y - 0.5)) < 1.0
        u = 2.0 * (y[inside] - 0.5)
        bump[inside] = np.exp(1.0 - 1.0 / (1.0 - u ** 2))
        phi = f.with_samples(-np.cos(2.0 * x) / 2.0 * bump)
        got = v_quotient(f, along(phi, X_AXIS), 1, 0.5).quotient
        length = interval_length(2)
        weight, _ = quad(
            lambda t: math.exp(1.0 - 1.0 / (1.0 - (2.0 * (t - 0.5)) ** 2)),
            0.0, length)
        # d_x phi = sin(2x) bump(y); int of sin^2 over [0, 2 pi] is pi;
        # sup norms are 1/2 for phi and 1 for its derivative
        closed = math.pi * spec.amplitude(2) * weight / 0.5 ** 0.5
        assert got == pytest.approx(closed, rel=0.01)

    def test_quotient_rejects_zero_phi(self):
        f, _ = build_counterexample(CounterexampleSpec(0.5, 2),
                                    shape=(129, 129))
        zero = f.with_samples(np.zeros(f.shape))
        with pytest.raises(ValueError):
            v_quotient(f, along(zero, X_AXIS), 1, 0.5)


class TestExport:
    def test_profile_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_csv(path, ("k", "value"), [(2, 1.5), (3, 2.0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,value"
        assert lines[1] == "2,1.5"

    def test_scan_csv(self, tmp_path):
        spec = CounterexampleSpec(0.5, 100)
        rows = directional_bound_scan(spec, [50, 100], shape=(257, 257))
        path = tmp_path / "scan.csv"
        write_csv(path, ("N", "max_quotient"), [r[:2] for r in rows])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,max_quotient"
        assert len(lines) == 3
