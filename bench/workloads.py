"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
whole passes of identical work.  A pass returns a ``PassResult``: the
operations it attempted and how many the program itself failed, the V
witness quotients it produced, the certified entry count, the bytes of its
outputs (for the identical-output checks) and any correctness errors found
by checks against closed forms or theorem properties.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OUTPUT_DIR_ENV = "BESOVLAB_OUTPUT_DIR"
PAIRS = ((1.0, 1.0), (2.0, 0.5))


@dataclass
class PassResult:
    attempted: int
    failed: int
    witnesses: list
    certified: int
    outputs: bytes
    errors: list = field(default_factory=list)


def geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def gaussian_moment_root(p):
    """(E|Z|^p)^(1/p) for a standard normal Z."""
    return (2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0)
            / math.sqrt(math.pi)) ** (1.0 / p)


def gaussian_abs_moment(beta, n):
    """E|Z|^beta for a standard normal vector in dimension n."""
    return (2.0 ** (beta / 2.0) * math.gamma((n + beta) / 2.0)
            / math.gamma(n / 2.0))


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def t_grid(points):
    """The geometric t grid the certify command uses, built independently."""
    return np.geomspace(1e-4, 1e2, points)


def _close(value, expect, rel, label, errors):
    if not abs(value - expect) <= rel * abs(expect):
        errors.append(f"{label}: {value!r} != {expect!r} (rel tol {rel:g})")


def _close_abs(value, expect, tol, label, errors):
    if not abs(value - expect) <= tol:
        errors.append(f"{label}: {value!r} != {expect!r} (abs tol {tol:g})")


def _quiet(fn, *args):
    """Call a CLI entry point with its stdout captured (stderr untouched)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------------------


class CertifyDefault:
    """``besovlab certify`` with the default corpus and pairs, via cli.main.

    The grids are scaled down from the 4097-point / 257^2 defaults so that a
    pass takes seconds rather than a minute; the 90 entries, the corpus, the
    pairs and the OU-dominated profile are those of the default command.
    """

    name = "certify-default"
    SHAPE1D = 1025
    SHAPE2D = 33
    T_POINTS = 4
    CORPUS = ("indicator", "hat", "bump", "weierstrass(0.5)",
              "hermite(1)", "hermite(2)", "hermite(3)",
              "x2d", "xy2d", "xplusysq2d")
    ENTRIES = 90
    #: the second-order quadrature error of a unit-slope kink at a node is
    #: below dx^2 * density(0) / 6, and density(0) < 1
    kink_tol = (16.0 / (SHAPE1D - 1)) ** 2 / 6.0

    def setup(self, lib, seed, out: Path):
        self.lib = lib
        self.out = out
        self.argv = ["certify", f"shape1d={self.SHAPE1D}",
                     f"shape2d={self.SHAPE2D}", f"t_points={self.T_POINTS}",
                     f"seed={seed}"]
        inputs = [lib.build_corpus(
            n, shape=(self.SHAPE2D,) * 2 if n.endswith("2d")
            else (self.SHAPE1D,)) for n in self.CORPUS]
        # first calls of the OU and heat kernels, on the real inputs
        lib.ou_apply(inputs[4], 1.0)
        lib.ou_apply(inputs[7], 1.0)
        lib.heat_apply(inputs[0], 1.0)

    def run_pass(self):
        rc = _quiet(self.lib.cli.main, self.argv)
        data = (self.out / "certificates.json").read_bytes()
        entries = json.loads(data)["entries"]
        errors = [] if rc == 0 else [f"certify exited {rc}"]
        if len(entries) != self.ENTRIES:
            errors.append(f"{len(entries)} entries, expected {self.ENTRIES}")
        failed = sum(1 for e in entries if not e["pass"]
                     and not e["informative"])
        witnesses = []
        for e in entries:
            f, p, alpha = e["inputs"]["f"], e["inputs"]["p"], \
                e["inputs"]["alpha"]
            label = f"{e['name']} {f} p={p:g} alpha={alpha:g}"
            # Gaussian witnesses at p = 1 come from the random-field search
            # alone and swing thirtyfold with the seed, so they are left out
            if e["name"] == "v-upper-arm" or (
                    e["name"] == "v-le-u-gamma" and p != 1.0):
                witnesses.append(e["lhs"])
            if e["name"] == "poincare" and f.startswith("hermite("):
                if p == 2.0:
                    # orthonormal Hermite polynomials have unit L2(gamma) norm
                    _close(e["lhs"], 1.0, 1e-9, label, errors)
                elif f == "hermite(1)" and p == 1.0:
                    # E|Z|; |x| has a kink at the node x = 0
                    _close_abs(e["lhs"], math.sqrt(2.0 / math.pi),
                               self.kink_tol, label, errors)
            if e["name"] == "ou-small-time-gradient" and f == "hermite(1)":
                # grad T_t x = e^-t, so U_gamma = max_t t^((1-a)/2) e^-t
                u = e["rhs"] * alpha / (4.0 * gaussian_moment_root(p))
                ts = t_grid(self.T_POINTS)
                expect = float(np.max(ts ** ((1.0 - alpha) / 2.0)
                                      * np.exp(-ts)))
                _close(u, expect, 1e-10, label, errors)
            if e["name"] == "transport-interpolation":
                # running integrals -phi(x) and -x phi(x)/sqrt(2); the
                # second has a kink at x = 0 once its modulus is taken
                k_norm = e["inputs"]["kantorovich"]
                if f == "hermite(1)":
                    _close(k_norm, 1.0, 1e-10, label + " kantorovich",
                           errors)
                elif f == "hermite(2)":
                    _close_abs(k_norm, 1.0 / math.sqrt(math.pi),
                               self.kink_tol, label + " kantorovich", errors)
            if e["name"] == "projection-commutation" and e["lhs"] > 1e-6:
                errors.append(f"{label}: commutation residual {e['lhs']!r}")
        if len(witnesses) != 11:
            errors.append(f"{len(witnesses)} witnesses, expected 11")
        certified = sum(1 for e in entries if e["pass"]
                        and not e["informative"])
        return PassResult(len(entries), failed, witnesses, certified, data,
                          errors)


# ---------------------------------------------------------------------------


class Lebesgue2D:
    """certify_lebesgue_suite on the 2D Lebesgue corpus, both pairs.

    The grid is 97^2 rather than the default 257^2 so that a pass takes
    seconds.  The coarse copy used for the grid-doubling slack (49^2) must
    still admit the default shift range, which rules out grids below 83^2.
    """

    name = "lebesgue-2d"
    SHAPE = (97, 97)
    T_POINTS = 16
    CORPUS = ("indicator2d", "hat2d", "bump2d")

    def setup(self, lib, seed, out: Path):
        self.lib = lib
        self.out = out
        self.seed = seed
        self.functions = [(n, lib.build_corpus(n, shape=self.SHAPE))
                          for n in self.CORPUS]
        self.t_grid = t_grid(self.T_POINTS)
        rng = np.random.default_rng(seed)
        self.heat_t = float(rng.uniform(0.1, 2.0))
        bump = self.functions[2][1]
        x, y = bump.meshgrid()
        t = self.heat_t
        self.heat_expect = np.exp(-(x * x + y * y) / (2.0 * (1.0 + t))) \
            / (1.0 + t)
        self.interior = (np.abs(x) <= 4.0) & (np.abs(y) <= 4.0)
        # first calls of the shift and heat kernels, on the real inputs
        lib.shift(bump, (0.5, 0.25))
        lib.heat_apply(bump, t)

    def run_pass(self):
        lib, errors = self.lib, []
        entries = []
        for name, f in self.functions:
            for p, alpha in PAIRS:
                entries.extend(lib.certify_lebesgue_suite(
                    f, p, alpha, t_grid=self.t_grid, f_name=name, budget=1,
                    seed=self.seed))
        text = lib.entries_to_json(entries, {"seed": self.seed})
        (self.out / "certificates.json").write_text(text)
        failed = sum(1 for e in entries if not e.passed
                     and not e.informative)
        witnesses = []
        for e in entries:
            if e.name != "v-upper-arm":
                continue
            witnesses.append(e.lhs)
            alpha = e.inputs["alpha"]
            label = f"v-upper-arm {e.inputs['f']} p={e.inputs['p']:g} " \
                    f"alpha={alpha:g}"
            c_up = gaussian_abs_moment(alpha, 2) \
                + gaussian_abs_moment(1.0 + alpha, 2)
            _close(e.inputs["constant"], c_up, 1e-12, label + " constant",
                   errors)
            seminorm = e.rhs / e.inputs["constant"]
            if not e.lhs <= c_up * seminorm * 1.05:
                errors.append(f"{label}: witness {e.lhs!r} above the upper "
                              f"arm {c_up * seminorm * 1.05!r}")
        heat = lib.heat_apply(self.functions[2][1], self.heat_t).samples
        gap = float(np.max(np.abs(heat - self.heat_expect)[self.interior]))
        if not gap <= 1e-12:
            errors.append(f"heat_apply(bump2d, {self.heat_t!r}) is {gap!r} "
                          "from the closed form on the interior")
        certified = sum(1 for e in entries if e.passed and not e.informative)
        outputs = text.encode() + heat.tobytes()
        return PassResult(len(entries) + 1, failed, witnesses, certified,
                          outputs, errors)


# ---------------------------------------------------------------------------


class MeasuresSlices:
    """``besovlab measure`` and ``besovlab counterexample`` at their
    defaults, plus the directional scan at N = 10^3, 10^4 and the slice
    profiles of the N = 10^4 construction on a grid resolving every index.
    """

    name = "measures-slices"
    ALPHA = 0.5
    N_TERMS = 10000
    SCAN_N = (1000, 10000)
    SCAN_SHAPE = (257, 257)
    # 8 samples per oscillation up to k = 10^4 along x; few y columns
    SLICE_SHAPE = (80001, 65)
    SLICE_YS = 20
    TV_SHIFTS = 2
    OUTPUT_FILES = ("measure_report.json", "blowup_profile.csv",
                    "directional_scan.csv", "counterexample_manifest.json")

    def setup(self, lib, seed, out: Path):
        self.lib = lib
        self.out = out
        self.argv_measure = ["measure", f"seed={seed}"]
        self.argv_counter = ["counterexample", f"seed={seed}"]
        rng = np.random.default_rng(seed)
        self.tv_t = [float(t) for t in rng.uniform(0.25, 2.0, self.TV_SHIFTS)]
        self.ys = [float(y) for y in np.sort(rng.uniform(0.0, 1.0,
                                                         self.SLICE_YS))]
        # the profile reads the column nearest y; at a covered column it is
        # pi sqrt(ln k*), k* the largest covering index resolved along x
        self.spec = lib.CounterexampleSpec(self.ALPHA, self.N_TERMS)
        y_nodes = np.linspace(0.0, 1.0, self.SLICE_SHAPE[1])
        k_max = (self.SLICE_SHAPE[0] - 1) // 8
        self.profile_expect = []
        for y in self.ys:
            node = float(y_nodes[int(np.argmin(np.abs(y_nodes - y)))])
            covering = [k for k in self.spec.covering_indices(node)
                        if k <= k_max]
            self.profile_expect.append(
                (node, math.pi * math.sqrt(math.log(max(covering))))
                if covering else (node, None))
        x = np.linspace(-8.0, 8.0, 4097)
        density = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        self.mu = lib.measure_from_density(
            lib.GridFunction(((-8.0, 8.0),), density))
        # first calls of the measure kernels, on the real inputs
        lib.tv_distance(lib.shift_measure(self.mu, self.tv_t[0]), self.mu)

    def run_pass(self):
        lib, errors = self.lib, []
        cli = lib.cli
        rc_m = _quiet(cli.main, self.argv_measure)
        rc_c = _quiet(cli.main, self.argv_counter)
        if rc_m != 0 or rc_c != 0:
            errors.append(f"measure exited {rc_m}, counterexample {rc_c}")
        outputs = b"".join((self.out / n).read_bytes()
                           for n in self.OUTPUT_FILES)
        report = json.loads((self.out / "measure_report.json").read_text())

        exponent = report["holder_fit"]["exponent"]
        if not abs(exponent - 1.0) <= 0.02:
            errors.append(f"Holder exponent {exponent!r} not 1 +- 0.02")
        rows = 0
        failed = 0 if rc_m == 0 and rc_c == 0 else 1
        certified = 0
        for key, chain in report["chaining"].items():
            beta = chain["beta"]
            if not chain["pass"]:
                errors.append(f"chaining {key} failed")
            for row in chain["rows"]:
                rows += 1
                failed += 0 if row["pass"] else 1
                certified += 1 if row["pass"] else 0
                expect = max(2.0, row["C"] / (1.0 - 2.0 ** (-beta)))
                _close(row["bound_constant"], expect, 1e-12,
                       f"chaining {key} slice {row['slice']}", errors)

        tvs = []
        for t in self.tv_t:
            tv = lib.tv_distance(lib.shift_measure(self.mu, t), self.mu)
            tvs.append(tv)
            oracle = 2.0 * (2.0 * normal_cdf(t / 2.0) - 1.0)
            if not abs(tv - oracle) <= 1e-4:
                errors.append(f"TV of the Gaussian shifted by {t!r}: "
                              f"{tv!r}, closed form {oracle!r}")

        scan = lib.directional_bound_scan(self.spec, self.SCAN_N,
                                          shape=self.SCAN_SHAPE)
        (_, q3, _), (_, q4, _) = scan
        if not abs(q4 - q3) <= 0.10 * q3:
            errors.append(f"directional scan not flat: {q3!r} -> {q4!r}")

        f4, _ = lib.build_counterexample(self.spec, shape=self.SLICE_SHAPE)
        profiles = []
        for y, (node, expect) in zip(self.ys, self.profile_expect):
            value, k_arg = lib.slice_blowup_profile(f4, y, self.ALPHA)
            profiles.append((value, k_arg))
            if expect is not None:
                _close(value, expect, 0.02, f"slice profile at y={node!r}",
                       errors)

        outputs += repr((tvs, scan, profiles)).encode()
        attempted = 2 + rows + len(tvs) + len(scan) + len(profiles)
        witnesses = [float(q) for _, q, _ in scan]
        return PassResult(attempted, failed, witnesses, certified, outputs,
                          errors)


WORKLOADS = {w.name: w for w in (CertifyDefault, Lebesgue2D, MeasuresSlices)}
