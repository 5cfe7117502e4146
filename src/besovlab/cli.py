"""Command line front end: corpus emission, seminorm estimation, semigroup
curves, certificate suites, the slice-blowup study and measure reports.

Configuration is a flat key=value text file plus ``key=value`` overrides on
the command line.  This module is the one writer of artifacts: the engines
return values, and each subcommand writes them through grid.write_csv or
grid.json_text.  Every artifact embeds the effective configuration, the
library version and the seed, and identical configurations produce
byte-identical outputs.  ``certify`` runs its per-function suite calls in
forked worker processes, one per CPU in the process's affinity mask; the
bytes it writes equal those of a serial run.  Exit codes: 0 success, 1 a
non-informative certificate entry failed (or a chaining check of
``measure`` failed), 2 configuration error (a grid too coarse for a corpus
function included), 3 internal error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import re
import sys
import traceback
# futures loads its process pool, and the modules behind it, on first use
from concurrent import futures
from dataclasses import dataclass, fields, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    certify_gaussian_suite,
    certify_lebesgue_suite,
    certify_projection_suite,
    entries_to_json,
    failures,
)
from .corpus import (
    GAUSSIAN_CORPUS_1D,
    GAUSSIAN_CORPUS_2D,
    LEBESGUE_CORPUS_1D,
    build_corpus,
    name_dim,
)
from .counterexample import (
    CounterexampleSpec,
    build_counterexample,
    directional_bound_scan,
    slice_blowup_profile,
)
from .grid import (DEFAULT_GRIDS, GAUSSIAN, LEBESGUE, Direction,
                   GridFunction, check_exponents, check_tag_exponent, coarsen,
                   json_text, to_csv, write_csv)
from .heat import default_t_grid, gradient_supremum
from .measures import (
    chaining_check,
    conditional_slices,
    holder_profile,
    measure_from_density,
    tv_distance,
)
from .ou import SPLINE_DEGREE, semigroup
from .seminorms import (besov_seminorm, default_shift_magnitudes,
                        v_lower_bounds)

OUTPUT_DIR_ENV = "BESOVLAB_OUTPUT_DIR"
#: the 1D functions of the "default" corpus of every command
DEFAULT_CORPUS_1D = LEBESGUE_CORPUS_1D + GAUSSIAN_CORPUS_1D[1:4]


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated settings shared by all subcommands.

    The fields are the configuration keys; a scalar parses with the type of
    its default, a list field item by item through ``_LIST_ITEMS``.
    """

    corpus: tuple = ("default",)
    pairs: tuple = ((1.0, 1.0), (2.0, 0.5))
    shape1d: int = DEFAULT_GRIDS[1].shape[0]
    shape2d: int = 257
    t_points: int = 16
    seed: int = 20240
    output_dir: str = "out"
    alpha: float = 0.5
    n_terms: int = 1000
    n_list: tuple = (100, 1000)
    beta_list: tuple = (0.25, 0.4)
    depth: int = 5

    def echo(self):
        """Every field as it would be written in an override (list fields
        joined by commas), plus the library version; reading the items back
        with ``load_config`` gives this configuration again."""
        out = {}
        for fld in fields(self):
            value = getattr(self, fld.name)
            if fld.name in _LIST_ITEMS:
                value = ",".join(map(_LIST_ITEMS[fld.name][1], value))
            out[fld.name] = value
        out["library_version"] = __version__
        return out


def _real(x):
    """Text of a real: ``:g`` when that reads back exactly, else repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _pair(text):
    p, alpha = text.split(":")
    return float(p), float(alpha)


#: parser and formatter of one item of each list field
_LIST_ITEMS = {
    "corpus": (str, str),
    "pairs": (_pair, lambda pair: ":".join(map(_real, pair))),
    "n_list": (int, str),
    "beta_list": (float, _real),
}

#: list items are separated by commas outside parentheses: hermite2d(1,2)
_ITEM_SEPARATOR = re.compile(r",(?![^(]*\))")


def _parse(fld, raw):
    if fld.name not in _LIST_ITEMS:
        return type(fld.default)(raw)
    parse_item = _LIST_ITEMS[fld.name][0]
    return tuple(parse_item(tok.strip())
                 for tok in _ITEM_SEPARATOR.split(raw) if tok.strip())


def load_config(config_path=None, overrides=()):
    """Flat key=value file plus overrides; unknown keys are diagnosed."""
    settings = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            settings[key.strip()] = value.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}': expected key=value")
        key, value = item.split("=", 1)
        settings[key.strip()] = value.strip()

    known = {fld.name: fld for fld in fields(RunConfig)}
    config = RunConfig()
    for key, raw in settings.items():
        if key not in known:
            raise ConfigError(f"unknown configuration field '{key}'")
        try:
            config = replace(config, **{key: _parse(known[key], raw)})
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: cannot parse value '{raw}'")
    validate(config)
    return config


def validate(config: RunConfig):
    for name in _LIST_ITEMS:
        if not getattr(config, name):
            raise ConfigError(f"{name}: empty list")
    for p, a in config.pairs:
        try:
            check_exponents(p, a)
        except ValueError as exc:
            raise ConfigError(f"pairs: p = {p:g}, alpha = {a:g}: {exc}")
    for name, value in (("shape1d", config.shape1d),
                        ("shape2d", config.shape2d)):
        if value < 9:
            raise ConfigError(f"{name}: {value} is too small")
    if config.t_points < 2:
        raise ConfigError(f"t_points: {config.t_points} must be >= 2")
    if not 0.0 < config.alpha < 1.0:
        raise ConfigError(f"alpha: {config.alpha:g} must lie in (0, 1)")
    if config.n_terms < 2:
        raise ConfigError(f"n_terms: {config.n_terms} must be >= 2")
    if config.depth < 1:
        raise ConfigError(f"depth: {config.depth} must be >= 1")
    for b in config.beta_list:
        if not 0.0 < b <= 1.0:
            raise ConfigError(f"beta_list: {b:g} must lie in (0, 1]")


def output_dir(config: RunConfig) -> Path:
    path = Path(os.environ.get(OUTPUT_DIR_ENV, config.output_dir))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_corpus(config: RunConfig, default_names):
    """(name, function) pairs of the configured corpus; the corpus
    "default" stands for default_names."""
    names = default_names if config.corpus == ("default",) else config.corpus
    out = []
    shapes = {1: (config.shape1d,), 2: (config.shape2d, config.shape2d)}
    for name in names:
        try:
            out.append((name, build_corpus(name,
                                           shape=shapes[name_dim(name)])))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"corpus: {exc}")
    return out


def _write_manifest(path: Path, config: RunConfig, extra):
    path.write_text(json_text({"config": config.echo(), **extra}))


def _too_coarse(name, f, reason):
    """The configuration error of a grid with too few points for name."""
    return ConfigError(f"shape{f.dim}d: {f.shape[0]} points are too few for "
                       f"{name}: {reason}")


def _stem(name):
    """File-name stem of a corpus name: hermite(2) -> hermite_2."""
    return name.replace("(", "_").replace(")", "").replace(".", "p")


# ---------------------------------------------------------------------------
# Subcommands


def run_corpus(config: RunConfig) -> int:
    out = output_dir(config)
    names = []
    for name, f in _resolve_corpus(config, DEFAULT_CORPUS_1D):
        to_csv(f, out / f"{_stem(name)}.csv")
        names.append(_stem(name))
    _write_manifest(out / "corpus_manifest.json", config, {"files": names})
    return 0


def run_seminorm(config: RunConfig) -> int:
    out = output_dir(config)
    rows = []
    for name, f in _resolve_corpus(config, LEBESGUE_CORPUS_1D):
        if f.measure != LEBESGUE:
            raise ConfigError(f"corpus: {name} is Gaussian-tagged; shift "
                              "seminorms need a Lebesgue-tagged function")
        try:
            default_shift_magnitudes(f)
        except ValueError as exc:
            raise _too_coarse(name, f, exc)
        ests = [besov_seminorm(f, p, alpha) for p, alpha in config.pairs]
        # one witness search for every pair whose seminorm is positive
        witnesses = iter(v_lower_bounds(f, [
            pair for pair, est in zip(config.pairs, ests) if est.value > 0.0]))
        for (p, alpha), est in zip(config.pairs, ests):
            row = {"function": name, "p": p, "alpha": alpha,
                   "value": est.value, "witness_h": list(est.witness_h),
                   "cap_limited": est.cap_limited}
            if est.value > 0.0:
                row["v_witness_quotient"] = next(witnesses).quotient
            rows.append(row)
    _write_manifest(out / "seminorms.json", config, {"results": rows})
    return 0


def run_semigroup(config: RunConfig) -> int:
    out = output_dir(config)
    t_grid = default_t_grid(config.t_points)
    summary = []
    for name, f in _resolve_corpus(config, DEFAULT_CORPUS_1D):
        gradient = semigroup(f)[1]
        # the curve kind is the name of the semigroup's module: heat or ou
        kind = gradient.__module__.rsplit(".", 1)[-1]
        fields = [gradient(f, t) for t in t_grid]
        for p, alpha in config.pairs:
            value, t_star, values = gradient_supremum(fields, t_grid, p,
                                                      alpha)
            # reals as in the echo, so distinct pairs get distinct files
            stem = f"{_stem(name)}_{kind}_p{_real(p)}_a{_real(alpha)}"
            path = out / f"{stem}.csv"
            write_csv(path, ("t", "value"), zip(t_grid, values))
            summary.append({"function": name, "kind": kind, "p": p,
                            "alpha": alpha, "value": value,
                            "argmax_t": t_star, "file": path.name})
    _write_manifest(out / "semigroup_manifest.json", config,
                    {"curves": summary})
    return 0


def _certify_one(task):
    """Entries of one (name, f, pairs, t_grid) task, by the suite matching
    f's measure tag and dimension.  The suites are read from this module's
    globals, so a patched suite reaches the workers too."""
    name, f, pairs, t_grid = task
    if f.measure == GAUSSIAN and f.dim == 2:
        return certify_projection_suite(f, *pairs[0], t_grid=t_grid,
                                        f_name=name)
    if f.measure == GAUSSIAN:
        return certify_gaussian_suite(f, pairs, t_grid=t_grid, f_name=name)
    return [entry for p, alpha in pairs for entry in certify_lebesgue_suite(
        f, p, alpha, t_grid=t_grid, f_name=name)]


def _one_blas_thread():
    """Pool initializer: the workers already fill the CPUs, so each runs
    numpy's OpenBLAS on one thread.  With a thread per CPU in every worker
    the threads oversubscribe the CPUs, and the full-default projection
    suites ran three to five times slower.  A BLAS without the thread setter
    of numpy's wheels keeps its threads."""
    blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    setter = getattr(blas, "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def run_certify(config: RunConfig) -> int:
    """Certify each function with the suite matching its measure tag and
    dimension: Lebesgue (1D or 2D, one call per pair), Gaussian 1D (one
    call with every pair, so each function's OU orbit and witness search
    serve all pairs), or the 2D projection suite, which runs the first pair
    only.  Every suite reads the run's t grid, default_t_grid(t_points); U
    reads a sub-grid of it, every fourth t in the Lebesgue suite, and in
    both Gaussian suites every t up to 16 points, else every fourth
    (certify._u_gamma_grid).  The discretization slack coarsens each grid
    by two, so both point counts must be odd, and the coarse copy must
    still carry the default shift range (Lebesgue) or the OU spline
    (Gaussian).  A Gaussian function takes no p = inf pair: its chain
    constant C(p) is infinite (grid.check_tag_exponent).

    The suite calls are independent, so they run in forked worker processes,
    one per CPU in the affinity mask (inline when that is one CPU, or the
    corpus one function); entries come back in corpus order, so the file
    written is byte-identical to a serial run's."""
    for name in ("shape1d", "shape2d"):
        if getattr(config, name) % 2 == 0:
            raise ConfigError(f"{name}: certify needs an odd point count, "
                              f"got {getattr(config, name)}")
    out = output_dir(config)
    t_grid = default_t_grid(config.t_points)
    corpus = _resolve_corpus(config, DEFAULT_CORPUS_1D + GAUSSIAN_CORPUS_2D)
    for name, f in corpus:
        try:
            for p, _ in config.pairs:
                check_tag_exponent(f, p)
        except ValueError as exc:
            raise ConfigError(f"corpus: {name}: {exc}")
        # the slack's coarse copy needs more nodes per axis than the OU
        # spline's degree (Gaussian) or the default shift range (Lebesgue)
        fc = coarsen(f)
        if f.measure == GAUSSIAN and min(fc.shape) <= SPLINE_DEGREE:
            raise _too_coarse(name, f, f"its coarse copy has {min(fc.shape)} "
                              f"nodes per axis; the OU spline of degree "
                              f"{SPLINE_DEGREE} needs more")
        if f.measure == LEBESGUE:
            try:
                default_shift_magnitudes(fc)
            except ValueError as exc:
                raise _too_coarse(name, f, f"coarse copy: {exc}")
    tasks = [(name, f, config.pairs, t_grid) for name, f in corpus]
    workers = min(len(tasks), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else 1)
    if workers > 1:
        with futures.ProcessPoolExecutor(workers, get_context("fork"),
                                         _one_blas_thread) as pool:
            results = list(pool.map(_certify_one, tasks))
    else:
        results = map(_certify_one, tasks)
    entries = [entry for result in results for entry in result]
    (out / "certificates.json").write_text(
        entries_to_json(entries, config.echo()))
    bad = failures(entries)
    for entry in bad:
        print(f"FAIL {entry.name} [{entry.inputs}] lhs={entry.lhs:.6g} "
              f"rhs={entry.rhs:.6g}", file=sys.stderr)
    print(f"certify: {len(entries)} entries, {len(bad)} failures")
    return 1 if bad else 0


def run_counterexample(config: RunConfig) -> int:
    out = output_dir(config)
    spec = CounterexampleSpec(config.alpha, config.n_terms)
    f, tail = build_counterexample(
        spec, shape=(config.shape2d, config.shape2d))
    profile_rows = [(y, *slice_blowup_profile(f, y, config.alpha))
                    for y in ((np.arange(20) + 0.5) / 20.0).tolist()]
    write_csv(out / "blowup_profile.csv", ("y", "value", "argmax_k"),
              profile_rows)
    scan = directional_bound_scan(
        spec, config.n_list, shape=(config.shape2d, config.shape2d))
    write_csv(out / "directional_scan.csv", ("N", "max_quotient"),
              [(n, q) for n, q, _ in scan])
    _write_manifest(out / "counterexample_manifest.json", config,
                    {"spec": spec.to_dict(), "tail_energy": tail})
    return 0


def run_measure(config: RunConfig) -> int:
    out = output_dir(config)
    # the standard Gaussian: the constant density 1 under the Gaussian tag
    mu = measure_from_density(GridFunction(
        DEFAULT_GRIDS[1].bounds, np.ones(config.shape1d), GAUSSIAN))
    curve, fit = holder_profile(mu, Direction((1.0,)))
    write_csv(out / "holder_profile.csv", ("t", "tv"), curve)
    spec = CounterexampleSpec(config.alpha, config.n_terms)
    f, _ = build_counterexample(spec,
                                shape=(config.shape2d, config.shape2d))
    nu = measure_from_density(f.with_samples(1.0 + 0.2 * f.samples))
    slices, _ = conditional_slices(nu, axis=1)
    step = max(1, len(slices) // 8)
    sub = slices[step::step]
    reports = {}
    for beta in config.beta_list:
        reports[f"beta={beta:g}"] = chaining_check(sub, beta, config.depth,
                                                   seed=config.seed)
    _write_manifest(out / "measure_report.json", config, {
        "holder_fit": {"exponent": fit.exponent, "constant": fit.constant,
                       "t_range": list(fit.t_range),
                       "residual": fit.residual},
        "tv_self": tv_distance(mu, mu),
        "chaining": reports,
    })
    all_pass = all(r["pass"] for r in reports.values())
    return 0 if all_pass else 1


_SUBCOMMANDS = {
    "corpus": run_corpus,
    "seminorm": run_seminorm,
    "semigroup": run_semigroup,
    "certify": run_certify,
    "counterexample": run_counterexample,
    "measure": run_measure,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="besovlab",
        description="Fractional smoothness functionals on grids")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", default=None,
                        help="flat key=value configuration file")
    parser.add_argument("overrides", nargs="*",
                        help="key=value overrides applied after the file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return _SUBCOMMANDS[args.subcommand](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
