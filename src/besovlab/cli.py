"""Command line front end: corpus emission, seminorm estimation, semigroup
curves, certificate suites, the slice-blowup study and measure reports.

Configuration is a flat key=value text file plus ``key=value`` overrides on
the command line.  Every artifact embeds the effective configuration, the
library version and the seed, and identical configurations produce
byte-identical outputs.  Exit codes: 0 success, 1 a non-informative
certificate entry failed (or a chaining check of ``measure`` failed),
2 configuration error, 3 internal error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    certify_gaussian_suite,
    certify_lebesgue_suite,
    certify_projection_suite,
    failures,
    write_certificates,
)
from .corpus import (
    GAUSSIAN_CORPUS_1D,
    GAUSSIAN_CORPUS_2D,
    LEBESGUE_CORPUS_1D,
    build_corpus,
    parse_name,
)
from .counterexample import (
    CounterexampleSpec,
    build_counterexample,
    directional_bound_scan,
    profile_to_csv,
    slice_blowup_profile,
)
from .grid import GAUSSIAN, LEBESGUE, Direction, GridFunction, to_csv
from .heat import default_t_grid, u_functional
from .measures import (
    chaining_check,
    chaining_report_json,
    conditional_slices,
    holder_profile,
    measure_from_density,
    tv_distance,
)
from .ou import u_gamma_functional
from .seminorms import besov_seminorm, v_lower_bound

OUTPUT_DIR_ENV = "BESOVLAB_OUTPUT_DIR"


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
    shape1d: int = 4097
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
        if not p >= 1.0:
            raise ConfigError(f"pairs: p = {p:g} must be >= 1")
        if not 0.0 < a <= 1.0:
            raise ConfigError(f"pairs: alpha = {a:g} must lie in (0, 1]")
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
    for name in names:
        shape = ((config.shape2d, config.shape2d)
                 if parse_name(name)[0].endswith("2d") else (config.shape1d,))
        try:
            out.append((name, build_corpus(name, shape=shape)))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"corpus: {exc}")
    return out


def _write_manifest(path: Path, config: RunConfig, extra):
    payload = {"config": config.echo(), **extra}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _stem(name):
    """File-name stem of a corpus name: hermite(2) -> hermite_2."""
    return name.replace("(", "_").replace(")", "").replace(".", "p")


# ---------------------------------------------------------------------------
# Subcommands


def run_corpus(config: RunConfig) -> int:
    out = output_dir(config)
    names = []
    default_names = LEBESGUE_CORPUS_1D + GAUSSIAN_CORPUS_1D[1:4]
    for name, f in _resolve_corpus(config, default_names):
        to_csv(f, out / f"{_stem(name)}.csv")
        names.append(_stem(name))
    _write_manifest(out / "corpus_manifest.json", config, {"files": names})
    return 0


def run_seminorm(config: RunConfig) -> int:
    out = output_dir(config)
    rows = []
    for name, f in _resolve_corpus(config, LEBESGUE_CORPUS_1D):
        for p, alpha in config.pairs:
            est = besov_seminorm(f, p, alpha)
            row = {"function": name, "p": p, "alpha": alpha,
                   "value": est.value, "witness_h": list(est.witness_h),
                   "cap_limited": est.cap_limited}
            if est.value > 0.0 and f.measure == LEBESGUE:
                witness = v_lower_bound(f, p, alpha)
                row["v_witness_quotient"] = witness.quotient
            rows.append(row)
    _write_manifest(out / "seminorms.json", config, {"results": rows})
    return 0


def run_semigroup(config: RunConfig) -> int:
    out = output_dir(config)
    t_grid = default_t_grid(config.t_points)
    summary = []
    default_names = LEBESGUE_CORPUS_1D + GAUSSIAN_CORPUS_1D[1:4]
    for name, f in _resolve_corpus(config, default_names):
        for p, alpha in config.pairs:
            if f.measure == GAUSSIAN:
                value, t_star, curve = u_gamma_functional(f, p, alpha,
                                                          t_grid)
                kind = "ou"
            else:
                value, t_star, curve = u_functional(f, p, alpha, t_grid)
                kind = "heat"
            # reals as in the echo, so distinct pairs get distinct files
            stem = f"{_stem(name)}_{kind}_p{_real(p)}_a{_real(alpha)}"
            path = out / f"{stem}.csv"
            curve.to_csv(path)
            summary.append({"function": name, "kind": kind, "p": p,
                            "alpha": alpha, "value": value,
                            "argmax_t": t_star, "file": path.name})
    _write_manifest(out / "semigroup_manifest.json", config,
                    {"curves": summary})
    return 0


def run_certify(config: RunConfig) -> int:
    """Certify each function with the suite matching its measure tag and
    dimension: Lebesgue (1D or 2D), Gaussian 1D, or the 2D projection
    suite, which runs the first pair only.  The discretization slack
    coarsens each grid by two, so both point counts must be odd."""
    for name in ("shape1d", "shape2d"):
        if getattr(config, name) % 2 == 0:
            raise ConfigError(f"{name}: certify needs an odd point count, "
                              f"got {getattr(config, name)}")
    out = output_dir(config)
    default_names = (LEBESGUE_CORPUS_1D + GAUSSIAN_CORPUS_1D[1:4]
                     + GAUSSIAN_CORPUS_2D)
    t_grid = default_t_grid(config.t_points)
    entries = []
    for name, f in _resolve_corpus(config, default_names):
        if f.measure == GAUSSIAN and f.dim == 2:
            p, alpha = config.pairs[0]
            entries.extend(certify_projection_suite(f, p, alpha, f_name=name))
            continue
        suite = (certify_gaussian_suite if f.measure == GAUSSIAN
                 else certify_lebesgue_suite)
        for p, alpha in config.pairs:
            entries.extend(suite(f, p, alpha, t_grid=t_grid, f_name=name))
    write_certificates(entries, out / "certificates.json",
                       config=config.echo())
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
    ys = (np.arange(20) + 0.5) / 20.0
    profile_rows = []
    for y in ys:
        value, k_star = slice_blowup_profile(f, float(y), config.alpha)
        profile_rows.append((float(y), value, k_star))
    profile_to_csv(profile_rows, out / "blowup_profile.csv",
                   header=("y", "value", "argmax_k"))
    scan = directional_bound_scan(
        spec, config.n_list, shape=(config.shape2d, config.shape2d))
    profile_to_csv([(n, float(q)) for n, q, _ in scan],
                   out / "directional_scan.csv",
                   header=("N", "max_quotient"))
    _write_manifest(out / "counterexample_manifest.json", config,
                    {"spec": spec.to_dict(), "tail_energy": tail})
    return 0


def run_measure(config: RunConfig) -> int:
    out = output_dir(config)
    x = np.linspace(-8.0, 8.0, config.shape1d)
    density = np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)
    mu = measure_from_density(GridFunction(((-8.0, 8.0),), density))
    curve, fit = holder_profile(mu, Direction((1.0,)))
    with open(out / "holder_profile.csv", "w") as fh:
        fh.write("t,tv\n")
        for t, v in curve:
            fh.write(f"{t:.17g},{v:.17g}\n")
    spec = CounterexampleSpec(config.alpha, config.n_terms)
    f, _ = build_counterexample(spec,
                                shape=(config.shape2d, config.shape2d))
    nu = measure_from_density(f.with_samples(1.0 + 0.2 * f.samples))
    slices, _ = conditional_slices(nu, axis=1)
    step = max(1, len(slices) // 8)
    sub = slices[step::step]
    reports = {}
    for beta in config.beta_list:
        report = chaining_check(sub, beta, config.depth, seed=config.seed)
        reports[f"beta={beta:g}"] = json.loads(
            chaining_report_json(report))
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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _SUBCOMMANDS[args.subcommand](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
