"""besovlab benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload lebesgue-2d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the same checkout; the benchmark
exits with code 2 when that source tree is missing.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics.  Outputs, the
result record and the span dump go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# Native libraries run single-threaded (set before numpy is imported): on a
# 2-CPU machine a second BLAS thread did not shorten a pass, but doubled the
# CPU time and widened the spread between passes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer, layer_metric_names  # noqa: E402
from workloads import OUTPUT_DIR_ENV, WORKLOADS, geometric_mean  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


def load_library():
    """Import besovlab afresh from this checkout's source tree."""
    for name in [n for n in sys.modules
                 if n == "besovlab" or n.startswith("besovlab.")]:
        del sys.modules[name]
    lib = importlib.import_module("besovlab")
    importlib.import_module("besovlab.cli")
    if SRC not in Path(lib.__file__).resolve().parents:
        raise SystemExit(f"besovlab was imported from {lib.__file__}, "
                         f"not from {SRC}")
    return lib


def set_up(workload, seed, out):
    """Median-timed set-up: import, input generation, first calls."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = load_library()
        workload.setup(lib, seed, out)
        times.append(time.perf_counter() - start)
    return times


def timed_passes(workload, seconds, tracer=None):
    """Whole passes until `seconds` have elapsed (at least one)."""
    results, times = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.request = len(times)
        start = time.perf_counter()
        results.append(workload.run_pass())
        times.append(time.perf_counter() - start)
        if time.perf_counter() >= deadline:
            return results, times


def check_passes(results, reference):
    """Errors of every pass, plus any output that differs from reference."""
    errors = []
    for i, r in enumerate(results):
        errors.extend(f"pass {i}: {e}" for e in r.errors)
        if r.outputs != reference.outputs:
            errors.append(f"pass {i}: outputs differ from the first pass")
        if r.witnesses != reference.witnesses:
            errors.append(f"pass {i}: witness quotients differ")
    return errors


def end_to_end(setup_times, pass_times, first):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(pass_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "witness_v": (geometric_mean(first.witnesses), "1"),
        "certified_entries": (first.certified, "count"),
    }


def per_layer(tracer, traced_times, plain_times):
    per_pass = [tracer.per_request(i) for i in range(len(traced_times))]
    metrics = {}
    for name in per_pass[0]:
        calls = statistics.median(p[name][0] for p in per_pass)
        self_s = statistics.median(p[name][1] for p in per_pass)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    vq = per_pass[0]["seminorms.v_quotient"]
    searches = per_pass[0]["seminorms.v_lower_bound"][0]
    metrics["seminorms.v_quotient.rejected"] = (vq[2], "count")
    metrics["seminorms.v_quotient.per_witness"] = (
        vq[0] / searches if searches else 0.0, "count")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(plain_times),
        "s")
    order = [n for n, _, _ in layer_metric_names()]
    return {n: metrics[n] for n in order}


def run_workload(args):
    workload = WORKLOADS[args.workload]()
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    os.environ[OUTPUT_DIR_ENV] = str(out)

    setup_times = set_up(workload, args.seed, out)
    if args.trace:
        # half the time untraced (the reference), half traced
        plain, plain_times = timed_passes(workload, args.seconds / 2.0)
        tracer = Tracer()
        missing = tracer.install()
        for name in missing:
            print(f"warning: traced function {name} not found",
                  file=sys.stderr)
        try:
            traced, traced_times = timed_passes(workload, args.seconds / 2.0,
                                                tracer)
        finally:
            tracer.uninstall()
        results = plain + traced
        errors = check_passes(results, plain[0])
        metrics = per_layer(tracer, traced_times, plain_times)
        tracer.dump(out / "trace.json")
        pass_times = plain_times + traced_times
    else:
        results, pass_times = timed_passes(workload, args.seconds)
        errors = check_passes(results, results[0])
        metrics = end_to_end(setup_times, pass_times, results[0])

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": NPROC,
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
        "setup_times_s": setup_times, "pass_times_s": pass_times,
        "errors": errors,
    }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    (out / "result.json").write_text(
        json.dumps({**record, **result}, indent=2) + "\n")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args):
    """Each workload in its own process; prints every metric by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            return proc.returncode
        status = status or proc.returncode
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']!r} {m['unit']}")
            merged["metrics"][f"{name}.{metric}"] = m
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return status


def seed_value(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=seed_value, required=True,
                        help="input seed, also the witness-search seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "besovlab" / "__init__.py").is_file():
        print(f"error: no besovlab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
