"""Span tracing of besovlab's public functions, installed from outside.

The tracer replaces a function at every ``besovlab`` module attribute that
binds it, so calls between modules (``certify`` calling the
``besov_seminorm`` it imported from ``seminorms``) are seen as well as
calls from the benchmark.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: traced functions, by the short name of the module that defines them
LAYERS = {
    "ou": ("ou_apply", "ou_gradient", "u_gamma_functional",
           "conditional_expectation"),
    "seminorms": ("v_lower_bound", "v_quotient", "psi_witness",
                  "besov_seminorm", "shift_quotient", "kantorovich_norm_1d"),
    "grid": ("shift", "divergence", "divergence_gamma", "lp_norm", "coarsen"),
    "heat": ("heat_apply", "heat_gradient", "u_functional"),
    "certify": ("certify_lebesgue_suite", "certify_gaussian_suite",
                "certify_projection_suite", "v_gamma_upper_bound"),
    "measures": ("shift_measure", "tv_distance", "holder_profile",
                 "conditional_slices", "chaining_check"),
    "counterexample": ("build_counterexample", "slice_blowup_profile",
                       "directional_bound_scan"),
    "corpus": ("build_corpus",),
    "cli": ("main",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def layer_metric_names():
    """Per-layer metric names in report order, with unit and direction."""
    out = []
    for name in TRACED:
        out.append((f"{name}.calls", "count", "higher"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.append(("seminorms.v_quotient.rejected", "count", "lower"))
    out.append(("seminorms.v_quotient.per_witness", "count", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Records (request, name, start, end, parent, raised) per traced call.

    ``request`` is the pass index set by the caller; ``parent`` is the index
    of the enclosing traced span, or -1 for a call made by the benchmark.
    """

    def __init__(self):
        self.spans = []
        self.request = 0
        self._stack = []
        self._installed = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [self.request, name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                stack.pop()
                span[3] = time.perf_counter()

        return traced

    def install(self):
        """Wrap every listed function wherever a besovlab module binds it.

        Returns the listed names that no module defines, so a renamed
        function shows up as a warning instead of a silent zero.
        """
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "besovlab" or name.startswith("besovlab.")}
        wrappers, missing = {}, []
        for qualified in TRACED:
            mod_name, fn_name = qualified.split(".")
            fn = getattr(modules.get(f"besovlab.{mod_name}"), fn_name, None)
            if fn is None:
                missing.append(qualified)
                continue
            wrappers[id(fn)] = (fn, self._wrap(qualified, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, value))
        return missing

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def per_request(self, request):
        """{name: [calls, self seconds, raised]} for one pass."""
        rows = {name: [0, 0.0, 0] for name in TRACED}
        child = {}
        chosen = [(i, s) for i, s in enumerate(self.spans)
                  if s[0] == request]
        for _, (_, _, start, end, parent, _) in chosen:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for i, (_, name, start, end, _, raised) in chosen:
            row = rows[name]
            row[0] += 1
            row[1] += (end - start) - child.get(i, 0.0)
            row[2] += int(raised)
        return rows

    def dump(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["request", "name", "start_s", "end_s", "parent",
                       "raised"],
            "names": names,
            "spans": [[s[0], index[s[1]], round(s[2], 9), round(s[3], 9),
                       s[4], int(s[5])] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
