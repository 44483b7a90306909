"""Spans and counters around biharm's public functions, from outside biharm.

``Tracer.install`` replaces each traced function at every place it is bound:
its home module, every ``biharm`` module that imported it by name and, for
methods, the class.  Spans (name, start, end, parent span, iteration id) are
kept in memory and written once, when the traced child ends.  Calls too
frequent for a span each (field evaluations, stencils, partials, RK4 steps)
are only counted.

``layer_metrics`` turns one iteration's spans and counts into the per-layer
metrics; it needs only the standard library, so run.py can call it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# span name -> (home module, attribute)
SPANNED = {
    "numkernel.lambdify": ("sympy", "lambdify"),
    "numkernel.sympy_diff": ("sympy", "diff"),
    "geometry.riemann_chart": ("biharm.geometry", "riemann_chart"),
    "geometry.laplacian_field": ("biharm.geometry", "laplacian_field"),
    "frames.adapted_frame": ("biharm.frames", "adapted_frame"),
    "frames.integrability_data": ("biharm.frames", "integrability_data"),
    "frames.validate_frame": ("biharm.frames", "validate_frame"),
    "submersion.residual_report": ("biharm.submersion", "residual_report"),
    "constructor.integrate_alpha": ("biharm.constructor", "integrate_alpha"),
    "constructor.riccati_consistency": ("biharm.constructor",
                                        "riccati_consistency"),
    "constructor.verify_construction": ("biharm.constructor",
                                        "verify_construction"),
    "hypersurface.cmc_classify": ("biharm.hypersurface", "cmc_classify"),
    "report.write_report": ("biharm.report", "write_report"),
}

# Counts that must repeat exactly between two traced runs of the same inputs.
EXACT_COUNTS = ("numkernel.field_evals", "numkernel.stencil_legs",
                "numkernel.lambdify_calls", "numkernel.sympy_diff_calls",
                "constructor.rk4_steps")


def _rebind(home, attr, replacement):
    """Bind ``replacement`` wherever ``home.attr`` is bound in biharm."""
    original = getattr(home, attr)
    modules = [home] + [m for name, m in sorted(sys.modules.items())
                        if name == "biharm" or name.startswith("biharm.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """In-memory spans and counters of one traced iteration."""

    def __init__(self, iteration):
        self.iteration = iteration
        self.spans = []     # [name, start, end, parent index]
        self.counts = dict.fromkeys(
            ("numkernel.field_evals", "numkernel.eval_cache_hits",
             "numkernel.stencil_legs", "numkernel.partial_calls",
             "constructor.rk4_steps"), 0)
        self._stack = []

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def install(self):
        for name, (home, attr) in SPANNED.items():
            module = importlib.import_module(home)
            _rebind(module, attr, self._spanned(name, getattr(module, attr)))

        from biharm import constructor, numkernel

        counts = self.counts
        field = numkernel.ScalarField
        call, partial = field.__call__, field.partial

        def counted_call(self, point):
            counts["numkernel.field_evals"] += 1
            cache = getattr(self, "_val_cache", None)
            if cache is not None and tuple(point) in cache:
                counts["numkernel.eval_cache_hits"] += 1
            return call(self, point)

        def counted_partial(self, *args, **kwargs):
            counts["numkernel.partial_calls"] += 1
            return partial(self, *args, **kwargs)

        field.__call__, field.partial = counted_call, counted_partial

        # a stencil leg is one evaluation of the differenced field
        for attr, legs in (("_central1", 2), ("_central2", 3)):
            stencil = getattr(numkernel, attr)

            def counted_stencil(*args, _fn=stencil, _legs=legs):
                counts["numkernel.stencil_legs"] += _legs
                return _fn(*args)
            _rebind(numkernel, attr, counted_stencil)

        rk4 = constructor._rk4_step

        def counted_rk4(*args):
            counts["constructor.rk4_steps"] += 1
            return rk4(*args)
        _rebind(constructor, "_rk4_step", counted_rk4)

    def write(self, path):
        """Write every span as one JSON line (the only write of a run)."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "iteration": self.iteration}) + "\n")


def read_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced iteration (``trace.overhead_s`` is
    added by run.py, which also ran the iteration untraced)."""
    durations = [s["end"] - s["start"] for s in spans]
    child_s = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s["parent"] >= 0:
            child_s[s["parent"]] += d

    def indices(*names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def total_s(*names):
        """Time inside any of ``names``, not counting nested repeats."""
        out = 0.0
        for i in indices(*names):
            parent = spans[i]["parent"]
            while parent >= 0 and spans[parent]["name"] not in names:
                parent = spans[parent]["parent"]
            if parent < 0:
                out += durations[i]
        return out

    def self_s(name):
        return sum((durations[i] - child_s[i] for i in indices(name)), 0.0)

    def p50_s(name):
        got = [durations[i] for i in indices(name)]
        return statistics.median(got) if got else 0.0

    evals = counts["numkernel.field_evals"]
    rk4_s = total_s("constructor.integrate_alpha")
    rk4 = counts["constructor.rk4_steps"]
    return {
        "numkernel.field_evals": (evals, "count"),
        "numkernel.stencil_legs": (counts["numkernel.stencil_legs"], "count"),
        "numkernel.partial_calls": (counts["numkernel.partial_calls"],
                                    "count"),
        "numkernel.eval_cache_hit_ratio": (
            counts["numkernel.eval_cache_hits"] / evals if evals else 0.0,
            "ratio"),
        "numkernel.lambdify_calls": (len(indices("numkernel.lambdify")),
                                     "count"),
        "numkernel.lambdify_s": (total_s("numkernel.lambdify"), "s"),
        "numkernel.sympy_diff_calls": (len(indices("numkernel.sympy_diff")),
                                       "count"),
        "numkernel.sympy_diff_s": (total_s("numkernel.sympy_diff"), "s"),
        "geometry.riemann_chart.calls": (
            len(indices("geometry.riemann_chart")), "count"),
        "geometry.riemann_chart.self_s": (self_s("geometry.riemann_chart"),
                                          "s"),
        "geometry.laplacian_field.s": (total_s("geometry.laplacian_field"),
                                       "s"),
        "frames.build_s": (total_s("frames.adapted_frame",
                                   "frames.integrability_data"), "s"),
        "frames.validate_frame.calls": (
            len(indices("frames.validate_frame")), "count"),
        "frames.validate_frame.p50_s": (p50_s("frames.validate_frame"), "s"),
        "frames.validate_frame.self_s": (self_s("frames.validate_frame"), "s"),
        "submersion.residual_report.calls": (
            len(indices("submersion.residual_report")), "count"),
        "submersion.residual_report.p50_s": (
            p50_s("submersion.residual_report"), "s"),
        "submersion.residual_report.self_s": (
            self_s("submersion.residual_report"), "s"),
        "constructor.integrate_alpha.s": (rk4_s, "s"),
        "constructor.rk4_steps": (rk4, "count"),
        "constructor.rk4_steps_per_s": (rk4 / rk4_s if rk4_s else 0.0, "1/s"),
        "constructor.riccati_consistency.s": (
            total_s("constructor.riccati_consistency"), "s"),
        "constructor.verify_construction.p50_s": (
            p50_s("constructor.verify_construction"), "s"),
        "hypersurface.cmc_classify.s": (total_s("hypersurface.cmc_classify"),
                                        "s"),
        "report.write_report.s": (total_s("report.write_report"), "s"),
    }
