"""Outside-in span tracing of multinv, installed by the benchmark only.

`Tracer.install()` replaces the public functions of every multinv layer,
plus a few hot methods, with wrappers that record one span each: the
function's name, start, end and the enclosing span.  Every module
attribute bound to a wrapped function is rebound, so calls made through
`from .groups import close_group` are seen too.  Spans stay in flat arrays
in memory; `summarize` derives the per-layer metrics from them and `dump`
writes them out.  Nothing inside src/multinv is changed on disk.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from functools import wraps
from math import prod

# Layers in pipeline order; the first name component of every span.
LAYERS = ("cli", "classify", "roots", "monoid", "laurent", "groups",
          "lattice")
CLI_FUNCTIONS = ("main", "load_action", "render_json")
METHODS = {
    "lattice": {"IntMatrix": ("rank", "__mul__", "apply"),
                "Sublattice": ("coefficients",)},
    "laurent": {"LaurentPolynomial": ("transform", "__mul__")},
}

# metric prefix -> span names whose outermost calls it counts and times
FUNCTIONS = {
    "groups.close_group": ("groups.close_group",),
    "groups.effective_quotient": ("groups.effective_quotient",),
    "roots.find_reflections": ("roots.find_reflections",),
    "roots.is_reflection_group": ("roots.is_reflection_group",),
    "roots.build_root_system": ("roots.build_root_system",),
    "lattice.rank": ("lattice.IntMatrix.rank",),
    "lattice.matmul": ("lattice.IntMatrix.__mul__",),
    "lattice.apply": ("lattice.IntMatrix.apply",),
    "lattice.coefficients": ("lattice.Sublattice.coefficients",),
    "lattice.snf": ("lattice.smith_normal_form",),
    "lattice.solve_linear": ("lattice.solve_linear",),
    "monoid.enumerate_box": ("monoid.enumerate_box",),
    "monoid.hilbert_basis": ("monoid.hilbert_basis",),
    "laurent.fundamental_invariants": (
        "laurent.fundamental_invariants",
        "laurent.fundamental_invariants_detailed"),
    "laurent.is_invariant": ("laurent.is_invariant",),
    "laurent.transform": ("laurent.LaurentPolynomial.transform",),
    "laurent.mul": ("laurent.LaurentPolynomial.__mul__",),
    "classify.verdict": ("classify.verdict",),
    "classify.min_displacement_rank": ("classify.min_displacement_rank",),
    "classify.class_group": ("classify.class_group",),
    "classify.sign_locus": ("classify.sign_group_singular_locus",),
    "cli.load_action": ("cli.load_action",),
    "cli.render_json": ("cli.render_json",),
}

# Size counters read from arguments and results, outside the span.
def _closure(tracer, args, result):
    gens = args[0] if hasattr(args[0], "__len__") else result.generators
    tracer.counters["groups.closure_products"] += result.order * len(gens)
    tracer.facts.setdefault("group_order", result.order)


def _reflections(tracer, args, result):
    tracer.counters["roots.reflections"] += len(result)
    tracer.facts.setdefault("reflection_count", len(result))


def _box(tracer, args, result):
    tracer.counters["monoid.box_scanned"] += prod(z + 1 for z in args[2])
    tracer.counters["monoid.box_kept"] += len(result)


def _hilbert(tracer, args, result):
    tracer.counters["monoid.hilbert_size"] += len(result)


def _invariants(tracer, args, result):
    tracer.counters["laurent.terms"] += sum(len(f.polynomial.terms)
                                            for f in result)


def _sign_locus(tracer, args, result):
    tracer.counters["classify.sign_points"] += 2 ** args[0].rank


# Every counter the observers write; zero where a workload never calls
# the observed function.
COUNTERS = ("groups.closure_products", "roots.reflections",
            "monoid.box_scanned", "monoid.box_kept", "monoid.hilbert_size",
            "laurent.terms", "classify.sign_points")

OBSERVERS = {
    "groups.close_group": _closure,
    "roots.find_reflections": _reflections,
    "monoid.enumerate_box": _box,
    "monoid.hilbert_basis": _hilbert,
    "laurent.fundamental_invariants_detailed": _invariants,
    "classify.sign_group_singular_locus": _sign_locus,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.facts: dict = {}  # first group order / reflection count seen

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack = self._stack
        clock = self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer's public functions and the hot methods."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"multinv.{layer}")
            public = CLI_FUNCTIONS if layer == "cli" else module.__all__
            for attr in public:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replaced[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(
                        f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "multinv" and not mod_name.startswith("multinv."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def mark(self) -> int:
        """Index of the next span, to delimit one case."""
        return len(self.start)

    def summarize(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-layer metrics over the spans lo..hi-1 (one or more whole
        cases, so every parent of a span in range is in range too)."""
        hi = len(self.start) if hi is None else hi
        names, span_name, parent = self.names, self.span_name, self.parent
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        group_of = {}
        for metric, members in FUNCTIONS.items():
            for m in members:
                group_of[m] = metric
        calls, incl, self_s = Counter(), Counter(), Counter()
        outer_open = {}  # metric -> outermost open span of that metric
        for i in range(lo, hi):
            name = names[span_name[i]]
            k = i - lo
            self_s[name.split(".", 1)[0]] += dur[k] - child[k]
            metric = group_of.get(name)
            if metric is None:
                continue
            calls[metric] += 1
            # spans are recorded in start order and properly nested, so
            # an earlier span of the metric that is still open is an
            # ancestor, and only the outermost one adds to the time
            j = outer_open.get(metric)
            if j is None or self.end[j] < self.start[i]:
                outer_open[metric] = i
                incl[metric] += dur[k]
        out = {}
        for metric in FUNCTIONS:
            out[f"{metric}_calls"] = calls[metric]
            out[f"{metric}_s"] = incl[metric]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def dump(self, path, header: dict):
        """Write every span (name, parent, start, end) as JSON."""
        doc = dict(header)
        doc.update(
            names=self.names,
            span_name=self.span_name.tolist(),
            parent=self.parent.tolist(),
            start=[round(x, 7) for x in self.start],
            end=[round(x, 7) for x in self.end],
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(summary: dict, counters: Counter) -> dict:
    """Every per-layer value from a summary and the size counters of the
    same spans: calls and inclusive seconds per FUNCTIONS entry, self
    seconds per layer, the OBSERVERS' counters and the box kept ratio."""
    values = dict.fromkeys(COUNTERS, 0)
    values.update(summary)
    values.update(counters)
    scanned = values["monoid.box_scanned"]
    values["monoid.box_kept_ratio"] = (
        values["monoid.box_kept"] / scanned if scanned else 0.0)
    return values
