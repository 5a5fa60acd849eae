"""Per-layer tracing by wrapping unipavg's public functions from outside.

`Tracer.install` replaces each traced function or method with a wrapper,
in every unipavg module and class that binds it: `average` imports
`exp_nilpotent` by name, so patching `nilpotent` alone would miss its
calls.  Spans (name, job, start, end, parent) are kept in memory and
written once at the end; a layer's self time is its span's duration
minus the durations of its direct child spans.  A span covers the
outermost call of its name, so recursion (apply_hom on a group element
calls itself on the log) and nested serializers count once.  The hottest
kernels (scalar and polynomial products, matmul) only count, since a
span per call would cost more than the call.

Counts depend only on the inputs, so two runs of one seed agree exactly.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

from unipavg.exactring import SimplexPoly

# span name -> [(module, qualified name)] of the functions it covers
SPANS = {
    "cli.main": [("cli", "main")],
    "exactring.eval": [("exactring", "eval_at_weights")],
    "exactring.substitute": [("exactring", "substitute_simplex_map")],
    "nilpotent.exp": [("nilpotent", "exp_nilpotent")],
    "nilpotent.log": [("nilpotent", "log_unipotent")],
    "nilpotent.coordinates": [("nilpotent", "LieSpan.coordinates")],
    "nilpotent.quotient_span": [("nilpotent", "quotient_span")],
    "nilpotent.apply_hom": [("nilpotent", "apply_hom")],
    "average.wsym": [("average", "wsym")],
    "average.wav": [("average", "wav")],
    "average.wav_at_weights": [("average", "wav_at_weights")],
    "simplicial.build": [("simplicial", "build_simplicial_section")],
    "simplicial.validate": [("simplicial", "validate_simplicial_section")],
    "simplicial.tower": [("simplicial", "tower_compatibility")],
    "descent.orbit_check": [("descent", "GaloisOrbit.__init__")],
    "descent.rational_point": [("descent", "rational_point")],
    "serialize.read": [("serialize", name) for name in (
        "field_from_json", "nil_from_json", "uni_from_json", "span_from_json",
        "tuple_from_json", "cover_from_json", "locals_from_json",
        "simplicial_from_json", "orbit_from_json")],
    "serialize.write": [("serialize", name) for name in (
        "matrix_to_json", "span_to_json", "tuple_to_json", "cover_to_json",
        "locals_to_json", "simplicial_to_json", "validation_report_to_json",
        "tower_report_to_json", "orbit_to_json")],
}

# counter name -> (module, qualified name); `_matmul` is the one private
# name traced, because it is the triangular kernel behind every product,
# inverse, exp and log
COUNTERS = {
    "nilpotent.matmul.calls": ("nilpotent", "_matmul"),
    "nilpotent.inverse.calls": ("nilpotent", "UniMatrix.inverse"),
    "average.section_tuple.inits": ("average", "SectionTuple.__init__"),
}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "unipavg" or name.startswith("unipavg."))]


def _replace(module_name, qualname, make_wrapper):
    """Replace a function everywhere unipavg binds it, or a method under
    every name its class binds it to (`__rmul__ = __mul__`).  A name that
    no longer exists raises, rather than letting its layer read zero."""
    owner = importlib.import_module("unipavg." + module_name)
    *cls_path, attr = qualname.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
    wrapper = make_wrapper(original)
    for holder in [owner] if cls_path else _modules():
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, wrapper)


class Tracer:
    """Spans and counters for one traced worker process."""

    def __init__(self):
        self.spans = []          # (name, job, start, end, parent index)
        self.stack = []
        self.active_names = Counter()
        self.counts = Counter()
        self.max_quotient_n = 0
        self.job = None

    # -- job boundaries ---------------------------------------------------

    def begin(self, job):
        self.job = job

    def end(self):
        self.job = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, after=None):
        spans, stack, active = self.spans, self.stack, self.active_names

        def make(fn):
            def wrapper(*args, **kwargs):
                if self.job is None or active[name]:
                    return fn(*args, **kwargs)
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                active[name] += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    active[name] -= 1
                    stack.pop()
                    spans[idx] = (name, self.job, start, end, parent)
                if after is not None:
                    after(args, result)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _counter(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                if self.job is not None:
                    counts[name] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _poly_mul(self, fn):
        counts = self.counts

        def wrapper(a, b):
            if self.job is not None and isinstance(b, SimplexPoly):
                counts["exactring.poly_mul.calls"] += 1
                counts["exactring.poly_mul.term_products"] += len(a.terms) * len(b.terms)
            return fn(a, b)
        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_mul(self, fn):
        counts = self.counts

        def wrapper(a, b):
            if self.job is not None:
                if a.field.degree == 1:
                    counts["exactring.scalar_mul.q_calls"] += 1
                else:
                    counts["exactring.scalar_mul.nf_calls"] += 1
            return fn(a, b)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that read a call's arguments or result, after the span ------

    def _after_wsym(self, args, result):
        if args[0].is_constant_tuple():
            self.counts["average.wsym.redundant_passes"] += 1

    def _after_quotient(self, args, result):
        self.max_quotient_n = max(self.max_quotient_n, result[0].n)

    def _after_validate(self, args, result):
        self.counts["simplicial.validate.checks"] += result.checks

    def install(self):
        after = {"average.wsym": self._after_wsym,
                 "nilpotent.quotient_span": self._after_quotient,
                 "simplicial.validate": self._after_validate}
        for name, targets in SPANS.items():
            make = self._span(name, after.get(name))
            for module_name, qualname in targets:
                _replace(module_name, qualname, make)
        for name, (module_name, qualname) in COUNTERS.items():
            _replace(module_name, qualname, self._counter(name))
        _replace("exactring", "SimplexPoly.__mul__", self._poly_mul)
        _replace("exactring", "ScalarValue.__mul__", self._scalar_mul)

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, job, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, job, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def summary(self, njobs):
        """Per-layer values per job: counts as count/job, self times as ms/job."""
        calls = Counter(span[0] for span in self.spans)
        self_s = self.self_times()
        out = {"span_calls": dict(calls)}
        per_job = {}
        for name in SPANS:
            per_job[name + ".calls"] = calls[name] / njobs
            per_job[name + ".self_ms"] = 1000.0 * self_s[name] / njobs
        for name, value in self.counts.items():
            per_job[name] = value / njobs
        per_job["nilpotent.quotient.max_n"] = self.max_quotient_n
        out["per_job"] = per_job
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "job", "start", "end", "parent"],
                       "spans": self.spans}, fh)
