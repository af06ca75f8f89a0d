"""Spans around the public functions of each `affplane` layer.

The traced run replaces each function below in every `affplane` module
namespace that binds it: modules import each other's functions by name
(`collineation` binds `plane_from_ternary`), so wrapping only the
defining module would miss calls between layers.  A span records its
name, start, end, parent span and job; spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
child spans.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

TRACED = {
    "gf": ("make_field", "verify_field_tables", "galois_subgroup", "norm_image"),
    "andre": ("spec_from_exponents", "build_left", "build_right", "right_divide"),
    "quasifield": ("check_vw", "to_ternary", "associativity_witness", "check_vector_space"),
    "ternary": ("check_ternary_axioms", "find_isotopism", "find_isomorphism"),
    "plane": ("plane_from_ternary", "check_plane_axioms", "coordinatize", "parallel_classes"),
    "collineation": ("classify_ternary", "translation_candidate", "is_translation"),
    "formats": ("read_trs", "write_trs", "read_plane", "write_plane", "write_coll"),
    "cli": ("main",),
}

# input identity of functions whose repeated rebuilding or re-verification
# is measured as distinct inputs / calls
DISTINCT = {
    "gf.make_field": lambda p, n, *rest, **kw: (p, n),
    "ternary.check_ternary_axioms": lambda T: (T.q, hash(T.table)),
}

OVERHEAD = "trace.jobs_per_s_ratio"


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, names in TRACED.items():
        for name in names:
            specs += [(f"{module}.{name}.self_ms", "ms", "lower"),
                      (f"{module}.{name}.calls", "count", "lower")]
        specs.append((f"{module}.self_ms", "ms", "lower"))
    specs += [(f"{name}.distinct_ratio", "ratio", "higher") for name in DISTINCT]
    specs.append((OVERHEAD, "ratio", "higher"))
    return specs


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.inputs = defaultdict(set)
        self.job = None
        self._stack = []
        self._restore = []

    def install(self):
        namespaces = [importlib.import_module("affplane")]
        namespaces += [importlib.import_module(f"affplane.{m}") for m in TRACED]
        for module, names in TRACED.items():
            home = importlib.import_module(f"affplane.{module}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, attr, value))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        key = DISTINCT.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self.inputs[name].add(key(*args, **kwargs))
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def metrics(self):
        """Per-layer figures summed over the traced spans, except the
        overhead ratio, which the caller adds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_ms, calls = defaultdict(float), Counter()
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            self_ms[name] += (end - start - child[i]) * 1000
            calls[name] += 1
        out = {}
        for module, names in TRACED.items():
            for name in names:
                out[f"{module}.{name}.self_ms"] = self_ms[f"{module}.{name}"]
                out[f"{module}.{name}.calls"] = calls[f"{module}.{name}"]
            out[f"{module}.self_ms"] = sum(self_ms[f"{module}.{n}"] for n in names)
        for name in DISTINCT:
            # a function never called repeated nothing: ratio 1
            out[f"{name}.distinct_ratio"] = len(self.inputs[name]) / calls[name] if calls[name] else 1.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
