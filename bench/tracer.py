"""Outside-in tracer: spans around the public functions of the `prelie` layers.

The library has no tracing of its own, so the tracer replaces each traced
function by a wrapper that records a span (name, parent, start, end, job)
and, for a few functions, an exact work count computed from the argument
shapes or the result.  Modules bind names with ``from .cochain import
coboundary``, so every ``prelie.*`` module attribute that is the original
function is replaced, not only the defining one; methods are replaced on
their class.  `restore` puts every original back.

Spans are kept in memory; `write` dumps them as JSON lines at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Functions whose calls are spans, by defining module.  `scalars` and the
# vector helpers of `linalg` get none: their calls are too fine-grained to
# wrap, so their cost lands in the self time of their callers.
TRACED = {
    "cli": ["main"],
    "bundle": [
        "parse_bundle", "Bundle.algebra", "Bundle.algebra2", "Bundle.representation",
        "Bundle.cocycle", "Bundle.matrix", "Bundle.operator", "Bundle.reynolds_data",
        "Bundle.named_cochain", "Bundle.element", "Bundle.weight", "Bundle.series",
        "Bundle.nsprelie", "algebra_to_json", "matrix_to_json", "nsprelie_to_json",
        "reynolds_data_to_json",
    ],
    "search": ["exhaustive_search"],
    "deformation": [
        "element_coboundary", "check_linear_deformation", "is_cocycle",
        "check_formal_deformation", "check_equivalence_data",
        "check_nijenhuis_element", "nijenhuis_elements", "rigidity_probe",
    ],
    "nsprelie": [
        "check_ns_prelie", "check_nijenhuis", "deformed_product", "ns_from_nijenhuis",
        "ns_from_reynolds", "reynolds_from_ns", "compatible_ns_from_invertible",
    ],
    "brackets": [
        "diamond", "mn_bracket", "derived_bracket", "ternary_bracket", "mc_residual",
        "check_maurer_cartan", "d_K", "twisted_mc_residual", "check_twisted_mc",
    ],
    "opcohomology": [
        "induced_representation", "operator_coboundary", "operator_coboundary_matrix",
        "operator_cohomology",
    ],
    "reynolds": [
        "check_rcw_reynolds", "check_weighted_reynolds", "check_d_reynolds",
        "star_product", "semidirect", "check_graph_subalgebra", "induced_product",
        "shift_isomorphism", "shift_operator", "gauge_transform",
        "reynolds_from_invertible_cochain", "check_rcw_morphism",
    ],
    "cochain": ["coboundary", "check_two_cocycle", "coboundary_matrix", "cohomology"],
    "linalg": ["Matrix.rref", "Matrix.__mul__"],
    "algebra": [
        "check_prelie", "check_representation", "regular_representation",
        "check_derivation", "check_morphism", "subadjacent_lie",
    ],
}

# Span names under which the layer metrics report a function.
ALIASES = {"linalg.Matrix.rref": "linalg.rref", "linalg.Matrix.__mul__": "linalg.mul"}


def _rref_entries(args, result):
    return args[0].rows * args[0].cols


def _mul_madds(args, result):
    return args[0].rows * args[0].cols * args[1].cols


def _matrix_cols(args, result):
    return result.cols


def _search_counts(args, result):
    return result.count_checked, result.count_solutions


# Exact work counts: span name -> function of (args, result).
COUNTERS = {
    "linalg.rref": _rref_entries,
    "linalg.mul": _mul_madds,
    "cochain.coboundary_matrix": _matrix_cols,
    "search.exhaustive_search": _search_counts,
}


class Tracer:
    """Records spans for the traced functions of one imported `prelie`."""

    def __init__(self):
        self.spans = []      # (name, parent index or -1, start, end, job)
        self.work = defaultdict(int)   # name -> summed count, or tuple of sums
        self.job = None
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, self.work
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, self.job)
            if counter is not None:
                count = counter(args, result)
                if isinstance(count, tuple):
                    old = work[name] or (0,) * len(count)
                    work[name] = tuple(a + b for a, b in zip(old, count))
                else:
                    work[name] += count
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.span_name = name
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "prelie" or key.startswith("prelie."))]
        for layer, names in TRACED.items():
            module = sys.modules[f"prelie.{layer}"]
            for qualname in names:
                full = f"{layer}.{qualname}"
                name = ALIASES.get(full, full)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(name, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, start, end, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "start": start, "end": end, "job": job}) + "\n")


def self_times(spans, lo=0, hi=None):
    """Per-span self time (duration minus child durations) for spans[lo:hi].

    Returns a list of (name, parent, self seconds) in span order.
    Children always lie inside their parent's interval, because the
    library runs in one thread.
    """
    hi = len(spans) if hi is None else hi
    child = defaultdict(float)
    for _name, parent, start, end, _job in spans[lo:hi]:
        if parent >= lo:
            child[parent] += end - start
    return [(name, parent, end - start - child[lo + k])
            for k, (name, parent, start, end, _job) in enumerate(spans[lo:hi])]
