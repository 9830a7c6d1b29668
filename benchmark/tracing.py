"""Per-layer tracing from outside the package.

`Tracer.install` replaces each traced function by a wrapper, under every
name it is looked up by: a module-level function is rebound in every
`coxpres` module whose namespace holds it (so `coxpres.checks.saturate`
is patched as well as `coxpres.groebner.saturate`), and a method is
replaced on its class. `uninstall` restores the originals.

A span wrapper records one span per call: name, start, end, parent span
and the operation it ran under. A count wrapper only counts calls,
because the wrapper would cost more than bodies such as `divides`.
Spans stay in memory until `write`. The metric names come from
BENCHMARK.json; only the derived metrics are defined here.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from coxpres import collineation, geometry, groebner, intlinalg, polyring

SPAN, COUNT = "span", "count"

# metric prefix, owner, attribute names, kind
TRACED = (
    ("collineation.cox_presentation", collineation, ("cox_presentation",), SPAN),
    ("collineation.proof_ideals", collineation, ("proof_ideals",), SPAN),
    ("groebner.groebner_basis", groebner, ("groebner_basis",), SPAN),
    ("groebner.normal_form", groebner, ("normal_form",), SPAN),
    ("groebner.saturate", groebner, ("saturate",), SPAN),
    ("groebner.toric_kernel", groebner, ("toric_kernel",), SPAN),
    ("groebner.krull_dimension", groebner, ("krull_dimension",), SPAN),
    ("groebner.s_polynomial", groebner, ("s_polynomial",), COUNT),
    ("polyring.divides", polyring, ("divides",), COUNT),
    ("polyring.term_mul", polyring.Polynomial, ("term_mul",), COUNT),
    ("polyring.mul", polyring.Polynomial, ("__mul__", "__rmul__"), COUNT),
    ("polyring.add_sub", polyring.Polynomial, ("__add__", "__sub__"), COUNT),
    ("intlinalg.matmul", intlinalg.IntMatrix, ("__matmul__",), SPAN),
    ("intlinalg.rank", intlinalg, ("rank",), SPAN),
    ("intlinalg.hermite_normal_form", intlinalg, ("hermite_normal_form",), SPAN),
    ("intlinalg.kernel_basis", intlinalg, ("kernel_basis",), COUNT),
    ("geometry.gale_cone_test", geometry, ("gale_cone_test",), SPAN),
    ("geometry.cone_contains", geometry.Cone, ("contains",), SPAN),
    ("geometry.git_fan", geometry, ("git_fan",), SPAN),
    ("geometry.stellar_subdivide", geometry, ("stellar_subdivide",), SPAN),
)

# derived counts that, like every `.calls`, repeat exactly between passes
EXACT_DERIVED = ("groebner.spairs_reduced", "groebner.zero_reductions",
                 "groebner.basis_size_max", "groebner.basis_degree_max")


def is_exact(name: str) -> bool:
    return name.endswith(".calls") or name in EXACT_DERIVED


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []
        self._last_spoly = None
        self._zero_reductions = 0
        self._basis_size_max = 0
        self._basis_degree_max = 0

    # -- wrappers

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn, after=None):
        counts = self.counts
        if after is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                after(args, result)
                return result

        return wrapper

    def _after_spoly(self, args, result):
        self._last_spoly = result

    def _after_normal_form(self, args, result):
        # groebner_basis reduces each S-polynomial right after forming it
        if args and args[0] is self._last_spoly:
            self._last_spoly = None
            if not result:
                self._zero_reductions += 1

    def _after_groebner_basis(self, args, basis):
        self._basis_size_max = max(self._basis_size_max, len(basis))
        for g in basis:
            self._basis_degree_max = max(self._basis_degree_max, g.total_degree())

    def _wrap(self, prefix, fn, kind):
        after = {"groebner.s_polynomial": self._after_spoly,
                 "groebner.normal_form": self._after_normal_form,
                 "groebner.groebner_basis": self._after_groebner_basis}.get(prefix)
        return (self._span if kind == SPAN else self._count)(prefix, fn, after)

    # -- patching

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "coxpres" or name.startswith("coxpres."))
                   and m is not None]
        for prefix, owner, attrs, kind in TRACED:
            for attr in attrs:
                fn = owner.__dict__[attr]
                wrapper = self._wrap(prefix, fn, kind)
                if isinstance(owner, type):
                    targets = [(owner, attr)]
                else:
                    targets = [(m, a) for m in modules
                               for a, v in list(vars(m).items()) if v is fn]
                for target, name in targets:
                    self._undo.append((target, name, getattr(target, name)))
                    setattr(target, name, wrapper)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def run_op(self, name, fn):
        """Call one benchmark operation under a root span of its own."""
        self.op = name
        try:
            return self._span(name, fn)()
        finally:
            self.op = None

    # -- results

    def metrics(self, names) -> dict[str, float]:
        """The value of each metric in `names` that the spans and counters
        give: every per-layer metric except trace.overhead_frac."""
        calls = Counter({f"{k}.calls": v for k, v in self.counts.items()})
        inclusive: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[f"{name}.calls"] += 1
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        groebner_self = sum(end - start - child[i]
                            for i, (name, start, end, *_) in enumerate(self.spans)
                            if name.startswith("groebner."))
        spairs = self.counts["groebner.s_polynomial"]
        zero = self._zero_reductions
        derived = {
            "groebner.spairs_reduced": spairs,
            "groebner.zero_reductions": zero,
            "groebner.useful_frac": (spairs - zero) / spairs if spairs else 0.0,
            "groebner.basis_size_max": self._basis_size_max,
            "groebner.basis_degree_max": self._basis_degree_max,
            "groebner.self_s": groebner_self,
        }
        out = {}
        for name in names:
            if name in derived:
                out[name] = derived[name]
            elif name.endswith(".calls"):
                out[name] = calls[name]
            elif name.endswith(".s"):
                out[name] = inclusive[name[:-2]]
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, operation."""
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
