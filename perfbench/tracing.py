"""Spans around the package's module boundaries, recorded from outside.

The tracer replaces names in the package's module namespaces with timing
wrappers: the names ``cli`` imports from the pipeline modules, the names
``voronoi`` and ``degrees`` import from ``groebner``, ``unifactor`` and the
Sturm code, and the entry points of ``lowrank`` and ``sdp``.  No program
file changes.  A span records its name, start, end, parent span and
operation id; spans stay in memory until the run writes them out.  Work
counters are read from the wrapped calls' return values after each
operation, outside every span.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (module, attribute, span name); calls made through that module attribute
# get a span, and only those
SPANS = (
    ("cli", "voronoi_ideal", "voronoi.voronoi_ideal"),
    ("cli", "boundary_on_normal_line", "voronoi.normal_line"),
    ("cli", "hypersurface_degree_experiment", "degrees.experiment"),
    ("cli", "count_real_roots", "exactmath.sturm"),
    ("voronoi", "eliminate", "groebner.eliminate"),
    ("voronoi", "intersect", "groebner.intersect"),
    ("voronoi", "interreduce", "groebner.interreduce"),
    ("voronoi", "groebner_basis", "groebner.groebner_basis"),
    ("voronoi", "is_zero_dimensional", "groebner.dimension"),
    ("voronoi", "quotient_degree", "groebner.dimension"),
    ("voronoi", "factor_rational", "unifactor.factor"),
    ("voronoi", "isolate_real_roots", "exactmath.sturm"),
    ("voronoi", "sturm_chain", "exactmath.sturm"),
    ("voronoi", "count_roots", "exactmath.sturm"),
    ("voronoi", "squarefree_part", "exactmath.sturm"),
    ("voronoi", "dense_gcd", "exactmath.sturm"),
    ("degrees", "eliminate", "groebner.eliminate"),
    ("degrees", "is_zero_dimensional", "groebner.dimension"),
    ("degrees", "quotient_degree", "groebner.dimension"),
    ("degrees", "normal_space_at", "voronoi.critical"),
    ("degrees", "parametric_critical_system", "voronoi.critical"),
    ("lowrank", "svd", "lowrank.svd"),
    ("lowrank", "eckart_young_truncate", "lowrank.truncate"),
    ("lowrank", "cell_membership", "lowrank.cell_membership"),
    ("sdp", "leveld_membership", "sdp.membership"),
    ("sdp", "veronese_lift", "sdp.lift"),
    ("sdp", "lmi_feasible", "sdp.lmi"),
)
# (module, attribute, counter): calls counted without a span
COUNTED = (
    ("degrees", "random_hypersurface", "attempts"),
)


def _basis_stats(counts: Counter, basis) -> None:
    """Terms in a returned basis and, over Q, its largest coefficient."""
    polys = getattr(basis, "polys", basis)
    bits = 0
    for p in polys:
        counts["basis_terms"] += len(p.terms)
        for c in p.terms.values():
            if isinstance(c, Fraction):
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    counts["max_coeff_bits"] = max(counts["max_coeff_bits"], bits)


RESULT_HOOKS = {
    "groebner.eliminate": _basis_stats,
    "groebner.intersect": _basis_stats,
    "groebner.interreduce": _basis_stats,
    "groebner.groebner_basis": _basis_stats,
    "degrees.experiment":
        lambda counts, exp: counts.update(replicas=len(exp.replicas)),
    "sdp.lmi":
        lambda counts, res: counts.update(lmi_iterations=res.iterations),
}

# per-layer metric: (name, unit, how, source)
#   self:  the span's duration minus its direct children's, per operation
#   total: summed span durations per operation
#   calls: span count per operation
#   count: a work counter per operation
LAYER_METRICS = (
    ("cli.self_s", "s", "self", "cli.main"),
    ("voronoi.self_s", "s", "self", "voronoi.voronoi_ideal"),
    ("voronoi.normal_line_s", "s", "total", "voronoi.normal_line"),
    ("groebner.eliminate_s", "s", "total", "groebner.eliminate"),
    ("groebner.eliminate_calls", "count", "calls", "groebner.eliminate"),
    ("groebner.intersect_s", "s", "total", "groebner.intersect"),
    ("groebner.intersect_calls", "count", "calls", "groebner.intersect"),
    ("groebner.interreduce_s", "s", "total", "groebner.interreduce"),
    ("groebner.basis_terms", "count", "count", "basis_terms"),
    ("groebner.max_coeff_bits", "bits", "count", "max_coeff_bits"),
    ("unifactor.factor_s", "s", "total", "unifactor.factor"),
    ("exactmath.sturm_s", "s", "total", "exactmath.sturm"),
    ("degrees.self_s", "s", "self", "degrees.experiment"),
    ("degrees.attempts", "count", "count", "attempts"),
    ("degrees.replicas", "count", "count", "replicas"),
    ("lowrank.svd_s", "s", "total", "lowrank.svd"),
    ("lowrank.svd_calls", "count", "calls", "lowrank.svd"),
    ("lowrank.membership_self_s", "s", "self", "lowrank.cell_membership"),
    ("sdp.lift_s", "s", "total", "sdp.lift"),
    ("sdp.lift_calls", "count", "calls", "sdp.lift"),
    ("sdp.lmi_s", "s", "total", "sdp.lmi"),
    ("sdp.lmi_iterations", "count", "count", "lmi_iterations"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index, op)
        self.counts: dict = defaultdict(Counter)   # op -> work counters
        self._stack: list = []
        self._pending: list = []   # (hook, result) read after the operation
        self._saved: list = []
        self.op = None

    def _span(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                self._pending.append((hook, result))
            return result
        return traced

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.op][name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        for table, wrap in ((SPANS, self._span), (COUNTED, self._counted)):
            for module, attr, name in table:
                mod = importlib.import_module(f"voronoi_cells.{module}")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def run(self, op: int, root: str, fn, *args):
        """Run one operation under a root span, then read its counters."""
        self.op = op
        try:
            return self._span(root, fn)(*args)
        finally:
            for hook, result in self._pending:
                hook(self.counts[op], result)
            self._pending.clear()
            self.op = None

    def layer_metrics(self) -> dict:
        """Per-layer values: median over operations for times, mean for counts."""
        total = defaultdict(Counter)
        self_time = defaultdict(Counter)
        calls = defaultdict(Counter)
        ops = set(self.counts)
        for name, start, end, parent, op in self.spans:
            ops.add(op)
            dur = end - start
            total[op][name] += dur
            self_time[op][name] += dur
            calls[op][name] += 1
            if parent >= 0:
                self_time[op][self.spans[parent][0]] -= dur
        ops = sorted(ops)
        out = {}
        for metric, unit, how, source in LAYER_METRICS:
            table = {"self": self_time, "total": total, "calls": calls,
                     "count": self.counts}[how]
            values = [table[op][source] for op in ops] or [0]
            value = (statistics.median(values) if unit == "s"
                     else statistics.fmean(values))
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "op": op}) + "\n")
