"""Spans around the program's public functions, recorded from outside.

`Tracer.install` wraps each traced function and rebinds the wrapper under
the function's name in every `sclflow` module that holds the original, so
calls between modules (`engine` calling `linprog.solve_lp`, `linprog`
calling its own `solve_square`) are seen as well as the benchmark's own.
Spans live in memory; `dump` writes them out once the run has ended.

A span's self time is its duration minus the durations of its child spans.
The process is single-threaded, so child spans never overlap and their
sum is the part of the parent they cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span
SPANNED = (
    ("engine", "scl"),
    ("linprog", "solve_lp"),
    ("linprog", "make_lp"),
    ("linprog", "solve_square"),
    ("linprog", "enumerate_vertices"),
    ("cones", "enumerate_disc_vectors"),
    ("cones", "lp_columns"),
    ("cones", "is_essential"),
    ("cones", "is_extremal"),
    ("cones", "extremal_rays"),
    ("bounds", "min_vanishing"),
    ("hardness", "reduce_ss_to_smallscl"),
    ("hardness", "solve_subset"),
    ("hardness", "j_pair_certificate"),
    ("graphs", "hamiltonian_cycles"),
)

# generators: only the items they yield are counted
COUNTED_GENERATORS = (("cones", "iter_bounded_flows"),)

# per-layer metrics in report order, with their units
LAYER_METRICS = (
    ("linprog.solve_lp.time_s", "s"),
    ("linprog.solve_lp.calls", "count"),
    ("linprog.solve_lp.cells", "count"),
    ("linprog.make_lp.time_s", "s"),
    ("linprog.solve_square.time_s", "s"),
    ("linprog.solve_square.calls", "count"),
    ("linprog.enumerate_vertices.self_s", "s"),
    ("cones.enumerate_disc_vectors.time_s", "s"),
    ("cones.enumerate_disc_vectors.discs", "count"),
    ("cones.lp_columns.self_s", "s"),
    ("cones.lp_columns.kept", "count"),
    ("cones.lp_columns.kept_ratio", "ratio"),
    ("cones.is_essential.time_s", "s"),
    ("cones.is_extremal.time_s", "s"),
    ("cones.iter_bounded_flows.yielded", "count"),
    ("cones.extremal_rays.self_s", "s"),
    ("engine.scl.self_s", "s"),
    ("engine.scl.bounds_tried", "count"),
    ("bounds.min_vanishing.time_s", "s"),
    ("bounds.min_vanishing.calls", "count"),
    ("hardness.solve_subset.time_s", "s"),
    ("hardness.j_pair_certificate.time_s", "s"),
    ("graphs.hamiltonian_cycles.time_s", "s"),
    ("hardness.reduce_ss_to_smallscl.self_s", "s"),
)


class Span:
    __slots__ = ("ident", "parent", "name", "start", "end", "child_s", "counts")

    def __init__(self, ident, parent, name):
        self.ident = ident
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _on_solve_lp(span, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    rows = len(lp.eq_constraints) + len(lp.ineq_constraints)
    span.counts["cells"] = rows * len(lp.objective)


def _on_discs(span, args, kwargs, result):
    span.counts["discs"] = len(result)


def _on_lp_columns(span, args, kwargs, result):
    span.counts["kept"] = len(result)


def _on_scl(span, args, kwargs, result):
    span.counts["bounds_tried"] = result.bound_used


_RESULT_HOOKS = {
    "linprog.solve_lp": _on_solve_lp,
    "cones.enumerate_disc_vectors": _on_discs,
    "cones.lp_columns": _on_lp_columns,
    "engine.scl": _on_scl,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[Span] = []

    # -- wrapping -----------------------------------------------------------

    def _spanned(self, name, fn):
        hook = _RESULT_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.ident if parent else None, name)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                for item in gen:
                    counts[key] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def install(self, pkg_name: str = "sclflow") -> None:
        """Wrap every traced function of the imported package and rebind the
        wrapper in each of its modules that holds the original."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == pkg_name or k.startswith(pkg_name + "."))]
        for table, make in ((SPANNED, self._spanned), (COUNTED_GENERATORS, self._counted)):
            for mod_name, fn_name in table:
                original = getattr(sys.modules[f"{pkg_name}.{mod_name}"], fn_name)
                wrapped = make(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapped)

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, dict]:
        """Every per-layer metric, per pass over the workload's inputs.

        time_s is inclusive and counts only the outermost span of a name;
        self_s excludes child spans; ratios are taken over all passes.
        """
        by_id = self.spans
        time_s = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int, self.counts)
        kept_with_discs = discs_under_columns = 0
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
            ancestor = span.parent
            nested = False
            while ancestor is not None:
                if by_id[ancestor].name == span.name:
                    nested = True
                    break
                ancestor = by_id[ancestor].parent
            if not nested:
                time_s[span.name] += span.duration
            for key, n in span.counts.items():
                counts[f"{span.name}.{key}"] += n
            if span.name == "cones.enumerate_disc_vectors" and span.parent is not None:
                parent = by_id[span.parent]
                if parent.name == "cones.lp_columns":
                    discs_under_columns += span.counts["discs"]
                    kept_with_discs += parent.counts.get("kept", 0)

        def value(metric: str):
            layer, _, kind = metric.rpartition(".")
            if kind == "time_s":
                return time_s[layer] / passes
            if kind == "self_s":
                return self_s[layer] / passes
            if kind == "calls":
                return calls[layer] / passes
            if kind == "kept_ratio":
                return kept_with_discs / discs_under_columns if discs_under_columns else 0.0
            return counts[metric] / passes

        return {metric: {"value": value(metric), "unit": unit}
                for metric, unit in LAYER_METRICS}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "start", "end", "self_s", "counts"],
                "spans": [[s.ident, s.parent, s.name, s.start, s.end, s.self_s, s.counts]
                          for s in self.spans],
                "counts": dict(self.counts),
            }, fh)
