"""The functions the benchmark's tracer wraps must exist in the package,
or `perfbench/run.py --trace 1` fails when it installs its spans, and its
per-layer counters must read the program's data as it is."""

import importlib
import importlib.util
import re
from pathlib import Path

import sclflow
from sclflow import engine
from sclflow.words import parse_word

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_exist():
    spans = load_spans()
    for mod_name, fn_name in spans.SPANNED + spans.COUNTED_GENERATORS:
        module = importlib.import_module(f"sclflow.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_functions_the_benchmark_calls_exist():
    # run.py and workloads.py call the package as `pkg.<name>(...)` or
    # `p.<name>(...)`; clear_caches is called before every operation
    called = set()
    for name in ("run.py", "workloads.py"):
        text = (PERFBENCH / name).read_text()
        called |= set(re.findall(r"\b(?:pkg|p)\.(\w+)\(", text))
    assert "clear_caches" in called
    for name in sorted(called):
        assert callable(getattr(sclflow, name, None)), name


def test_solve_lp_cells_count_every_row_times_every_variable(monkeypatch):
    spans = load_spans()
    solve, solved = engine.solve_lp, []

    def recording(lp):
        res = solve(lp)
        solved.append((lp, res))
        return res

    monkeypatch.setattr(engine, "solve_lp", recording)
    engine.scl(parse_word("a b a^-1 b^-1"))
    assert solved
    for lp, res in solved:
        span = spans.Span(0, None, "linprog.solve_lp")
        spans._on_solve_lp(span, (lp,), {}, res)
        rows = len(lp.eq_constraints) + len(lp.ineq_constraints)
        assert span.counts["cells"] == rows * lp.dim()
