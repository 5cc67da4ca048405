"""The functions the benchmark's tracer wraps must exist in the package,
or `perfbench/run.py --trace 1` fails when it installs its spans."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, fn_name in spans.SPANNED + spans.COUNTED_GENERATORS:
        module = importlib.import_module(f"sclflow.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
