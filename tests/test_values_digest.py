"""The values each benchmark workload computes at seed 1, pinned by the
digest `perfbench/run.py` prints.  A change that moves a value on purpose
re-pins its digest here and accounts for each changed entry."""

import importlib.util
import sys
from pathlib import Path

import pytest

import sclflow

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DIGESTS = {
    "scl-words": "43aeda1cb52d04e6",
    "scl-sweep": "19cf2f39dd74d5a2",
    "reduction": "67deaea33bed75ee",
    "geometry": "db6fcee7afc10955",
}


def load(monkeypatch, name):
    """perfbench/<name>.py as the top-level module `name`, as run.py imports
    it; sys.modules is restored after the test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_1_values_digest(name, monkeypatch):
    checks = load(monkeypatch, "checks")
    workloads = load(monkeypatch, "workloads")
    wl = workloads.build(name, 1, sclflow)
    # one pass, clearing the caches as run.py's run_pass does
    sclflow.clear_caches()
    outputs = []
    for item in wl.items:
        if wl.clear_per_op:
            sclflow.clear_caches()
        outputs.append(checks.TO_PLAIN[name](wl.op(sclflow, item)))
    assert checks.digest(outputs) == DIGESTS[name]
