"""The values each benchmark workload computes at seed 1, pinned by the
digest `perfbench/run.py` prints.  A change that moves a value on purpose
re-pins its digest here and accounts for each changed entry."""

import hashlib
import importlib.util
import json
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

# The geometry digest hashes the verdicts only.  This pins, for every
# bound-2 disc of the seed-1 geometry cones, `is_essential` and the whole
# N = 2 extremality report: a walk that met the flows in another order
# could report another counterexample under the same verdict.
GEOMETRY_REPORTS = "fdf32bdd6b3e6a6e58b930396b7447ca9eaf5794ea5b50585c979d7ead95fc62"


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


def test_seed_1_geometry_reports(monkeypatch):
    load(monkeypatch, "checks")
    workloads = load(monkeypatch, "workloads")
    rows = []
    for n, row in workloads.geometry_inputs(1):
        spec = sclflow.cone_spec(n, [row])
        for d in sclflow.enumerate_disc_vectors(spec, 2):
            report = sclflow.is_extremal(spec, d, n_max=2)
            rows.append([d.entries, sclflow.is_essential(spec, d), report.extremal_up_to,
                         report.counterexample, report.edges])
    assert len(rows) == 904
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == GEOMETRY_REPORTS
