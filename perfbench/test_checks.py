"""Each checker accepts the program's real output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import sclflow  # noqa: E402
from workloads import WordInput, sweep_inputs  # noqa: E402


def _scl_output(word: WordInput, **kwargs) -> dict:
    return checks.to_plain_scl(sclflow.scl(sclflow.make_word(word.n, word.x, word.y), **kwargs))


U3 = WordInput(3, ((1, -1, 0), (1, 0, -1)), ((1, -1, 0), (1, 0, -1)), "universal")
COMMUTATOR = WordInput(2, ((1, -1),), ((1, -1),), "commutator")


@pytest.fixture(scope="module")
def u3_out():
    return _scl_output(U3)


def test_real_scl_outputs_pass(u3_out):
    assert checks.scl_errors(U3, u3_out, "le") == []
    assert checks.scl_errors(COMMUTATOR, _scl_output(COMMUTATOR), "le") == []


def test_sweep_word_matches_truncated_lp():
    word = sweep_inputs(0)[0]  # (p, q, r) = (1, 1, 1): 5/6 at bound 3
    out = _scl_output(word, bound=3, stabilize=False)
    assert out["value"] == Fraction(5, 6)
    assert checks.scl_errors(word, out, "eq") == []


def test_value_off_by_a_twelfth_is_rejected(u3_out):
    bad = dict(u3_out, value=u3_out["value"] + Fraction(1, 12))
    errs = checks.scl_errors(U3, bad, "le")
    assert any("(n - sum t)/2" in e for e in errs)
    assert any("above truncated LP" in e for e in errs)
    assert any("C(6)" in e for e in errs)


def test_value_below_lower_bound_is_rejected(u3_out):
    bad = dict(u3_out, value=u3_out["value"] - Fraction(1, 12))
    assert any("below the lower bound" in e for e in checks.scl_errors(U3, bad, "le"))


def test_dropped_part_is_rejected(u3_out):
    assert u3_out["side_a"]
    bad = dict(u3_out, side_a=u3_out["side_a"][1:])
    assert any("(n - sum t)/2" in e for e in checks.certificate_errors(U3, bad))


def test_unpaired_v_b_is_rejected(u3_out):
    swapped = tuple(reversed(u3_out["v_b"]))
    assert swapped != u3_out["v_b"]
    bad = dict(u3_out, v_b=swapped)
    assert any("pairing image" in e for e in checks.certificate_errors(U3, bad))


def test_part_outside_the_cone_is_rejected(u3_out):
    t, d = u3_out["side_a"][0]
    n = len(d)
    loop = tuple(tuple(1 if i == j == 0 else 0 for j in range(n)) for i in range(n))
    bad = dict(u3_out, side_a=[(t, loop)] + u3_out["side_a"][1:])
    assert any("not a disc vector" in e for e in checks.certificate_errors(U3, bad))


def test_overpacked_side_is_rejected(u3_out):
    t, d = u3_out["side_b"][0]
    bad = dict(u3_out, side_b=[(t * 2, d)] + u3_out["side_b"][1:])
    assert any("exceed v" in e for e in checks.certificate_errors(U3, bad))


def test_closed_forms():
    assert checks.closed_form_C(6) == Fraction(1, 2)
    assert checks.closed_form_C(8) == Fraction(7, 6)
    assert checks.closed_form_C(10) == Fraction(3, 2)
    assert checks.least_weight(((1, -1, 0), (1, 0, -1)), 3) == 3
    assert checks.least_weight(((2, -1, -1),), 3) == 3
    assert checks.least_weight(((1, -1, 1, -1),), 4) == 2


def test_reduction_checker():
    values = (1, 2, -3)
    out = checks.to_plain_reduction(sclflow.reduce_ss_to_smallscl(list(values)))
    assert out["answer"] is True
    assert checks.reduction_errors(values, out) == []
    flipped = dict(out, answer=not out["answer"])
    assert checks.reduction_errors(values, flipped)
    collapsed, answer = out["steps"][0]
    step_flipped = dict(out, steps=[(collapsed, not answer)] + out["steps"][1:])
    assert any("step 0" in e for e in checks.reduction_errors(values, step_flipped))


@pytest.fixture(scope="module")
def cone_out():
    cone = (3, (2, -1, -1))
    spec = sclflow.cone_spec(cone[0], [cone[1]])
    discs = sclflow.enumerate_disc_vectors(spec, 2)
    verdicts = [(sclflow.is_essential(spec, d), sclflow.is_extremal(spec, d).is_extremal)
                for d in discs]
    return cone, checks.to_plain_geometry((discs, verdicts, sclflow.extremal_rays(spec)))


def test_real_geometry_output_passes(cone_out):
    cone, out = cone_out
    assert checks.geometry_errors(cone, out) == []


def test_flipped_essential_verdict_is_rejected(cone_out):
    cone, out = cone_out
    (ess, ext), *rest = out["verdicts"]
    bad = dict(out, verdicts=[(not ess, ext)] + rest)
    assert any("disagrees with the search" in e for e in checks.geometry_errors(cone, bad))


def test_extremal_but_not_essential_is_rejected(cone_out):
    cone, out = cone_out
    k = next(i for i, (ess, _ext) in enumerate(out["verdicts"]) if not ess)
    verdicts = list(out["verdicts"])
    verdicts[k] = (False, True)
    bad = dict(out, verdicts=verdicts)
    assert any("not essential" in e for e in checks.geometry_errors(cone, bad))


def test_missing_disc_vector_is_rejected(cone_out):
    cone, out = cone_out
    bad = dict(out, discs=out["discs"][1:], verdicts=out["verdicts"][1:])
    assert any("independent enumeration" in e for e in checks.geometry_errors(cone, bad))


def test_perturbed_rays_are_rejected(cone_out):
    cone, out = cone_out
    rows = (cone[1],)
    ray = out["rays"][0]
    nudged = tuple(tuple(v + (1 if (i, j) == (0, 1) else 0) for j, v in enumerate(row))
                   for i, row in enumerate(ray))
    assert checks.ray_errors(rows, nudged)
    doubled = tuple(tuple(2 * v for v in row) for row in ray)
    assert any("not primitive" in e for e in checks.ray_errors(rows, doubled))
    a, b = out["rays"][0], out["rays"][1]
    summed = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    assert any("rank test" in e for e in checks.ray_errors(rows, summed))


def test_disc_enumeration_matches_program_on_a_sweep_cone():
    word = sweep_inputs(3)[2]
    spec = sclflow.cone_spec(word.n, word.x)
    program = {tuple(tuple(r) for r in d.entries)
               for d in sclflow.enumerate_disc_vectors(spec, 3)}
    assert checks.disc_vectors(word.n, word.x, 3) == program
