"""The acceptance scorecard: every contract criterion as a callable check.

Each criterion is one check returning (passed, details), declared once
under @_criterion with its id, title and time cap; the decorated function
returns a CriterionResult and is listed in ALL_CRITERIA in id order.
run_all executes the full battery.  One parametrized pytest test asserts
these same results, and the CLI `verify` subcommand prints them as a
machine-readable scorecard.  All comparisons are exact rational equality;
there are no tolerances anywhere.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

from .bounds import (
    sample_generic_word,
    universal_word,
    upper_bound_C,
)
from .cones import (
    cone_spec,
    enumerate_disc_vectors,
    extremal_rays,
    is_essential,
    is_extremal,
)
from .engine import conjecture_check, scl, verify_certificate
from .errors import InputError
from .graphs import MDGraph, abstract_graph, connectivity, isomorphic, mdgraph
from .hardness import (
    cyclic_pairs,
    decide_small_scl,
    essential_gadget_answer,
    instance,
    reduce_ss_to_smallscl,
    small_scl_instance,
    solve_subset,
    verify_table_properties,
)
from .linprog import enumerate_vertices, make_lp, solve_lp
from .words import Word, make_word, matrix, parse_word, render_word

F = Fraction


@dataclass
class CriterionResult:
    ident: int
    title: str
    passed: Optional[bool]  # None = informational
    details: str
    seconds: float = 0.0

    def line(self) -> str:
        if self.passed is None:
            tag = "INFO"
        else:
            tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.ident:2d}: {self.title} -- {self.details}"


ALL_CRITERIA: list[Callable[[], CriterionResult]] = []


def _criterion(ident: int, title: str, cap: float = float("inf")):
    """Register a check returning (passed, details) as criterion `ident`.

    ALL_CRITERIA gets a callable, carrying `ident` and `title`, that times
    the check and returns its CriterionResult.  A crash is a failure with
    the reason recorded, and so is a run that takes `cap` seconds or longer.
    """
    def register(check: Callable[[], tuple[Optional[bool], str]]):
        @functools.wraps(check)
        def timed() -> CriterionResult:
            t0 = time.perf_counter()
            try:
                passed, details = check()
            except Exception as exc:
                passed, details = False, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            if seconds >= cap:
                passed, details = False, f"reached the {cap:g} s time cap; {details}"
            return CriterionResult(ident, title, passed, details, seconds)
        timed.ident, timed.title = ident, title
        ALL_CRITERIA.append(timed)
        return timed
    return register


# ---------------------------------------------------------------------------
# individual criteria, in the order of their ids
# ---------------------------------------------------------------------------

@_criterion(1, "two-generator mixed word has scl exactly 1/2", cap=5.0)
def criterion_1():
    w = parse_word("a1 b1 b2 a1^-1 b1^-1 b2^-1")
    res = scl(w)
    ok = (res.value == F(1, 2) and res.status == "stabilized"
          and verify_certificate(res.certificate, res.value, w))
    return ok, f"value {res.value} ({res.status}), within the time cap"


@_criterion(2, "odd universal words attain n/2 - 1 with matching brackets", cap=120.0)
def criterion_2():
    oks, parts = [], []
    for n in (3, 5):
        w = universal_word(n)
        res = scl(w)
        want = F(n, 2) - 1
        oks.append(res.value == want == res.lower and res.status == "stabilized")
        parts.append(f"n={n}: {res.value}")
    return all(oks), "; ".join(parts)


@_criterion(3, "universal word with four blocks computes to 7/6", cap=60.0)
def criterion_3():
    res = scl(universal_word(4))
    ok = res.value == F(7, 6) and res.lower == 1 and res.status == "stabilized"
    return ok, f"value {res.value}, bracket ({res.lower}, {res.value})"


def _linear_algebra_example_pair():
    first = make_word(4, [[2, -2, 3, -3], [-3, 1, 1, 1]], [[1, 1, 1, -3]])
    second = make_word(4, [[2, -2, 3, -3], [-3, 1, 1, 1], [5, -3, 2, -4]],
                       [[1, 1, 1, -3]])
    return first, second


@_criterion(4, "row-span-equal words get equal values at every bound")
def criterion_4():
    first, second = _linear_algebra_example_pair()
    values = []
    for b in (1, 2, 3):
        va = scl(first, bound=b, stabilize=False).value
        vb = scl(second, bound=b, stabilize=False).value
        values.append((b, va, vb))
        if va != vb:
            return False, f"bound {b}: {va} != {vb}"
    return True, "; ".join(f"B={b}: both {va}" for b, va, _vb in values)


def _random_word(rng: random.Random, n: int):
    def side():
        while True:
            nrows = rng.randint(1, 3)
            rows = []
            for _ in range(nrows):
                row = [rng.randint(-2, 2) for _ in range(n - 1)]
                row.append(-sum(row))
                rows.append(row)
            try:
                return matrix(n, rows)
            except InputError:  # a column is all zero
                pass
    return Word(side(), side())


@_criterion(5, "lower bound is sound against the LP value")
def criterion_5():
    rng = random.Random(4513)
    checked = 0
    for _ in range(200):
        w = _random_word(rng, rng.randint(2, 4))
        res = scl(w, bound=2, stabilize=False)
        if res.lower > res.value:
            return False, (f"lower {res.lower} exceeds value {res.value} "
                           f"for {render_word(w)}")
        checked += 1
    return True, f"{checked} random words, lower bound never exceeded the value"


@_criterion(6, "generic words of twelve blocks sit in the predicted interval")
def criterion_6():
    lo_edge, hi_edge = F(2), upper_bound_C(12)
    for seed in range(50):
        w = sample_generic_word(6, seed)
        res = scl(w)
        if not (lo_edge <= res.value <= hi_edge):
            return False, f"seed {seed}: value {res.value} outside interval"
        if res.status != "stabilized":
            return False, f"seed {seed}: not stabilized"
    return True, f"50 samples in [{lo_edge}, {hi_edge}], all stabilized"


@_criterion(7, "end-to-end subset-sum reduction agrees with brute force")
def criterion_7():
    lists = []
    for m in (1, 2, 3):
        for vals in product(range(-3, 4), repeat=m):
            lists.append(list(vals))
    tables_checked = 0
    for vals in lists:
        ss = solve_subset(instance("SS", vals)).answer
        transcript = reduce_ss_to_smallscl(vals)
        if transcript.answer != ss:
            return False, f"answer mismatch on {vals}"
        for step in transcript.steps:
            brute = solve_subset(step.table.to_instance("SSP"))
            if step.mixed_answer != brute.answer:
                return False, f"transcript mismatch on {vals} at r={step.r}"
            for rep in verify_table_properties(step.table):
                tables_checked += 1
                if not rep.all_hold():
                    return False, (f"table property failed on {vals} r={step.r} "
                                   f"witness {rep.witness}")
    return True, (f"{len(lists)} lists reduced; transcript answers match brute "
                  f"force; {tables_checked} table witnesses verified")


def _promise_instances(n_max: int = 6, mag: int = 4):
    """Zero-sum nonzero-entry vectors that satisfy the promise and pass the
    zero/adjacent-pair pre-check of the threshold decision procedure.

    Two entries always cancel cyclically, so eligible instances start at
    three entries (where the subset answer is always negative).
    """
    values = [v for v in range(-mag, mag + 1) if v != 0]
    for n in range(3, n_max + 1):
        for head in product(values, repeat=n - 1):
            last = -sum(head)
            if last == 0 or abs(last) > mag:
                continue
            xs = head + (last,)
            if any(xs[k] + xs[k1] == 0 for k, k1 in cyclic_pairs(n)):
                continue
            ssp = solve_subset(instance("SSP", list(xs))).answer
            var = solve_subset(instance("VARSSP", list(xs))).answer
            if ssp != var:
                continue
            yield xs, ssp


@_criterion(8, "scl threshold equivalence with the proper subset answer")
def criterion_8():
    count_true = count_false = 0
    lp_checked = 0
    for xs, ssp in _promise_instances():
        # decide_small_scl raises when its certificate or bound fails
        if decide_small_scl(xs).answer != ssp:
            return False, f"decision disagreed with the subset answer on {xs}"
        if ssp:
            count_true += 1
        else:
            count_false += 1
        # on the smallest cases, cross-check with the actual LP value
        if len(xs) == 4 and lp_checked < 40:
            value = scl(small_scl_instance(xs), bound=2, stabilize=False).value
            if (value < F(len(xs), 2) - 1) != ssp:
                return False, f"LP threshold disagreed on {xs}: value {value}"
            lp_checked += 1
    return True, (f"{count_true} positive and {count_false} negative instances "
                  f"certified; {lp_checked} cross-checked against the LP")


@_criterion(9, "essentiality gadget mirrors the no-zero-subset problem")
def criterion_9():
    checked = 0
    for m in (1, 2, 3, 4):
        for vals in product(range(-4, 5), repeat=m):
            coss = solve_subset(instance("COSS", list(vals))).answer
            if essential_gadget_answer(list(vals)) != coss:
                return False, f"gadget mismatch on {list(vals)}"
            checked += 1
    return True, f"{checked} value lists agree with the no-zero-subset answer"


@_criterion(10,
            "smallest connected graphs synthesize verified extremal points", cap=60.0)
def criterion_10():
    from .synth import synthesize_extremal

    graphs = {
        "loop": mdgraph(1, [(0, 0)]),
        "two-loop bouquet": mdgraph(1, [(0, 0), (0, 0)]),
        "2-cycle": mdgraph(2, [(0, 1), (1, 0)]),
        "2-cycle plus parallel edge": mdgraph(2, [(0, 1), (0, 1), (1, 0)]),
    }
    parts = []
    for name, g in graphs.items():
        result = synthesize_extremal(g)
        ecount = len(result.canonical_graph.edges)
        mcount = result.canonical_graph.vertex_count
        ok = (result.checks["extremal"]
              and result.checks["abstraction_matches"]
              and all(v <= ecount ** mcount for v in result.f_vals)
              and all(abs(w) < 2 * ecount ** ((mcount + 1) * (ecount + 1))
                      for w in result.weights)
              and isomorphic(abstract_graph(result.graph),
                             result.canonical_graph))
        if not ok:
            return False, f"{name} failed: {result.checks}"
        parts.append(f"{name} ok")
    return True, "; ".join(parts)


def _geometry_corpus():
    # single-weight cones (plus the smallest two-block cone): the setting
    # of the three-shape ray statement; intersection cones of several
    # weight rows additionally grow all-loops rays and are excluded here
    specs = [
        cone_spec(2, [[1, -1]]),
        cone_spec(3, [[2, -1, -1]]),
        cone_spec(3, [[1, 1, -2]]),
        cone_spec(3, [[1, 2, -3]]),
        cone_spec(3, [[3, -1, -2]]),
        cone_spec(3, [[3, -2, -1]]),
        cone_spec(3, [[2, -3, 1]]),
        cone_spec(3, [[1, -2, 1]]),
        cone_spec(3, [[4, -1, -3]]),
        cone_spec(3, [[4, -3, -1]]),
        cone_spec(4, [[1, 1, -1, -1]]),
        cone_spec(4, [[1, -1, 2, -2]]),
        cone_spec(4, [[1, -1, 1, -1]]),
        cone_spec(4, [[2, -1, 1, -2]]),
        cone_spec(4, [[3, -1, -1, -1]]),
        cone_spec(4, [[1, 2, -2, -1]]),
        cone_spec(4, [[2, 2, -3, -1]]),
        cone_spec(4, [[1, 1, 1, -3]]),
        cone_spec(4, [[4, -2, -1, -1]]),
        cone_spec(4, [[2, 1, -2, -1]]),
    ]
    return specs


def _connected_pieces(ray):
    """Abstract graphs of the weakly connected components of a ray support."""
    g = ray.support_graph()
    conn = connectivity(g)
    pieces = []
    for comp in conn.weak_components:
        comp_set = set(comp)
        remap = {v: i for i, v in enumerate(sorted(comp_set))}
        edges = [(remap[t], remap[h]) for t, h in g.edges
                 if t in comp_set and h in comp_set]
        pieces.append(abstract_graph(MDGraph(len(comp_set), tuple(edges))))
    return pieces


@_criterion(11, "cone geometry: essential vs extremal and ray shapes")
def criterion_11():
    specs = _geometry_corpus()
    extremal_count = essential_count = 0
    found_essential_nonextremal = None
    ray_classes: list = []
    for spec in specs:
        discs = enumerate_disc_vectors(spec, 2)
        for d in discs:
            ess = is_essential(spec, d)
            rep = is_extremal(spec, d, n_max=2)
            if rep.is_extremal:
                extremal_count += 1
                if not ess:
                    return False, (f"extremal-certified vector is not essential "
                                   f"in cone {spec.rows}")
            if ess:
                essential_count += 1
                if not rep.is_extremal and found_essential_nonextremal is None:
                    found_essential_nonextremal = (spec.rows, d.entries)
        for ray in extremal_rays(spec):
            # a ray is at most two embedded cycles; classify the
            # abstract shape of each connected piece of its support
            for piece in _connected_pieces(ray):
                if not any(isomorphic(piece, known) for known in ray_classes):
                    ray_classes.append(piece)
    if found_essential_nonextremal is None:
        return False, "no essential non-extremal vector found in the corpus"
    if len(ray_classes) > 3:
        return False, f"{len(ray_classes)} abstract ray classes, expected <= 3"
    return True, (f"{extremal_count} extremal-certified points all essential; "
                  f"essential non-extremal example found in cone "
                  f"{found_essential_nonextremal[0]}; "
                  f"{len(ray_classes)} abstract ray classes")


@_criterion(12, "simplex agrees exactly with the brute-force oracle")
def criterion_12():
    rng = random.Random(777)
    for trial in range(100):
        nvars = rng.randint(2, 6)
        ncons = rng.randint(1, 10)
        rows = []
        for _ in range(ncons):
            rows.append(([rng.randint(-3, 3) for _ in range(nvars)],
                         rng.randint(1, 8)))
        for i in range(nvars):
            row = [0] * nvars
            row[i] = 1
            rows.append((row, rng.randint(1, 4)))
        obj = [rng.randint(-3, 3) for _ in range(nvars)]
        res = solve_lp(make_lp(obj, ineq=rows))
        cons = list(rows) + [
            ([-1 if j == i else 0 for j in range(nvars)], 0)
            for i in range(nvars)]
        verts = enumerate_vertices(cons, nvars)
        best = max(sum(F(c) * v for c, v in zip(obj, vert)) for vert in verts)
        if res.status != "optimal" or res.value != best:
            return False, f"trial {trial}: simplex {res.value} vs oracle {best}"
    return True, "100 random LPs: simplex equals vertex-enumeration optimum"


@_criterion(13, "gcd conjecture sweep (informational)")
def criterion_13():
    lines = []
    for p, q, r in product((1, 2), repeat=3):
        report = conjecture_check(p, q, r, bound=3)
        mark = "agrees" if report.agrees() else "DIFFERS"
        lines.append(f"(p,q,r)=({p},{q},{r}): predicted {report.predicted}, "
                     f"computed {report.computed.value} "
                     f"[{report.computed.status}] {mark}")
    return None, " | ".join(lines)


def run_all(only: Optional[list[int]] = None) -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA if only is None or fn.ident in only]


def scorecard(results: list[CriterionResult]) -> dict:
    return {
        "criteria": [{
            "id": r.ident,
            "title": r.title,
            "status": ("info" if r.passed is None
                       else "pass" if r.passed else "fail"),
            "details": r.details,
        } for r in results],
        "all_passed": all(r.passed is not False for r in results),
    }
