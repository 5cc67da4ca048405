"""The sparse integer tableau keeps its invariants after every pivot.

Each row of `linprog._Tableau` is a map of nonzero ints with an int rhs
over a positive denominator, the three without a common factor, and the
basic column of a row carries the row's denominator.  The pivot and its
eliminations take shortcuts when a pivot entry is +-1 or a denominator is
1; the checks here run on LPs that take each shortcut and each general
path, and on resumed solves, whose tableaus share row maps with their
start.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from test_simplex_oracle import _columns, _first_variables, _random_lp

from sclflow import clear_caches, linprog
from sclflow.bounds import universal_word
from sclflow.engine import scl
from sclflow.linprog import resume_lp, solve_lp
from sclflow.words import parse_word

F = Fraction


def assert_invariants(tab):
    assert len(set(tab.basis)) == len(tab.basis)
    for row, rhs, den, b in zip(tab.rows, tab.rhs, tab.den, tab.basis):
        assert type(den) is int and den > 0
        assert gcd(den, rhs, *row.values()) == 1
        assert all(type(v) is int and v for v in row.values())
        assert row[b] == den
    assert tab.obj_den > 0
    assert gcd(tab.obj_den, tab.obj_rhs, *tab.obj.values()) == 1
    assert all(type(v) is int and v for v in tab.obj.values())
    assert not any(b in tab.obj for b in tab.basis)


@pytest.fixture
def branches(monkeypatch):
    """Check the invariants after every step that changes a tableau, the
    first one included, and collect which branch each pivot and each
    elimination took."""
    seen = set()
    tableau = linprog._Tableau

    def checked(step):
        def run(self, *args):
            step(self, *args)
            assert_invariants(self)
        return run

    for name in ("extend", "set_objective"):
        monkeypatch.setattr(tableau, name, checked(getattr(tableau, name)))
    pivot, initial = checked(tableau.pivot), linprog._initial_tableau
    eliminate = linprog._eliminate

    def checked_pivot(self, r, c):
        seen.add(("pivot entry", abs(self.rows[r][c]) == 1))
        pivot(self, r, c)
        assert self.basis[r] == c

    def checked_initial(lp):
        tab = initial(lp)
        assert_invariants(tab)
        return tab

    def counted_eliminate(row, rhs, den, prow, prhs, c):
        out = eliminate(row, rhs, den, prow, prhs, c)
        seen.add(("elimination entry", prow[c] == 1))
        seen.add(("denominator", out[2] == 1))
        assert c not in out[0]
        return out

    monkeypatch.setattr(tableau, "pivot", checked_pivot)
    monkeypatch.setattr(linprog, "_initial_tableau", checked_initial)
    monkeypatch.setattr(linprog, "_eliminate", counted_eliminate)
    return seen


ALL_BRANCHES = {(kind, unit) for kind in ("pivot entry", "elimination entry",
                                          "denominator")
                for unit in (True, False)}


def test_seeded_lps_keep_the_invariants(branches):
    # Fraction coefficients, negative rhs, equalities and redundant rows,
    # solved cold and then resumed from a start on their first variables
    rng = random.Random(16)
    for _ in range(200):
        lp = _random_lp(rng, frac=rng.random() < 0.5, eqs=rng.randint(0, 3),
                        neg_rhs=True, redundant=True)
        solve_lp(lp)
        k = rng.randint(0, lp.dim())
        start = solve_lp(_first_variables(lp, k))
        if start.status == "optimal":
            resume_lp(start, _columns(lp, k))
    assert branches == ALL_BRANCHES


def test_engine_lps_keep_the_invariants(branches):
    clear_caches()
    try:
        assert scl(parse_word("a b a^-1 b^-1")).value == F(1, 2)
        assert scl(universal_word(3), bound=2).value == F(1, 2)
        scl(parse_word("a^-4 b^-1 a b a^2 b^-1 a b"), bound=3)
        # column generation: resumed solves from one growing LP
        scl(parse_word("a^-3 b^-1 a b a b^-1 a b"), bound=3, stabilize=False)
    finally:
        clear_caches()
    assert ("pivot entry", True) in branches
    assert ("elimination entry", True) in branches
    assert ("denominator", True) in branches


def snapshot(tab):
    """Everything a resumed copy could change in a tableau, row maps by
    their contents."""
    return ([dict(row) for row in tab.rows], list(tab.rhs), list(tab.den),
            list(tab.basis), dict(tab.obj), tab.obj_rhs, tab.obj_den,
            list(tab.objective))


def test_resumes_and_pivots_leave_the_start_tableau_unchanged():
    # a resumed copy, and any copy, pivots on row maps it shares with its
    # start, so an edit in place would show in the start
    rng = random.Random(17)
    resumed = pivoted = 0
    for _ in range(300):
        lp = _random_lp(rng, frac=rng.random() < 0.5, eqs=rng.randint(0, 3),
                        neg_rhs=True, redundant=True)
        k = rng.randint(0, lp.dim() - 1)
        start = solve_lp(_first_variables(lp, k))
        if start.status != "optimal":
            continue
        tab = start.tableau
        before = snapshot(tab)
        first, second = (resume_lp(start, _columns(lp, k)) for _ in range(2))
        assert first == second
        resumed += first.phase2_pivots > 0
        # every column that is not basic, pivoted in on a copy
        for c in {c for row in tab.rows for c in row} - set(tab.basis):
            r = next(r for r, row in enumerate(tab.rows) if c in row)
            tab.copy().pivot(r, c)
            pivoted += 1
        assert snapshot(tab) == before
    assert resumed > 20 and pivoted > 50
