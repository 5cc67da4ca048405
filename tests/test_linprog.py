"""Exact LP solver against brute-force vertex enumeration and hand oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sclflow.errors import InputError, LimitExceeded
from sclflow.linprog import (
    LinearProgram,
    LPResult,
    enumerate_vertices,
    make_lp,
    rat_from_json,
    rat_to_json,
    resume_lp,
    rref,
    solve_lp,
    solve_square,
    solve_square_int,
)

F = Fraction


def test_single_binding_constraint():
    lp = make_lp([1], ineq=[([1], 3)])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == 3
    assert res.witness == (F(3),)


def test_two_var_polytope_optimum():
    # brute-force vertex oracle for {x+2y<=4, x<=2, x,y>=0}:
    # vertices (0,0),(2,0),(0,2),(2,1); max x+y = 3 at (2,1)
    lp = make_lp([1, 1], ineq=[([1, 2], 4), ([1, 0], 2)])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == 3
    assert res.witness == (F(2), F(1))


def test_unbounded():
    lp = make_lp([1])
    assert solve_lp(lp).status == "unbounded"


def test_infeasible():
    lp = make_lp([1], ineq=[([1], -1)])  # x <= -1, x >= 0
    assert solve_lp(lp).status == "infeasible"


def test_equality_constraints():
    # max x + 2y with x + y = 1 and y <= 0
    lp = make_lp([1, 2], eq=[([1, 1], 1)], ineq=[([0, 1], 0)])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == 1  # y pushed to 0, x = 1
    assert res.witness == (F(1), F(0))


def test_dimension_mismatch_raises():
    with pytest.raises(InputError):
        solve_lp(make_lp([1, 2], ineq=[([1], 1)]))


@pytest.mark.parametrize("row", [(1, 1), {0: 1, 2: 1}, {-1: 1, 0: 1}],
                         ids=["dense", "dim", "negative"])
def test_solve_lp_refuses_rows_that_are_not_sparse_maps_over_the_variables(row):
    with pytest.raises(InputError):
        solve_lp(LinearProgram((1, 1), ineq_constraints=((row, 1),)))


@pytest.mark.parametrize("lp", [
    LinearProgram((1,), ineq_constraints=(({0: 1}, 1.5),)),
    LinearProgram((1,), ineq_constraints=(({0: 0.5}, 1),)),
    LinearProgram((1.5,), ineq_constraints=(({0: 1}, 1),)),
    LinearProgram((1,), ineq_constraints=(({0: True}, 1),)),
], ids=["rhs", "coefficient", "objective", "bool"])
def test_solve_lp_refuses_entries_that_are_not_rational(lp):
    with pytest.raises(InputError, match="not an int or a Fraction"):
        solve_lp(lp)


def test_degenerate_empty_objective():
    lp = make_lp([0, 0], ineq=[([1, 1], 5)])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == 0
    assert res.witness == (F(0), F(0))


def test_an_lp_without_variables_has_a_fraction_value():
    res = solve_lp(LinearProgram((), ineq_constraints=(({}, 1),)))
    assert res.status == "optimal"
    assert res.value == 0 and type(res.value) is Fraction


@pytest.mark.parametrize("objective, ineq", [
    ([0.1], []), ([True], []), ([1], [([0.5], 1)]), ([1], [([1], False)]),
], ids=["float", "bool", "row-float", "rhs-bool"])
def test_make_lp_refuses_floats_and_bools(objective, ineq):
    with pytest.raises(InputError, match="not an exact rational"):
        make_lp(objective, ineq=ineq)
    # ints, Fractions and strings are still read exactly
    assert make_lp([1, F(1, 3), "1/2"]).objective == (1, F(1, 3), F(1, 2))


# max x + y with x + y = 2 and x <= 1, then the same with a third
# variable z of objective 3 in both rows, which must enter
BASE = make_lp([1, 1], eq=[([1, 1], 2)], ineq=[([1, 0], 1)])
EXTENDED = make_lp([1, 1, 3], eq=[([1, 1, 1], 2)], ineq=[([1, 0, 1], 1)])
Z = (3, {0: 1, 1: 1})  # z as a column: objective 3, 1 in rows 0 and 1


def test_a_resumed_solve_reaches_the_cold_optimum_in_phase_2():
    start = solve_lp(BASE)
    res, cold = resume_lp(start, [Z]), solve_lp(EXTENDED)
    assert (res.value, res.witness) == (cold.value, cold.witness) == (4, (0, 1, 1))
    assert (res.eq_duals, res.ineq_duals) == (cold.eq_duals, cold.ineq_duals)
    assert start.phase1_pivots > 0 and res.phase1_pivots == 0
    assert 0 < res.phase2_pivots < cold.phase1_pivots + cold.phase2_pivots


def test_resuming_twice_from_one_start_gives_equal_results():
    start = solve_lp(BASE)
    first = resume_lp(start, [Z])
    second = resume_lp(start, [Z])
    assert first == second and first.phase2_pivots > 0
    assert first.tableau is not second.tableau is not start.tableau


@pytest.mark.parametrize("start", [
    lambda: solve_lp(make_lp([1], ineq=[([1], -1)])),
    lambda: solve_lp(make_lp([1])),
    lambda: LPResult("optimal", F(2), (F(1), F(1)), (F(1),), (F(0),)),
    lambda: "optimal",
], ids=["infeasible", "unbounded", "no tableau", "not a result"])
def test_solve_lp_refuses_a_start_that_is_not_an_optimum_with_its_tableau(start):
    # resume_lp is the entry that resumes a solve_lp result
    with pytest.raises(InputError, match="optimal result"):
        resume_lp(start(), [Z])


@pytest.mark.parametrize("column", [
    (3, {2: 1}), (3, {-1: 1}), (3, [1, 1]), (3, {0: 0.5}), (True, {0: 1}),
    5, None, (1,), (3, {0: 1}, 0), {0: 1, 1: 1},
], ids=["row count", "negative row", "list", "float", "bool objective",
        "int", "None", "objective alone", "triple", "map alone"])
def test_resume_lp_refuses_malformed_columns(column):
    start = solve_lp(BASE)
    before = resume_lp(start, [Z])
    with pytest.raises(InputError):
        resume_lp(start, [Z, column])
    assert resume_lp(start, [Z]) == before


@pytest.mark.parametrize("columns", [None, 5])
def test_resume_lp_refuses_columns_that_are_not_a_list(columns):
    start = solve_lp(BASE)
    before = resume_lp(start, [Z])
    with pytest.raises(InputError, match="not a list of columns"):
        resume_lp(start, columns)
    assert resume_lp(start, [Z]) == before


@pytest.mark.parametrize("row", [0, 1])
def test_a_new_column_in_a_redundant_row_drives_its_artificial_out(row):
    # x = 1 twice keeps one artificial basic at zero; y joins one of the
    # two rows, so the pair forces y = 0 however large its objective
    start = solve_lp(make_lp([0], eq=[([1], 1), ([1], 1)]))
    res = resume_lp(start, [(1, {row: 1})])
    assert (res.status, res.value, res.witness) == ("optimal", 0, (1, 0))


def test_vertices_unit_square():
    cons = [([1, 0], 1), ([0, 1], 1), ([-1, 0], 0), ([0, -1], 0)]
    verts = enumerate_vertices(cons, 2)
    assert set(verts) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_vertices_triangle():
    cons = [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)]
    assert len(enumerate_vertices(cons, 2)) == 3


def test_vertices_dimension_refusal():
    with pytest.raises(LimitExceeded):
        enumerate_vertices([([1] * 13, 1)], 13)


@pytest.mark.parametrize("cons", [
    [([1.5], 1)], [([1], 0.5)], [([True], 1)],
], ids=["float", "rhs-float", "bool"])
def test_enumerate_vertices_refuses_floats_and_bools(cons):
    with pytest.raises(InputError, match="not an exact rational"):
        enumerate_vertices(cons + [([-1], 0)], 1)
    assert enumerate_vertices([(["3/2"], 1), ([-1], 0)], 1) == [(0,), (F(2, 3),)]


@pytest.mark.parametrize("call, value", [
    (lambda: make_lp(["x"]), "'x'"),
    (lambda: make_lp([None]), "None"),
    (lambda: make_lp([1], ineq=[([1], None)]), "None"),
    (lambda: solve_square([["1/0"]], [1]), "'1/0'"),
], ids=["string", "none", "rhs-none", "zero-denominator"])
def test_unreadable_values_are_input_errors_naming_the_value(call, value):
    with pytest.raises(InputError, match=f"^{value} is not an exact rational"):
        call()


def test_solve_square_exact_on_random_systems():
    rng = random.Random(913)
    for _ in range(60):
        n = rng.randint(1, 5)
        mat = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
               for _ in range(n)]
        rhs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        sol = solve_square(mat, rhs)
        if sol is None:
            assert len(rref(mat)) < n
            continue
        assert all(sum(a * x for a, x in zip(row, sol)) == b
                   for row, b in zip(mat, rhs))


@pytest.mark.parametrize("mat, rhs", [
    ([[1.5]], [1]), ([[1]], [0.25]), ([[True]], [1]),
], ids=["float", "rhs-float", "bool"])
def test_solve_square_refuses_floats_and_bools(mat, rhs):
    with pytest.raises(InputError, match="not an exact rational"):
        solve_square(mat, rhs)
    assert solve_square([[2]], ["1/3"]) == (F(1, 6),)


def test_solve_square_int_is_normalized():
    # x = 1/2, y = 1/4 from integer rows, scaled by -2 and 6
    nums, den = solve_square_int([[-4, 0, -2], [0, 24, 6]])
    assert (nums, den) == ((2, 1), 4)
    assert solve_square_int([[1, 2, 3], [2, 4, 5]]) is None


def _random_bounded_lp(rng, nvars, ncons):
    rows = []
    for _ in range(ncons):
        rows.append(([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(1, 6)))
    # box rows keep the region bounded; origin stays feasible (rhs > 0)
    for i in range(nvars):
        row = [0] * nvars
        row[i] = 1
        rows.append((row, rng.randint(1, 4)))
    obj = [rng.randint(-3, 3) for _ in range(nvars)]
    return obj, rows


def test_simplex_equals_vertex_enumeration_on_random_lps():
    rng = random.Random(20240)
    for _ in range(40):
        nvars = rng.randint(2, 4)
        obj, rows = _random_bounded_lp(rng, nvars, rng.randint(1, 6))
        res = solve_lp(make_lp(obj, ineq=rows))
        cons = list(rows) + [([-1 if j == i else 0 for j in range(nvars)], 0)
                             for i in range(nvars)]
        verts = enumerate_vertices(cons, nvars)
        assert verts, "bounded nonempty polytope must have vertices"
        best = max(sum(F(c) * v for c, v in zip(obj, vert)) for vert in verts)
        assert res.status == "optimal"
        assert res.value == best
        # witness feasibility, exactly
        for row, b in rows:
            assert sum(F(c) * w for c, w in zip(row, res.witness)) <= b
        assert all(w >= 0 for w in res.witness)


def test_duals_certify_optimum():
    rng = random.Random(7)
    for _ in range(25):
        nvars = rng.randint(2, 4)
        obj, rows = _random_bounded_lp(rng, nvars, rng.randint(1, 5))
        lp = make_lp(obj, ineq=rows)
        res = solve_lp(lp)
        assert res.status == "optimal"
        y = res.ineq_duals
        assert all(v >= 0 for v in y)
        # weak duality: y . b >= optimum, with equality at the optimum
        dual_val = sum(v * b for v, (_, b) in zip(y, lp.ineq_constraints))
        assert dual_val == res.value
        # dual feasibility on nonnegative variables: y^T A >= c
        for j in range(nvars):
            colsum = sum(v * row.get(j, 0) for v, (row, _) in zip(y, lp.ineq_constraints))
            assert colsum >= F(obj[j])


def test_vertices_are_the_optimum_attaining_points():
    # random bounded 3-D system: over many random objectives the simplex
    # optima sweep out exactly the vertex set
    rng = random.Random(3111)
    rows = [([rng.randint(-3, 3) for _ in range(3)], rng.randint(1, 5))
            for _ in range(6)]
    rows += [([1 if j == i else 0 for j in range(3)], 3) for i in range(3)]
    cons = rows + [([-1 if j == i else 0 for j in range(3)], 0)
                   for i in range(3)]
    verts = set(enumerate_vertices(cons, 3))
    attained = set()
    for _ in range(50):
        obj = [rng.randint(-5, 5) for _ in range(3)]
        res = solve_lp(make_lp(obj, ineq=rows))
        assert res.status == "optimal"
        attained.add(res.witness)
    assert attained <= verts
    assert attained == verts  # frozen: this seed covers every vertex


def test_rational_json_roundtrip():
    for x in [F(0), F(7, 6), F(-119, 142), F(10**30, 7)]:
        assert rat_from_json(rat_to_json(x)) == x
        obj = rat_to_json(x)
        assert set(obj) == {"num", "den"} and int(obj["den"]) > 0


@pytest.mark.parametrize("obj", [{"num": 1.5, "den": 1}, {"num": 1, "den": 0},
                                 {"num": "x", "den": 1}],
                         ids=["float", "zero-den", "not-a-number"])
def test_rational_json_refuses_what_is_not_a_rational(obj):
    with pytest.raises(InputError):
        rat_from_json(obj)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9), st.integers(1, 1000))
def test_rational_normalization(a, b, c):
    # same ratio, same value, positive denominator, lowest terms
    x, y = Fraction(a, b), Fraction(a * c, b * c)
    assert x == y
    assert y.denominator > 0
    from math import gcd
    assert gcd(abs(y.numerator), y.denominator) == 1


def test_rref_canonicalizes_row_space():
    a = rref([[1, -1, 0], [1, 0, -1]])
    b = rref([[2, -1, -1], [1, 0, -1], [3, -1, -2]])
    assert a == b
