"""The sparse integer simplex against the dense Fraction reference.

Both follow Bland's rule and number their columns alike, so they pivot in
the same order and must agree exactly on status, value, witness and duals,
not just on the optimum, whether an LP is solved cold or resumed from the
optimum of an LP it extends.  A resumed sparse solve is handed only the
appended columns, the dense reference the whole extended LP, so each
resumed check also checks that appending columns solves the extended LP.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_simplex import solve_lp_dense

from sclflow import clear_caches, engine
from sclflow.bounds import universal_word
from sclflow.cones import cone_spec, enumerate_disc_vectors
from sclflow.engine import scl
from sclflow.linprog import LinearProgram, make_lp, resume_lp, solve_lp
from sclflow.words import parse_word

F = Fraction


def _columns(lp, first):
    """The variables first.. of `lp` as `resume_lp` columns."""
    rows = [row for row, _ in (*lp.eq_constraints, *lp.ineq_constraints)]
    return [(lp.objective[v], {i: row[v] for i, row in enumerate(rows) if v in row})
            for v in range(first, lp.dim())]


def _with_columns(lp, columns):
    """`lp` with the `resume_lp` columns appended as its last variables."""
    rows = [(dict(row), b) for row, b in (*lp.eq_constraints, *lp.ineq_constraints)]
    for v, (_c, coefs) in enumerate(columns, lp.dim()):
        for i, a in coefs.items():
            rows[i][0][v] = a
    n_eq = len(lp.eq_constraints)
    return LinearProgram(lp.objective + tuple(c for c, _ in columns),
                         tuple(rows[:n_eq]), tuple(rows[n_eq:]))


def assert_same(lp, start=None, columns=None):
    """The results of both simplices on `lp`, a pair.  With `start`, a pair
    returned here for an LP that `lp` extends, each simplex resumes from
    its own result: the sparse one is handed only the appended `columns`,
    by default read off `lp`, and the dense one all of `lp`."""
    if start is None:
        got = solve_lp(lp)
    else:
        if columns is None:
            columns = _columns(lp, len(start[0].witness))
        got = resume_lp(start[0], columns)
    want = solve_lp_dense(lp, start=None if start is None else start[1])
    assert got.status == want.status
    assert got.value == want.value
    assert got.witness == want.witness
    assert got.eq_duals == want.eq_duals
    assert got.ineq_duals == want.ineq_duals
    return got, want


def _coef(rng, frac):
    v = rng.randint(-3, 3)
    if frac and rng.random() < 0.4:
        return F(v, rng.randint(1, 4))
    return F(v)


def _random_lp(rng, frac=False, eqs=0, neg_rhs=False, redundant=False):
    nvars = rng.randint(1, 5)
    row = lambda: [_coef(rng, frac) for _ in range(nvars)]  # noqa: E731
    lo = -4 if neg_rhs else 0
    ineq = [(row(), _coef(rng, frac) + rng.randint(lo, 4))
            for _ in range(rng.randint(0, 5))]
    # homogeneous equalities leave zero-valued artificials basic
    eq = [(row(), rng.choice([0, rng.randint(lo, 4)])) for _ in range(eqs)]
    if redundant and eq:
        # a multiple of an equality, or the sum of two: a redundant row
        # keeps its artificial basic at zero after phase 1
        r, b = eq[0]
        k = F(rng.choice([-2, -1, 2, 3]), rng.choice([1, 2]))
        eq.append(([k * c for c in r], k * b))
        if len(eq) > 2:
            (r1, b1), (r2, b2) = eq[0], eq[1]
            eq.append(([c1 + c2 for c1, c2 in zip(r1, r2)], b1 + b2))
    return make_lp(row(), eq=eq, ineq=ineq)


def test_seeded_ineq_lps():
    rng = random.Random(11)
    for _ in range(150):
        assert_same(_random_lp(rng))


def test_seeded_fraction_coefficients_and_negative_rhs():
    rng = random.Random(12)
    for _ in range(150):
        assert_same(_random_lp(rng, frac=True, neg_rhs=True))


def test_seeded_equalities():
    rng = random.Random(13)
    for _ in range(150):
        assert_same(_random_lp(rng, frac=True, eqs=rng.randint(1, 3),
                               neg_rhs=True))


def test_seeded_redundant_equalities_drive_out():
    rng = random.Random(14)
    statuses = set()
    for _ in range(150):
        res, _ = assert_same(_random_lp(rng, frac=True, eqs=rng.randint(1, 3),
                                        neg_rhs=True, redundant=True))
        statuses.add(res.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_redundant_equality_keeps_artificial_basic():
    # x + y = 2 twice, and x - y = 0: one row is redundant
    lp = make_lp([1, 2], eq=[([1, 1], 2), ([2, 2], 4), ([1, -1], 0)],
                 ineq=[([1, 0], 5)])
    res, _ = assert_same(lp)
    assert res.status == "optimal" and res.witness == (F(1), F(1))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 3),
       st.booleans(), st.booleans())
def test_random_lps_match_reference(seed, frac, eqs, neg_rhs, redundant):
    rng = random.Random(seed)
    lp = _random_lp(rng, frac=frac, eqs=eqs, neg_rhs=neg_rhs,
                    redundant=redundant)
    assert_same(lp)
    assert_resumed_chain(rng, lp)


def _first_variables(lp, k):
    """The LP on the first k variables of `lp`, which `lp` extends."""
    def cut(constraints):
        return tuple(({j: c for j, c in row.items() if j < k}, b)
                     for row, b in constraints)
    return LinearProgram(lp.objective[:k], cut(lp.eq_constraints),
                         cut(lp.ineq_constraints))


def assert_resumed_chain(rng, lp):
    """Reach `lp` from a start on its first variables through one or two
    extensions, each resumed from the last optimum; every resumed LP has
    the value and status of its cold solve.  Returns the resumed
    statuses."""
    dim = lp.dim()
    cuts = sorted(rng.sample(range(dim), min(rng.randint(1, 2), dim)))
    pair = assert_same(_first_variables(lp, cuts[0]))
    statuses = []
    for k in cuts[1:] + [dim]:
        if pair[0].status != "optimal":
            break
        step = _first_variables(lp, k)
        pair = assert_same(step, start=pair)
        cold = solve_lp(step)
        assert (pair[0].status, pair[0].value) == (cold.status, cold.value)
        assert pair[0].phase1_pivots == 0
        statuses.append(pair[0].status)
    return statuses


def test_seeded_resumed_lps_match_reference():
    rng = random.Random(15)
    statuses = []
    for _ in range(400):  # a start that is not optimal ends its chain
        lp = _random_lp(rng, frac=True, eqs=rng.randint(0, 3), neg_rhs=True,
                        redundant=True)
        statuses += assert_resumed_chain(rng, lp)
    assert len(statuses) > 100 and set(statuses) == {"optimal", "unbounded"}


def _value_over_all_discs(word, bound):
    """scl at the bound from one LP over every disc vector of both cones:
    no thinning and no column generation."""
    n = word.n
    nn = n * n
    sides = []
    for rows, cap_var in ((word.x.rows, lambda i, j: i * n + j),
                          (word.y.rows, lambda k, i: i * n + (k + 1) % n)):
        sides.append((enumerate_disc_vectors(cone_spec(n, rows), bound), cap_var))
    nvar = nn + sum(len(discs) for discs, _ in sides)
    eq = []
    for i in range(n):  # unit outflow and unit inflow of v_A
        eq.append(([F(int(r == i)) for r in range(n) for _ in range(n)] +
                   [F(0)] * (nvar - nn), F(1)))
        eq.append(([F(int(c == i)) for _ in range(n) for c in range(n)] +
                   [F(0)] * (nvar - nn), F(1)))
    ineq = []
    first = nn
    for discs, cap_var in sides:  # each entry of a side is capped by v_A
        for i in range(n):
            for j in range(n):
                row = [F(0)] * nvar
                row[cap_var(i, j)] = F(-1)
                for k, d in enumerate(discs):
                    row[first + k] = F(d.entries[i][j])
                ineq.append((row, F(0)))
        first += len(discs)
    res = solve_lp(make_lp([0] * nn + [1] * (nvar - nn), eq=eq, ineq=ineq))
    assert res.status == "optimal"
    return (n - res.value) / 2


def test_scl_lps_match_reference(monkeypatch):
    # every LP the scl engine builds is solved identically by both
    # simplices; a small batch takes the (1,1,1) word through several
    # rounds of integer pricing, which must reach the value of one LP over
    # every unthinned disc vector
    seen = []
    solved = {}  # id of a sparse result -> (its LP, the pair assert_same returned)

    def checked(lp, start=None, columns=None):
        pair = assert_same(lp, start, columns)
        solved[id(pair[0])] = lp, pair
        seen.append(start is not None)
        return pair[0]

    def resumed(start, columns):
        lp, pair = solved[id(start)]
        return checked(_with_columns(lp, columns), pair, columns)

    monkeypatch.setattr(engine, "solve_lp", checked)
    monkeypatch.setattr(engine, "resume_lp", resumed)
    monkeypatch.setattr(engine, "_CG_BATCH", 3)
    sweep_word = parse_word("a^-3 b^-1 a b a b^-1 a b")
    clear_caches()
    try:
        assert scl(parse_word("a b a^-1 b^-1")).value == F(1, 2)
        assert scl(universal_word(3), bound=2).value == F(1, 2)
        before = len(seen)
        got = scl(sweep_word, bound=3, stabilize=False).value
    finally:
        clear_caches()
    assert len(seen) - before > 2  # several column-generation rounds
    assert not seen[before] and all(seen[before + 1:])  # resumed after the first
    assert got == _value_over_all_discs(sweep_word, 3)
