"""Exact rational linear programming and small-scale linear algebra.

There is no floating point anywhere, so optima and witnesses are exact and
reproducible.  Outputs are `fractions.Fraction`s.  Every variable of a
`LinearProgram` is nonnegative, and it holds each constraint row as a
sparse map {variable index: nonzero coefficient}, the coefficients ints or
`Fraction`s; `make_lp` is the dense front, which turns rows listing one
coefficient per variable into such maps.  The solver is a two-phase primal
simplex with Bland's anti-cycling pivot rule, which makes it deterministic
for a fixed input.  Inside, it works on a sparse integer tableau whose
column j is variable j: each row is a map from column to nonzero int plus
an int rhs over one positive int denominator, and pivots are fraction-free
(Edmonds) eliminations that touch only the rows with an entry in the pivot
column.  `solve_square_int` solves square integer systems fraction-free
as well (Bareiss), and `int_scaled` is the one place rationals are brought
to a common denominator.

A brute-force vertex enumerator serves as an independent oracle for the
simplex.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd as gcd_int
from math import lcm
from typing import Optional, Sequence

from .errors import InputError, LimitExceeded

Rat = Fraction

VERTEX_DIM_LIMIT = 12


def rat(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def rat_to_json(x: Fraction) -> dict:
    x = rat(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def rat_from_json(obj) -> Fraction:
    """The rational of {"num": n, "den": d}, with n and d ints or integer
    strings and d nonzero; anything else is refused, not truncated."""
    if isinstance(obj, dict):
        parts = obj.get("num"), obj.get("den")
        if all(isinstance(v, (int, str)) and not isinstance(v, bool) for v in parts):
            try:
                num, den = map(int, parts)
            except ValueError:
                pass
            else:
                if den:
                    return Fraction(num, den)
    raise InputError(f"not a rational JSON object: {obj!r}")


def int_scaled(values) -> tuple[list[int], int]:
    """Rationals (ints or Fractions) times the lcm L of their denominators,
    as ints, together with L (1 when there are no values)."""
    vals = list(values)
    scale = lcm(*(v.denominator for v in vals))
    return [v.numerator * (scale // v.denominator) for v in vals], scale


# ---------------------------------------------------------------------------
# Exact linear algebra helpers (dense, small systems only)
# ---------------------------------------------------------------------------

def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form over Q; zero rows dropped."""
    mat = [[rat(x) for x in row] for row in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        pv = mat[pivot_row][col]
        mat[pivot_row] = [x / pv for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    out = [tuple(row) for row in mat if any(x != 0 for x in row)]
    return tuple(out)


def solve_square_int(aug: Sequence[Sequence[int]]) -> Optional[tuple[tuple[int, ...], int]]:
    """Solve a square integer system given as augmented rows [a_1 .. a_n, b];
    None if the matrix is singular.

    Fraction-free (Bareiss) elimination, then fraction-free back
    substitution: with D the last pivot, +-det of the matrix, D times the
    solution is integral (Cramer), so every division is exact.  Returns
    the solution as (numerators, denominator), divided by their gcd and
    with a positive denominator, so equal solutions give equal results.
    """
    n = len(aug)
    aug = [list(row) for row in aug]  # eliminate on copies: callers reuse rows
    prev = 1
    for col in range(n):
        pr = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pr = r
                break
        if pr is None:
            return None
        if pr != col:
            aug[col], aug[pr] = aug[pr], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            arow, crow = aug[r], aug[col]
            f = arow[col]
            for j in range(col, n + 1):
                arow[j] = (arow[j] * pivot - f * crow[j]) // prev
        prev = pivot
    den = prev
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = den * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * nums[j]
        nums[i] = acc // row[i]
    g = gcd_int(den, *nums)
    if den < 0:
        g = -g
    return tuple(v // g for v in nums), den // g


def solve_square(mat: Sequence[Sequence[Fraction]],
                 rhs: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
    """Solve a square rational system exactly; None if the matrix is
    singular.  Each row is scaled to integers for `solve_square_int`."""
    sol = solve_square_int([int_scaled([*map(rat, row), rat(b)])[0]
                            for row, b in zip(mat, rhs)])
    if sol is None:
        return None
    nums, den = sol
    return tuple(Fraction(v, den) for v in nums)


# ---------------------------------------------------------------------------
# LP data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to eq rows (= rhs), ineq rows (<= rhs)
    and x >= 0.

    The objective lists one coefficient per variable.  A constraint is a
    pair (row, rhs) whose row is a sparse map {variable index: nonzero
    coefficient} over the indices 0 .. dim-1; coefficients and rhs are
    ints or `Fraction`s.  `make_lp` builds one from dense rows.
    """

    objective: tuple[Rat, ...]
    eq_constraints: tuple[tuple[Mapping[int, Rat], Rat], ...] = ()
    ineq_constraints: tuple[tuple[Mapping[int, Rat], Rat], ...] = ()

    def dim(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    witness: Optional[tuple[Fraction, ...]] = None
    # duals: one multiplier per eq row followed by one per ineq row
    eq_duals: Optional[tuple[Fraction, ...]] = None
    ineq_duals: Optional[tuple[Fraction, ...]] = None


def make_lp(objective, eq=(), ineq=()) -> LinearProgram:
    """A `LinearProgram` over nonnegative variables from dense rows: each
    constraint row lists one coefficient per variable, and every value is
    coerced with `rat`."""
    obj = tuple(rat(x) for x in objective)
    dim = len(obj)

    def sparse(constraints):
        out = []
        for row, b in constraints:
            if len(row) != dim:
                raise InputError(f"constraint row of length {len(row)} does "
                                 f"not match objective of length {dim}")
            out.append(({j: c for j, x in enumerate(row) if (c := rat(x))}, rat(b)))
        return tuple(out)

    return LinearProgram(obj, sparse(eq), sparse(ineq))


# ---------------------------------------------------------------------------
# Two-phase simplex, Bland's rule, on a sparse integer tableau
# ---------------------------------------------------------------------------

def _reduce(row: dict, rhs: int, den: int) -> tuple[dict, int, int]:
    """Divide a tableau row, its rhs and its denominator by their gcd."""
    g = gcd_int(den, rhs, *row.values())
    if g == 1:
        return row, rhs, den
    return {j: v // g for j, v in row.items()}, rhs // g, den // g


def _eliminate(row: dict, rhs: int, den: int, prow: dict, prhs: int,
               c: int) -> tuple[dict, int, int]:
    """Clear column c of a row against a pivot row whose entry there is
    its positive denominator p: row <- p*row - row[c]*prow, den <- den*p.

    This is one fraction-free (Edmonds) elimination step; dividing by the
    gcd afterwards keeps the integers as small as the row allows.
    """
    p = prow[c]
    f = row[c]
    new = dict(row) if p == 1 else {j: p * v for j, v in row.items()}
    for j, v in prow.items():
        x = new.get(j, 0) - f * v
        if x:
            new[j] = x
        else:
            del new[j]
    return _reduce(new, p * rhs - f * prhs, den * p)


class _Tableau:
    """Sparse fraction-free simplex tableau.

    Row i stands for the equation sum_j rows[i][j] * x_j = rhs[i], divided
    through by den[i]: `rows[i]` maps a column to its nonzero int
    coefficient, `rhs[i]` is an int and `den[i]` a positive int shared by
    the whole row, and the three have no common factor.  The basic column
    of row i carries the entry den[i], so its value is rhs[i] / den[i].
    Columns are numbered the LP's variables first (column j is variable
    j), then slacks, then artificials.  The reduced-cost row `obj` has the
    same form, with minus the objective constant in `obj_rhs`.
    """

    def __init__(self, rows, rhs, den, basis):
        self.rows: list[dict] = rows
        self.rhs: list[int] = rhs
        self.den: list[int] = den
        self.basis: list[int] = basis
        self.obj: dict = {}
        self.obj_rhs = 0
        self.obj_den = 1

    def set_objective(self, coeffs: dict) -> None:
        """Reduced costs of the objective {column: rational}: start from the
        raw coefficients, then price out the basis."""
        ints, scale = int_scaled(coeffs.values())
        obj = {j: v for j, v in zip(coeffs, ints) if v}
        obj_rhs, obj_den = 0, scale
        for r, b in enumerate(self.basis):
            if b in obj:
                obj, obj_rhs, obj_den = _eliminate(
                    obj, obj_rhs, obj_den, self.rows[r], self.rhs[r], b)
        self.obj, self.obj_rhs, self.obj_den = obj, obj_rhs, obj_den

    def pivot(self, r: int, c: int) -> None:
        """Make column c basic in row r.  Only the rows with an entry in
        column c change."""
        prow, prhs = self.rows[r], self.rhs[r]
        if prow[c] < 0:
            prow = {j: -v for j, v in prow.items()}
            prhs = -prhs
        prow, prhs, p = _reduce(prow, prhs, prow[c])
        self.rows[r], self.rhs[r], self.den[r] = prow, prhs, p
        for i, row in enumerate(self.rows):
            if i != r and c in row:
                self.rows[i], self.rhs[i], self.den[i] = _eliminate(
                    row, self.rhs[i], self.den[i], prow, prhs, c)
        if c in self.obj:
            self.obj, self.obj_rhs, self.obj_den = _eliminate(
                self.obj, self.obj_rhs, self.obj_den, prow, prhs, c)
        self.basis[r] = c

    def run(self, n_allowed: int) -> str:
        """Maximize until no column below n_allowed has positive reduced
        cost.

        Bland's rule: entering column is the smallest-index one with
        positive reduced cost; the leaving row minimizes the ratio
        rhs / entry (the row denominator cancels, so ints are compared
        crosswise), ties broken by the smallest basic variable index.
        """
        while True:
            enter = min((j for j, v in self.obj.items()
                         if v > 0 and j < n_allowed), default=None)
            if enter is None:
                return "optimal"
            leave = None
            best_rhs = best_a = 0
            for i, row in enumerate(self.rows):
                a = row.get(enter, 0)
                if a > 0:
                    left, right = self.rhs[i] * best_a, best_rhs * a
                    if leave is None or left < right or (
                            left == right and self.basis[i] < self.basis[leave]):
                        leave, best_rhs, best_a = i, self.rhs[i], a
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    def value_of(self, r: int) -> Fraction:
        return Fraction(self.rhs[r], self.den[r])

    def reduced_cost(self, c: int) -> Fraction:
        return Fraction(self.obj.get(c, 0), self.obj_den)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Exact optimum of `lp`; deterministic for fixed input.

    When the LP is optimal, the witness satisfies every constraint exactly
    and objective . witness == value.  Dual multipliers for all rows are
    returned as well (used for column pricing elsewhere).  A row that is
    not a map, a row naming a variable outside 0..dim-1, and an objective,
    coefficient or rhs entry that is not an int or a `Fraction` are
    refused with an `InputError`.
    """
    dim = lp.dim()
    n_eq, nslack = len(lp.eq_constraints), len(lp.ineq_constraints)
    constraints = list(lp.eq_constraints) + list(lp.ineq_constraints)

    def rational(x):
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return x
        raise InputError(f"LP entry {x!r} is not an int or a Fraction")

    def split(row) -> dict:
        """The nonzero entries of a sparse row {variable: coefficient}."""
        if not isinstance(row, Mapping):
            raise InputError(f"constraint row is a {type(row).__name__}, "
                             "not a map {variable: coefficient}")
        out = {}
        for i, c in row.items():
            if not (isinstance(i, int) and 0 <= i < dim):
                raise InputError(f"constraint row names variable {i!r}, "
                                 f"outside 0..{dim - 1}")
            if rational(c):
                out[i] = c
        return out

    objective = split(dict(enumerate(lp.objective)))
    # rows are scaled to ints: equalities first, then inequalities, whose
    # slack columns follow the variable columns
    art_base = dim + nslack
    rows, rhs, den, basis = [], [], [], []
    row_sign = []
    art_col_of_row = {}
    for i, (row, b) in enumerate(constraints):
        coefs = split(row)
        ints, scale = int_scaled([*coefs.values(), rational(b)])
        irow = dict(zip(coefs, ints))  # zip leaves out the rhs, ints[-1]
        irhs = ints[-1]
        slack = dim + i - n_eq if i >= n_eq else None
        if slack is not None:
            irow[slack] = scale
        # normalize rhs >= 0 (negating the whole slack-augmented equation)
        sign = -1 if irhs < 0 else 1
        if sign < 0:
            irow = {j: -v for j, v in irow.items()}
            irhs = -irhs
        row_sign.append(sign)
        # initial basis: slack where it has coefficient +1, else artificial
        if slack is not None and sign > 0:
            basis.append(slack)
        else:
            art = art_base + len(art_col_of_row)
            art_col_of_row[i] = art
            irow[art] = scale
            basis.append(art)
        irow, irhs, d = _reduce(irow, irhs, scale)
        rows.append(irow)
        rhs.append(irhs)
        den.append(d)

    tab = _Tableau(rows, rhs, den, basis)
    ncols = art_base + len(art_col_of_row)

    if art_col_of_row:
        # phase 1: maximize -sum(artificials)
        tab.set_objective({c: -1 for c in art_col_of_row.values()})
        status = tab.run(ncols)
        if status != "optimal" or tab.obj_rhs != 0:
            return LPResult(status="infeasible")
        # drive artificials out of the basis where possible; redundant rows
        # keep a zero-valued artificial basic, which is harmless once the
        # artificial columns are barred from re-entering
        for r in range(len(tab.rows)):
            if tab.basis[r] >= art_base and tab.rhs[r] == 0:
                j = min((k for k in tab.rows[r] if k < art_base), default=None)
                if j is not None:
                    tab.pivot(r, j)

    tab.set_objective(objective)
    status = tab.run(art_base)
    if status == "unbounded":
        return LPResult(status="unbounded")

    values = [Fraction(0)] * ncols
    for r, b in enumerate(tab.basis):
        values[b] = tab.value_of(r)
    witness = tuple(values[:dim])
    value = sum(c * w for c, w in zip(lp.objective, witness))

    # duals: the reduced cost of a slack column is -y for its (stored) row,
    # and the slack sign flip cancels the row sign flip, so an ineq dual is
    # always -obj[slack].  Equality duals read off the artificial column,
    # which was attached after normalization, so the row sign reappears.
    eq_duals = tuple(-row_sign[i] * tab.reduced_cost(art_col_of_row[i])
                     for i in range(n_eq))
    ineq_duals = tuple(-tab.reduced_cost(dim + k) for k in range(nslack))
    return LPResult(status="optimal", value=value, witness=witness,
                    eq_duals=eq_duals, ineq_duals=ineq_duals)


# ---------------------------------------------------------------------------
# Vertex enumeration (independent oracle for the simplex)
# ---------------------------------------------------------------------------

def enumerate_vertices(ineq_constraints, dimension: int) -> list[tuple[Fraction, ...]]:
    """All vertices of {x : row . x <= rhs}, by brute force over bases.

    Every vertex of a polyhedron is the unique solution of `dimension`
    linearly independent active constraints, so trying all constraint
    subsets of that size finds exactly the vertex set.  Deliberately
    independent of solve_lp.
    """
    if dimension > VERTEX_DIM_LIMIT:
        raise LimitExceeded(
            f"vertex enumeration limited to dimension {VERTEX_DIM_LIMIT}, got {dimension}")
    cons = [(tuple(rat(x) for x in row), rat(b)) for row, b in ineq_constraints]
    for row, _ in cons:
        if len(row) != dimension:
            raise InputError("constraint dimension mismatch")
    # augmented integer rows [a_1 .. a_d, b], scaled once
    aug_rows = [int_scaled(row + (b,))[0] for row, b in cons]
    seen = set()
    out = []
    for subset in combinations(aug_rows, dimension):
        sol = solve_square_int(subset)
        if sol is None or sol in seen:
            continue
        seen.add(sol)
        nums, den = sol
        # zip stops at len(nums), so row[-1], the rhs, is left out of the sum
        if all(sum(a * x for a, x in zip(row, nums)) <= row[-1] * den
               for row in aug_rows):
            out.append(tuple(Fraction(v, den) for v in nums))
    out.sort()
    return out
