"""Exact rational linear programming and small-scale linear algebra.

There is no floating point anywhere, so optima and witnesses are exact and
reproducible.  Outputs are `fractions.Fraction`s.  Every variable of a
`LinearProgram` is nonnegative, and it holds each constraint row as a
sparse map {variable index: nonzero coefficient}, the coefficients ints or
`Fraction`s; `make_lp` is the dense front, which turns rows listing one
coefficient per variable into such maps.  The solver is a two-phase primal
simplex with Bland's anti-cycling pivot rule, which makes it deterministic
for a fixed input.  Inside, it works on a sparse integer tableau: each row
is a map from column to nonzero int plus an int rhs over one positive int
denominator, and pivots are fraction-free (Edmonds) eliminations that touch
only the rows with an entry in the pivot column.  Every row is kept with
no common factor, and each step does only the work that can change it:
an elimination takes a gcd only when the row's new denominator is not 1
(the pivot row, the first rows and appended columns never need one, as
`pivot`, `_initial_tableau` and `_appended` say), scales the row only
when the pivot entry is not 1, and a constraint row of ints skips
`int_scaled`.  Which pivots happen does not depend on any of it.  The
columns are the LP's variables (column j is variable j), then one slack
per inequality, then the artificials, then the variables that
`resume_lp` appends to an optimum; only the artificials are barred from
entering phase 2.  A resumed solve runs phase 2 alone.
`solve_square_int` solves square integer systems fraction-free as well
(Bareiss), and `int_scaled` is the one place rationals are brought to a
common denominator.

A brute-force vertex enumerator serves as an independent oracle for the
simplex.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from copy import copy as shallow_copy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd as gcd_int
from math import lcm
from typing import Optional, Sequence

from .errors import InputError, LimitExceeded

Rat = Fraction

VERTEX_DIM_LIMIT = 12


def rat(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction.  A float or a bool is
    refused rather than read as the binary fraction or int it holds."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise InputError(f"{x!r} is a {type(x).__name__}, not an exact rational")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"{x!r} is not an exact rational") from None


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
    as ints, together with L (1 when there are no values).

    L and the ints have no common factor: a prime that divides L divides
    some value's denominator as often as it divides L, so it does not
    divide that value's int."""
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
    # pivots of this solve; phase 1 ends with the artificials driven out,
    # and a resumed solve counts all of its pivots in phase 2
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    # an optimum's final tableau, which `resume_lp` appends columns to
    tableau: Optional[_Tableau] = field(default=None, compare=False, repr=False)


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

def _rational(x):
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise InputError(f"LP entry {x!r} is not an int or a Fraction")


def _split(row, dim: int) -> dict:
    """The nonzero entries of a sparse map {index: coefficient} over 0..dim-1:
    a constraint row over the variables or a column over the rows.  A dict
    and an int entry pass their checks by type alone."""
    if type(row) is not dict and not isinstance(row, Mapping):
        raise InputError(f"sparse row or column is a {type(row).__name__}, "
                         "not a map {index: coefficient}")
    out = {}
    for i, c in row.items():
        if not (isinstance(i, int) and 0 <= i < dim):
            raise InputError(f"sparse row or column names index {i!r}, "
                             f"outside 0..{dim - 1}")
        if type(c) is not int:
            _rational(c)
        if c:
            out[i] = c
    return out


def _eliminate(row: dict, rhs: int, den: int, prow: dict, prhs: int,
               c: int) -> tuple[dict, int, int]:
    """Clear column c of a row against a pivot row whose entry there is
    its positive denominator p: row <- p*row - row[c]*prow, den <- den*p.

    This is one fraction-free (Edmonds) elimination step; dividing by the
    gcd afterwards keeps the integers as small as the row allows.  Two
    shortcuts are exact: when p is 1 the row is copied, not scaled, and
    when the new denominator is 1 the row is reduced already, since the
    gcd of 1 with anything is 1.  The result is always a new map, never
    `row` edited, because `_Tableau.copy` shares the row maps.
    """
    p = prow[c]
    f = row[c]
    if p == 1:
        new = dict(row)
    else:
        new = {j: p * v for j, v in row.items()}
        rhs *= p
        den *= p
    for j, v in prow.items():
        if j in new:
            x = new[j] - f * v
            if x:
                new[j] = x
            else:
                del new[j]
        else:
            new[j] = -f * v
    rhs -= f * prhs
    if den == 1:
        return new, rhs, den
    g = gcd_int(den, rhs, *new.values())
    if g == 1:
        return new, rhs, den
    return {j: v // g for j, v in new.items()}, rhs // g, den // g


def _appended(row: dict, rhs: int, den: int,
              entries: dict) -> tuple[dict, int, int]:
    """A row with new columns {column: entry times den}, the entries ints
    or `Fraction`s; the row is scaled by their common denominator L.

    The result needs no gcd: the old part, reduced before, has gcd L after
    scaling, and L has no factor in common with the new ints (see
    `int_scaled`)."""
    entries = {j: x for j, x in entries.items() if x}
    if not entries:
        return row, rhs, den
    ints, scale = int_scaled(entries.values())
    if scale > 1:
        row = {j: v * scale for j, v in row.items()}
        rhs, den = rhs * scale, den * scale
    return {**row, **dict(zip(entries, ints))}, rhs, den


class _Tableau:
    """Sparse fraction-free simplex tableau of an LP with the coefficients
    `objective`, one per variable, and `n_eq` eq rows before its ineq rows.

    Row i stands for the equation sum_j rows[i][j] * x_j = rhs[i], divided
    through by den[i]: `rows[i]` maps a column to its nonzero int
    coefficient, `rhs[i]` is an int and `den[i]` a positive int shared by
    the whole row, and the three have no common factor.  The basic column
    of row i carries the entry den[i], so its value is rhs[i] / den[i].
    The reduced-cost row `obj` has the same form, with minus the objective
    constant in `obj_rhs`.

    Columns are numbered: the `dim` variables of the LP first solved (column
    j is variable j), then one slack per ineq row, then the artificials,
    the range `barred`, then the variables appended since, so variable
    v >= dim is column v + barred.stop - dim.  Constraint row i was negated
    when `sign[i]` is -1, to make its rhs nonnegative; `ident[i]` is the
    column that began as its identity column: the slack of an inequality
    with nonnegative rhs, else the row's artificial.  Those columns carry
    the inverse of the basis, which is how `extend` prices a new column.
    Only the artificials are barred from entering in phase 2.
    """

    def __init__(self, objective, n_eq, rows, rhs, den, basis, sign, barred):
        self.objective: list = objective
        self.n_eq: int = n_eq
        self.rows: list[dict] = rows
        self.rhs: list[int] = rhs
        self.den: list[int] = den
        self.basis: list[int] = basis
        self.ident: list[int] = list(basis)
        self.sign: list[int] = sign
        self.dim: int = len(objective)
        self.barred: range = barred
        self.obj: dict = {}
        self.obj_rhs = 0
        self.obj_den = 1
        self.pivots = 0

    def copy(self) -> "_Tableau":
        """A copy with its own objective, basis and pivot count.  The row
        maps are shared: a pivot replaces the maps it changes and edits
        none."""
        new = shallow_copy(self)
        new.objective = list(self.objective)
        new.rows, new.rhs, new.den = list(self.rows), list(self.rhs), list(self.den)
        new.basis = list(self.basis)
        new.pivots = 0
        return new

    def column(self, v: int) -> int:
        return v if v < self.dim else v + self.barred.stop - self.dim

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

    def extend(self, columns) -> None:
        """Append new variables as nonbasic columns, each given as
        (objective coefficient, {constraint row: coefficient}) with the eq
        rows numbered first; columns that are not a list of such pairs, or
        a malformed pair, are refused with an `InputError` before the
        tableau changes.

        A new variable with objective coefficient c and coefficients a_i
        has the column sum_i sign[i] * a_i * (column ident[i]), which is
        B^-1 times its normalized coefficients, and the reduced cost
        c + sum_i sign[i] * a_i * (reduced cost of ident[i]).
        """
        if not isinstance(columns, Iterable):
            raise InputError(f"columns are a {type(columns).__name__}, "
                             "not a list of columns")
        added = []
        for column in columns:
            if not (isinstance(column, Sequence) and len(column) == 2):
                raise InputError(f"column {column!r} is not a pair "
                                 "(objective coefficient, {row: coefficient})")
            c, coefs = column
            added.append((_rational(c), _split(coefs, len(self.rows))))
        # inverse[i]: the (row, entry) pairs of column ident[i]
        inverse = [[(r, row[c]) for r, row in enumerate(self.rows) if c in row]
                   for c in self.ident]
        entries = [{} for _ in self.rows]  # row -> {column: entry times den}
        costs = {}
        for c, coefs in added:
            col = self.column(len(self.objective))
            self.objective.append(c)
            cost = c * self.obj_den
            for i, a in coefs.items():
                a *= self.sign[i]
                for r, x in inverse[i]:
                    entries[r][col] = entries[r].get(col, 0) + a * x
                cost += a * self.obj.get(self.ident[i], 0)
            costs[col] = cost
        for r, new in enumerate(entries):
            self.rows[r], self.rhs[r], self.den[r] = _appended(
                self.rows[r], self.rhs[r], self.den[r], new)
        self.obj, self.obj_rhs, self.obj_den = _appended(
            self.obj, self.obj_rhs, self.obj_den, costs)

    def pivot(self, r: int, c: int) -> None:
        """Make column c basic in row r.  Only the rows with an entry in
        column c change.

        The pivot row, negated if its entry is negative, takes the entry's
        size as its denominator and needs no gcd: the row held its old
        denominator as the entry of its basic column, so the gcd of its
        entries and rhs alone was already 1."""
        rows, rhs, den = self.rows, self.rhs, self.den
        prow, prhs = rows[r], rhs[r]
        p = prow[c]
        if p < 0:
            prow = {j: -v for j, v in prow.items()}
            prhs, p = -prhs, -p
        rows[r], rhs[r], den[r] = prow, prhs, p
        for i in [i for i, row in enumerate(rows) if c in row and i != r]:
            rows[i], rhs[i], den[i] = _eliminate(rows[i], rhs[i], den[i],
                                                 prow, prhs, c)
        if c in self.obj:
            self.obj, self.obj_rhs, self.obj_den = _eliminate(
                self.obj, self.obj_rhs, self.obj_den, prow, prhs, c)
        self.basis[r] = c
        self.pivots += 1

    def drive_out(self) -> None:
        """Pivot each zero-valued basic artificial out on the first column
        of its row that may enter.  A redundant row has none and keeps its
        artificial basic, which is harmless once the artificials are barred
        from entering: no pivot on an allowed column changes the row."""
        for r in range(len(self.rows)):
            if self.basis[r] in self.barred and self.rhs[r] == 0:
                j = min((k for k in self.rows[r] if k not in self.barred), default=None)
                if j is not None:
                    self.pivot(r, j)

    def run(self, barred: range) -> str:
        """Maximize until no column outside `barred` has positive reduced
        cost.

        Bland's rule: entering column is the smallest-index one with
        positive reduced cost; the leaving row minimizes the ratio
        rhs / entry (the row denominator cancels, so ints are compared
        crosswise), ties broken by the smallest basic variable index.
        """
        while True:
            enter = min([j for j, v in self.obj.items()
                         if v > 0 and j not in barred], default=None)
            if enter is None:
                return "optimal"
            leave = None
            best_rhs = best_a = 0
            for i, a in [(i, row[enter]) for i, row in enumerate(self.rows)
                         if enter in row]:
                if a > 0:
                    left, right = self.rhs[i] * best_a, best_rhs * a
                    if leave is None or left < right or (
                            left == right and self.basis[i] < self.basis[leave]):
                        leave, best_rhs, best_a = i, self.rhs[i], a
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)


def _initial_tableau(lp: LinearProgram) -> _Tableau:
    """The tableau of `lp` at its first basis: each row scaled to ints, with
    its rhs made nonnegative, and its slack basic where that has coefficient
    +1, else a new artificial.  A row of ints is taken as it is, over
    denominator 1; any other is scaled by `int_scaled`, whose ints have no
    factor in common with the scale, so no row needs a gcd."""
    dim = lp.dim()
    n_eq, nslack = len(lp.eq_constraints), len(lp.ineq_constraints)
    # equalities first, then inequalities, whose slack columns follow the
    # variable columns
    art_base = dim + nslack
    rows, rhs, den, basis, sign = [], [], [], [], []
    nart = 0
    for i, (row, b) in enumerate((*lp.eq_constraints, *lp.ineq_constraints)):
        coefs = _split(row, dim)
        b = _rational(b)
        if type(b) is int and all(type(v) is int for v in coefs.values()):
            irow, irhs, scale = coefs, b, 1  # _split made coefs a new map
        else:
            ints, scale = int_scaled([*coefs.values(), b])
            irow = dict(zip(coefs, ints))  # zip leaves out the rhs, ints[-1]
            irhs = ints[-1]
        slack = dim + i - n_eq if i >= n_eq else None
        if slack is not None:
            irow[slack] = scale
        # normalize rhs >= 0 (negating the whole slack-augmented equation)
        s = -1 if irhs < 0 else 1
        if s < 0:
            irow = {j: -v for j, v in irow.items()}
            irhs = -irhs
        sign.append(s)
        if slack is not None and s > 0:
            basis.append(slack)
        else:
            irow[art_base + nart] = scale
            basis.append(art_base + nart)
            nart += 1
        rows.append(irow)
        rhs.append(irhs)
        den.append(scale)
    return _Tableau([_rational(c) for c in lp.objective], n_eq, rows, rhs, den,
                    basis, sign, range(art_base, art_base + nart))


def solve_lp(lp: LinearProgram) -> LPResult:
    """Exact optimum of `lp`; deterministic for fixed input.

    When the LP is optimal, the witness satisfies every constraint exactly
    and objective . witness == value.  Dual multipliers for all rows are
    returned as well (used for column pricing elsewhere).  A row that is
    not a map, a row naming a variable outside 0..dim-1, and an objective,
    coefficient or rhs entry that is not an int or a `Fraction` are
    refused with an `InputError`.  Both phases run from the first basis;
    `resume_lp` appends columns to an optimal result.
    """
    tab = _initial_tableau(lp)
    if tab.barred:
        # phase 1: maximize -sum(artificials)
        tab.set_objective({c: -1 for c in tab.barred})
        status = tab.run(range(0))
        if status != "optimal" or tab.obj_rhs != 0:
            return LPResult(status="infeasible", phase1_pivots=tab.pivots)
        tab.drive_out()
    phase1 = tab.pivots
    tab.set_objective(dict(enumerate(tab.objective)))
    return _phase2(tab, phase1)


def resume_lp(start: LPResult, columns) -> LPResult:
    """Exact optimum of the LP of `start` with the `columns` appended as
    new variables, by phase 2 alone from the start's final tableau.

    Each column is (objective coefficient, {constraint row: coefficient}),
    its rows numbered as the duals are: eq rows first, then ineq rows.  The
    start must be an optimal result carrying its tableau; it is copied,
    never changed.  Any other start, columns that are not a list of pairs,
    a column map that is not a map, a row outside 0..rows-1 and an entry
    that is not an int or a `Fraction` are refused with an `InputError`
    before any pivot.
    """
    if getattr(start, "status", None) != "optimal" or getattr(start, "tableau", None) is None:
        raise InputError("a start must be an optimal result of solve_lp, "
                         "carrying its tableau")
    tab = start.tableau.copy()
    tab.extend(columns)
    # an appended column can break a row's redundancy
    tab.drive_out()
    return _phase2(tab, 0)


def _phase2(tab: _Tableau, phase1: int) -> LPResult:
    """Phase 2 on a feasible tableau whose first `phase1` pivots were phase
    1's, and the result it ends in."""
    status = tab.run(tab.barred)
    if status == "unbounded":
        return LPResult(status="unbounded", phase1_pivots=phase1,
                        phase2_pivots=tab.pivots - phase1)

    # the nonzero basic variables: column j < dim is variable j, and a
    # column past the artificials is variable j - shift
    zero = Fraction(0)
    dim, shift = tab.dim, tab.barred.stop - tab.dim
    values = {b if b < dim else b - shift: Fraction(tab.rhs[r], tab.den[r])
              for r, b in enumerate(tab.basis)
              if tab.rhs[r] and (b < dim or b >= tab.barred.stop)}
    witness = tuple(values.get(v, zero) for v in range(len(tab.objective)))
    value = sum((tab.objective[v] * x for v, x in values.items()), zero)

    def dual(c, s):
        """-s times the reduced cost of column c."""
        y = tab.obj.get(c)
        return Fraction(-s * y, tab.obj_den) if y else zero

    # duals: the reduced cost of a slack column is -y for its (stored) row,
    # and the slack sign flip cancels the row sign flip, so an ineq dual is
    # always -obj[slack].  Equality duals read off the artificial column,
    # which was attached after normalization, so the row sign reappears.
    eq_duals = tuple(dual(tab.ident[i], tab.sign[i]) for i in range(tab.n_eq))
    ineq_duals = tuple(dual(dim + k, 1) for k in range(len(tab.rows) - tab.n_eq))
    return LPResult(status="optimal", value=value, witness=witness,
                    eq_duals=eq_duals, ineq_duals=ineq_duals,
                    phase1_pivots=phase1, phase2_pivots=tab.pivots - phase1,
                    tableau=tab)


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
