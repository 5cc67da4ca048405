"""Reference dense simplex, kept for tests only.

This is a two-phase primal simplex with Bland's rule over dense rows of
`Fraction`s: every pivot divides the pivot row by the pivot element and
updates every other row in full.  It is slow but plain, which makes it a
good oracle: `sclflow.linprog.solve_lp` follows the same pivot rule and
numbers its columns the same way, so on every LP, solved cold or resumed
from a start, the two must agree on status, value, witness and duals, not
just on the optimum.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from sclflow.errors import InputError
from sclflow.linprog import LinearProgram, LPResult, rat


class _Tableau:
    """Dense simplex tableau over Fractions.

    Columns: the variables of the LP first solved, then slacks, then
    artificials (the range `barred`), then the variables appended by
    resumed solves.  Rows carry the constraint system; `obj` is the
    reduced cost row maintained through pivots.  `ident[i]` is the column
    that began as row i's identity column, and `sign[i]` is -1 where row i
    was negated to make its rhs nonnegative.
    """

    def __init__(self, rows, rhs, ncols):
        self.rows = rows          # list of list[Fraction], each length ncols
        self.rhs = rhs            # list[Fraction]
        self.ncols = ncols
        self.basis: list[int] = []
        self.obj: list[Fraction] = []
        self.obj_const = Fraction(0)

    def set_objective(self, coeffs):
        # reduced costs: start from raw objective, then price out basis
        self.obj = list(coeffs) + [Fraction(0)] * (self.ncols - len(coeffs))
        self.obj_const = Fraction(0)
        for r, b in enumerate(self.basis):
            cb = self.obj[b]
            if cb != 0:
                self.obj = [o - cb * a for o, a in zip(self.obj, self.rows[r])]
                self.obj_const += cb * self.rhs[r]

    def append(self, coefs, cost):
        """A new nonbasic column with normalized coefficients {row: a} and
        objective coefficient `cost`: B^-1 a, read off the identity columns,
        and reduced cost cost + sum_i a_i * obj[ident[i]]."""
        for r, row in enumerate(self.rows):
            row.append(sum((a * row[self.ident[i]] for i, a in coefs.items()),
                           Fraction(0)))
        self.obj.append(cost + sum((a * self.obj[self.ident[i]]
                                    for i, a in coefs.items()), Fraction(0)))
        self.ncols += 1

    def pivot(self, r, c):
        pv = self.rows[r][c]
        inv = Fraction(1) / pv
        self.rows[r] = [x * inv for x in self.rows[r]]
        self.rhs[r] *= inv
        prow = self.rows[r]
        prhs = self.rhs[r]
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][c]
            if f != 0:
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], prow)]
                self.rhs[i] -= f * prhs
        f = self.obj[c]
        if f != 0:
            self.obj = [a - f * b for a, b in zip(self.obj, prow)]
            self.obj_const += f * prhs
        self.basis[r] = c

    def drive_out(self):
        # drive artificials out of the basis where possible; redundant rows
        # keep a zero-valued artificial basic, which is harmless once the
        # artificial columns are barred from re-entering
        for r in range(len(self.rows)):
            if self.basis[r] in self.barred and self.rhs[r] == 0:
                for j in range(self.ncols):
                    if j not in self.barred and self.rows[r][j] != 0:
                        self.pivot(r, j)
                        break

    def run(self, barred) -> str:
        """Maximize until no column outside `barred` has positive reduced
        cost.

        Bland's rule: entering column is the smallest-index one with
        positive reduced cost; the leaving row minimizes the ratio, ties
        broken by the smallest basic variable index.
        """
        while True:
            enter = None
            for j in range(self.ncols):
                if j not in barred and self.obj[j] > 0:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)


def _check_rows(lp):
    dim = lp.dim()
    for row, _ in list(lp.eq_constraints) + list(lp.ineq_constraints):
        if any(not 0 <= i < dim for i in row):
            raise InputError(f"constraint row names a variable outside 0..{dim - 1}")


def _cold(lp: LinearProgram):
    """Phase 1 from the slack-or-artificial basis; the tableau ready for
    phase 2, or None if the LP is infeasible."""
    dim = lp.dim()

    def expand(row):
        """Dense row of a sparse map {variable: coefficient}."""
        out = [Fraction(0)] * dim
        for i, coef in row.items():
            out[i] = rat(coef)
        return out

    m_eq = len(lp.eq_constraints)
    nslack = len(lp.ineq_constraints)
    rows = []
    rhs = []
    for row, b in list(lp.eq_constraints) + list(lp.ineq_constraints):
        rows.append(expand(row) + [Fraction(0)] * nslack)
        rhs.append(rat(b))
    # attach slack columns for inequalities
    for k in range(nslack):
        rows[m_eq + k][dim + k] = Fraction(1)

    # normalize rhs >= 0 (negating the whole slack-augmented equation)
    sign = [1] * len(rows)
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            sign[i] = -1

    # initial basis: slack where it has coefficient +1, else artificial
    nart = 0
    art_of_row = {}
    basis = []
    for i in range(len(rows)):
        if i >= m_eq and rows[i][dim + i - m_eq] == 1:
            basis.append(dim + i - m_eq)
        else:
            art_of_row[i] = dim + nslack + nart
            basis.append(dim + nslack + nart)
            nart += 1
    ncols = dim + nslack + nart
    for i in range(len(rows)):
        rows[i] = rows[i] + [Fraction(0)] * nart
        if i in art_of_row:
            rows[i][art_of_row[i]] = Fraction(1)

    tab = _Tableau(rows, rhs, ncols)
    tab.basis = basis
    tab.ident = list(basis)
    tab.sign = sign
    tab.dim = dim
    tab.barred = range(dim + nslack, ncols)

    if nart:
        # phase 1: maximize -sum(artificials)
        phase1 = [Fraction(0)] * ncols
        for c in tab.barred:
            phase1[c] = Fraction(-1)
        tab.set_objective(phase1)
        status = tab.run(range(0))
        if status != "optimal" or tab.obj_const != 0:
            return None
        tab.drive_out()

    tab.set_objective([rat(c) for c in lp.objective])
    return tab


def _resumed(lp: LinearProgram, start: LPResult):
    """A copy of the start's tableau with the variables `lp` adds appended
    as nonbasic columns, in order, and the artificials driven out again."""
    tab = copy.deepcopy(start.tableau)
    old_dim = tab.lp.dim()
    constraints = list(lp.eq_constraints) + list(lp.ineq_constraints)
    for v in range(old_dim, lp.dim()):
        coefs = {i: tab.sign[i] * rat(row[v])
                 for i, (row, _) in enumerate(constraints) if row.get(v, 0)}
        tab.append(coefs, rat(lp.objective[v]))
    tab.drive_out()
    return tab


def solve_lp_dense(lp: LinearProgram, start: LPResult | None = None) -> LPResult:
    """Exact optimum of `lp`; deterministic for fixed input.

    When the LP is optimal, the witness satisfies every constraint exactly
    and objective . witness == value.  Dual multipliers for all rows are
    returned as well (used for column pricing elsewhere).  With `start`, an
    optimal result of this function for an LP that `lp` extends by appended
    variables, only phase 2 runs, from a copy of the start's tableau.
    """
    _check_rows(lp)
    tab = _cold(lp) if start is None else _resumed(lp, start)
    if tab is None:
        return LPResult(status="infeasible")
    tab.lp = lp
    status = tab.run(tab.barred)
    if status == "unbounded":
        return LPResult(status="unbounded")

    values = [Fraction(0)] * tab.ncols
    for r, b in enumerate(tab.basis):
        values[b] = tab.rhs[r]
    shift = tab.barred.stop - tab.dim  # variable v >= dim is column v + shift
    witness = tuple(values[v if v < tab.dim else v + shift] for v in range(lp.dim()))
    value = sum(c * w for c, w in zip(lp.objective, witness))

    # duals: the reduced cost of a slack column is -y for its (stored) row,
    # and the slack sign flip cancels the row sign flip, so an ineq dual is
    # always -obj[slack].  Equality duals read off the artificial column,
    # which was attached after normalization, so the row sign reappears.
    m_eq = len(lp.eq_constraints)
    eq_duals = tuple(-tab.sign[i] * tab.obj[tab.ident[i]] for i in range(m_eq))
    ineq_duals = tuple(-tab.obj[tab.dim + k]
                       for k in range(len(lp.ineq_constraints)))
    return LPResult(status="optimal", value=value, witness=witness,
                    eq_duals=eq_duals, ineq_duals=ineq_duals, tableau=tab)
