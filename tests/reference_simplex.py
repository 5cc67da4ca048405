"""Reference dense simplex, kept for tests only.

This is a two-phase primal simplex with Bland's rule over dense rows of
`Fraction`s: every pivot divides the pivot row by the pivot element and
updates every other row in full.  It is slow but plain, which makes it a
good oracle: `sclflow.linprog.solve_lp` follows the same pivot rule, so
on every LP the two must agree on status, value, witness and duals, not
just on the optimum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from sclflow.errors import InputError
from sclflow.linprog import LinearProgram, LPResult, rat


class _Tableau:
    """Dense simplex tableau over Fractions.

    Columns: structural variables first, then slacks, then artificials,
    then the rhs.  Rows carry the constraint system; `obj` is the reduced
    cost row maintained through pivots.
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

    def run(self, allowed) -> str:
        """Maximize until no allowed column has positive reduced cost.

        Bland's rule: entering column is the smallest-index one with
        positive reduced cost; the leaving row minimizes the ratio, ties
        broken by the smallest basic variable index.
        """
        while True:
            enter = None
            for j in range(self.ncols):
                if allowed[j] and self.obj[j] > 0:
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


def solve_lp_dense(lp: LinearProgram) -> LPResult:
    """Exact optimum of `lp`; deterministic for fixed input.

    When the LP is optimal, the witness satisfies every constraint exactly
    and objective . witness == value.  Dual multipliers for all rows are
    returned as well (used for column pricing elsewhere).
    """
    dim = lp.dim()
    for row, _ in list(lp.eq_constraints) + list(lp.ineq_constraints):
        if any(not 0 <= i < dim for i in row):
            raise InputError(f"constraint row names a variable outside 0..{dim - 1}")
    mask = (True,) * dim  # every variable is nonnegative

    # map original variables to nonnegative columns: free x -> x+ - x-
    col_of_var: list[tuple[int, Optional[int]]] = []
    nstruct = 0
    for i in range(dim):
        if mask[i]:
            col_of_var.append((nstruct, None))
            nstruct += 1
        else:
            col_of_var.append((nstruct, nstruct + 1))
            nstruct += 2

    def expand(row):
        """Dense structural row of a sparse map {variable: coefficient}."""
        out = [Fraction(0)] * nstruct
        for i, coef in row.items():
            c = rat(coef)
            if c == 0:
                continue
            p, m = col_of_var[i]
            out[p] += c
            if m is not None:
                out[m] -= c
        return out

    m_eq = len(lp.eq_constraints)
    m_ineq = len(lp.ineq_constraints)
    nslack = m_ineq
    rows = []
    rhs = []
    kinds = []  # per row: "eq" or "ineq", in original order (eq first)
    for row, b in lp.eq_constraints:
        rows.append(expand(row))
        rhs.append(rat(b))
        kinds.append("eq")
    for row, b in lp.ineq_constraints:
        rows.append(expand(row))
        rhs.append(rat(b))
        kinds.append("ineq")

    # attach slack columns for inequalities
    for i, r in enumerate(rows):
        slacks = [Fraction(0)] * nslack
        rows[i] = r + slacks
    si = 0
    for i, kind in enumerate(kinds):
        if kind == "ineq":
            rows[i][nstruct + si] = Fraction(1)
            si += 1

    # normalize rhs >= 0 (negating the whole slack-augmented equation)
    row_sign = [Fraction(1)] * len(rows)
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            row_sign[i] = Fraction(-1)

    # initial basis: slack where it has coefficient +1, else artificial
    nart = 0
    art_col_of_row = {}
    basis = []
    for i, kind in enumerate(kinds):
        slack_col = None
        for j in range(nstruct, nstruct + nslack):
            if rows[i][j] == 1:
                slack_col = j
                break
        if kind == "ineq" and slack_col is not None:
            basis.append(slack_col)
        else:
            art_col_of_row[i] = nstruct + nslack + nart
            basis.append(nstruct + nslack + nart)
            nart += 1
    ncols = nstruct + nslack + nart
    for i in range(len(rows)):
        arts = [Fraction(0)] * nart
        rows[i] = rows[i] + arts
        if i in art_col_of_row:
            rows[i][art_col_of_row[i]] = Fraction(1)

    tab = _Tableau(rows, rhs, ncols)
    tab.basis = basis

    art_cols = set(art_col_of_row.values())
    allowed_all = [True] * ncols

    if nart:
        # phase 1: maximize -sum(artificials)
        phase1 = [Fraction(0)] * ncols
        for c in art_cols:
            phase1[c] = Fraction(-1)
        tab.set_objective(phase1)
        status = tab.run(allowed_all)
        if status != "optimal" or tab.obj_const != 0:
            return LPResult(status="infeasible")
        # drive artificials out of the basis where possible; redundant rows
        # keep a zero-valued artificial basic, which is harmless once the
        # artificial columns are barred from re-entering
        for r in range(len(tab.rows)):
            if tab.basis[r] in art_cols and tab.rhs[r] == 0:
                for j in range(nstruct + nslack):
                    if tab.rows[r][j] != 0:
                        tab.pivot(r, j)
                        break

    allowed = [j not in art_cols for j in range(ncols)]
    objective = expand(dict(enumerate(lp.objective))) + [Fraction(0)] * (nslack + nart)
    tab.set_objective(objective)
    status = tab.run(allowed)
    if status == "unbounded":
        return LPResult(status="unbounded")

    values = [Fraction(0)] * ncols
    for r, b in enumerate(tab.basis):
        values[b] = tab.rhs[r]
    witness = []
    for i in range(dim):
        p, m = col_of_var[i]
        witness.append(values[p] - (values[m] if m is not None else Fraction(0)))
    witness = tuple(witness)
    value = sum(c * w for c, w in zip(lp.objective, witness))

    # duals: the reduced cost of a slack column is -y for its (stored) row,
    # and the slack sign flip cancels the row sign flip, so an ineq dual is
    # always -obj[slack].  Equality duals read off the artificial column,
    # which was attached after normalization, so the row sign reappears.
    eq_duals = []
    ineq_duals = []
    si = 0
    for i, kind in enumerate(kinds):
        if kind == "eq":
            col = art_col_of_row[i]
            eq_duals.append(-row_sign[i] * tab.obj[col])
        else:
            col = nstruct + si
            si += 1
            ineq_duals.append(-tab.obj[col])
    return LPResult(status="optimal", value=value, witness=witness,
                    eq_duals=tuple(eq_duals), ineq_duals=tuple(ineq_duals))
