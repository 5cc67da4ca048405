"""Reference extremal-ray extraction by vertex enumeration, for tests only.

The cone sits in the nonnegative orthant, so it is pointed and its rays
are the vertices of the total-mass-one cross-section.  This routine finds
them by reducing that cross-section to its affine hull and trying every
basis of the sign constraints with `sclflow.linprog.enumerate_vertices`.
It is slow (C(m, d) square solves) but shares no step with the double
description in `sclflow.cones.extremal_rays`, which makes it a good
oracle: on every cone the two must return the same list.

`support_nullity` is the algebraic test for a single ray: a nonzero
member x of {x >= 0 : A x = 0} spans an extremal ray exactly when the
columns of A on the support of x have a one-dimensional nullspace.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from sclflow.cones import RAY_N_LIMIT
from sclflow.errors import LimitExceeded
from sclflow.graphs import Flow
from sclflow.linprog import enumerate_vertices, int_scaled, rat, rref
from sclflow.words import ExponentMatrix


def nullspace(rows: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : row . x = 0 for all rows}, in R^dim."""
    red = rref(rows)
    pivots = []
    for row in red:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    free = [j for j in range(dim) if j not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * dim
        vec[f] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def affine_solution(rows: Sequence[Sequence[Fraction]],
                    rhs: Sequence[Fraction],
                    dim: int) -> Optional[tuple[Fraction, ...]]:
    """One particular solution of rows . x = rhs, or None if inconsistent."""
    aug = [list(map(rat, row)) + [rat(b)] for row, b in zip(rows, rhs)]
    red = rref(aug)
    sol = [Fraction(0)] * dim
    for row in red:
        lead = None
        for j in range(dim):
            if row[j] != 0:
                lead = j
                break
        if lead is None:
            if row[dim] != 0:
                return None
            continue
        # back-substitution is unnecessary: rref rows already reduced
        sol[lead] = row[dim]
    # verify (free variables set to zero may interact with non-reduced cols)
    for row, b in zip(rows, rhs):
        if sum(rat(c) * s for c, s in zip(row, sol)) != rat(b):
            return None
    return tuple(sol)


def constraint_rows(spec: ExponentMatrix) -> list[list[int]]:
    """Conservation rows, then weight rows, over the n*n flow coordinates
    (coordinate i*n + j is the edge i->j)."""
    n = spec.n
    rows = []
    for i in range(n):
        row = [0] * (n * n)
        for j in range(n):
            row[i * n + j] += 1
            row[j * n + i] -= 1
        rows.append(row)
    for zrow in spec.rows:
        rows.append([zrow[j] for j in range(n) for _k in range(n)])
    return rows


def support_nullity(spec: ExponentMatrix, entries) -> int:
    """Nullity of the constraint columns on the support of a flow."""
    flat = [v for row in entries for v in row]
    support = [c for c, v in enumerate(flat) if v]
    sub = [[row[c] for c in support] for row in constraint_rows(spec)]
    return len(support) - len(rref(sub))


def extremal_rays_by_vertices(spec: ExponentMatrix, n_limit: int = RAY_N_LIMIT) -> list[Flow]:
    """Primitive integral generators of the extremal rays of the cone.

    The cone is pointed (it sits in the nonnegative orthant), so its rays
    are the vertices of the total-mass-one cross-section; those are found
    by exact vertex enumeration after reducing to the affine hull.
    """
    if spec.n > n_limit:
        raise LimitExceeded(f"ray extraction limited to n <= {n_limit}")
    n = spec.n
    dim = n * n

    def var(i, j):
        return i * n + j

    eq_rows = []
    rhs = []
    for i in range(n):  # conservation: outflow_i - inflow_i = 0
        row = [Fraction(0)] * dim
        for j in range(n):
            row[var(i, j)] += 1
            row[var(j, i)] -= 1
        eq_rows.append(row)
        rhs.append(Fraction(0))
    for zrow in spec.rows:  # weight row: sum_j z_j * outflow_j = 0
        row = [Fraction(0)] * dim
        for j in range(n):
            for k in range(n):
                row[var(j, k)] += zrow[j]
        eq_rows.append(row)
        rhs.append(Fraction(0))
    row = [Fraction(1)] * dim  # cross-section: total mass 1
    eq_rows.append(row)
    rhs.append(Fraction(1))

    x0 = affine_solution(eq_rows, rhs, dim)
    if x0 is None:
        return []
    basis = nullspace(eq_rows, dim)
    d = len(basis)
    # f = x0 + basis . y >= 0   <=>   -(basis_j) . y <= x0_j per coordinate
    ineqs = []
    for coord in range(dim):
        rowv = tuple(-b[coord] for b in basis)
        ineqs.append((rowv, x0[coord]))
    verts = enumerate_vertices(ineqs, d)
    rays = []
    seen = set()
    for y in verts:
        f = [x0[c] + sum(b[c] * yv for b, yv in zip(basis, y)) for c in range(dim)]
        ints, _scale = int_scaled(f)
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g:
            ints = [v // g for v in ints]
        entries = tuple(tuple(ints[var(i, j)] for j in range(n)) for i in range(n))
        if entries not in seen:
            seen.add(entries)
            rays.append(Flow(n, entries))
    rays.sort(key=lambda fl: fl.entries)
    return rays
