"""Computing scl through the paired unit-outflow linear program.

The value of a word with exponent matrices (x, y) and n blocks per side is
(n - S)/2, where S maximizes the total decomposition weight of a paired
pair of unit-outflow flows (v_A, v_B) into disc vectors of the two cones.
Unit outflow plus the pairing identity make every cone condition automatic,
so the feasible v_A are exactly the doubly stochastic n x n matrices and
v_B is the entrywise image (v_B)[k][i] = (v_A)[i][k+1 mod n].

The columns of each side are the essential disc vectors up to the outflow
bound (`cones.lp_columns`), and every LP runs column generation: a
restricted LP is solved and seeded with new columns of positive reduced
cost until none remain, which certifies the optimum over the full column
set.  Each LP is built straight from sparse integer rows.  Truncation to
outflow bound B can only shrink the admissible decompositions, so the
computed value is always an upper bound for scl.  It is reported as
`stabilized` when it meets the combinatorial lower bound, or when two
consecutive bounds agree.
Each LP is a deterministic function of its two column sets, which depend
on the word only through its two row spaces, so the only memo on this path
is the column memo of `cones.lp_columns`.  `conjecture_check` sets the
computed value of a four-block family against its predicted closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .bounds import lower_bound
from .cones import ConeSpec, cone_spec, in_cone, lp_columns
from .errors import InputError, InternalCheckError, LimitExceeded
from .graphs import Flow, flow_to_json
from .linprog import LinearProgram, int_scaled, rat_to_json, solve_lp
from .words import Word, make_word

SCL_N_LIMIT = 6
DEFAULT_BOUND = 3
_CG_BATCH = 120


def pair_flow(v_a: Flow) -> Flow:
    """The partner flow under the pairing identity, indices cyclic."""
    n = v_a.n
    return Flow(n, tuple(tuple(v_a.entries[i][(k + 1) % n] for i in range(n))
                         for k in range(n)))


def is_paired(v_a: Flow, v_b: Flow) -> bool:
    return v_a.n == v_b.n and pair_flow(v_a).entries == v_b.entries


# ---------------------------------------------------------------------------
# Packing LP with lazy column generation
# ---------------------------------------------------------------------------

def _sparse_columns(discs, offset: int = 0) -> list[dict[int, int]]:
    """Each disc vector as a packing column {row: coefficient}: entry (i, j)
    of an n x n disc lands in row offset + i*n + j."""
    return [{offset + i * d.n + j: int(v)
             for i, row in enumerate(d.entries) for j, v in enumerate(row) if v}
            for d in discs]


def _solve_packing(eq_rows, n_fixed, capacity_rows, column_groups):
    """Maximize sum(t) over the fixed variables a (indices 0..n_fixed-1)
    and one weight t_d >= 0 per column, subject to

        row . a = rhs                           per (row, rhs) in eq_rows
        row . a + sum_d t_d * col_d[r] <= rhs   per (row, rhs) in capacity_rows

    Every row is a sparse integer map {fixed variable: coefficient}, and
    capacity row r is row r of the packing.  Each column in
    `column_groups` is a sparse map {packing row: coefficient} whose
    variable follows the fixed ones.

    Every call runs column generation (Gilmore-Gomory): the restricted LP
    starts from the lightest columns of each group and takes in, each
    round, the _CG_BATCH columns of largest positive reduced cost.  Once no
    column prices in, its optimum is optimal over every column.
    Returns (LPResult over all columns, list of active column ids).
    """
    all_cols = [col for group in column_groups for col in group]

    def build_lp(active_ids):
        ineqs = [(dict(row), rhs) for row, rhs in capacity_rows]
        for k, cid in enumerate(active_ids, n_fixed):
            for r, cf in all_cols[cid].items():
                ineqs[r][0][k] = cf
        obj = (0,) * n_fixed + (1,) * len(active_ids)
        return LinearProgram(obj, tuple(eq_rows), tuple(ineqs))

    # start with the lightest columns per group (deterministic)
    active = []
    first = 0
    for group in column_groups:
        masses = [sum(col.values()) for col in group]
        cheapest = min(masses, default=0)
        light = [first + ci for ci, m in enumerate(masses) if m <= cheapest]
        active.extend(light[:_CG_BATCH])
        first += len(group)

    while True:
        res = solve_lp(build_lp(active))
        if res.status != "optimal":
            return res, active
        # price in integers: with the duals over one common denominator L,
        # L * (reduced cost) = L - sum(y_r * c_r) has the sign and order
        # of the reduced cost itself
        duals, scale = int_scaled(res.ineq_duals)
        active_set = set(active)
        violating = []
        for cid, col in enumerate(all_cols):
            if cid in active_set:
                continue
            rc = scale - sum(duals[r] * cf for r, cf in col.items())
            if rc > 0:
                violating.append((rc, cid))
        if not violating:
            return res, active
        violating.sort(key=lambda p: (-p[0], p[1]))
        active = sorted(active_set | {cid for _rc, cid in violating[:_CG_BATCH]})


# ---------------------------------------------------------------------------
# Klein function values
# ---------------------------------------------------------------------------

def klein_value(spec: ConeSpec, v: Flow, bound: int) -> Fraction:
    """Largest total weight of a disc-vector decomposition of v that stays
    entrywise below v, using disc vectors with outflow <= bound.

    This is a certified lower bound for the Klein function at v, exact once
    the bound suffices.
    """
    if not in_cone(spec, v):
        raise InputError("flow is not in the cone of this spec")
    columns = _sparse_columns(lp_columns(spec, bound))
    capacity = [({}, Fraction(c)) for row in v.entries for c in row]
    res, _active = _solve_packing([], 0, capacity, [columns])
    if res.status != "optimal":
        raise InternalCheckError(f"klein LP ended with status {res.status}")
    return res.value


# ---------------------------------------------------------------------------
# scl proper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SideDecomposition:
    weights: tuple[Fraction, ...]
    parts: tuple[Flow, ...]

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


@dataclass(frozen=True)
class SclCertificate:
    v_a: Flow
    v_b: Flow
    side_a: SideDecomposition
    side_b: SideDecomposition

    def kappa_sum(self) -> Fraction:
        return self.side_a.total() + self.side_b.total()


@dataclass(frozen=True)
class SclResult:
    value: Fraction
    status: str  # "stabilized" | "upper_bound"
    bound_used: int
    certificate: SclCertificate
    word_blocks: int

    def to_json(self) -> dict:
        return {
            "scl": rat_to_json(self.value),
            "status": self.status,
            "bound_used": self.bound_used,
            "certificate": {
                "v_A": flow_to_json(self.certificate.v_a),
                "v_B": flow_to_json(self.certificate.v_b),
                "decomposition_A": [
                    {"t": rat_to_json(t), "d": flow_to_json(d)}
                    for t, d in zip(self.certificate.side_a.weights,
                                    self.certificate.side_a.parts)],
                "decomposition_B": [
                    {"t": rat_to_json(t), "d": flow_to_json(d)}
                    for t, d in zip(self.certificate.side_b.weights,
                                    self.certificate.side_b.parts)],
            },
        }


def _scl_lp(spec_x: ConeSpec, spec_y: ConeSpec, bound: int):
    """Optimal kappa-sum over paired unit-outflow vectors, with certificate.

    Returns (kappa_sum, certificate).
    """
    n = spec_x.n
    nn = n * n

    cols_x = lp_columns(spec_x, bound)
    cols_y = lp_columns(spec_y, bound)

    # packing rows 0..nn-1: side A at entry (i, j) capped by a[i][j]
    # packing rows nn..2nn-1: side B at entry (k, i) capped by a[i][k+1 mod n]
    col_group_a = _sparse_columns(cols_x)
    col_group_b = _sparse_columns(cols_y, nn)

    # unit outflow, then unit inflow (conservation at outflow one), of v_A
    eq_rows = [({i * n + j: 1 for j in range(n)}, 1) for i in range(n)] + \
              [({i * n + j: 1 for i in range(n)}, 1) for j in range(n)]
    capacity = [({r: -1}, 0) for r in range(nn)] + \
               [({i * n + (k + 1) % n: -1}, 0) for k in range(n) for i in range(n)]
    res, active = _solve_packing(eq_rows, nn, capacity, [col_group_a, col_group_b])
    if res.status != "optimal":
        raise InternalCheckError(
            f"paired unit-outflow LP ended with status {res.status}; "
            "the feasible set is provably nonempty")

    v_a = Flow(n, tuple(tuple(res.witness[i * n + j] for j in range(n))
                        for i in range(n)))
    v_b = pair_flow(v_a)
    weights_a, parts_a, weights_b, parts_b = [], [], [], []
    ncols_a = len(col_group_a)
    for k, cid in enumerate(active):
        t = res.witness[nn + k]
        if t == 0:
            continue
        if cid < ncols_a:
            weights_a.append(t)
            parts_a.append(cols_x[cid])
        else:
            weights_b.append(t)
            parts_b.append(cols_y[cid - ncols_a])
    cert = SclCertificate(
        v_a=v_a, v_b=v_b,
        side_a=SideDecomposition(tuple(weights_a), tuple(parts_a)),
        side_b=SideDecomposition(tuple(weights_b), tuple(parts_b)))
    return res.value, cert


def scl(w: Word, bound: int = DEFAULT_BOUND, stabilize: bool = True) -> SclResult:
    """Upper-bounding scl value at the given truncation bound.

    With stabilization on, bounds 1, 2, ... are tried in turn and the
    computation stops at the first pair of consecutive equal values, or as
    soon as the value meets the combinatorial lower bound (larger bounds
    provably cannot move it then); the result is reported as `stabilized`.
    If no bound pair agrees, the value at `bound` is reported with the
    honest `upper_bound` status.  With stabilization off, only the LP at
    `bound` is solved, and its value is reported as `upper_bound`.
    """
    if w.n > SCL_N_LIMIT:
        raise LimitExceeded(f"scl computation limited to {SCL_N_LIMIT} blocks per side")
    if bound < 1:
        raise InputError("bound must be at least 1")
    spec_x = cone_spec(w.n, w.x.rows)
    spec_y = cone_spec(w.n, w.y.rows)
    lo = lower_bound(w) if stabilize else None
    prev: Optional[Fraction] = None
    for b in range(1 if stabilize else bound, bound + 1):
        ksum, cert = _scl_lp(spec_x, spec_y, b)
        value = (Fraction(w.n) - ksum) / 2
        if stabilize and (value == lo or value == prev):
            return SclResult(value=value, status="stabilized", bound_used=b,
                             certificate=cert, word_blocks=w.n)
        prev = value
    return SclResult(value=value, status="upper_bound", bound_used=bound,
                     certificate=cert, word_blocks=w.n)


def scl_bracket(w: Word, bound: int = DEFAULT_BOUND) -> tuple[Fraction, Fraction]:
    """(combinatorial lower bound, LP upper value); equality certifies scl."""
    lo = lower_bound(w)
    hi = scl(w, bound).value
    if lo > hi:
        raise InternalCheckError(
            f"lower bound {lo} exceeds LP upper value {hi}; this falsifies "
            "one of the two implementations")
    return lo, hi


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    q: int
    predicted: Fraction
    computed: SclResult

    def agrees(self) -> bool:
        return self.computed.value == self.predicted


def conjecture_check(n_: int, p_: int, q_: int, r_: int,
                     bound: int = DEFAULT_BOUND) -> ConjectureReport:
    """Predicted value 1 - gcd(n, q)/(2n) for the four-block word with
    a-exponents (-n, p, q, r) and b-exponents (-1, 1, -1, 1), versus the
    engine's computed value.  Informational: mismatches are reported, never
    asserted."""
    if p_ <= 0 or q_ <= 0 or r_ <= 0 or p_ + q_ + r_ != n_:
        raise InputError("need positive p, q, r with p + q + r = n")
    w = make_word(4, [[-n_, p_, q_, r_]], [[-1, 1, -1, 1]])
    predicted = 1 - Fraction(gcd(n_, q_), 2 * n_)
    computed = scl(w, bound=bound, stabilize=True)
    return ConjectureReport(n=n_, q=q_, predicted=predicted, computed=computed)


def verify_certificate(result: SclResult, w: Word) -> bool:
    """Re-derive the reported value from the certificate by exact arithmetic."""
    cert = result.certificate
    n = w.n
    v_a, v_b = cert.v_a, cert.v_b
    if not is_paired(v_a, v_b):
        return False
    for i in range(n):
        if v_a.outflow(i) != 1 or v_a.inflow(i) != 1:
            return False
        if v_b.outflow(i) != 1 or v_b.inflow(i) != 1:
            return False
    spec_x = cone_spec(n, w.x.rows)
    spec_y = cone_spec(n, w.y.rows)
    if not in_cone(spec_x, v_a) or not in_cone(spec_y, v_b):
        return False
    for side, v, spec in ((cert.side_a, v_a, spec_x), (cert.side_b, v_b, spec_y)):
        total = [[Fraction(0)] * n for _ in range(n)]
        for t, d in zip(side.weights, side.parts):
            if t < 0 or not in_cone(spec, d):
                return False
            for i in range(n):
                for j in range(n):
                    total[i][j] += t * d.entries[i][j]
        for i in range(n):
            for j in range(n):
                if total[i][j] > v.entries[i][j]:
                    return False
    return result.value == (Fraction(n) - cert.kappa_sum()) / 2
