"""Computing scl through the paired unit-outflow linear program.

The value of a word with exponent matrices (x, y) and n blocks per side is
(n - S)/2, where S maximizes the total decomposition weight of a paired
pair of unit-outflow flows (v_A, v_B) into disc vectors of the two cones,
which are the word's own matrices: side A is the cone of `w.x`, side B
that of `w.y`.
Unit outflow plus the pairing identity make every cone condition automatic,
so the feasible v_A are exactly the doubly stochastic n x n matrices and
v_B is the entrywise image (v_B)[k][i] = (v_A)[i][k+1 mod n].

The columns of each side are the disc vectors up to the outflow bound, found
by column generation: a restricted LP starts from the discs of outflow at
most one, and each round a pricing oracle of `cones.disc_pricer`, reading
entry costs off the LP's duals, lists exactly the discs of positive reduced
cost.  Each side builds one oracle per bound and prices every round at that
bound with it.  Once no disc prices in, the optimum holds over every disc.
The LP at bound B restricts the LP at B+1, so one run serves every bound
tried.  Each round appends its new columns to the last optimum, which stays
primal feasible, through `resume_lp`, so a run builds one LP and runs
phase 1 once.  Truncation to outflow bound B can only shrink the admissible
decompositions, so the computed value is always an upper bound for scl.
Every result also carries the combinatorial lower bound as `lower`, found
once per call; `lower <= value` is checked on every result, since a lower
bound above the LP value would falsify one of the two implementations, and
`lower == value` certifies the value exact.  The value is reported as
`stabilized` when it meets that lower bound, or when two consecutive bounds
agree.  Nothing on this path is memoized.
`verify_certificate` is the one checker of scl certificates: it re-derives
a value from (v_A, v_B) and the two decompositions in integers, after
scaling by one common denominator, for the LP's certificates and for the
J-pair certificates of `hardness` alike.
`conjecture_check` sets the computed value of a four-block family against
its predicted closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Optional

from .bounds import lower_bound
from .cones import disc_pricer, in_cone, is_disc_vector
from .errors import InputError, InternalCheckError, LimitExceeded, as_int
from .graphs import Flow, flow_to_json
from .linprog import LinearProgram, int_scaled, rat_to_json, resume_lp, solve_lp
from .words import ExponentMatrix, Word, make_word

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

def _solve_packing(eq_rows, n_fixed, capacity_rows, sides, bounds):
    """Maximize sum(t) over the fixed variables a (indices 0..n_fixed-1)
    and one weight t_d >= 0 per disc column d, subject to

        row . a = rhs                             per (row, rhs) in eq_rows
        row . a + sum_d t_d * d[i][j] <= rhs      per capacity row

    Every row is a sparse integer map {fixed variable: coefficient}.  The
    columns are the discs with outflow <= bound of each side (spec, first)
    in `sides`; entry (i, j) of a side's n x n disc lands in capacity row
    first + i*n + j, and its variable follows the fixed ones.

    A generator over the increasing `bounds`, all served by one run of
    column generation (Gilmore-Gomory): a disc of outflow <= B is one of
    outflow <= B+1.  The restricted LP starts from each side's discs of
    outflow <= 1.  At each bound every side gets one `disc_pricer`, built
    before that bound's first LP (so a bound out of range is refused before
    any solve) and called every round; at bound 1 it also lists the start.  Each round the ineq duals y, over
    one common denominator L, are its entry costs: it yields exactly the
    discs with L*(y.d) < L, of positive reduced cost 1 - y.d, and the
    _CG_BATCH of largest reduced cost join, ordered by (-reduced cost, side,
    entries); a column in the LP has reduced cost <= 0 at its optimum.  Once
    none prices in at a bound, (bound, LPResult, (side, disc) columns in
    variable order) is yielded; the next bound prices against that optimum,
    so the yielded `columns` list grows once the generator resumes.
    `solve_lp` solves the LP over the start columns once; every round after
    that appends its columns to the last result through `resume_lp`, so
    phase 1 runs once, and each round and bound pivots on from the last
    optimum.
    """
    res = None
    n_eq = len(eq_rows)

    def column(side, d):
        """Objective 1 and the capacity rows of disc d of a side, numbered
        after the eq rows as `resume_lp` numbers them."""
        first = n_eq + sides[side][1]
        return 1, {first + i * d.n + j: v for i, row in enumerate(d.entries)
                   for j, v in enumerate(row) if v}

    for bound in bounds:
        # one pricer per side and bound, reused every round; building it
        # refuses a bound out of range before any LP at that bound
        pricers = [disc_pricer(spec, bound) for spec, _first in sides]
        if res is None:
            start = pricers if bound <= 1 else [disc_pricer(spec, 1)
                                                for spec, _first in sides]
            columns = [(side, d) for side, price in enumerate(start) for d in price()]
            ineqs = [(dict(row), rhs) for row, rhs in capacity_rows]
            for k, (side, d) in enumerate(columns, n_fixed):
                for i, v in column(side, d)[1].items():
                    ineqs[i - n_eq][0][k] = v
            obj = (0,) * n_fixed + (1,) * len(columns)
            res = solve_lp(LinearProgram(obj, tuple(eq_rows), tuple(ineqs)))
        while res.status == "optimal" and bound > 1:  # at 1 the start is every column
            duals, scale = int_scaled(res.ineq_duals)
            if any(y < 0 for y in duals):
                # the pricer's cut assumes costs that only grow
                raise InternalCheckError("negative packing dual at an optimum")
            priced = []
            for side, ((spec, first), price) in enumerate(zip(sides, pricers)):
                n = spec.n
                costs = [duals[first + i * n:first + (i + 1) * n] for i in range(n)]
                for d in price(costs, scale):
                    cost = sum(c * v for crow, drow in zip(costs, d.entries)
                               for c, v in zip(crow, drow))
                    # cost - scale = -L * (reduced cost)
                    priced.append((cost - scale, side, d.entries, d))
            if not priced:
                break
            priced.sort(key=lambda p: p[:3])
            new = [(side, d) for _c, side, _e, d in priced[:_CG_BATCH]]
            columns.extend(new)
            res = resume_lp(res, [column(side, d) for side, d in new])
        yield bound, res, columns


# ---------------------------------------------------------------------------
# Klein function values
# ---------------------------------------------------------------------------

def klein_value(spec: ExponentMatrix, v: Flow, bound: int) -> Fraction:
    """Largest total weight of a disc-vector decomposition of v that stays
    entrywise below v, using disc vectors with outflow <= bound.

    This is a certified lower bound for the Klein function at v, exact once
    the bound suffices.
    """
    if not in_cone(spec, v):
        raise InputError("flow is not in the cone of this spec")
    capacity = [({}, Fraction(c)) for row in v.entries for c in row]
    (_bound, res, _columns), = _solve_packing([], 0, capacity, [(spec, 0)], [bound])
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
    lower: Fraction  # the combinatorial lower bound; lower == value is exact
    status: str  # "stabilized" | "upper_bound"
    bound_used: int
    certificate: SclCertificate

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


def scl(w: Word, bound: int = DEFAULT_BOUND, stabilize: bool = True) -> SclResult:
    """Upper-bounding scl value at the given truncation bound.

    With stabilization on, bounds 1, 2, ... are tried in turn in one run of
    column generation, which stops at the first pair of consecutive equal
    values, or as soon as the value meets the combinatorial lower bound
    (larger bounds provably cannot move it then); the result is reported as
    `stabilized`.  If no bound pair agrees, the value at `bound` is reported
    with the honest `upper_bound` status.  With stabilization off, only the
    LP at `bound` is solved, and its value is reported as `upper_bound`.
    Either way the result carries the lower bound, which never exceeds the
    value: an `InternalCheckError` is raised if it does.
    """
    if w.n > SCL_N_LIMIT:
        raise LimitExceeded(f"scl computation limited to {SCL_N_LIMIT} blocks per side")
    bound = as_int(bound)
    if bound < 1:
        raise InputError("bound must be at least 1")
    n = w.n
    nn = n * n
    # packing rows 0..nn-1: side A at entry (i, j) capped by a[i][j]
    # packing rows nn..2nn-1: side B at entry (k, i) capped by a[i][k+1 mod n]
    # unit outflow, then unit inflow (conservation at outflow one), of v_A
    eq_rows = [({i * n + j: 1 for j in range(n)}, 1) for i in range(n)] + \
              [({i * n + j: 1 for i in range(n)}, 1) for j in range(n)]
    capacity = [({r: -1}, 0) for r in range(nn)] + \
               [({i * n + (k + 1) % n: -1}, 0) for k in range(n) for i in range(n)]
    sides = [(w.x, 0), (w.y, nn)]
    lo = lower_bound(w)
    prev: Optional[Fraction] = None
    status = "upper_bound"
    for b, res, columns in _solve_packing(eq_rows, nn, capacity, sides,
                                          range(1 if stabilize else bound, bound + 1)):
        if res.status != "optimal":
            raise InternalCheckError(
                f"paired unit-outflow LP ended with status {res.status}; "
                "the feasible set is provably nonempty")
        value = (Fraction(n) - res.value) / 2
        if stabilize and (value == lo or value == prev):
            status = "stabilized"
            break
        prev = value
    if lo > value:
        raise InternalCheckError(
            f"lower bound {lo} exceeds LP upper value {value}; this falsifies "
            "one of the two implementations")
    v_a = Flow(n, tuple(tuple(res.witness[i * n + j] for j in range(n))
                        for i in range(n)))
    decomposed = ([], []), ([], [])  # (weights, parts) of side A, then side B
    for t, (side, d) in zip(res.witness[nn:], columns):
        if t:
            decomposed[side][0].append(t)
            decomposed[side][1].append(d)
    cert = SclCertificate(
        v_a=v_a, v_b=pair_flow(v_a),
        side_a=SideDecomposition(*map(tuple, decomposed[0])),
        side_b=SideDecomposition(*map(tuple, decomposed[1])))
    return SclResult(value=value, lower=lo, status=status, bound_used=b,
                     certificate=cert)


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


def verify_certificate(certificate: SclCertificate, value: Fraction, w: Word) -> bool:
    """Whether the certificate proves scl(w) <= value, by exact arithmetic.

    The one checker of scl certificates, the LP's and `hardness`'s J-pair
    ones alike.  v_A, v_B and every weight are first multiplied by one
    common denominator L, so each check runs on ints: v_A and v_B have n
    blocks and are paired, each side has one weight per part, both flows
    have unit row and column sums and lie in their cones, every weight is
    >= 0 and every part a disc vector of its side, each side's weighted
    parts stay entrywise below its flow, and value = (n - kappa)/2 for the
    total weight kappa.
    """
    cert = certificate
    n = w.n
    v_a, v_b = cert.v_a, cert.v_b
    sides = ((cert.side_a, w.x), (cert.side_b, w.y))
    if v_a.n != n or v_b.n != n or not is_paired(v_a, v_b) or \
            any(len(side.weights) != len(side.parts) for side, _spec in sides):
        return False
    nn = n * n
    ints, scale = int_scaled([e for v in (v_a, v_b) for row in v.entries for e in row]
                             + [t for side, _spec in sides for t in side.weights])
    rows = [tuple(ints[k:k + n]) for k in range(0, 2 * nn, n)]
    flows = Flow(n, tuple(rows[:n])), Flow(n, tuple(rows[n:]))  # L * v_A, L * v_B
    # v_B's unit sums and both cone tests follow from pairing, v_A's unit
    # sums and exponent rows that sum to zero, so no certificate fails them
    # alone; they stay as checks of their own
    for v in flows:
        if any(v.outflow(i) != scale or v.inflow(i) != scale for i in range(n)):
            return False
    if not all(in_cone(spec, v) for v, (_side, spec) in zip(flows, sides)):
        return False
    m = 2 * nn + len(cert.side_a.weights)
    for v, weights, (side, spec) in zip(flows, (ints[2 * nn:m], ints[m:]), sides):
        room = list(chain.from_iterable(v.entries))  # L * v less the weighted parts
        for t, d in zip(weights, side.parts):
            if t < 0 or not is_disc_vector(spec, d):
                return False
            room = [r - t * e for r, e in zip(room, chain.from_iterable(d.entries))]
        if min(room) < 0:
            return False
    return value == Fraction(n * scale - sum(ints[2 * nn:]), 2 * scale)
