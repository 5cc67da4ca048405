"""Subset-sum problem family and the reduction chain down to scl queries.

Problem variants, over integer vectors of any fixed dimension:

  SS        is there a nonzero 0/1 combination summing to zero?
  SSP       input sums to zero; is there such a combination that is proper?
  VARSSP    like SSP but coefficients range over the nonnegative integers
            with total weight strictly between 0 and n
  MIXEDSSP  promise problem: SSP and VARSSP agree; answer them
  COSS      is every nonempty subset sum nonzero?

The chain SS -> SSP -> MIXEDSSP over vectors -> MIXEDSSP over integers ->
threshold queries on scl of one-a-generator words is implemented end to
end, with one decision per reduction step; `scl verify` criterion 7 and
the tests check the steps against brute force.  The scl upper bound behind
a positive threshold answer is a J-pair certificate, whose `certificate`
is an scl certificate of the engine's kind, checked by
`engine.verify_certificate`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Optional, Sequence

from .bounds import lower_bound, vanishing_combinations
from .cones import cone_spec, is_disc_vector, is_essential
from .engine import SclCertificate, SideDecomposition, pair_flow, verify_certificate
from .errors import InputError, InternalCheckError, LimitExceeded, PromiseViolation, as_int
from .graphs import Flow, flow_from_edges, hamiltonian_cycles
from .words import ExponentMatrix, Word, make_word

SS_BRUTE_LIMIT = 16
SCL_PATH_MAX_M = 3  # longest input the reduction answers through scl

VARIANTS = ("SS", "SSP", "VARSSP", "MIXEDSSP", "COSS")


@dataclass(frozen=True)
class SubsetInstance:
    variant: str
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}")
        if self.vectors:
            k = len(self.vectors[0])
            if any(len(v) != k for v in self.vectors):
                raise InputError("vectors must share one dimension")
        if self.variant in ("SSP", "VARSSP", "MIXEDSSP"):
            k = len(self.vectors[0]) if self.vectors else 0
            for c in range(k):
                if sum(v[c] for v in self.vectors) != 0:
                    raise InputError(
                        f"{self.variant} requires every coordinate to sum to zero")

    @property
    def n(self) -> int:
        return len(self.vectors)


def instance(variant: str, values) -> SubsetInstance:
    vecs = tuple(tuple(map(as_int, v)) if isinstance(v, Iterable) else (as_int(v),)
                 for v in values)
    return SubsetInstance(variant, vecs)


def instance_to_json(inst: SubsetInstance) -> dict:
    return {"variant": inst.variant, "vectors": [list(v) for v in inst.vectors]}


@dataclass(frozen=True)
class SubsetAnswer:
    answer: bool
    witness: Optional[tuple[int, ...]] = None


def _solve_binary(vectors, proper: bool) -> SubsetAnswer:
    n = len(vectors)
    # proper instances sum to zero, so the complement of a zero-sum set is
    # one too, and the smallest proper one has at most n/2 entries
    top = n // 2 if proper else n
    for size in range(1, top + 1):
        # the index and vector combinations come out in the same order
        for idx, combo in zip(combinations(range(n), size),
                              combinations(vectors, size)):
            if not any(map(sum, zip(*combo))):
                lam = tuple(1 if i in idx else 0 for i in range(n))
                return SubsetAnswer(True, lam)
    return SubsetAnswer(False)


def _solve_varssp(vectors) -> SubsetAnswer:
    got = vanishing_combinations(vectors, len(vectors) - 1, first_only=True)
    if got:
        return SubsetAnswer(True, got[0])
    return SubsetAnswer(False)


def solve_subset(inst: SubsetInstance) -> SubsetAnswer:
    """Exact answers by exhaustive search, with witnesses where they exist.

    MIXEDSSP answers through SSP after asserting the promise; a violated
    promise is an input error of its own kind.
    """
    if inst.n > SS_BRUTE_LIMIT:
        raise LimitExceeded(
            f"brute-force subset solving limited to n <= {SS_BRUTE_LIMIT}")
    if inst.variant == "SS":
        return _solve_binary(inst.vectors, proper=False)
    if inst.variant == "SSP":
        return _solve_binary(inst.vectors, proper=True)
    if inst.variant == "VARSSP":
        return _solve_varssp(inst.vectors)
    if inst.variant == "MIXEDSSP":
        ssp = _solve_binary(inst.vectors, proper=True)
        var = _solve_varssp(inst.vectors)
        if ssp.answer != var.answer:
            raise PromiseViolation(
                "instance is outside the promise: the 0/1 and the weighted "
                f"answers differ ({ssp.answer} vs {var.answer})")
        return ssp
    # COSS: true iff no nonzero 0/1 combination sums to zero
    ss = _solve_binary(inst.vectors, proper=False)
    return SubsetAnswer(not ss.answer, ss.witness)


def append_balance(values: Sequence[int]) -> SubsetInstance:
    """Append the negated total; SS on the input equals SSP on the output."""
    vals = [as_int(v) for v in values]
    vals.append(-sum(vals))
    return instance("SSP", vals)


# ---------------------------------------------------------------------------
# The reduction table (vectors in Z^{n+3})
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionTable:
    base: tuple[int, ...]
    r: int
    columns: tuple[tuple[int, ...], ...]  # alpha_1..alpha_n, beta_1..beta_n, P, Q

    @property
    def n(self) -> int:
        return len(self.base)

    def labels(self) -> list[str]:
        n = self.n
        return [f"alpha_{i+1}" for i in range(n)] + \
               [f"beta_{i+1}" for i in range(n)] + ["P", "Q"]

    def to_instance(self, variant: str = "MIXEDSSP") -> SubsetInstance:
        return SubsetInstance(variant, self.columns)


def build_table(a: Sequence[int], r: int) -> ReductionTable:
    """Columns alpha_i, beta_i, P, Q in Z^{n+3} whose simultaneous proper
    subset-sum answers mirror SSP on the base list.

    Rows: (1) the base values under alpha; (2) -1 everywhere except n under
    P, Q; (3..n+2) the indicator rows -e_i under both alpha and beta with 1
    under P, Q; (n+3) -1 under alpha, r and n-r under P, Q.  Every row sums
    to zero.
    """
    base = tuple(map(as_int, a))
    r = as_int(r)
    n = len(base)
    if n < 2:
        raise InputError("table construction needs at least two values")
    if sum(base) != 0:
        raise InputError("table construction requires a zero-sum base list")
    if not 0 < r < n:
        raise InputError(f"r must satisfy 0 < r < n, got {r}")
    k = n + 3

    def col_alpha(i):
        col = [0] * k
        col[0] = base[i]
        col[1] = -1
        col[2 + i] = -1
        col[k - 1] = -1
        return tuple(col)

    def col_beta(i):
        col = [0] * k
        col[1] = -1
        col[2 + i] = -1
        return tuple(col)

    col_p = tuple([0, n] + [1] * n + [r])
    col_q = tuple([0, n] + [1] * n + [n - r])
    cols = tuple([col_alpha(i) for i in range(n)] +
                 [col_beta(i) for i in range(n)] + [col_p, col_q])
    for row_idx in range(k):
        if sum(c[row_idx] for c in cols) != 0:
            raise InternalCheckError(f"table row {row_idx} does not sum to zero")
    return ReductionTable(base=base, r=r, columns=cols)


@dataclass(frozen=True)
class TableWitnessReport:
    witness: tuple[int, ...]
    p_plus_q_is_one: bool
    alpha_beta_pair_to_one: bool
    alpha_total_is_r_or_complement: bool
    zero_one_valued: bool
    alphas_solve_base: bool

    def all_hold(self) -> bool:
        return (self.p_plus_q_is_one and self.alpha_beta_pair_to_one
                and self.alpha_total_is_r_or_complement and self.zero_one_valued
                and self.alphas_solve_base)


def verify_table_properties(table: ReductionTable) -> list[TableWitnessReport]:
    """Check the five structural facts on every weighted witness the table
    admits (the table is designed so each one is forced)."""
    n = table.n
    reports = []
    columns = table.columns
    for lam in vanishing_combinations(columns, len(columns) - 1, first_only=False):
        lam_alpha = lam[:n]
        lam_beta = lam[n:2 * n]
        lam_p, lam_q = lam[2 * n], lam[2 * n + 1]
        alpha_sum = sum(lam_alpha)
        rep = TableWitnessReport(
            witness=lam,
            p_plus_q_is_one=(lam_p + lam_q == 1),
            alpha_beta_pair_to_one=all(
                la + lb == 1 for la, lb in zip(lam_alpha, lam_beta)),
            alpha_total_is_r_or_complement=(alpha_sum in (table.r, n - table.r)),
            zero_one_valued=all(v in (0, 1) for v in lam),
            alphas_solve_base=(
                sum(l * b for l, b in zip(lam_alpha, table.base)) == 0
                and 0 < alpha_sum < n),
        )
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Collapse from vectors to integers
# ---------------------------------------------------------------------------

def collapse(vectors: Sequence[Sequence[int]], usage_bound: int) -> list[int]:
    """Replace each vector by an integer so that every coefficient vector of
    total weight <= usage_bound annihilates the integers iff it annihilates
    the vectors coordinatewise.

    Scale factors grow as N_1 = 1, N_{j+1} = 2 * sum_{l<=j} N_l S_l + 1 with
    S_l the largest weighted magnitude one coordinate can reach, so distinct
    coordinates can never alias.
    """
    vecs = [tuple(map(as_int, v)) for v in vectors]
    usage_bound = as_int(usage_bound)
    if not vecs:
        return []
    k = len(vecs[0])
    if any(len(v) != k for v in vecs):
        raise InputError("vectors must all have the same length")
    if usage_bound < 1:
        raise InputError("usage bound must be positive")
    scale = []
    acc = 0
    for j in range(k):
        s_j = usage_bound * max(abs(v[j]) for v in vecs)
        n_j = 1 if j == 0 else 2 * acc + 1
        scale.append(n_j)
        acc += n_j * s_j
    return [sum(n_j * v[j] for j, n_j in enumerate(scale)) for v in vecs]


# ---------------------------------------------------------------------------
# SMALL SCL instances and J-pair certificates
# ---------------------------------------------------------------------------

def small_scl_instance(r_list: Sequence[int]) -> Word:
    """The word a^{r_1} b a^{r_2} b ... a^{r_n} b^{-(n-1)}: one a-generator
    with exponents r_list, one b-generator with exponents (1,...,1,-(n-1))."""
    vals = [as_int(v) for v in r_list]
    n = len(vals)
    if n < 2:
        raise InputError("need at least two exponents")
    if any(v == 0 for v in vals):
        raise InputError("exponents must be nonzero")
    if sum(vals) != 0:
        raise InputError("exponents must sum to zero")
    y_row = [1] * (n - 1) + [-(n - 1)]
    return make_word(n, [vals], [y_row])


@dataclass(frozen=True)
class JPairCertificate:
    x: tuple[int, ...]
    j_set: tuple[int, ...]
    count: int  # number of paired cycle sums, (n - |J| - 1)!
    certificate: SclCertificate  # checked by engine.verify_certificate
    certified_upper: Fraction

    @property
    def n(self) -> int:
        return len(self.x)


def cyclic_pairs(n: int) -> list[tuple[int, int]]:
    """The cyclically adjacent index pairs (k, k + 1 mod n)."""
    return [(k, (k + 1) % n) for k in range(n)]


def j_pair_certificate(x: Sequence[int], j_set: Sequence[int]) -> JPairCertificate:
    """Certified scl upper bound n/2 - 1 - 1/(2N) for the one-a-generator
    word of x, from a set J of indices with zero sum.

    N = (n - |J| - 1)! paired cycle sums, each a Hamiltonian cycle inside
    J and one inside its complement, make an scl certificate of the
    engine's kind: side A holds the 2N cycles at weight 1/N each, so v_A is
    their sum over N, and side B holds N times v_A's paired partner v_B, at
    weight 1/N.  `engine.verify_certificate`, the one checker of scl
    certificates, decides that the cycles and the partner are disc vectors,
    that v_A is a unit-outflow cone member and that the certificate proves
    the bound; an InternalCheckError is raised if it does not.
    """
    xs = tuple(map(as_int, x))
    n = len(xs)
    j_sorted = tuple(sorted(map(as_int, j_set)))
    if len(set(j_sorted)) != len(j_sorted) or not j_sorted:
        raise InputError("J must be a nonempty set of distinct indices")
    if any(not 0 <= i < n for i in j_sorted):
        raise InputError("J index out of range")
    m = len(j_sorted)
    if m > n - m:
        raise InputError("J must have at most half the indices")
    if sum(xs[i] for i in j_sorted) != 0:
        raise InputError("J must have zero sum")
    comp = tuple(i for i in range(n) if i not in j_sorted)
    for pair in cyclic_pairs(n):
        ps = tuple(sorted(pair))
        if ps == j_sorted or ps == comp:
            raise InputError(
                "neither J nor its complement may be a cyclically adjacent pair")

    n_pairs = factorial(n - m - 1)
    j_cycles = hamiltonian_cycles(j_sorted, n)
    comp_cycles = hamiltonian_cycles(comp, n)
    if len(comp_cycles) != n_pairs:
        raise InternalCheckError("complement cycle count mismatch")
    parts = [c for i, d in enumerate(comp_cycles)
             for c in (j_cycles[i % len(j_cycles)], d)]
    total = Flow(n, tuple(tuple(map(sum, zip(*rows)))
                          for rows in zip(*(p.entries for p in parts))))
    weight = Fraction(1, n_pairs)
    v_a = total.scale(weight)
    cert = SclCertificate(
        v_a=v_a, v_b=pair_flow(v_a),
        side_a=SideDecomposition((weight,) * len(parts), tuple(parts)),
        side_b=SideDecomposition((weight,), (pair_flow(total),)))
    # kappa = 2N * (1/N) + 1/N
    certified = Fraction(n, 2) - 1 - Fraction(1, 2 * n_pairs)
    if not verify_certificate(cert, certified, small_scl_instance(xs)):
        raise InternalCheckError(
            f"the J-pair certificate for J={list(j_sorted)} does not prove "
            f"scl <= {certified}")
    return JPairCertificate(x=xs, j_set=j_sorted, count=n_pairs,
                            certificate=cert, certified_upper=certified)


@dataclass(frozen=True)
class SmallSclDecision:
    answer: bool
    route: str  # "precheck" | "jpair" | "lower-bound"
    detail: str
    certificate: Optional[JPairCertificate] = None


def decide_small_scl(xs: Sequence[int]) -> SmallSclDecision:
    """Decide whether the one-a-generator word of xs has scl below n/2 - 1,
    which answers the weighted subset problem under the promise.

    Zero entries and, from three entries on, cyclically adjacent cancelling
    pairs are answered directly (they witness a proper subset solution of
    weight at most 2); after that pre-check, a zero-sum set exists iff a
    J-pair certificate pushes scl strictly below the threshold, while its
    absence forces the minimal vanishing weight to n and the lower bound
    to meet the threshold (a lower one breaks the promise and raises
    PromiseViolation).  A list without a zero entry that does not sum to
    zero names no word and is refused, and past the pre-check the subset
    search is limited to SS_BRUTE_LIMIT entries.
    """
    xs = tuple(map(as_int, xs))
    n = len(xs)
    if n < 2:
        raise InputError("need at least two entries")
    for j, v in enumerate(xs):
        if v == 0:
            return SmallSclDecision(True, "precheck", f"entry {j} is zero")
    if sum(xs) != 0:
        raise InputError("exponents must sum to zero")
    # at n = 2 the cancelling pair is the whole list, not a proper subset
    for k, k1 in cyclic_pairs(n) if n >= 3 else ():
        if xs[k] + xs[k1] == 0:
            return SmallSclDecision(
                True, "precheck", f"adjacent entries {k},{k1} cancel")
    # the set found has at most n/2 entries, and past the precheck neither
    # it nor its complement is a cyclically adjacent pair: that happens
    # only for n <= 4, where the set would be a zero entry or the other,
    # also cancelling, pair
    subset = solve_subset(instance("SSP", xs))
    if subset.answer:
        j_set = tuple(i for i, b in enumerate(subset.witness) if b)
        cert = j_pair_certificate(xs, j_set)
        threshold = Fraction(n, 2) - 1
        if not cert.certified_upper < threshold:
            raise InternalCheckError("certificate failed to beat the threshold")
        return SmallSclDecision(True, "jpair",
                                f"J={list(j_set)} certifies scl <= "
                                f"{cert.certified_upper}", cert)
    # no zero-sum subset: under the promise no weighted solution exists
    # either, so the minimal vanishing weight is n on both sides
    w = small_scl_instance(xs)
    lo = lower_bound(w)
    if lo != Fraction(n, 2) - 1:
        raise PromiseViolation(
            "a weighted solution exists without a subset solution; the "
            "instance is outside the promise")
    return SmallSclDecision(False, "lower-bound",
                            f"scl >= {lo} meets the threshold")


# ---------------------------------------------------------------------------
# End-to-end reduction driver
# ---------------------------------------------------------------------------

@dataclass
class ReductionStep:
    r: int
    table: ReductionTable
    collapsed: list[int]
    promise_ok: bool
    mixed_answer: bool
    route: str
    detail: str


@dataclass
class ReductionTranscript:
    input_values: tuple[int, ...]
    balanced: SubsetInstance
    steps: list[ReductionStep] = field(default_factory=list)
    answer: Optional[bool] = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "input": list(self.input_values),
            "balanced": instance_to_json(self.balanced),
            "answer": self.answer,
            "notes": list(self.notes),
            "steps": [{
                "r": s.r,
                "table_columns": [list(c) for c in s.table.columns],
                "collapsed": list(s.collapsed),
                "promise_ok": s.promise_ok,
                "mixed_answer": s.mixed_answer,
                "route": s.route,
                "detail": s.detail,
            } for s in self.steps],
        }


def reduce_ss_to_smallscl(values: Sequence[int]) -> ReductionTranscript:
    """Decide SS on `values` by balancing, building one table per r,
    collapsing to integers, and answering each mixed instance by one
    decision: `decide_small_scl` for at most SCL_PATH_MAX_M values, the
    brute-force MIXEDSSP search past that, and the SSP search when the
    promise breaks.  The transcript records every intermediate instance
    and the route taken."""
    vals = tuple(map(as_int, values))
    if not vals:
        raise InputError("empty input")
    balanced = append_balance(vals)
    transcript = ReductionTranscript(input_values=vals, balanced=balanced)
    n = balanced.n
    use_scl = len(vals) <= SCL_PATH_MAX_M
    # witness weights come in complementary pairs {s, n-s}, so r beyond
    # n-2 is redundant once n >= 3; at n = 2 the single choice r = 1 stays
    r_top = max(n - 2, 1)
    for r in range(1, r_top + 1):
        table = build_table([v[0] for v in balanced.vectors], r)
        collapsed = collapse(table.columns, usage_bound=2 * n + 2)
        promise_ok, route, detail = True, "brute", "brute-force oracle"
        try:
            if use_scl:
                decision = decide_small_scl(collapsed)
                mixed = decision.answer
                route = f"smallscl/{decision.route}"
                detail = decision.detail
            else:
                mixed = solve_subset(instance("MIXEDSSP", collapsed)).answer
        except PromiseViolation as exc:
            promise_ok = False
            transcript.notes.append(f"r={r}: {exc}")
            mixed = solve_subset(instance("SSP", collapsed)).answer
        transcript.steps.append(ReductionStep(
            r=r, table=table, collapsed=collapsed, promise_ok=promise_ok,
            mixed_answer=mixed, route=route, detail=detail))
    transcript.answer = any(s.mixed_answer for s in transcript.steps)
    return transcript


# ---------------------------------------------------------------------------
# Essential-membership gadget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EssentialGadget:
    balanced: tuple[int, ...]
    spec: ExponentMatrix
    disc: Flow


def _gadget_values(values: Sequence[int]) -> list[int]:
    # the essentiality search visits every subset of petals
    vals = [as_int(v) for v in values]
    if not vals:
        raise InputError("need at least one value")
    if len(vals) > SS_BRUTE_LIMIT:
        raise LimitExceeded(
            f"essentiality gadget limited to n <= {SS_BRUTE_LIMIT} values")
    return vals


def essential_gadget(values: Sequence[int]) -> EssentialGadget:
    """Vertex weight (m, 1, a_1, -1, ..., a_{m+1}, -1) and the petal flow
    whose essentiality mirrors the no-zero-subset answer on the values.

    Petal i routes one unit hub -> a_i-vertex -> sink_i -> hub; a proper
    nonzero subflow picks exactly the petals of a zero-sum subset.
    """
    vals = _gadget_values(values)
    m = len(vals)
    balanced = vals + [-sum(vals)]
    if any(v == 0 for v in balanced):
        raise InputError(
            "gadget requires nonzero entries (a zero entry answers the "
            "problem directly)")
    n = 2 * (m + 1) + 2
    weights = [m, 1]
    for v in balanced:
        weights.extend([v, -1])
    spec = cone_spec(n, [weights])
    edge_values = {}
    hub = 1
    for i in range(m + 1):
        a_vertex = 2 + 2 * i
        sink = 3 + 2 * i
        edge_values[(hub, a_vertex)] = 1
        edge_values[(a_vertex, sink)] = 1
        edge_values[(sink, hub)] = 1
    disc = flow_from_edges(n, edge_values)
    if not is_disc_vector(spec, disc):
        raise InternalCheckError("gadget flow is not a disc vector")
    return EssentialGadget(balanced=tuple(balanced), spec=spec, disc=disc)


def essential_gadget_answer(values: Sequence[int]) -> bool:
    """COSS through the gadget: essentiality of the petal flow when the
    gadget exists, the direct zero-entry answer otherwise."""
    vals = _gadget_values(values)
    balanced = vals + [-sum(vals)]
    if any(v == 0 for v in balanced):
        # a zero among the values is a singleton zero-sum subset; a zero
        # appended balance means the whole list sums to zero
        return False
    g = essential_gadget(vals)
    return is_essential(g.spec, g.disc)
