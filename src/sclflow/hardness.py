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
end, each link checkable against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Optional, Sequence

from .bounds import vanishing_combinations
from .cones import ConeSpec, cone_spec, in_cone, is_disc_vector, is_essential
from .errors import InputError, InternalCheckError, LimitExceeded, PromiseViolation
from .graphs import Flow, flow_from_edges, hamiltonian_cycles, zero_flow
from .words import Word, make_word

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
    vecs = []
    for v in values:
        if isinstance(v, (int,)):
            vecs.append((int(v),))
        else:
            vecs.append(tuple(int(c) for c in v))
    return SubsetInstance(variant, tuple(vecs))


def instance_to_json(inst: SubsetInstance) -> dict:
    return {"variant": inst.variant, "vectors": [list(v) for v in inst.vectors]}


def instance_from_json(obj) -> SubsetInstance:
    try:
        return instance(obj["variant"], obj["vectors"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed instance JSON: {exc}") from exc


@dataclass(frozen=True)
class SubsetAnswer:
    answer: bool
    witness: Optional[tuple[int, ...]] = None


def _vec_sum(vectors, lam):
    k = len(vectors[0]) if vectors else 0
    return tuple(sum(l * v[c] for l, v in zip(lam, vectors)) for c in range(k))


def _zero(k):
    return tuple(0 for _ in range(k))


def _solve_binary(vectors, proper: bool) -> SubsetAnswer:
    n = len(vectors)
    top = n - 1 if proper else n
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
    vals = [int(v) for v in values]
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
    base = tuple(int(v) for v in a)
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


def table_witness_from_base(table: ReductionTable,
                            mu: Sequence[int]) -> tuple[int, ...]:
    """Lift an SSP witness on the base list to an SSP witness on the table
    columns (valid when r was chosen as the witness weight)."""
    n = table.n
    mu = tuple(int(v) for v in mu)
    if sum(mu) != table.r:
        raise InputError("lifting needs r equal to the witness weight")
    lam = list(mu) + [1 - m for m in mu] + [1, 0]
    if _vec_sum(table.columns, lam) != _zero(n + 3):
        raise InternalCheckError("lifted witness does not annihilate the table")
    return tuple(lam)


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
    vecs = [tuple(int(c) for c in v) for v in vectors]
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
    vals = [int(v) for v in r_list]
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
    v_a: Flow
    v_b: Flow
    parts_a: tuple[Flow, ...]  # 2*count disc vectors, each with weight 1/count
    certified_upper: Fraction

    @property
    def n(self) -> int:
        return len(self.x)


def _cyclic_pairs(n: int) -> list[tuple[int, int]]:
    return [(k, (k + 1) % n) for k in range(n)]


def j_pair_certificate(x: Sequence[int], j_set: Sequence[int]) -> JPairCertificate:
    """Certified scl upper bound n/2 - 1 - 1/(2N) for the one-a-generator
    word of x, from a set J of indices with zero sum.

    N = (n - |J| - 1)! paired cycle sums cover every edge inside J and
    inside its complement; the normalized sum v_A decomposes into 2N disc
    vectors of weight 1/N each, and N times its paired partner is a single
    disc vector of the b-side cone.  Both decomposition facts are verified
    here by exact arithmetic, as is connectivity of the partner's support.
    """
    xs = tuple(int(v) for v in x)
    n = len(xs)
    j_sorted = tuple(sorted(int(i) for i in j_set))
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
    for pair in _cyclic_pairs(n):
        ps = tuple(sorted(pair))
        if ps == j_sorted or ps == comp:
            raise InputError(
                "neither J nor its complement may be a cyclically adjacent pair")

    n_pairs = factorial(n - m - 1)
    j_cycles = hamiltonian_cycles(j_sorted, n)
    comp_cycles = hamiltonian_cycles(comp, n)
    if len(comp_cycles) != n_pairs:
        raise InternalCheckError("complement cycle count mismatch")
    total = zero_flow(n)
    parts = []
    for i, d in enumerate(comp_cycles):
        c = j_cycles[i % len(j_cycles)]
        total = total.add(c).add(d)
        parts.extend([c, d])
    # nonzero flow on every edge inside J and inside the complement
    for group in (j_sorted, comp):
        for s in group:
            for t in group:
                if s != t and total.entries[s][t] == 0:
                    raise InternalCheckError(
                        "paired cycle sums left an internal edge uncovered")

    spec_x = cone_spec(n, [list(xs)])
    v_a = total.scale(Fraction(1, n_pairs))
    if not in_cone(spec_x, v_a):
        raise InternalCheckError("normalized sum left the a-side cone")
    if any(v_a.outflow(i) != 1 for i in range(n)):
        raise InternalCheckError("normalized sum is not unit-outflow")
    for part in parts:
        if not is_disc_vector(spec_x, part):
            raise InternalCheckError("a cycle part is not an a-side disc vector")

    from .engine import pair_flow  # local: engine imports nothing from here

    v_b = pair_flow(v_a)
    y_row = [1] * (n - 1) + [-(n - 1)]
    spec_y = cone_spec(n, [y_row])
    scaled_b = v_b.scale(n_pairs)
    if not scaled_b.is_integral():
        raise InternalCheckError("partner flow failed to scale to integers")
    int_b = Flow(n, tuple(tuple(int(v) for v in row) for row in scaled_b.entries))
    if not is_disc_vector(spec_y, int_b):
        raise InternalCheckError(
            "partner support is not connected; this contradicts the interval "
            "argument")
    # kappa_x(v_A) >= 2 from the 2N parts at weight 1/N; kappa_y(v_B) >= 1/N
    certified = Fraction(n, 2) - 1 - Fraction(1, 2 * n_pairs)
    return JPairCertificate(x=xs, j_set=j_sorted, count=n_pairs, v_a=v_a,
                            v_b=v_b, parts_a=tuple(parts),
                            certified_upper=certified)


def find_zero_sum_subset(xs: Sequence[int]) -> Optional[tuple[int, ...]]:
    """A proper nonempty zero-sum index set of size at most n/2 that is not
    a cyclically adjacent pair (nor has one as complement), if any exists."""
    xs = tuple(xs)
    n = len(xs)
    adjacent = {tuple(sorted(p)) for p in _cyclic_pairs(n)}
    for size in range(1, n // 2 + 1):
        for idx in combinations(range(n), size):
            if sum(xs[i] for i in idx) != 0:
                continue
            comp = tuple(i for i in range(n) if i not in idx)
            if tuple(sorted(idx)) in adjacent or comp in adjacent:
                continue
            return idx
    return None


@dataclass(frozen=True)
class SmallSclDecision:
    answer: bool
    route: str  # "precheck" | "jpair" | "lower-bound" | "brute"
    detail: str
    certificate: Optional[JPairCertificate] = None


def decide_small_scl(xs: Sequence[int]) -> SmallSclDecision:
    """Decide whether the one-a-generator word of xs has scl below n/2 - 1,
    which answers the weighted subset problem under the promise.

    Zero entries and cyclically adjacent cancelling pairs are answered
    directly (they witness a weighted solution of weight at most 2); after
    that pre-check, a zero-sum set exists iff a J-pair certificate pushes
    scl strictly below the threshold, while its absence forces the minimal
    vanishing weight to n and the lower bound to meet the threshold.
    """
    xs = tuple(int(v) for v in xs)
    n = len(xs)
    if n < 2:
        raise InputError("need at least two entries")
    for j, v in enumerate(xs):
        if v == 0:
            return SmallSclDecision(True, "precheck", f"entry {j} is zero")
    for k, k1 in _cyclic_pairs(n):
        if xs[k] + xs[k1] == 0:
            return SmallSclDecision(
                True, "precheck", f"adjacent entries {k},{k1} cancel")
    j_set = find_zero_sum_subset(xs)
    if j_set is not None:
        cert = j_pair_certificate(xs, j_set)
        threshold = Fraction(n, 2) - 1
        if not cert.certified_upper < threshold:
            raise InternalCheckError("certificate failed to beat the threshold")
        return SmallSclDecision(True, "jpair",
                                f"J={list(j_set)} certifies scl <= "
                                f"{cert.certified_upper}", cert)
    # no zero-sum subset: under the promise no weighted solution exists
    # either, so the minimal vanishing weight is n on both sides
    from .bounds import lower_bound

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
    collapsing to integers, and answering each mixed instance through the
    scl threshold procedure (certificates) or, for longer inputs or broken
    promises, the brute-force oracle.  The transcript records every
    intermediate instance and the route taken."""
    vals = tuple(int(v) for v in values)
    if not vals:
        raise InputError("empty input")
    balanced = append_balance(vals)
    transcript = ReductionTranscript(input_values=vals, balanced=balanced)
    n = balanced.n
    use_scl = len(vals) <= SCL_PATH_MAX_M
    answer = False
    # witness weights come in complementary pairs {s, n-s}, so r beyond
    # n-2 is redundant once n >= 3; at n = 2 the single choice r = 1 stays
    r_top = max(n - 2, 1)
    for r in range(1, r_top + 1):
        table = build_table([v[0] for v in balanced.vectors], r)
        collapsed = collapse(table.columns, usage_bound=2 * n + 2)
        promise_ok = True
        route = "brute"
        detail = ""
        mixed = None
        try:
            mixed_inst = instance("MIXEDSSP", collapsed)
            brute = solve_subset(mixed_inst)
        except PromiseViolation as exc:
            promise_ok = False
            transcript.notes.append(f"r={r}: {exc}")
            brute = solve_subset(instance("SSP", collapsed))
        if use_scl and promise_ok:
            decision = decide_small_scl(collapsed)
            mixed = decision.answer
            route = f"smallscl/{decision.route}"
            detail = decision.detail
            if mixed != brute.answer:
                raise InternalCheckError(
                    f"scl procedure answered {mixed} but brute force says "
                    f"{brute.answer} at r={r}")
        else:
            mixed = brute.answer
            detail = "brute-force oracle"
        transcript.steps.append(ReductionStep(
            r=r, table=table, collapsed=collapsed, promise_ok=promise_ok,
            mixed_answer=mixed, route=route, detail=detail))
        answer = answer or mixed
    transcript.answer = answer
    return transcript


# ---------------------------------------------------------------------------
# Essential-membership gadget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EssentialGadget:
    balanced: tuple[int, ...]
    spec: ConeSpec
    disc: Flow


def essential_gadget(values: Sequence[int]) -> EssentialGadget:
    """Vertex weight (m, 1, a_1, -1, ..., a_{m+1}, -1) and the petal flow
    whose essentiality mirrors the no-zero-subset answer on the values.

    Petal i routes one unit hub -> a_i-vertex -> sink_i -> hub; a proper
    nonzero subflow picks exactly the petals of a zero-sum subset.
    """
    vals = [int(v) for v in values]
    m = len(vals)
    if m < 1:
        raise InputError("need at least one value")
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
    vals = [int(v) for v in values]
    balanced = vals + [-sum(vals)]
    if any(v == 0 for v in balanced):
        # a zero among the values is a singleton zero-sum subset; a zero
        # appended balance means the whole list sums to zero
        return False
    g = essential_gadget(vals)
    return is_essential(g.spec, g.disc)
