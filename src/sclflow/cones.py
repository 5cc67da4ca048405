"""Flow cones attached to exponent matrices, and their integral geometry.

A cone is given by an integer exponent matrix z, a `words.ExponentMatrix`:
the type of a word side, so a word's own `x` and `y` are its two cones.
`cone_spec` is `words.matrix` under the name callers use to build a cone
from plain rows.  The weight of a flow f has one component per row of z:
sum_j z[i][j] * outflow_j(f).  The cone V(z) collects the conserved flows
with vanishing weight; its nonzero integral members with strongly
connected support are the disc vectors D(z).  One rule on the outflow
vector, `_weights`, decides membership in `in_cone` and in disc
enumeration; `iter_cone_members`, the bounded members the essential,
extremal and synthesis checks search, applies the same rows pulled back
to edge values.  Those members come from `iter_bounded_flows`, one flat
loop over an explicit stack of edges that walks the integral flows of a
box in a fixed order.  This module enumerates disc vectors up to an
outflow bound, classifies essential and extremal members, and extracts
the extremal rays of the cone by the double-description method: the
orthant of flow coordinates is cut by one conservation or weight
equation at a time, in integers, with a combinatorial adjacency test.

Disc vectors come from one enumerator, `disc_pricer(spec, bound)`.  It
lists once what does not depend on entry costs: the annihilating outflows
up to the bound, and the candidate rows of each sum, packed into ints
with their successor bitmasks.  The function it returns walks tables with
those row and column sums under nonnegative integer entry costs, cut as
soon as their running cost reaches a budget; one subtraction of packed
ints tests a row against the column sums, and the last row is forced.
Without costs it lists every disc up to the bound
(`enumerate_disc_vectors`); with the integer-scaled duals of a packing LP
it is that LP's pricing oracle, built once per column-generation run and
bound.  Supports are tested for strong connectivity on successor masks by
`graphs.masks_strongly_connected`, on the one bitmask reachability search
that also gives `graphs.connectivity` its component partitions.  Nothing
here is memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import le, mul
from typing import Callable, Iterator, Optional, Sequence

from .errors import InputError, LimitExceeded, as_int
from .graphs import (Flow, masks_strongly_connected, outflow_vector,
                     support_strongly_connected)
from .words import ExponentMatrix, matrix as cone_spec

DISC_N_LIMIT = 8
DISC_BOUND_LIMIT = 6
RAY_N_LIMIT = 5
# the bounded-flow walk keeps one level per edge on a list, not on Python's
# stack, so this caps its input; synthesized points reach 340 support edges
FLOW_EDGE_LIMIT = 400


def _weights(spec: ExponentMatrix, outflows) -> Iterator:
    """row . outflows for each defining row, lazily: the one membership rule.
    Integer outflows keep the arithmetic on ints."""
    return (sum(map(mul, row, outflows)) for row in spec.rows)


def weight_vector(spec: ExponentMatrix, f: Flow) -> tuple[Fraction, ...]:
    """One component per defining row: row . outflow_vector(f)."""
    if f.n != spec.n:
        raise InputError("flow dimension does not match cone")
    return tuple(map(Fraction, _weights(spec, outflow_vector(f))))


def in_cone(spec: ExponentMatrix, f: Flow) -> bool:
    return f.n == spec.n and f.is_conserved() and \
        not any(_weights(spec, outflow_vector(f)))


def is_disc_vector(spec: ExponentMatrix, f: Flow) -> bool:
    """Nonzero, integral, in the cone, with strongly connected support."""
    return _disc_entries(spec, f) is not None


def _disc_entries(spec: ExponentMatrix, f: Flow
                  ) -> Optional[tuple[list[tuple[int, int]], tuple[int, ...]]]:
    """The support edges of f and its int values on them when f is a disc
    vector, else None; the edges are collected in the pass that finds f
    nonzero."""
    if f.n != spec.n or not f.is_integral():
        return None
    edges, vals = [], []
    for t, row in enumerate(f.entries):
        for h, v in enumerate(row):
            if v:
                edges.append((t, h))
                vals.append(int(v))
    outflow = list(map(sum, f.entries))
    if (edges and outflow == list(map(sum, zip(*f.entries)))
            and not any(_weights(spec, outflow))
            and support_strongly_connected(edges)):
        return edges, tuple(vals)
    return None


# ---------------------------------------------------------------------------
# Enumeration of disc vectors up to an outflow bound
# ---------------------------------------------------------------------------

def _compositions(amount: int, parts: int) -> list[tuple[int, ...]]:
    """The `parts`-tuples of ints >= 0 summing to `amount`, in lexicographic order."""
    if parts == 1:
        return [(amount,)]
    return [(v,) + rest for v in range(amount + 1)
            for rest in _compositions(amount - v, parts - 1)]


# A table row is packed into one int, entry j in byte j.  Entries and column
# sums stay below the guard bit 0x80 of their byte (at most DISC_N_LIMIT *
# DISC_BOUND_LIMIT), so one subtraction compares every entry.
_GUARD = 0x80


def _pack(row) -> int:
    return int.from_bytes(bytes(row), "little")


def disc_pricer(spec: ExponentMatrix, bound: int) -> Callable[..., Iterator[Flow]]:
    """The pricing oracle of the cone's disc vectors with every outflow <=
    bound, as a function `price(costs=None, budget=1)`: an iterator over the
    discs d of cost sum(costs[i][j] * d[i][j]) < budget, for an n x n table
    of int costs >= 0 (all zero when omitted), in `enumerate_disc_vectors`'
    order.  The limits are checked when this is called, and the costs and
    the budget when `price` is, before its first disc.

    Everything that does not depend on the costs is listed here, once:
    - the annihilating outflows o, in lexicographic order.  The last entry
      is solved from a defining row whose last entry is nonzero, so only
      the (bound+1)^(n-1) heads are walked;
    - for each vertex i and sum s, the rows of sum s in lexicographic
      order, each with its packed int and its successor bitmask, without
      the row that puts a positive s all on the loop (i, i): that would
      cut vertex i off, and an annihilating outflow is positive at two
      vertices at least, as no column of the cone's rows is zero.

    A disc of outflow o is a table with row and column sums o.  `price`
    keeps the rows that cost less than the budget on their own and walks
    the tables in lexicographic order, row i drawn from the rows of sum
    o[i].  A row is dropped once it costs the room the rows above left, or
    once it overfills a column: with the remaining column sums packed as
    `cols`, `d = (cols | G) - packed` keeps every guard bit of G exactly
    when no entry borrows, and `d ^ G` is then what the columns still need.
    Those needs add up to the rows still to come, so none can exceed them.
    The last row is what the column sums leave, looked up by its packed int
    among the last vertex's rows; its cost is carried down the walk as
    costs[n-1] . o less the costs[n-1]-cost of each row above.  A complete
    table is a disc when its support, the rows' successor masks, is
    strongly connected (`graphs.masks_strongly_connected`).
    """
    if spec.n > DISC_N_LIMIT:
        raise LimitExceeded(f"disc enumeration limited to n <= {DISC_N_LIMIT}")
    bound = as_int(bound)
    if bound < 0:
        raise InputError(f"outflow bound must be nonnegative, got {bound}")
    if bound > DISC_BOUND_LIMIT:
        raise LimitExceeded(f"disc enumeration limited to bound <= {DISC_BOUND_LIMIT}")
    n = spec.n
    last = n - 1
    guards = _pack((_GUARD,) * n)
    # there is one, as no column of the cone's rows is zero
    pivot = next(row for row in spec.rows if row[last])
    outflows = []  # (o, packed o)
    for head in product(range(bound + 1), repeat=last):
        top, rem = divmod(-sum(map(mul, pivot, head)), pivot[last])
        o = head + (top,)
        if not rem and 0 <= top <= bound and any(o) and not any(_weights(spec, o)):
            outflows.append((o, _pack(o)))
    rows_of_sum = [[(row, _pack(row), sum(1 << j for j, v in enumerate(row) if v))
                    for row in _compositions(s, n)] for s in range(bound + 1)]
    # free[i][s]: (row, packed row, successor mask) of vertex i, sum s
    free = [[[r for r in rows if not (s and r[0][i] == s)]
             for s, rows in enumerate(rows_of_sum)] for i in range(n)]
    # the last row by its packed int: (row, successor mask)
    forced = {packed: (row, succ) for rows in free[last]
              for row, packed, succ in rows}

    def price(costs=None, budget: int = 1) -> Iterator[Flow]:
        budget = as_int(budget)
        if costs is None:
            costs = ((0,) * n,) * n
        if not (isinstance(costs, Sequence) and len(costs) == n and all(
                isinstance(row, Sequence) and len(row) == n for row in costs)):
            raise InputError(f"entry costs must form an {n} x {n} table")
        costs = [tuple(map(as_int, row)) for row in costs]
        if min(map(min, costs), default=0) < 0:
            raise InputError("entry costs must be nonnegative")
        last_costs = costs[last]

        def discs():
            # candidates[i][s]: (packed, cost, cost under row n-1's costs,
            # row, successor mask) of the rows of vertex i and sum s
            candidates = [[[(packed, cost, sum(map(mul, last_costs, row)),
                             row, succ) for row, packed, succ in rows
                            if (cost := sum(map(mul, costs[i], row))) < budget]
                           for rows in free[i]] for i in range(last)]
            table, masks = [()] * n, [0] * n

            def walk(o, i, cols, room, last_cost):
                if i == last - 1:
                    for packed, cost, lcost, row, succ in candidates[i][o[i]]:
                        if cost < room:
                            d = (cols | guards) - packed
                            if d & guards == guards and last_cost - lcost < room - cost:
                                got = forced.get(d ^ guards)
                                if got:
                                    table[i], masks[i] = row, succ
                                    table[last], masks[last] = got
                                    if masks_strongly_connected(masks):
                                        yield Flow(n, tuple(table))
                    return
                for packed, cost, lcost, row, succ in candidates[i][o[i]]:
                    if cost < room:
                        d = (cols | guards) - packed
                        if d & guards == guards:
                            table[i], masks[i] = row, succ
                            yield from walk(o, i + 1, d ^ guards, room - cost,
                                            last_cost - lcost)

            for o, packed in outflows:
                yield from walk(o, 0, packed, budget, sum(map(mul, last_costs, o)))

        return discs()

    return price


def enumerate_disc_vectors(spec: ExponentMatrix, bound: int) -> tuple[Flow, ...]:
    """Exactly the integral cone members with strongly connected support and
    every outflow <= bound, in a deterministic order."""
    return tuple(disc_pricer(spec, bound)())


def clear_caches() -> None:
    """Nothing to clear: the package keeps no memo.  Kept so that callers
    which clear caches between timed runs keep working."""


def lp_columns(spec: ExponentMatrix, bound: int) -> tuple[Flow, ...]:
    """The essential disc vectors up to the bound, sorted by entries: those
    with no other disc vector entrywise below them.  They preserve every
    packing-LP value.

    Dropping d is sound whenever d = e + v with e a disc vector and v a
    nonzero cone member, since any expression through d rewrites through e
    with the same coefficient sum; for a disc vector e <= d other than d,
    v = d - e is such a member.  The discs are scanned by increasing mass,
    and d is kept unless a kept vector lies below it: domination is
    transitive, so the kept vectors alone find every dominated disc.
    Supports are compared as int bitmasks before the entries are.  The scl
    engine does not use this list: it prices its columns with
    `disc_pricer`.
    """
    discs = sorted(enumerate_disc_vectors(spec, bound),
                   key=lambda f: (sum(map(sum, f.entries)), f.entries))
    kept = []  # (support mask, flat entries, disc) of the minimal vectors so far
    for d in discs:
        values = tuple(v for row in d.entries for v in row)
        mask = sum(1 << pos for pos, v in enumerate(values) if v)
        # a kept e has mass at most d's, and e <= d at equal mass means e = d
        if not any(me & ~mask == 0 and all(map(le, ve, values))
                   for me, ve, _e in kept):
            kept.append((mask, values, d))
    return tuple(sorted((d for _m, _v, d in kept), key=lambda f: f.entries))


# ---------------------------------------------------------------------------
# Bounded subflow enumeration (shared by essential / extremal checks)
# ---------------------------------------------------------------------------

def _traversal_order(edges: Sequence[tuple[int, int]]) -> list[int]:
    """DFS edge order: chains of degree-two vertices come out consecutive,
    which lets conservation pruning pin their values immediately."""
    out_of: dict[int, list[int]] = {}
    for idx, (t, _h) in enumerate(edges):
        out_of.setdefault(t, []).append(idx)
    unused = set(range(len(edges)))
    order: list[int] = []
    while unused:
        start = min(unused, key=lambda i: edges[i])
        stack = [start]
        while stack:
            idx = stack.pop()
            if idx not in unused:
                continue
            unused.discard(idx)
            order.append(idx)
            head = edges[idx][1]
            for nxt in sorted(out_of.get(head, ()), reverse=True):
                if nxt in unused:
                    stack.append(nxt)
    return order


def iter_bounded_flows(edges: Sequence[tuple[int, int]],
                       caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All integral flows supported on `edges` with value <= cap per edge.

    Yields value tuples aligned with `edges`, lexicographic in the edges'
    DFS order, which lets chains collapse early.  Conservation pruning
    works vertex by vertex through partial net flow and remaining
    capacity: an edge's value runs only over the interval that keeps both
    its endpoints balanceable by the edges still to come, so every leaf is
    a flow.  The walk is one loop over an explicit stack of edges: a level
    is entered with its interval, and backtracking steps the deepest level
    with a value left.  One int cap per edge and vertex ids >= 0 are
    required, and more than FLOW_EDGE_LIMIT edges are refused.
    """
    edges, caps = list(edges), list(map(as_int, caps))
    m = len(edges)
    if m > FLOW_EDGE_LIMIT:
        raise LimitExceeded(
            f"bounded-flow search limited to {FLOW_EDGE_LIMIT} edges")
    if len(caps) != m:
        raise InputError(f"bounded-flow search needs one cap per edge, "
                         f"got {len(caps)} for {m} edges")
    verts = sorted({v for e in edges for v in e})
    if verts and verts[0] < 0:
        raise InputError(f"vertex ids must be >= 0, got {verts[0]}")
    # level k sets the k-th edge in DFS order, edges[i] from tail t to head
    # h, to a value <= c
    levels = [(*edges[i], caps[i], i) for i in _traversal_order(edges)]
    rem_out, rem_in, net = ([0] * (verts[-1] + 1 if verts else 0) for _ in range(3))
    for t, h, c, _i in levels:
        if t != h:
            rem_out[t] += c
            rem_in[h] += c
    vals, top = [0] * m, [0] * m
    k = 0
    while True:
        if k < m:
            t, h, c, i = levels[k]
            if t == h:
                lo, hi = 0, c
            else:
                rem_out[t] -= c
                rem_in[h] -= c
                # net[t] + v and net[h] - v must stay within -rem_out..rem_in
                lo = max(0, -rem_out[t] - net[t], net[h] - rem_in[h])
                hi = min(c, rem_in[t] - net[t], net[h] + rem_out[h])
            if lo <= hi:
                vals[i], top[k] = lo, hi
                net[t] += lo
                net[h] -= lo
                k += 1
                continue
            if t != h:  # an empty level is left as it was entered
                rem_out[t] += c
                rem_in[h] += c
        else:
            # every vertex was balanced by the last interval through it
            yield tuple(vals)
        k -= 1
        while k >= 0:
            t, h, c, i = levels[k]
            if vals[i] < top[k]:
                vals[i] += 1
                net[t] += 1
                net[h] -= 1
                k += 1
                break
            net[t] -= vals[i]
            net[h] += vals[i]
            vals[i] = 0
            if t != h:
                rem_out[t] += c
                rem_in[h] += c
            k -= 1
        else:
            return


def iter_cone_members(spec: ExponentMatrix, edges: Sequence[tuple[int, int]],
                      caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The nonzero flows of `iter_bounded_flows(edges, caps)` that lie in
    the cone, as value tuples aligned with `edges`.  Each weight row is
    pulled back to the edges once, as row[tail] per edge, so a flow is
    tested on its values without building its outflow vector."""
    pulled = [[row[t] for t, _h in edges] for row in spec.rows]
    for vals in iter_bounded_flows(edges, caps):
        if any(vals) and not any(sum(map(mul, row, vals)) for row in pulled):
            yield vals


def _disc_support(spec: ExponentMatrix, d: Flow, what: str
                  ) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """The support edges of the disc vector d and its int values on them.
    The searches below walk boxes as long as these values, so a disc with
    an entry above DISC_BOUND_LIMIT is refused before any search."""
    support = _disc_entries(spec, d)
    if support is None:
        raise InputError(f"{what} is defined for disc vectors only")
    if max(support[1]) > DISC_BOUND_LIMIT:
        raise LimitExceeded(f"{what} limited to disc entries <= {DISC_BOUND_LIMIT}")
    return support


def is_essential(spec: ExponentMatrix, d: Flow) -> bool:
    """No way to write d = e + v with e a disc vector and v a nonzero cone
    member.  Any such e satisfies e <= d entrywise, so the search space is
    the finite set of proper nonzero subflows of d."""
    edges, caps = _disc_support(spec, d, "essentiality")
    for vals in iter_cone_members(spec, edges, caps):
        if vals != caps and support_strongly_connected(
                [e for e, v in zip(edges, vals) if v]):
            return False
    return True


@dataclass(frozen=True)
class ExtremalityReport:
    extremal_up_to: int
    counterexample: Optional[tuple[tuple[int, ...], ...]] = None
    # counterexample: tuple of summand value-tuples aligned with `edges`
    edges: Optional[tuple[tuple[int, int], ...]] = None

    @property
    def is_extremal(self) -> bool:
        return self.counterexample is None


def is_extremal(spec: ExponentMatrix, d: Flow, n_max: int = 2) -> ExtremalityReport:
    """Bounded extremality verifier against the ambient integral cone.

    For each N = 2..n_max it searches decompositions N*d = d_1 + ... + d_N
    with every d_i a nonzero integral cone member entrywise below N*d; a
    decomposition with some part != d is a counterexample.  This is a
    verifier up to n_max (an int >= 2), not a decision procedure.

    The search reads `iter_cone_members` lazily, one box per level, and
    returns the first counterexample it meets, not the lexicographically
    least one.  The last part is what remains: it is >= 0 and integral,
    and conservation and the weight rows are linear, so it is a cone
    member exactly when it is nonzero.  At N = 2 that makes the search one
    pass over the box below 2*d, ending at the first member other than d
    and 2*d.  On the earlier levels the parts are kept lexicographically
    nondecreasing to cut permuted duplicates.

    Up to n_max = 4, a strict cut (no part repeated among the first N - 1)
    would return the same reports, since a level N >= 3 is reached only
    when N = 2 found nothing.  Suppose a part q != d appears twice among the
    first N - 1 parts.  Then 2q <= N*d <= 4d, so q <= 2d; q = 2d would
    leave nothing for the other, nonzero, parts, so q is a member of the
    box below 2*d other than d and 2d, and N = 2 has already returned.  If
    q = d appears twice, the other parts make (N - 2)*d: d itself at
    N = 3, and at N = 4 a decomposition of 2d, which N = 2 has also ruled
    out.  So the first counterexample of a level repeats no part, and the
    strict walk, which visits a subset of the same nodes in the same
    order, meets it first too.
    """
    n_max = as_int(n_max)
    if n_max < 2:
        raise InputError(f"extremality is checked from N = 2 up, got n_max {n_max}")
    edges, d_vals = _disc_support(spec, d, "extremality")

    def search(left, remaining, parts):
        if left == 1:
            full = parts + [remaining]
            if any(remaining) and any(p != d_vals for p in full):
                return full
            return None
        for e in iter_cone_members(spec, edges, remaining):
            if not parts or e >= parts[-1]:
                got = search(left - 1, tuple(r - v for r, v in zip(remaining, e)),
                             parts + [e])
                if got:
                    return got
        return None

    for N in range(2, n_max + 1):
        found = search(N, tuple(v * N for v in d_vals), [])
        if found:
            return ExtremalityReport(extremal_up_to=N - 1,
                                     counterexample=tuple(found),
                                     edges=tuple(edges))
    return ExtremalityReport(extremal_up_to=n_max, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Extremal rays
# ---------------------------------------------------------------------------

def extremal_rays(spec: ExponentMatrix) -> list[Flow]:
    """Primitive integral generators of the extremal rays of the cone.

    Double description (Motzkin et al., in the form of Fukuda and Prodon's
    "Double description method revisited"): start from the n*n unit rays of
    the nonnegative orthant of flow coordinates and cut with one homogeneous
    equation at a time, first conservation at each vertex, then each weight
    row.  At each cut the rays on the hyperplane stay, and every adjacent
    pair p, q with a.p > 0 > a.q adds (a.p)*q - (a.q)*p, the point where
    their 2-face crosses it.  Each intermediate cone lies in the orthant, so
    it is pointed and its only inequalities are the sign constraints; p and
    q are then adjacent exactly when no other ray has its support inside
    supp(p) | supp(q).  Supports are int bitmasks, arithmetic is on ints, and
    every new ray is divided by the gcd of its entries.
    """
    if spec.n > RAY_N_LIMIT:
        raise LimitExceeded(f"ray extraction limited to n <= {RAY_N_LIMIT}")
    n = spec.n
    dim = n * n
    cuts = []
    for i in range(n):  # conservation: outflow_i - inflow_i = 0
        row = [0] * dim
        for j in range(n):
            row[i * n + j] += 1
            row[j * n + i] -= 1
        cuts.append(row)
    for zrow in spec.rows:  # weight row: sum_j z_j * outflow_j = 0
        cuts.append([z for z in zrow for _k in range(n)])
    # a ray is (support bitmask, entries); start from the orthant's unit rays
    rays = [(1 << c, tuple(int(k == c) for k in range(dim))) for c in range(dim)]
    for cut in cuts:
        terms = [(c, a) for c, a in enumerate(cut) if a]
        kept, pos, neg = [], [], []
        for ray in rays:
            dot = sum(a * ray[1][c] for c, a in terms)
            if dot == 0:
                kept.append(ray)
            else:
                (pos if dot > 0 else neg).append((dot, ray))
        masks = [mask for mask, _ in rays]
        for dp, (mp, p) in pos:
            for dq, (mq, q) in neg:
                union = mp | mq
                # adjacent: no ray besides p and q has support in the union
                if sum(1 for m in masks if m | union == union) > 2:
                    continue
                combo = [dp * x - dq * y for x, y in zip(q, p)]
                g = gcd(*combo)
                kept.append((union, tuple(v // g for v in combo)))
        rays = kept
    flows = [Flow(n, tuple(entries[i * n:(i + 1) * n] for i in range(n)))
             for _mask, entries in rays]
    flows.sort(key=lambda fl: fl.entries)
    return flows
