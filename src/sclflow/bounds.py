"""Combinatorial bounds on scl and generic-word machinery.

The lower bound comes from the least total weight of a nonzero nonnegative
integer combination annihilating every exponent row; the all-ones vector
always works because rows sum to zero, so a search up to weight n is
exhaustive and exact.  The closed-form upper bound C(m) and the
maximizing words behind it live here too, as does a rejection sampler for
words whose both sides admit no annihilating combination of weight < n.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .errors import InputError, InternalCheckError, LimitExceeded, as_int
from .linprog import rref
from .words import ExponentMatrix, Word, make_word, matrix

GENERIC_MAX_TRIES = 2000
# the universal word has n^2 entries; each generic side is a rejection
# search whose cost grows steeply with n (seed 1 on one 2-core CPython 3.11
# machine: 0.07 s at 12 blocks, 3.0 s at 16)
UNIVERSAL_N_LIMIT = 100
GENERIC_N_LIMIT = 12


def vanishing_combinations(vectors, max_weight: int,
                           first_only: bool) -> list[tuple[int, ...]]:
    """Nonzero lam >= 0 of total weight at most max_weight with
    sum_j lam_j * vectors[j] = 0 in every coordinate: the first witness of
    the least weight, or every witness, by ascending weight.

    One depth-first walk serves every weight level at once.  Positions are
    taken big-magnitude first, trying lam_j = 0, 1, ... in turn, so the walk
    meets the witnesses in lexicographic order.  A node fixes lam on the
    positions before j and carries the interval [la, lb] of units that
    positions j..n-1 may still take; the root gets [1, max_weight].  With L
    units left, the rest of the sum lies between L times the least and L
    times the greatest remaining entry of each coordinate, so:

    1. A node's interval keeps only the L for which every partial sum is
       the negative of a point in that range: one integer floor or ceiling
       per coordinate bound.  A node whose interval is empty is not entered.
    2. For position j, the values of lam_j whose child can be alive form an
       interval, found with one floor or ceiling per coordinate bound taken
       at the more permissive end of [la, lb], and only that interval is
       walked.
    3. The last position solves p + L a = 0, which fixes L unless its
       vector is zero; then every L in the interval gives a witness.

    Each witness is recorded with its weight.  In all-mode a stable sort by
    weight gives each level's witnesses in walk order, as a walk per level
    would.  In first-only mode each witness found caps the weight below its
    own, so the last one found is the first witness of the least weight.
    The rules and the cap cut only subtrees that hold no wanted witness.
    """
    n = len(vectors)
    if n == 0:
        return []
    order = sorted(range(n),
                   key=lambda j: -max((abs(c) for c in vectors[j]), default=0))
    vecs = [vectors[j] for j in order]
    # (least, greatest) entry of each coordinate over positions j..n-1
    suffix = [tuple(zip(map(min, zip(*vecs[j:])), map(max, zip(*vecs[j:]))))
              for j in range(n)]
    # rule 2's constraints v d <= sign p_i + L c on lam_j = v, two per
    # coordinate i of position j, as (i, d, sign, c)
    steps = [tuple(con for i, (a, (lo, hi)) in enumerate(zip(vecs[j], suffix[j + 1]))
                   for con in ((i, a - lo, -1, -lo), (i, hi - a, 1, hi)))
             for j in range(n - 1)]
    last = n - 1
    lam = [0] * n
    found: list[tuple[int, tuple[int, ...]]] = []
    cap = max_weight

    def units(partial, j, la, lb):
        """Rule 1: the L in [la, lb] with L lo <= -p <= L hi for every
        coordinate bound (lo, hi) of positions j..; empty when la > lb."""
        for p, (lo, hi) in zip(partial, suffix[j]):
            if lo > 0:
                if -p // lo < lb:
                    lb = -p // lo
            elif lo < 0:
                if -(p // lo) > la:
                    la = -(p // lo)
            elif p > 0:
                return 1, 0
            if hi > 0:
                if -(p // hi) > la:
                    la = -(p // hi)
            elif hi < 0:
                if -p // hi < lb:
                    lb = -p // hi
            elif p < 0:
                return 1, 0
            if la > lb:
                break
        return la, lb

    def rec(j, la, lb, weight, partial):
        """Walk the node at position j; weight is the sum of lam before j."""
        nonlocal cap
        if j == last:
            for left in range(la, min(lb, cap - weight) + 1):
                witness = [0] * n
                for pos, i in enumerate(order):
                    witness[i] = lam[pos]
                witness[order[j]] = left
                found.append((weight + left, tuple(witness)))
                if first_only:
                    cap = weight + left - 1
                    break
            return
        # the child for lam_j = v keeps L - v units for positions j+1.., so
        # it can live only if (L - v) lo <= -(p + v a) <= (L - v) hi for
        # some L in [la, lb], i.e. v (a - lo) <= -p - L lo and
        # v (hi - a) <= p + L hi at the L that makes each right side largest
        vmin, vmax = 0, lb
        for i, d, sign, c in steps[j]:
            r = sign * partial[i] + (lb if c > 0 else la) * c
            if d > 0:
                if r < d * vmax:
                    vmax = r // d
            elif d < 0:
                if r < d * vmin:
                    vmin = -(r // -d)
            elif r < 0:
                return
        if vmin > vmax:
            return
        vec = vecs[j]
        for v in range(vmin, vmax + 1):
            top = min(lb, cap - weight) - v
            if top < 0:
                break
            child = tuple([p + v * a for p, a in zip(partial, vec)])
            cla, clb = units(child, j + 1, la - v if la > v else 0, top)
            if cla <= clb:
                lam[j] = v
                rec(j + 1, cla, clb, weight + v, child)
        lam[j] = 0

    zero = (0,) * len(vecs[0])
    la, lb = units(zero, 0, 1, max_weight)
    if la <= lb:
        rec(0, la, lb, 0, zero)
    if first_only:
        return [found[-1][1]] if found else []
    found.sort(key=lambda f: f[0])
    return [witness for _, witness in found]


def min_vanishing(x: ExponentMatrix) -> tuple[int, tuple[int, ...]]:
    """Least total weight p of a nonzero lam >= 0 with lam . row = 0 for
    every row, and one such lam attaining it, as (p, lam).  Weight n always
    works (the all-ones vector), so the search always finds a witness."""
    found = vanishing_combinations(tuple(zip(*x.rows)), x.n, first_only=True)
    if not found:
        raise InternalCheckError(
            "no annihilating combination found, though the all-ones vector "
            "annihilates every row")
    return sum(found[0]), found[0]


def lower_bound(w: Word) -> Fraction:
    """scl is at least (n/2) (1 - 1/p - 1/q) for the two minimal weights."""
    p, _ = min_vanishing(w.x)
    q, _ = min_vanishing(w.y)
    val = Fraction(w.n, 2) * (1 - Fraction(1, p) - Fraction(1, q))
    return max(Fraction(0), val)


def universal_word(n: int) -> Word:
    """The word maximizing scl among reduced length 2n: both sides have the
    rows (1,-1,0,...,0), (1,0,-1,...,0), ..., (1,0,...,0,-1)."""
    n = as_int(n)
    if n < 2:
        raise InputError("universal word needs n >= 2")
    if n > UNIVERSAL_N_LIMIT:
        raise LimitExceeded(f"universal word limited to n <= {UNIVERSAL_N_LIMIT}")
    rows = []
    for i in range(1, n):
        row = [0] * n
        row[0] = 1
        row[i] = -1
        rows.append(row)
    return make_word(n, rows, rows)


def upper_bound_C(m: int) -> Fraction:
    """Closed-form bound for the largest scl at reduced length m = 2n > 4:
    n/2 - 1 for odd n, and n/2 - ((n-1)! - 1)/(n (n-2)! - 2) for even n."""
    m = as_int(m)
    if m % 2 != 0 or m <= 4:
        raise InputError("reduced length must be even and greater than 4")
    n = m // 2
    if n % 2 == 1:
        return Fraction(n, 2) - 1
    return Fraction(n, 2) - Fraction(factorial(n - 1) - 1,
                                     n * factorial(n - 2) - 2)


def generic_check(x: ExponentMatrix) -> bool:
    """No common annihilating combination of weight below n exists;
    equivalently the minimal vanishing weight is exactly n."""
    p, _ = min_vanishing(x)
    return p >= x.n


def sample_generic_word(n: int, seed: int) -> Word:
    """Deterministic-for-seed rejection sampler for words with generic
    exponent matrices on both sides (n - 1 rows each, full row rank)."""
    n = as_int(n)
    if n < 3:
        raise InputError("generic sampling needs n >= 3")
    if n > GENERIC_N_LIMIT:
        raise LimitExceeded(f"generic sampling limited to n <= {GENERIC_N_LIMIT}")
    rng = random.Random(seed)

    def full_rank(rows) -> bool:
        return len(rref(rows)) == len(rows)

    def side():
        for _ in range(GENERIC_MAX_TRIES):
            rows = []
            for _ in range(n - 1):
                row = [rng.randint(-2, 2) for _ in range(n - 1)]
                row.append(-sum(row))
                rows.append(row)
            try:
                m = matrix(n, rows)
            except InputError:  # a column is all zero
                continue
            if len(m.rows) != n - 1 or not full_rank(m.rows):
                continue
            if generic_check(m):
                return m
        raise InputError(f"sampler exceeded {GENERIC_MAX_TRIES} tries; widen the range")

    return Word(side(), side())
