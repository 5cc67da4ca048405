"""Combinatorial bounds on scl and generic-word machinery.

The lower bound comes from the least total weight of a nonzero nonnegative
integer combination annihilating every exponent row; the all-ones vector
always works because rows sum to zero, so the search over weight levels
1..n is exhaustive and exact.  The closed-form upper bound C(m) and the
maximizing words behind it live here too, as does a rejection sampler for
words whose both sides admit no annihilating combination of weight < n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .errors import InputError
from .words import ExponentMatrix, Word, make_word, matrix, validate_Mn

GENERIC_MAX_TRIES = 2000


@dataclass(frozen=True)
class VanishingCertificate:
    lam: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.lam)


def vanishing_combinations(vectors, max_weight: int,
                           first_only: bool) -> list[tuple[int, ...]]:
    """Nonzero lam >= 0 of total weight at most max_weight with
    sum_j lam_j * vectors[j] = 0 in every coordinate: the first witness of
    the least weight, or every witness, by ascending weight.

    Each weight level is a depth-first walk over the positions, taken
    big-magnitude first, trying lam_j = 0, 1, ... in turn.  A node fixes
    lam on the positions before j and leaves exactly `left` units for
    positions j..n-1, so the rest of the sum lies between left times the
    least and left times the greatest remaining entry of each coordinate.
    Two rules follow from that range:

    1. A node is dead when some partial sum is not the negative of a
       point in that range.
    2. For position j, the values of lam_j whose child is alive by rule 1
       form an interval, found with one integer floor or ceiling per
       coordinate bound, and only that interval is walked.

    Both rules cut only subtrees that hold no witness and leave the walk
    order of the others alone, so the first witness and the full list
    come out exactly as in a walk that tries every value.
    """
    n = len(vectors)
    if n == 0:
        return []
    order = sorted(range(n),
                   key=lambda j: -max((abs(c) for c in vectors[j]), default=0))
    vecs = [vectors[j] for j in order]
    # least and greatest entry of each coordinate over positions j..n-1
    suffix_lo = [tuple(map(min, zip(*vecs[j:]))) for j in range(n)]
    suffix_hi = [tuple(map(max, zip(*vecs[j:]))) for j in range(n)]
    last = n - 1
    lam = [0] * n
    found: list[tuple[int, ...]] = []

    def rec(j, left, partial):
        """False once the search should stop."""
        vec = vecs[j]
        if j == last:
            # the last position takes every unit that is left
            if any(p + left * a for p, a in zip(partial, vec)):
                return True
            witness = [0] * n
            for pos, i in enumerate(order):
                witness[i] = lam[pos]
            witness[order[j]] = left
            found.append(tuple(witness))
            return not first_only
        # the child for lam_j = v has left - v units for positions j+1..,
        # so it lives iff (left - v) lo <= -(p + v a) <= (left - v) hi,
        # i.e. v (a - lo) <= -p - left lo and v (hi - a) <= p + left hi
        vmin, vmax = 0, left
        for p, a, lo, hi in zip(partial, vec, suffix_lo[j + 1], suffix_hi[j + 1]):
            for d, r in ((a - lo, -p - left * lo), (hi - a, p + left * hi)):
                if d > 0:
                    if r < d * vmax:
                        vmax = r // d
                elif d < 0:
                    if r < d * vmin:
                        vmin = -(r // -d)
                elif r < 0:
                    return True
            if vmin > vmax:
                return True
        for v in range(vmin, vmax + 1):
            lam[j] = v
            keep_going = rec(j + 1, left - v,
                             tuple(p + v * a for p, a in zip(partial, vec)))
            lam[j] = 0
            if not keep_going:
                return False
        return True

    zero = (0,) * len(vecs[0])
    for weight in range(1, max_weight + 1):
        if not rec(0, weight, zero):
            break
    return found


def min_vanishing(x: ExponentMatrix) -> tuple[int, VanishingCertificate]:
    """Least total weight p of a nonzero lam >= 0 with lam . row = 0 for
    every row, plus one witness attaining it.  Weight n always works (the
    all-ones vector), so the level search terminates."""
    if not validate_Mn(x):
        raise InputError("matrix violates a membership condition")
    found = vanishing_combinations(tuple(zip(*x.rows)), x.n, first_only=True)
    if not found:
        raise AssertionError("unreachable: the all-ones vector annihilates all rows")
    return sum(found[0]), VanishingCertificate(found[0])


def lower_bound(w: Word) -> Fraction:
    """scl is at least (n/2) (1 - 1/p - 1/q) for the two minimal weights."""
    p, _ = min_vanishing(w.x)
    q, _ = min_vanishing(w.y)
    val = Fraction(w.n, 2) * (1 - Fraction(1, p) - Fraction(1, q))
    return max(Fraction(0), val)


def universal_word(n: int) -> Word:
    """The word maximizing scl among reduced length 2n: both sides have the
    rows (1,-1,0,...,0), (1,0,-1,...,0), ..., (1,0,...,0,-1)."""
    if n < 2:
        raise InputError("universal word needs n >= 2")
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
    if n < 3:
        raise InputError("generic sampling needs n >= 3")
    rng = random.Random(seed)

    def full_rank(rows) -> bool:
        from .linprog import rref
        return len(rref(rows)) == len(rows)

    def side():
        for _ in range(GENERIC_MAX_TRIES):
            rows = []
            for _ in range(n - 1):
                row = [rng.randint(-2, 2) for _ in range(n - 1)]
                row.append(-sum(row))
                rows.append(row)
            m = matrix(n, rows)
            if not m.rows or not validate_Mn(m):
                continue
            if len(m.rows) != n - 1 or not full_rank(m.rows):
                continue
            if generic_check(m):
                return m.rows
        raise InputError(f"sampler exceeded {GENERIC_MAX_TRIES} tries; widen the range")

    return make_word(n, side(), side())


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    q: int
    predicted: Fraction
    computed: "object"  # SclResult; typed loosely to avoid an import cycle

    def agrees(self) -> bool:
        return self.computed.value == self.predicted


def conjecture_check(n_: int, p_: int, q_: int, r_: int,
                     bound: int = 3) -> ConjectureReport:
    """Predicted value 1 - gcd(n, q)/(2n) for the four-block word with
    a-exponents (-n, p, q, r) and b-exponents (-1, 1, -1, 1), versus the
    engine's computed value.  Informational: mismatches are reported, never
    asserted."""
    from .engine import scl

    if p_ <= 0 or q_ <= 0 or r_ <= 0 or p_ + q_ + r_ != n_:
        raise InputError("need positive p, q, r with p + q + r = n")
    w = make_word(4, [[-n_, p_, q_, r_]], [[-1, 1, -1, 1]])
    predicted = 1 - Fraction(gcd(n_, q_), 2 * n_)
    computed = scl(w, bound=bound, stabilize=True)
    return ConjectureReport(n=n_, q=q_, predicted=predicted, computed=computed)
