"""Reference annihilation search, kept for tests only.

This is the level-by-level search that `sclflow.bounds.vanishing_combinations`
replaced, with the loose pruning it had before that: it restarts a
depth-first walk from the root at each weight level 1, 2, ..., taking the
positions big-magnitude first and trying lam_j = 0, 1, ... in turn.  It
cuts a subtree only when a partial sum exceeds the remaining weight times
the largest remaining magnitude, and it calls every child before testing it.

The fast search walks each prefix once for every level together, in the
same position order, and sorts its witnesses by weight.  Within one weight
both meet the witnesses in the same lexicographic order, so in both modes
the two must return the same list in the same order.
"""

from __future__ import annotations


def vanishing_combinations(vectors, max_weight: int,
                           first_only: bool) -> list[tuple[int, ...]]:
    """Nonzero lam >= 0 of total weight at most max_weight with
    sum_j lam_j * vectors[j] = 0 in every coordinate: the first witness of
    the least weight, or every witness, by ascending weight.

    Positions are searched big-magnitude first, so partial sums that the
    remaining entries cannot cancel die immediately: weight w of remaining
    coefficients moves each coordinate by at most w times the largest
    remaining magnitude in it.
    """
    n = len(vectors)
    k = len(vectors[0]) if vectors else 0
    order = sorted(range(n),
                   key=lambda j: -max((abs(c) for c in vectors[j]), default=0))
    vecs = [vectors[j] for j in order]
    suffix_abs = [tuple(max((abs(v[c]) for v in vecs[j:]), default=0)
                        for c in range(k))
                  for j in range(n + 1)]
    lam = [0] * n
    found: list[tuple[int, ...]] = []

    def rec(j, left, partial):
        """False once the search should stop."""
        if j == n:
            if left == 0 and not any(partial):
                witness = [0] * n
                for pos, i in enumerate(order):
                    witness[i] = lam[pos]
                found.append(tuple(witness))
                return not first_only
            return True
        cap = suffix_abs[j]
        if any(abs(p) > left * cap[c] for c, p in enumerate(partial)):
            return True
        for v in range(left + 1):
            lam[j] = v
            keep_going = rec(j + 1, left - v,
                             tuple(p + v * vecs[j][c] for c, p in enumerate(partial)))
            lam[j] = 0
            if not keep_going:
                return False
        return True

    zero = (0,) * k
    for weight in range(1, max_weight + 1):
        if not rec(0, weight, zero):
            break
    return found
