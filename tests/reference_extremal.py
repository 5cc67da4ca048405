"""Reference bounded extremality check by listing, for tests only.

For each N it lists every nonzero cone member in the box below N*d,
sorts the list and searches it for N parts, kept nondecreasing, that sum
to N*d with some part != d.  It returns the lexicographically least such
decomposition.  `sclflow.cones.is_extremal` reads the members lazily and
stops at the first counterexample it meets, so the two can disagree on
the counterexample but never on the verdict or on `extremal_up_to`.
"""

from __future__ import annotations

from typing import Optional

from sclflow.cones import iter_cone_members
from sclflow.graphs import Flow
from sclflow.words import ExponentMatrix


def extremal_by_listing(spec: ExponentMatrix, d: Flow, n_max: int
                        ) -> tuple[int, Optional[tuple[tuple[int, ...], ...]]]:
    """(extremal_up_to, counterexample or None) for the disc vector d."""
    edges = d.support_edges()
    d_vals = tuple(int(d.entries[t][h]) for t, h in edges)
    for N in range(2, n_max + 1):
        target = [v * N for v in d_vals]
        members = sorted(iter_cone_members(spec, edges, target))
        member_set = set(members)

        def search(start, left, remaining, parts):
            if left == 1:
                rem = tuple(remaining)
                if rem in member_set and (not parts or rem >= parts[-1]):
                    full = parts + [rem]
                    if any(p != d_vals for p in full):
                        return full
                return None
            for k in range(start, len(members)):
                e = members[k]
                if all(v <= r for v, r in zip(e, remaining)):
                    nxt = [r - v for r, v in zip(remaining, e)]
                    got = search(k, left - 1, nxt, parts + [e])
                    if got:
                        return got
            return None

        found = search(0, N, target, [])
        if found:
            return N - 1, tuple(found)
    return n_max, None
