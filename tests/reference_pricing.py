"""Reference disc pricing by nested composition generators, for tests only.

This is the table enumeration `sclflow.cones` used before it walked
per-row candidate lists: every outflow vector tested against the weight
rows, one recursive generator per table entry, each row built entry by
entry and cut as soon as its running cost reaches the budget, the last row
enumerated like the others.  It is slow but independent of the solved last
outflow entry, the packed candidate rows, the forced last row and the
bitmask connectivity test, which makes it a good oracle: on every cone,
bound, cost table and budget `cones.disc_pricer` and it must yield the same
discs in the same order.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from sclflow.graphs import Flow
from sclflow.words import ExponentMatrix


def _weights(spec: ExponentMatrix, outflows) -> list[int]:
    return [sum(z * o for z, o in zip(row, outflows)) for row in spec.rows]


def _reachable(adj, start) -> set:
    """The vertices reachable from start along adj (vertex -> successors)."""
    seen, todo = {start}, [start]
    while todo:
        for w in adj.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _strongly_connected(edges) -> bool:
    adj: dict[int, list[int]] = {}
    radj: dict[int, list[int]] = {}
    for t, h in edges:
        adj.setdefault(t, []).append(h)
        radj.setdefault(h, []).append(t)
    if not adj:
        return False
    verts = adj.keys() | radj.keys()
    start = next(iter(adj))
    return verts <= _reachable(adj, start) and verts <= _reachable(radj, start)


def iter_tables(sums: tuple[int, ...], costs, budget: int
                ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All nonnegative integer n x n matrices with row and column sums both
    equal to `sums` and cost sum(costs[i][j] * t[i][j]) below `budget`,
    in lexicographic order, for int costs >= 0."""
    n = len(sums)
    total = sum(sums)

    def compositions(amount, caps, cost_row, room, idx, acc):
        # room = budget - running cost, always positive here
        c = cost_row[idx]
        if idx == n - 1:
            if amount <= caps[idx] and amount * c < room:
                yield acc + (amount,), room - amount * c
            return
        top = min(amount, caps[idx])
        if c:
            top = min(top, (room - 1) // c)
        for v in range(top + 1):
            yield from compositions(amount - v, caps, cost_row, room - v * c,
                                    idx + 1, acc + (v,))

    def rec(i, cols_left, rows_acc, remaining_total, room):
        if i == n:
            yield tuple(rows_acc)
            return
        after = remaining_total - sums[i]
        for row, left in compositions(sums[i], cols_left, costs[i], room, 0, ()):
            new_cols = tuple(c - v for c, v in zip(cols_left, row))
            if max(new_cols, default=0) > after:
                continue
            rows_acc.append(row)
            yield from rec(i + 1, new_cols, rows_acc, after, left)
            rows_acc.pop()

    yield from rec(0, sums, [], total, budget)


def priced_discs(spec: ExponentMatrix, bound: int, costs=None,
                 budget: int = 1) -> list[Flow]:
    """The disc vectors with every outflow <= bound and cost below the
    budget, outflow vectors in lexicographic order and the tables of each
    in lexicographic order.  Inputs are assumed valid."""
    n = spec.n
    if costs is None:
        costs = ((0,) * n,) * n
    found = []
    for o in sorted(product(range(bound + 1), repeat=n)):
        if not any(o) or any(_weights(spec, o)):
            continue
        for entries in iter_tables(o, costs, budget):
            support = [(i, j) for i, row in enumerate(entries)
                       for j, v in enumerate(row) if v]
            if _strongly_connected(support):
                found.append(Flow(n, entries))
    return found
