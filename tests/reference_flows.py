"""Reference bounded-flow walk, for tests only.

The recursive walk that `sclflow.cones.iter_bounded_flows` replaced, kept
verbatim: one nested generator per edge, net flow and remaining capacity
in dicts keyed by vertex.  The flat walk must yield the same tuples in the
same order, and `iter_cone_members` the same members, since the first
counterexample `is_extremal` reports depends on that order.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, Sequence

from sclflow.words import ExponentMatrix


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
    """All integral flows supported on `edges` with value <= cap per edge,
    as value tuples aligned with `edges`."""
    original_edges, original_caps = list(edges), list(caps)
    order = _traversal_order(original_edges)
    inverse = [0] * len(order)
    for pos, idx in enumerate(order):
        inverse[idx] = pos
    edges = [original_edges[i] for i in order]
    caps = [original_caps[i] for i in order]
    m = len(edges)
    verts = sorted({v for e in edges for v in e})
    rem_out = {v: 0 for v in verts}
    rem_in = {v: 0 for v in verts}
    for (t, h), c in zip(edges, caps):
        if t != h:
            rem_out[t] += c
            rem_in[h] += c
    net = {v: 0 for v in verts}
    vals = [0] * m

    def rec(idx):
        if idx == m:
            # every vertex was balanced by the last interval through it
            yield tuple(vals[inverse[i]] for i in range(m))
            return
        t, h = edges[idx]
        c = caps[idx]
        if t == h:
            for v in range(c + 1):
                vals[idx] = v
                yield from rec(idx + 1)
            vals[idx] = 0
            return
        rem_out[t] -= c
        rem_in[h] -= c
        # net[t] + v and net[h] - v must stay within -rem_out..rem_in
        lo = max(0, -rem_out[t] - net[t], net[h] - rem_in[h])
        hi = min(c, rem_in[t] - net[t], net[h] + rem_out[h])
        for v in range(lo, hi + 1):
            vals[idx] = v
            net[t] += v
            net[h] -= v
            yield from rec(idx + 1)
            net[t] -= v
            net[h] += v
        vals[idx] = 0
        rem_out[t] += c
        rem_in[h] += c

    yield from rec(0)


def iter_cone_members(spec: ExponentMatrix, edges: Sequence[tuple[int, int]],
                      caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The nonzero flows of the reference walk whose outflow vector every
    weight row annihilates."""
    for vals in iter_bounded_flows(edges, caps):
        if any(vals):
            o = [0] * spec.n
            for (t, _h), v in zip(edges, vals):
                o[t] += v
            if not any(sum(map(mul, row, o)) for row in spec.rows):
                yield vals
