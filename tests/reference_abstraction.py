"""Reference graph abstraction and positive flows, for tests only.

This is the abstraction written on three parallel lists (edges, weights,
flows): each merge rebuilds the graph and renumbers its vertices with
`_compact`, and `_sorted_edges` puts the edges in canonical order at the
end.  Positive flows push each unit along an edge and a BFS-shortest
return path found by `_shortest_path_edges`.  `sclflow.graphs` does the
same on one list of (edge, weight, flow) records with one `push_cycle`;
the two must agree on every value and every `InputError` message.
"""

from __future__ import annotations

from typing import Optional

from sclflow.errors import InputError, InternalCheckError
from sclflow.graphs import MDGraph, connectivity, removable_edge


def _subdivision_vertex(g: MDGraph) -> Optional[tuple[int, int, int]]:
    ins = [[] for _ in range(g.vertex_count)]
    outs = [[] for _ in range(g.vertex_count)]
    for idx, (t, h) in enumerate(g.edges):
        outs[t].append(idx)
        ins[h].append(idx)
    for v in range(g.vertex_count):
        if len(ins[v]) == 1 and len(outs[v]) == 1 and ins[v][0] != outs[v][0]:
            return v, ins[v][0], outs[v][0]
    return None


def _compact(g: MDGraph, drop: set[int]) -> MDGraph:
    keep = [v for v in range(g.vertex_count) if v not in drop]
    remap = {v: i for i, v in enumerate(keep)}
    edges = tuple((remap[t], remap[h]) for t, h in g.edges)
    return MDGraph(len(keep), edges, g.weights, g.flows)


def _sorted_edges(g: MDGraph) -> MDGraph:
    order = sorted(range(len(g.edges)),
                   key=lambda i: (g.edges[i],
                                  g.weights[i] if g.weights is not None else 0,
                                  g.flows[i] if g.flows is not None else 0))
    return MDGraph(
        g.vertex_count,
        tuple(g.edges[i] for i in order),
        None if g.weights is None else tuple(g.weights[i] for i in order),
        None if g.flows is None else tuple(g.flows[i] for i in order))


def abstract_graph(g: MDGraph) -> MDGraph:
    while True:
        found = _subdivision_vertex(g)
        if found is None:
            break
        v, ei, eo = found
        tail = g.edges[ei][0]
        head = g.edges[eo][1]
        if g.flows is not None and g.flows[ei] != g.flows[eo]:
            raise InputError(
                f"cannot merge edges with unequal flow values "
                f"{g.flows[ei]} != {g.flows[eo]} at vertex {v}")
        edges = []
        weights = [] if g.weights is not None else None
        flows = [] if g.flows is not None else None
        for idx, e in enumerate(g.edges):
            if idx in (ei, eo):
                continue
            edges.append(e)
            if weights is not None:
                weights.append(g.weights[idx])
            if flows is not None:
                flows.append(g.flows[idx])
        edges.append((tail, head))
        if weights is not None:
            weights.append(g.weights[ei] + g.weights[eo])
        if flows is not None:
            flows.append(g.flows[ei])
        g = _compact(MDGraph(g.vertex_count, tuple(edges),
                             None if weights is None else tuple(weights),
                             None if flows is None else tuple(flows)),
                     {v})
    return _sorted_edges(g)


def _shortest_path_edges(g: MDGraph, src: int, dst: int,
                         forbidden: Optional[set[int]] = None) -> Optional[list[int]]:
    if src == dst:
        return []
    forbidden = forbidden or set()
    prev: dict[int, tuple[int, int]] = {}
    seen = {src}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for idx, (t, h) in enumerate(g.edges):
                if idx in forbidden or t != v or h in seen:
                    continue
                prev[h] = (v, idx)
                if h == dst:
                    path = []
                    cur = dst
                    while cur != src:
                        p, e = prev[cur]
                        path.append(e)
                        cur = p
                    return path[::-1]
                seen.add(h)
                nxt.append(h)
        frontier = nxt
    return None


def positive_flow(g: MDGraph) -> tuple[int, ...]:
    conn = connectivity(g)
    if not conn.reflexive:
        raise InputError("graph is not reflexive; it supports no positive flow")
    vals = [0] * len(g.edges)
    for idx, (t, h) in enumerate(g.edges):
        if vals[idx] > 0:
            continue
        back = _shortest_path_edges(g, h, t)
        if back is None:
            raise InternalCheckError("reflexive graph lost a return path")
        vals[idx] += 1
        for e in back:
            vals[e] += 1
    return tuple(vals)


def step1_flow(g: MDGraph) -> tuple[tuple[int, ...], int]:
    e_star = removable_edge(g)
    rest = MDGraph(g.vertex_count,
                   tuple(e for i, e in enumerate(g.edges) if i != e_star))
    rest_vals = positive_flow(rest) if rest.edges else ()
    vals = list(rest_vals[:e_star]) + [0] + list(rest_vals[e_star:])
    t, h = g.edges[e_star]
    back = _shortest_path_edges(g, h, t, forbidden={e_star})
    if back is None:
        raise InternalCheckError("no return path for the distinguished edge")
    vals[e_star] += 1
    for e in back:
        vals[e] += 1
    return tuple(vals), e_star
