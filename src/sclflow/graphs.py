"""Multi-digraphs, flows on complete digraphs, and graph abstraction.

Two graph-like values live here.  `MDGraph` is a finite multi-digraph
(parallel edges and loops allowed) with optional per-edge integer weights
and flow values.  `Flow` is a nonnegative edge function on the complete
digraph with n vertices (loops included, so an n x n matrix) satisfying
conservation at every vertex.  `mdgraph` and `flow_from_json` refuse a
non-integer where an integer belongs rather than truncate it.

One search, `_reach` on int bitmasks of vertices, answers every
connectivity question: the strong and weak component partitions of
`connectivity`, and `masks_strongly_connected`, the test `cones` applies to
the support of a disc vector, given as one successor bitmask per vertex
(`support_strongly_connected` takes the support as an edge list).

Abstraction works on one list of (edge, weight, flow) records, None for an
absent attribute.  It repeatedly smooths subdivision vertices: a vertex
with exactly one incoming and one outgoing edge, the two distinct, trades
their two records for one whose weight is the sum of theirs, and the
vertices above it shift down by one.  A bare loop never counts as a
subdivision configuration, so collapsing a directed cycle terminates at one
loop.  One sort of the records fixes the edge order.  `push_cycle` pushes
one unit around an edge and a shortest return path; positive flows and the
synthesized flows of `synth` are built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

from .errors import InputError, InternalCheckError, LimitExceeded, as_int
from .linprog import rat_from_json, rat_to_json

HAMILTONIAN_LIMIT = 8
ISO_VERTEX_LIMIT = 8


# ---------------------------------------------------------------------------
# MDGraph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MDGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    weights: Optional[tuple[int, ...]] = None
    flows: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        for t, h in self.edges:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise InputError(f"edge ({t},{h}) out of range")
        for attr in (self.weights, self.flows):
            if attr is not None and len(attr) != len(self.edges):
                raise InputError("per-edge attribute length does not match edge count")
        if self.flows is not None and any(f < 0 for f in self.flows):
            raise InputError("flow values must be nonnegative")


def mdgraph(vertex_count, edges, weights=None, flows=None) -> MDGraph:
    return MDGraph(as_int(vertex_count),
                   tuple((as_int(t), as_int(h)) for t, h in edges),
                   None if weights is None else tuple(map(as_int, weights)),
                   None if flows is None else tuple(map(as_int, flows)))


def graph_to_json(g: MDGraph) -> dict:
    out = {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}
    if g.weights is not None:
        out["weights"] = list(g.weights)
    if g.flows is not None:
        out["flows"] = list(g.flows)
    return out


def graph_from_json(obj) -> MDGraph:
    try:
        return mdgraph(obj["vertices"], obj["edges"],
                       obj.get("weights"), obj.get("flows"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph JSON: {exc}") from exc


@dataclass(frozen=True)
class Connectivity:
    strong_components: tuple[tuple[int, ...], ...]
    weak_components: tuple[tuple[int, ...], ...]
    strongly_connected: bool
    weakly_connected: bool
    reflexive: bool


def _reach(nbrs: Sequence[int], start: int) -> int:
    """Bitmask of the vertices reachable from the vertex bit `start` along
    nbrs (vertex v -> bitmask of its neighbours, v = 0..len(nbrs)-1)."""
    seen = todo = start
    while todo:
        low = todo & -todo
        todo ^= low
        new = nbrs[low.bit_length() - 1] & ~seen
        seen |= new
        todo |= new
    return seen


def connectivity(g: MDGraph) -> Connectivity:
    """Strong and weak component partitions; reflexive when they coincide.

    The strong component of v is what v reaches forward intersected with
    what it reaches backward, the weak component of v what it reaches
    along edges in either direction; components are sorted.  Three
    searches per vertex: O(n (n + m)).
    """
    n = g.vertex_count
    succ, pred = [0] * n, [0] * n
    for t, h in g.edges:
        succ[t] |= 1 << h
        pred[h] |= 1 << t
    both = [s | p for s, p in zip(succ, pred)]

    def members(mask: int) -> tuple[int, ...]:
        return tuple(v for v in range(n) if mask >> v & 1)

    strong = tuple(sorted({members(_reach(succ, 1 << v) & _reach(pred, 1 << v))
                           for v in range(n)}))
    weak = tuple(sorted({members(_reach(both, 1 << v)) for v in range(n)}))
    return Connectivity(
        strong_components=strong,
        weak_components=weak,
        strongly_connected=len(strong) == 1,
        weakly_connected=len(weak) == 1,
        reflexive=strong == weak,
    )


def support_strongly_connected(edges) -> bool:
    """Strong connectivity of the digraph spanned by the support edges
    (tail, head) of a conserved flow: `masks_strongly_connected` on their
    successor masks."""
    edges = list(edges)
    verts = 0
    for t, h in edges:
        verts |= 1 << t | 1 << h
    succ = [0] * verts.bit_length()
    for t, h in edges:
        succ[t] |= 1 << h
    return masks_strongly_connected(succ)


def masks_strongly_connected(succ: Sequence[int]) -> bool:
    """Strong connectivity of the digraph with an edge from v to each vertex
    of the bitmask succ[v] (v = 0..len(succ)-1), over the vertices its edges
    touch; without edges it is not connected.  The digraph is meant to be
    the support of a conserved flow, and the flow fact that weak
    connectivity suffices there is verified on the way."""
    pred = [0] * len(succ)
    verts = 0
    for t, heads in enumerate(succ):
        if heads:
            verts |= 1 << t | heads
            while heads:
                low = heads & -heads
                pred[low.bit_length() - 1] |= 1 << t
                heads ^= low
    if not verts:
        return False
    start = verts & -verts
    if _reach(succ, start) == verts and _reach(pred, start) == verts:
        return True
    if _reach([s | p for s, p in zip(succ, pred)], start) == verts:
        # a conserved flow's support cannot be weakly but not strongly
        # connected; reaching this line would falsify that fact
        raise InternalCheckError("flow support weakly but not strongly connected")
    return False


def _subdivision_vertex(n: int, edges) -> Optional[tuple[int, int, int]]:
    """Smallest v < n with one in-edge and one out-edge, the two distinct.

    Returns (v, in_edge_index, out_edge_index) or None.
    """
    ins = [[] for _ in range(n)]
    outs = [[] for _ in range(n)]
    for idx, (t, h) in enumerate(edges):
        outs[t].append(idx)
        ins[h].append(idx)
    for v in range(n):
        if len(ins[v]) == 1 and len(outs[v]) == 1 and ins[v][0] != outs[v][0]:
            return v, ins[v][0], outs[v][0]
    return None


def abstract_graph(g: MDGraph) -> MDGraph:
    """The unique abstract representative, with weights summed across merges.

    When flow values are present, merged edges must carry equal flow; a
    mismatch means the input was not the support of a flow and is an error.
    """
    m = len(g.edges)
    weights = g.weights if g.weights is not None else [None] * m
    flows = g.flows if g.flows is not None else [None] * m
    records = list(zip(g.edges, weights, flows))
    n = g.vertex_count
    while True:
        found = _subdivision_vertex(n, [e for e, _w, _f in records])
        if found is None:
            break
        v, ei, eo = found
        (tail, _v), w_in, f_in = records[ei]
        (_v, head), w_out, f_out = records[eo]
        if f_in != f_out:
            raise InputError(
                f"cannot merge edges with unequal flow values "
                f"{f_in} != {f_out} at vertex {v}")
        w = None if w_in is None else w_in + w_out
        records = [r for idx, r in enumerate(records) if idx not in (ei, eo)]
        records.append(((tail, head), w, f_in))
        # no edge meets v any more; the vertices above it shift down by one
        records = [((t - (t > v), h - (h > v)), w, f)
                   for (t, h), w, f in records]
        n -= 1
    records.sort(key=lambda r: (r[0], r[1] or 0, r[2] or 0))
    return MDGraph(
        n,
        tuple(e for e, _w, _f in records),
        None if g.weights is None else tuple(w for _e, w, _f in records),
        None if g.flows is None else tuple(f for _e, _w, f in records))


def is_abstract(g: MDGraph) -> bool:
    return _subdivision_vertex(g.vertex_count, g.edges) is None


def isomorphic(a: MDGraph, b: MDGraph) -> bool:
    """Brute-force isomorphism of MD-graphs, matching weights/flows if both
    carry them.  Desk-scale only."""
    if a.vertex_count != b.vertex_count or len(a.edges) != len(b.edges):
        return False
    if a.vertex_count > ISO_VERTEX_LIMIT:
        raise LimitExceeded(f"isomorphism search limited to {ISO_VERTEX_LIMIT} vertices")
    use_w = a.weights is not None and b.weights is not None
    use_f = a.flows is not None and b.flows is not None

    def multiset(g, perm=None):
        items = []
        for idx, (t, h) in enumerate(g.edges):
            if perm is not None:
                t, h = perm[t], perm[h]
            items.append((t, h,
                          g.weights[idx] if use_w else 0,
                          g.flows[idx] if use_f else 0))
        return sorted(items)

    target = multiset(b)
    for perm in permutations(range(a.vertex_count)):
        if multiset(a, perm) == target:
            return True
    return False


# ---------------------------------------------------------------------------
# Flows on the complete digraph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flow:
    """n x n matrix of nonnegative values; entry (i, j) is flow on edge i->j."""

    n: int
    entries: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise InputError("flow matrix must be n x n")
        for row in self.entries:
            for v in row:
                if v < 0:
                    raise InputError("flow values must be nonnegative")

    def outflow(self, i: int):
        return sum(self.entries[i])

    def inflow(self, j: int):
        return sum(row[j] for row in self.entries)

    def is_conserved(self) -> bool:
        return all(sum(row) == sum(col)
                   for row, col in zip(self.entries, zip(*self.entries)))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def is_integral(self) -> bool:
        return all(
            ((isinstance(v, int) and not isinstance(v, bool))
             or (isinstance(v, Fraction) and v.denominator == 1))
            for row in self.entries for v in row)

    def support_edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(self.n)
                if self.entries[i][j] != 0]

    def support_graph(self) -> MDGraph:
        """Support as an MDGraph on the touched vertices, with flow values.

        Vertices not incident to any nonzero edge are dropped (the support
        digraph is induced by the edges).
        """
        edges = self.support_edges()
        verts = sorted({v for e in edges for v in e})
        remap = {v: i for i, v in enumerate(verts)}
        return MDGraph(len(verts),
                       tuple((remap[t], remap[h]) for t, h in edges),
                       None,
                       tuple(int(self.entries[t][h]) for t, h in edges))

    def scale(self, c) -> "Flow":
        return Flow(self.n, tuple(tuple(v * c for v in row) for row in self.entries))

    def add(self, other: "Flow") -> "Flow":
        if self.n != other.n:
            raise InputError("flow dimensions differ")
        return Flow(self.n, tuple(tuple(a + b for a, b in zip(r1, r2))
                                  for r1, r2 in zip(self.entries, other.entries)))


def flow_from_entries(n, entries) -> Flow:
    f = Flow(n, tuple(tuple(row) for row in entries))
    if not f.is_conserved():
        raise InputError("entries violate conservation")
    return f


def _edge_table(n, edge_values) -> list[list]:
    """((i, j), value) pairs summed into an n x n table; vertex ids that are
    not integers in 0..n-1 are refused."""
    entries = [[0] * n for _ in range(n)]
    for (i, j), v in edge_values:
        i, j = as_int(i), as_int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i},{j}) out of range for {n} vertices")
        entries[i][j] += v
    return entries


def flow_from_edges(n, edge_values) -> Flow:
    """Build a flow from {(i, j): value}; vertex ids and conservation are
    checked."""
    return flow_from_entries(n, _edge_table(n, edge_values.items()))


def zero_flow(n: int) -> Flow:
    return Flow(n, tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def cycle_flow(n: int, vertices: Sequence[int]) -> Flow:
    """Unit flow along the directed cycle visiting `vertices` in order.

    A single vertex gives the loop at that vertex.  A cycle is conserved by
    construction, so conservation is not checked again.
    """
    k = len(vertices)
    if k == 0:
        raise InputError("empty cycle")
    entries = _edge_table(n, (((vertices[idx], vertices[(idx + 1) % k]), 1)
                              for idx in range(k)))
    return Flow(n, tuple(map(tuple, entries)))


def outflow_vector(f: Flow) -> tuple:
    return tuple(f.outflow(i) for i in range(f.n))


def flow_to_json(f: Flow) -> dict:
    def enc(v):
        if isinstance(v, Fraction) and v.denominator != 1:
            return rat_to_json(v)
        return int(v)
    return {"n": f.n, "entries": [[enc(v) for v in row] for row in f.entries]}


def flow_from_json(obj) -> Flow:
    def dec(v):
        return rat_from_json(v) if isinstance(v, dict) else as_int(v)
    try:
        return flow_from_entries(as_int(obj["n"]),
                                 [[dec(v) for v in row] for row in obj["entries"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed flow JSON: {exc}") from exc


def hamiltonian_cycles(vertex_subset: Sequence[int], n: int) -> list[Flow]:
    """All directed Hamiltonian cycles on the subset, as unit flows on the
    complete digraph with n vertices.  (|S|-1)! cycles for |S| >= 2; the
    loop for a singleton."""
    subset = sorted(set(vertex_subset))
    if len(subset) > HAMILTONIAN_LIMIT:
        raise LimitExceeded(
            f"Hamiltonian enumeration limited to {HAMILTONIAN_LIMIT} vertices")
    if not subset:
        raise InputError("empty vertex subset")
    if any(not 0 <= v < n for v in subset):
        raise InputError("vertex out of range")
    first, rest = subset[0], subset[1:]
    return [cycle_flow(n, [first, *perm]) for perm in permutations(rest)]


# ---------------------------------------------------------------------------
# Abstraction of flows, removable edges, positive flows
# ---------------------------------------------------------------------------

def abstract_flow(f: Flow, vertex_weight: Sequence[int]) -> MDGraph:
    """Abstract the support of an integral flow, carrying the induced flow
    and the edge weights inherited from the vertex weights (an edge from a
    to b weighs vertex_weight[a])."""
    if f.is_zero():
        raise InputError("zero flow has no underlying abstract graph")
    if not f.is_integral():
        raise InputError("abstraction requires an integral flow")
    if len(vertex_weight) != f.n:
        raise InputError("vertex weight length must match flow dimension")
    weights = tuple(as_int(vertex_weight[t]) for t, _h in f.support_edges())
    return abstract_graph(replace(f.support_graph(), weights=weights))


def removable_edge(g: MDGraph) -> int:
    """An edge whose removal keeps g strongly connected.

    The existence proof walks an induction over cycle contractions; at desk
    scale an exhaustive scan finds the same witness directly, and the
    postcondition is verified on the way out.
    """
    if not g.edges:
        raise InputError("graph has no edges")
    if not connectivity(g).strongly_connected:
        raise InputError("graph is not strongly connected")
    if not is_abstract(g):
        raise InputError("graph is not abstract")
    for idx in range(len(g.edges)):
        rest = MDGraph(g.vertex_count,
                       tuple(e for i, e in enumerate(g.edges) if i != idx))
        if connectivity(rest).strongly_connected:
            return idx
    raise InternalCheckError(
        "no removable edge found in a connected abstract graph")


def push_cycle(g: MDGraph, vals: list, idx: int) -> None:
    """Add one unit to vals (a list of per-edge values of g) along edge idx
    and a BFS-shortest directed path from its head back to its tail,
    deterministic by edge index order.  The search stops on reaching the
    tail, so the path never runs along edge idx itself."""
    tail, head = g.edges[idx]
    via: dict[int, int] = {}  # vertex -> index of the edge that reached it
    seen = {head}
    frontier = [head]
    while tail not in seen:
        if not frontier:
            raise InternalCheckError(f"edge {idx} has no return path")
        nxt = []
        for v in frontier:
            for e, (t, h) in enumerate(g.edges):
                if t != v or h in seen:
                    continue
                via[h] = e
                seen.add(h)
                nxt.append(h)
        frontier = nxt
    vals[idx] += 1
    v = tail
    while v != head:
        vals[via[v]] += 1
        v = g.edges[via[v]][0]


def positive_flow(g: MDGraph) -> tuple[int, ...]:
    """A strictly positive integral flow on a reflexive graph.

    Edges are visited in index order; any edge still at zero gets one unit
    pushed around a simple cycle through it.  Each value is at most the
    number of edges, well inside the E^M bound.
    """
    conn = connectivity(g)
    if not conn.reflexive:
        raise InputError("graph is not reflexive; it supports no positive flow")
    vals = [0] * len(g.edges)
    for idx in range(len(g.edges)):
        if vals[idx] == 0:
            push_cycle(g, vals, idx)
    # conservation check
    net = [0] * g.vertex_count
    for idx, (t, h) in enumerate(g.edges):
        net[t] += vals[idx]
        net[h] -= vals[idx]
    if any(x != 0 for x in net):
        raise InternalCheckError("constructed flow violates conservation")
    return tuple(vals)
