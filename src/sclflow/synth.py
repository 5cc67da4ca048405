"""Turning an abstract multi-digraph into a certified extremal point.

Pipeline: (1) a strictly positive flow on the graph with a distinguished
edge carrying exactly one unit; (2) edge weights whose number-theoretic
uniqueness forces any decomposition of the flow to reproduce it; (3) a
concrete flow on a large complete digraph, one simple path per edge
through fresh intermediate vertices, whose abstraction returns the
weighted flowed graph exactly.  Each step carries a bounded certificate
that is re-verified rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cones import (
    cone_spec,
    is_disc_vector,
    is_extremal,
    iter_bounded_flows,
    iter_cone_members,
)
from .errors import InputError, InternalCheckError, LimitExceeded, as_int
from .graphs import (
    Flow,
    MDGraph,
    abstract_flow,
    abstract_graph,
    connectivity,
    flow_from_edges,
    flow_to_json,
    graph_to_json,
    isomorphic,
    positive_flow,
    push_cycle,
    removable_edge,
)

STEP2_CHECK_FACTOR = 3  # step 2 brute-forces flows up to this multiple of f
EXTREMAL_N_MAX = 3  # synthesized points are checked extremal up to this N
# step 3's complete digraph: 408 vertices for the largest 3-edge abstract
# graph, 1586 for the smallest 4-edge one
SYNTH_VERTEX_LIMIT = 500
# input graphs are abstracted by merging one subdivision vertex at a time,
# quadratic in the edges: a directed cycle of 2000 edges took 11.5 s
SYNTH_EDGE_LIMIT = 100


def step1_flow(g: MDGraph) -> tuple[tuple[int, ...], int]:
    """A positive integral flow with a distinguished edge of value one.

    The distinguished edge is removable; the rest of the graph gets a
    positive flow, and one simple cycle through the distinguished edge
    lifts it to value exactly one.
    """
    if not g.edges:
        raise InputError("graph has no edges")
    e_star = removable_edge(g)
    rest = MDGraph(g.vertex_count,
                   tuple(e for i, e in enumerate(g.edges) if i != e_star))
    vals = list(positive_flow(rest)) if rest.edges else []
    vals.insert(e_star, 0)
    push_cycle(g, vals, e_star)
    ecount = len(g.edges)
    bound = ecount ** g.vertex_count
    if vals[e_star] != 1 or any(v < 1 or v > bound for v in vals):
        raise InternalCheckError("step 1 flow violates its bounds")
    return tuple(vals), e_star


def lemma_numbers(f_values: Sequence[int]) -> tuple[int, ...]:
    """Weights w_j = (M+1)^{k+1} + (M+1)^{j-1} for M the total of the given
    values: the only nonnegative integer vector whose weighted sum matches
    that of f_values is f_values itself."""
    fv = [as_int(v) for v in f_values]
    if any(v < 0 for v in fv):
        raise InputError("values must be nonnegative")
    k = len(fv)
    if k == 0:
        return ()
    m_total = sum(fv)
    base = (m_total + 1) ** (k + 1)
    return tuple(base + (m_total + 1) ** j for j in range(k))


def step2_weights(g: MDGraph, f_vals: Sequence[int], e_star: int) -> tuple[int, ...]:
    """Integer edge weights: uniqueness numbers away from the distinguished
    edge, and the balancing negative value on it.

    The extremality of the flow in the zero-weight polyhedron is verified
    by brute force over nonzero integral flows up to STEP2_CHECK_FACTOR * f: all
    carry at least one unit on the distinguished edge, and value one there
    forces the whole flow.
    """
    fv = [as_int(v) for v in f_vals]
    others = [i for i in range(len(g.edges)) if i != e_star]
    ws = lemma_numbers([fv[i] for i in others])
    weights = [0] * len(g.edges)
    for idx, w in zip(others, ws):
        weights[idx] = w
    weights[e_star] = -sum(fv[i] * w for i, w in zip(others, ws))
    ecount = len(g.edges)
    wbound = 2 * ecount ** ((g.vertex_count + 1) * (ecount + 1))
    if any(abs(w) >= wbound for w in weights):
        raise InternalCheckError("step 2 weights violate their bound")

    caps = [v * STEP2_CHECK_FACTOR for v in fv]
    for vals in iter_bounded_flows(list(g.edges), caps):
        if not any(vals):
            continue
        if sum(v * w for v, w in zip(vals, weights)) != 0:
            continue
        if vals[e_star] < 1:
            raise InternalCheckError(
                "a balanced flow avoids the distinguished edge; the weight "
                "construction is broken")
        if vals[e_star] == 1 and list(vals) != fv:
            raise InternalCheckError(
                "a balanced flow with unit distinguished value differs from "
                "the constructed flow; uniqueness failed")
    return tuple(weights)


@dataclass(frozen=True)
class SynthesisResult:
    graph: MDGraph
    canonical_graph: MDGraph  # abstraction actually synthesized for
    f_vals: tuple[int, ...]
    e_star: int
    weights: tuple[int, ...]
    vertex_weight: tuple[int, ...]
    flow: Flow
    checks: dict

    def to_json(self) -> dict:
        return {
            "graph": graph_to_json(self.graph),
            "canonical_graph": graph_to_json(self.canonical_graph),
            "flow_on_graph": list(self.f_vals),
            "distinguished_edge": self.e_star,
            "edge_weights": list(self.weights),
            "vertex_weight": list(self.vertex_weight),
            "flow": flow_to_json(self.flow),
            "checks": dict(self.checks),
        }


def _vertex_budget(g: MDGraph, weights: Sequence[int]) -> tuple[int, int]:
    plus = g.vertex_count + sum(w for w in weights if w > 0)
    minus = 0
    for w in weights:
        minus += (-w) + 1 if w < 0 else 1
    return plus, minus


def step3_concretize(g: MDGraph, f_vals: Sequence[int], weights: Sequence[int],
                     vertex_weight: Sequence[int]) -> tuple[Flow, list]:
    """Flow on the complete digraph realizing (g, f, w) as its abstraction.

    Graph vertex i becomes the i-th +1 vertex.  An edge of weight s becomes
    a fresh simple path: one -1 stop then s +1 stops for s > 0, a single -1
    stop for s = 0, and |s| + 1 consecutive -1 stops for s < 0; the path
    weight telescopes to s and carries the edge's flow value.

    Returns the flow and, per graph edge, the list of complete digraph
    edges realizing it.
    """
    f_vals = [as_int(v) for v in f_vals]
    weights = [as_int(w) for w in weights]
    n = len(vertex_weight)
    plus_pool = [i for i, w in enumerate(vertex_weight) if w == 1]
    minus_pool = [i for i, w in enumerate(vertex_weight) if w == -1]
    if len(plus_pool) + len(minus_pool) != n:
        raise InputError("vertex weight must consist of +1 and -1 entries")
    need_plus, need_minus = _vertex_budget(g, weights)
    if len(plus_pool) < need_plus or len(minus_pool) < need_minus:
        raise InputError(
            f"vertex budget insufficient: need {need_plus} entries +1 and "
            f"{need_minus} entries -1, have {len(plus_pool)} and {len(minus_pool)}")
    spots = {v: plus_pool[v] for v in range(g.vertex_count)}
    next_plus = g.vertex_count
    next_minus = 0
    edge_values: dict[tuple[int, int], int] = {}
    paths: list[list[tuple[int, int]]] = []

    def emit(a, b, amount):
        edge_values[(a, b)] = edge_values.get((a, b), 0) + amount

    for idx, (t, h) in enumerate(g.edges):
        s = weights[idx]
        amount = f_vals[idx]
        p, q = spots[t], spots[h]
        path = [p]
        if s >= 0:
            r1 = minus_pool[next_minus]
            next_minus += 1
            path.append(r1)
            lefts = [plus_pool[next_plus + i] for i in range(s)]
            next_plus += s
            path.extend(reversed(lefts))  # l_s ... l_1
        else:
            rs = [minus_pool[next_minus + i] for i in range(-s + 1)]
            next_minus += -s + 1
            path.extend(rs)
        path.append(q)
        steps = list(zip(path, path[1:]))
        paths.append(steps)
        for a, b in steps:
            emit(a, b, amount)
    flow = flow_from_edges(n, edge_values)
    return flow, paths


def minimal_vertex_weight(g: MDGraph, weights: Sequence[int]) -> tuple[int, ...]:
    """Smallest balanced +-1 vertex weight with enough room for step 3.

    Balance (equally many entries of each sign) keeps the weight a valid
    single-row exponent matrix, i.e. the word stays in the commutator
    subgroup; only the totals matter for the construction.  More than
    SYNTH_VERTEX_LIMIT vertices are refused.
    """
    plus, minus = _vertex_budget(g, weights)
    half = max(plus, minus)
    if 2 * half > SYNTH_VERTEX_LIMIT:
        raise LimitExceeded(
            f"synthesis limited to {SYNTH_VERTEX_LIMIT} vertices, this graph "
            f"needs {2 * half}")
    return tuple([1] * half + [-1] * half)


def synthesize_extremal(g: MDGraph) -> SynthesisResult:
    """Full pipeline from a connected graph to a certified extremal point.

    The input is canonicalized to its abstract representative first (a
    directed cycle, for instance, stands for the loop).  Verification
    covers: the step-2 uniqueness certificate, agreement of the abstraction
    with (g, f, w) including flows and weights, the bounded extremality
    check against the ambient cone, and the disc-vector facts that make the
    point extremal for the scl polyhedron as well.  More than
    SYNTH_EDGE_LIMIT input edges are refused.
    """
    if not g.edges:
        raise InputError("graph has no edges")
    # on n >= 2 vertices strong connectivity takes n edges at least; the
    # component search is quadratic in n, so this answers before it
    if g.vertex_count > 1 and len(g.edges) < g.vertex_count:
        raise InputError("graph is not strongly connected")
    if len(g.edges) > SYNTH_EDGE_LIMIT:
        raise LimitExceeded(f"synthesis limited to {SYNTH_EDGE_LIMIT} edges")
    if not connectivity(g).strongly_connected:
        raise InputError("graph is not strongly connected")
    canon = abstract_graph(MDGraph(g.vertex_count, g.edges))
    f_vals, e_star = step1_flow(canon)
    weights = step2_weights(canon, f_vals, e_star)
    x = minimal_vertex_weight(canon, weights)
    flow, paths = step3_concretize(canon, f_vals, weights, x)

    checks: dict = {}
    ecount = len(canon.edges)
    mcount = canon.vertex_count
    checks["flow_bound"] = all(v <= ecount ** mcount for v in f_vals)
    checks["weight_bound"] = all(
        abs(w) < 2 * ecount ** ((mcount + 1) * (ecount + 1)) for w in weights)

    target = MDGraph(canon.vertex_count, canon.edges, tuple(weights),
                     tuple(int(v) for v in f_vals))
    abstracted = abstract_flow(flow, x)
    checks["abstraction_matches"] = isomorphic(abstracted, target)

    spec = cone_spec(len(x), [list(x)])
    checks["disc_vector"] = is_disc_vector(spec, flow)

    # every integral cone member supported inside the flow is constant
    # along each realizing path, and its abstraction balances the step-2
    # weights; verified on the bounded window of the extremality check
    support = flow.support_edges()
    caps = [3 * int(flow.entries[t][h]) for t, h in support]
    pos_of = {e: k for k, e in enumerate(support)}
    ok_b = True
    for vals in iter_cone_members(spec, support, caps):
        phi = []
        constant = True
        for steps in paths:
            along = {vals[pos_of[e]] for e in steps}
            if len(along) != 1:
                constant = False
                break
            phi.append(along.pop())
        if not constant or sum(p * w for p, w in zip(phi, weights)) != 0:
            ok_b = False
            break
    checks["weight_conservation_window"] = ok_b

    report = is_extremal(spec, flow, n_max=EXTREMAL_N_MAX)
    checks["extremal_up_to"] = report.extremal_up_to
    checks["extremal"] = report.is_extremal
    checks["scl_polyhedron_containment"] = (
        "extremal for the convex hull of nonzero integral cone members, "
        "hence for the disc-vector polyhedron it contains")

    if not all(v for k, v in checks.items()
               if isinstance(v, bool)):
        raise InternalCheckError(f"synthesis verification failed: {checks}")
    return SynthesisResult(graph=g, canonical_graph=canon,
                           f_vals=tuple(int(v) for v in f_vals), e_star=e_star,
                           weights=tuple(weights), vertex_weight=x, flow=flow,
                           checks=checks)
