import random
from fractions import Fraction

import pytest

from sclflow.cones import DISC_N_LIMIT
from sclflow.errors import InputError, InternalCheckError, LimitExceeded
from sclflow.graphs import (
    abstract_flow,
    abstract_graph,
    connectivity,
    cycle_flow,
    flow_from_edges,
    flow_from_json,
    flow_to_json,
    graph_from_json,
    graph_to_json,
    hamiltonian_cycles,
    is_abstract,
    isomorphic,
    masks_strongly_connected,
    mdgraph,
    positive_flow,
    removable_edge,
    support_strongly_connected,
    zero_flow,
)


def test_outflow_two_cycle():
    f = cycle_flow(2, [0, 1])
    assert f.outflow(0) == 1 and f.inflow(0) == 1


def test_vertex_ids_out_of_range_are_refused():
    for vertices in ([0, -1], [0, 3], [3], [0.5, 1], [True, 0]):
        with pytest.raises(InputError):
            cycle_flow(3, vertices)
    with pytest.raises(InputError):
        flow_from_edges(2, {(0, 2): 1, (2, 0): 1})
    with pytest.raises(InputError):
        flow_from_edges(2, {(-1, -1): 1})
    with pytest.raises(InputError):
        flow_from_edges(3, {(0.0, 1): 1, (1, 0): 1})
    assert cycle_flow(3, [2, 0]) == flow_from_edges(3, {(2, 0): 1, (0, 2): 1})


def test_outflow_zero_flow():
    assert zero_flow(3).outflow(1) == 0


def test_outflow_sum_of_hamiltonian_cycles():
    # the two directed triangles: outflow 2 at every vertex
    f = cycle_flow(3, [0, 1, 2]).add(cycle_flow(3, [0, 2, 1]))
    assert all(f.outflow(i) == 2 for i in range(3))


def test_connectivity_single_edge():
    conn = connectivity(mdgraph(2, [(0, 1)]))
    assert conn.weakly_connected
    assert not conn.strongly_connected
    assert not conn.reflexive


def test_connectivity_two_cycle():
    conn = connectivity(mdgraph(2, [(0, 1), (1, 0)]))
    assert conn.strongly_connected and conn.reflexive


def closure_components(n, arcs):
    """Classes of mutual reachability under the reflexive transitive
    closure of arcs, sorted."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for t, h in arcs:
        reach[t][h] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return tuple(sorted({tuple(j for j in range(n) if reach[i][j] and reach[j][i])
                         for i in range(n)}))


def test_connectivity_matches_transitive_closure():
    rng = random.Random(21)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))]
        edges += edges[:rng.randint(0, 2)]  # parallel edges
        cases.append((n, edges))
    # no vertex, isolated vertices, loops, parallel edges
    cases += [(0, []), (1, []), (3, []), (3, [(0, 1)]), (1, [(0, 0)]),
              (3, [(1, 1)]), (3, [(0, 0), (1, 1), (2, 2)]), (2, [(0, 1), (0, 1)]),
              (3, [(0, 1), (0, 1), (1, 0), (2, 2), (2, 2)])]
    for n, edges in cases:
        conn = connectivity(mdgraph(n, edges))
        strong = closure_components(n, edges)
        weak = closure_components(n, edges + [(h, t) for t, h in edges])
        assert conn.strong_components == strong
        assert conn.weak_components == weak
        assert conn.strongly_connected == (len(strong) == 1)
        assert conn.weakly_connected == (len(weak) == 1)
        assert conn.reflexive == (strong == weak)


def test_support_connectivity_checks_the_flow_fact():
    assert support_strongly_connected([(0, 1), (1, 2), (2, 0), (1, 1)])
    assert not support_strongly_connected([(0, 1), (1, 0), (2, 2)])
    assert not support_strongly_connected([])
    assert support_strongly_connected([(0, 3), (3, 0)])  # labels need not be 0..k
    assert support_strongly_connected([(2, 2)])
    assert not support_strongly_connected([(0, 0), (2, 2)])
    # a cycle through the highest vertex a disc may have
    top = DISC_N_LIMIT - 1
    assert support_strongly_connected([(0, top), (top, 5), (5, 0)])
    # weakly but not strongly connected: no conserved flow has this support
    with pytest.raises(InternalCheckError):
        support_strongly_connected([(0, 1), (1, 0), (1, 2)])


def successor_masks(n, edges):
    succ = [0] * n
    for t, h in edges:
        succ[t] |= 1 << h
    return succ


@pytest.mark.parametrize("n,edges,connected", [
    (3, [(0, 1), (1, 2), (2, 0), (1, 1)], True),
    (3, [(0, 1), (1, 0), (2, 2)], False),
    (0, [], False),
    (3, [], False),
    (4, [(0, 3), (3, 0)], True),
    (3, [(2, 2)], True),
    (3, [(0, 0), (2, 2)], False),
    (DISC_N_LIMIT, [(0, DISC_N_LIMIT - 1), (DISC_N_LIMIT - 1, 5), (5, 0)], True),
])
def test_mask_connectivity_agrees_with_the_edge_list_test(n, edges, connected):
    assert masks_strongly_connected(successor_masks(n, edges)) is connected
    assert support_strongly_connected(edges) is connected


def test_mask_connectivity_checks_the_flow_fact():
    # weakly but not strongly connected: no conserved flow has this support
    with pytest.raises(InternalCheckError):
        masks_strongly_connected(successor_masks(3, [(0, 1), (1, 0), (1, 2)]))


def test_flow_supports_are_reflexive():
    # conservation forces every weak component strongly connected
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 4)
        f = zero_flow(n)
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, n)
            verts = rng.sample(range(n), size)
            f = f.add(cycle_flow(n, verts))
        if f.is_zero():
            continue
        assert connectivity(f.support_graph()).reflexive


def test_abstract_path_merges_to_edge():
    g = mdgraph(3, [(0, 1), (1, 2)], flows=[1, 1])
    a = abstract_graph(g)
    assert a.vertex_count == 2
    assert a.edges == ((0, 1),)
    assert a.flows == (1,)


def test_abstract_four_cycle_collapses_to_loop():
    g = mdgraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], flows=[1, 1, 1, 1])
    a = abstract_graph(g)
    assert a.vertex_count == 1
    assert a.edges == ((0, 0),)


def test_abstract_two_vertex_subdivided_edge():
    # one subdivided edge beside a direct back edge
    g = mdgraph(3, [(0, 2), (2, 1), (1, 0)])
    a = abstract_graph(g)
    assert a.vertex_count in (1, 2)
    assert is_abstract(a)


def test_abstract_idempotent():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 6))]
        g = mdgraph(n, edges)
        a = abstract_graph(g)
        assert abstract_graph(a) == a
        assert is_abstract(a)


def test_abstract_preserves_weak_component_count():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 6)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 7))]
        g = mdgraph(n, edges)
        before = connectivity(g)
        after = connectivity(abstract_graph(g))
        # isolated vertices are their own weak components and never merge
        assert len(after.weak_components) == len(before.weak_components)
        assert after.reflexive == before.reflexive


def test_abstract_rejects_unequal_flows_on_chain():
    g = mdgraph(3, [(0, 1), (1, 2)], flows=[1, 2])
    with pytest.raises(InputError, match="unequal flow"):
        abstract_graph(g)


def test_abstract_flow_cancelling_weights():
    f = cycle_flow(2, [0, 1])
    a = abstract_flow(f, [1, -1])
    assert a.vertex_count == 1
    assert a.edges == ((0, 0),)
    assert a.weights == (0,)
    assert a.flows == (1,)


@pytest.mark.parametrize("weights", [[1.5, -1], ["7", -1]])
def test_abstract_flow_refuses_non_integer_weights(weights):
    with pytest.raises(InputError, match="expected an integer"):
        abstract_flow(cycle_flow(2, [0, 1]), weights)


def test_abstract_flow_triangle_weights():
    f = cycle_flow(3, [0, 1, 2])
    a = abstract_flow(f, [2, -1, -1])
    assert a.edges == ((0, 0),)
    assert a.weights == (0,)


def test_abstract_flow_weight_total_is_conserved():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(2, 5)
        f = zero_flow(n)
        for _ in range(rng.randint(1, 3)):
            f = f.add(cycle_flow(n, rng.sample(range(n), rng.randint(1, n))))
        weights = [rng.randint(-2, 2) for _ in range(n)]
        total = sum(f.entries[i][j] * weights[i]
                    for i in range(n) for j in range(n))
        a = abstract_flow(f, weights)
        assert sum(fv * wv for fv, wv in zip(a.flows, a.weights)) == total


def test_removable_edge_loop_pair():
    g = mdgraph(1, [(0, 0), (0, 0)])
    assert removable_edge(g) in (0, 1)


def test_removable_edge_parallel():
    g = mdgraph(2, [(0, 1), (0, 1), (1, 0)])
    idx = removable_edge(g)
    assert idx in (0, 1)


def test_removable_edge_exhaustive_corpus():
    # all strongly connected abstract graphs with <= 5 edges on <= 3 vertices
    rng = random.Random(21)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 5))]
        g = mdgraph(n, edges)
        if not connectivity(g).strongly_connected or not is_abstract(g):
            continue
        found += 1
        idx = removable_edge(g)
        rest = mdgraph(n, [e for i, e in enumerate(edges) if i != idx])
        assert connectivity(rest).strongly_connected
    assert found > 20


def test_positive_flow_loop():
    assert positive_flow(mdgraph(1, [(0, 0)])) == (1,)


def test_positive_flow_two_cycle():
    assert positive_flow(mdgraph(2, [(0, 1), (1, 0)])) == (1, 1)


def test_positive_flow_parallel_edges():
    assert positive_flow(mdgraph(2, [(0, 1), (0, 1), (1, 0)])) == (1, 1, 2)


def test_positive_flow_requires_reflexive():
    with pytest.raises(InputError):
        positive_flow(mdgraph(2, [(0, 1)]))


def test_positive_flow_bound_and_conservation():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 4)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 6))]
        g = mdgraph(n, edges)
        if not connectivity(g).reflexive:
            continue
        vals = positive_flow(g)
        assert all(v >= 1 for v in vals)
        assert all(v <= len(edges) ** n for v in vals)
        net = [0] * n
        for (t, h), v in zip(edges, vals):
            net[t] += v
            net[h] -= v
        assert all(x == 0 for x in net)


def test_hamiltonian_cycle_counts():
    assert len(hamiltonian_cycles([0, 1], 2)) == 1
    assert len(hamiltonian_cycles([0, 1, 2], 3)) == 2
    assert len(hamiltonian_cycles([0, 1, 2, 3], 4)) == 6
    assert hamiltonian_cycles([2], 4) == [cycle_flow(4, [2])]  # the loop


def test_hamiltonian_limit():
    with pytest.raises(LimitExceeded):
        hamiltonian_cycles(list(range(9)), 9)


def test_isomorphic_respects_attributes():
    a = mdgraph(2, [(0, 1), (1, 0)], weights=[3, -3])
    b = mdgraph(2, [(0, 1), (1, 0)], weights=[-3, 3])
    c = mdgraph(2, [(0, 1), (1, 0)], weights=[3, 3])
    assert isomorphic(a, b)
    assert not isomorphic(a, c)


def test_flow_json_round_trip():
    f = cycle_flow(3, [0, 1, 2]).scale(2)
    assert flow_from_json(flow_to_json(f)) == f


def test_non_integer_graph_and_flow_values_are_refused():
    with pytest.raises(InputError, match="integer"):
        mdgraph(1.9, [(0, 0.7)])
    with pytest.raises(InputError, match="integer"):
        graph_from_json({"vertices": 1, "edges": [[0, 0]], "flows": [1.5]})
    with pytest.raises(InputError, match="integer"):
        flow_from_json({"n": 2, "entries": [[0, 1.9], [1.2, 0]]})
    half = {"num": "1", "den": "2"}  # the JSON form of a rational entry
    f = flow_from_json({"n": 2, "entries": [[0, half], [half, 0]]})
    assert f.entries == ((0, Fraction(1, 2)), (Fraction(1, 2), 0))


def test_graph_json_round_trip():
    g = mdgraph(2, [(0, 1), (1, 0)], weights=[5, -5], flows=[1, 1])
    assert graph_from_json(graph_to_json(g)) == g
