"""Abstraction on edge records and the shared cycle push against the
parallel-list reference in `reference_abstraction`."""

import random

import reference_abstraction as ref

from sclflow.errors import InputError
from sclflow.graphs import abstract_graph, connectivity, mdgraph, positive_flow
from sclflow.synth import step1_flow


def outcome(fn, g):
    """fn(g), or the message of the InputError it raises."""
    try:
        return fn(g)
    except InputError as exc:
        return f"InputError: {exc}"


def random_multigraph(rng, with_weights, with_flows):
    n = rng.randint(1, 6)
    if rng.random() < 0.5:
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 8))]
    else:
        # a directed cycle through every vertex and a few chords: chains of
        # subdivision vertices to merge
        order = rng.sample(range(n), n)
        edges = [(order[k], order[(k + 1) % n]) for k in range(n)]
        edges += [(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(0, 8 - n))]
        rng.shuffle(edges)
    m = len(edges)
    weights = [rng.randint(-3, 3) for _ in range(m)] if with_weights else None
    flows = None
    if with_flows:
        # one common value merges every chain; independent values also
        # give chains whose two edges carry unequal flow
        if rng.random() < 0.3:
            flows = [rng.randint(0, 3)] * m
        else:
            flows = [rng.randint(0, 2) for _ in range(m)]
    return mdgraph(n, edges, weights, flows)


def test_abstract_graph_matches_reference():
    rng = random.Random(1501)
    kinds = {"kept": 0, "merged": 0, "InputError": 0}
    for trial in range(2400):
        g = random_multigraph(rng, trial % 2 == 1, trial % 4 >= 2)
        got, want = outcome(abstract_graph, g), outcome(ref.abstract_graph, g)
        if isinstance(want, str):
            kinds["InputError"] += 1
            assert got == want, g
            continue
        kinds["merged" if want.vertex_count < g.vertex_count else "kept"] += 1
        assert ((got.vertex_count, got.edges, got.weights, got.flows) ==
                (want.vertex_count, want.edges, want.weights, want.flows)), g
    # every branch is exercised in earnest
    assert min(kinds.values()) > 200, kinds


def test_positive_flow_and_step1_flow_match_reference():
    rng = random.Random(1502)
    checked = 0
    while checked < 400:
        n = rng.randint(1, 5)
        g = mdgraph(n, [(rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randint(1, 8))])
        assert outcome(positive_flow, g) == outcome(ref.positive_flow, g), g
        if not connectivity(g).strongly_connected:
            continue
        checked += 1
        canon = abstract_graph(g)
        assert positive_flow(canon) == ref.positive_flow(canon), g
        assert step1_flow(canon) == ref.step1_flow(canon), canon
