import random

import pytest

from sclflow.errors import InputError, LimitExceeded
from sclflow.graphs import (
    abstract_flow,
    abstract_graph,
    connectivity,
    isomorphic,
    mdgraph,
)
from sclflow.synth import (
    SYNTH_VERTEX_LIMIT,
    lemma_numbers,
    minimal_vertex_weight,
    step1_flow,
    step2_weights,
    step3_concretize,
    synthesize_extremal,
)

LOOP = mdgraph(1, [(0, 0)])
BOUQUET = mdgraph(1, [(0, 0), (0, 0)])
PARALLEL = mdgraph(2, [(0, 1), (0, 1), (1, 0)])


def test_step1_loop():
    vals, e_star = step1_flow(LOOP)
    assert vals == (1,) and e_star == 0


def test_step1_parallel():
    vals, e_star = step1_flow(PARALLEL)
    assert vals[e_star] == 1
    assert all(v >= 1 for v in vals)
    assert sorted(vals) == [1, 1, 2]


def test_step1_flow_bound_on_random_graphs():
    rng = random.Random(31)
    tried = 0
    from sclflow.graphs import is_abstract

    while tried < 40:
        n = rng.randint(1, 3)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 5))]
        g = mdgraph(n, edges)
        if not connectivity(g).strongly_connected or not is_abstract(g):
            continue
        tried += 1
        vals, e_star = step1_flow(g)
        assert vals[e_star] == 1
        assert all(1 <= v <= len(edges) ** n for v in vals)


def test_lemma_numbers_values():
    assert lemma_numbers((1,)) == (5,)
    assert lemma_numbers((1, 2)) == (65, 68)
    assert lemma_numbers(()) == ()


def test_lemma_numbers_uniqueness_brute_force():
    for fv in ((1,), (1, 2), (2, 1), (0, 3), (1, 1, 1)):
        ws = lemma_numbers(fv)
        target = sum(f * w for f, w in zip(fv, ws))
        k = len(fv)
        # enumerate all nonnegative vectors with the same weighted sum
        sols = []

        def rec(idx, left, acc):
            if idx == k:
                if left == 0:
                    sols.append(tuple(acc))
                return
            w = ws[idx]
            top = left // w
            for v in range(top + 1):
                rec(idx + 1, left - v * w, acc + [v])

        rec(0, target, [])
        assert sols == [tuple(fv)]


def test_lemma_numbers_bound():
    for fv in ((1,), (1, 2), (3, 3, 3)):
        ws = lemma_numbers(fv)
        m_total = sum(fv)
        assert all(w < 2 * (m_total + 1) ** (len(fv) + 1) for w in ws)


def test_step2_weights_parallel():
    vals, e_star = step1_flow(PARALLEL)
    weights = step2_weights(PARALLEL, vals, e_star)
    others = [i for i in range(3) if i != e_star]
    assert all(weights[i] > 0 for i in others)
    assert weights[e_star] == -sum(vals[i] * weights[i] for i in others)


def test_step2_weights_loop_degenerate():
    vals, e_star = step1_flow(LOOP)
    weights = step2_weights(LOOP, vals, e_star)
    assert weights == (0,)


def test_step3_loop_realization():
    g, paths = step3_concretize(LOOP, (1,), (0,), (1, -1))
    assert g.entries[0][1] == 1 and g.entries[1][0] == 1
    assert len(paths) == 1


def test_step3_budget_error():
    with pytest.raises(InputError, match="budget"):
        step3_concretize(BOUQUET, (1, 1), (5, -5), (1, -1))


def test_step3_abstraction_round_trip():
    vals, e_star = step1_flow(BOUQUET)
    weights = step2_weights(BOUQUET, vals, e_star)
    x = minimal_vertex_weight(BOUQUET, weights)
    flow, _paths = step3_concretize(BOUQUET, vals, weights, x)
    target = mdgraph(1, [(0, 0), (0, 0)], weights=list(weights),
                     flows=list(vals))
    assert isomorphic(abstract_flow(flow, x), target)


def test_minimal_vertex_weight_refuses_more_than_the_vertex_limit():
    # the largest 3-edge abstract graph needs 408 vertices, four loops at
    # one vertex 1586; the refusal comes before anything is allocated
    vals, e_star = step1_flow(PARALLEL)
    assert len(minimal_vertex_weight(
        PARALLEL, step2_weights(PARALLEL, vals, e_star))) == 408
    loops = mdgraph(1, [(0, 0)] * 4)
    vals, e_star = step1_flow(loops)
    weights = step2_weights(loops, vals, e_star)
    with pytest.raises(LimitExceeded, match=f"{SYNTH_VERTEX_LIMIT} vertices"):
        minimal_vertex_weight(loops, weights)
    with pytest.raises(LimitExceeded):
        synthesize_extremal(mdgraph(2, [(0, 1), (1, 0), (0, 0), (1, 1)]))


def test_synthesize_loop():
    result = synthesize_extremal(LOOP)
    assert result.checks["extremal"]
    assert len(result.vertex_weight) == 2


def test_synthesize_two_cycle_canonicalizes():
    two_cycle = mdgraph(2, [(0, 1), (1, 0)])
    result = synthesize_extremal(two_cycle)
    assert result.canonical_graph.vertex_count == 1
    assert isomorphic(abstract_graph(two_cycle), result.canonical_graph)
    assert result.checks["extremal"]


def test_synthesize_parallel_full_checks():
    result = synthesize_extremal(PARALLEL)
    assert all(v for v in result.checks.values() if isinstance(v, bool))
    assert sorted(result.f_vals) == [1, 1, 2]
    assert sorted(result.weights) == [-201, 65, 68]
    data = result.to_json()
    assert data["checks"]["extremal"]


def test_synthesize_rejects_disconnected():
    with pytest.raises(InputError):
        synthesize_extremal(mdgraph(2, [(0, 0)]))
    with pytest.raises(InputError):
        synthesize_extremal(mdgraph(1, []))
