import random
import sys
from fractions import Fraction
from itertools import product

import pytest
import reference_flows

from sclflow import cones
from sclflow.cones import (
    DISC_BOUND_LIMIT,
    FLOW_EDGE_LIMIT,
    cone_spec,
    disc_pricer,
    enumerate_disc_vectors,
    extremal_rays,
    in_cone,
    is_disc_vector,
    is_essential,
    is_extremal,
    iter_bounded_flows,
    iter_cone_members,
    lp_columns,
    weight_vector,
)
from sclflow.errors import InputError, LimitExceeded
from sclflow.graphs import (
    Flow,
    abstract_graph,
    cycle_flow,
    flow_from_edges,
    isomorphic,
    mdgraph,
    support_strongly_connected,
    zero_flow,
)
from sclflow.linprog import make_lp, solve_lp


SPEC2 = cone_spec(2, [[1, -1]])
SPEC3 = cone_spec(3, [[1, -1, 0], [1, 0, -1]])


def loop_flow(n, v):
    return cycle_flow(n, [v])


def test_weight_vector_examples():
    assert weight_vector(SPEC2, cycle_flow(2, [0, 1])) == (0,)
    spec = cone_spec(3, [[2, -1, -1]])
    assert weight_vector(spec, cycle_flow(3, [0, 1, 2])) == (0,)
    assert weight_vector(SPEC2, loop_flow(2, 0)) == (1,)


def test_cone_rows_must_be_integers():
    # the ExponentMatrix constructor's refusals are tested with the words
    assert cone_spec(2, [[Fraction(1), Fraction(-1)]]) == SPEC2
    for row in ((Fraction(1, 2), Fraction(-1, 2)), (1.0, -1.0), (True, -1)):
        with pytest.raises(InputError, match="integer"):
            cone_spec(2, [row])


def test_in_cone_examples():
    assert in_cone(SPEC2, cycle_flow(2, [0, 1]))
    assert in_cone(cone_spec(3, [[2, -1, -1]]), cycle_flow(3, [0, 1, 2]))
    assert not in_cone(SPEC2, loop_flow(2, 0))


def test_disc_enumeration_bound_one():
    discs = enumerate_disc_vectors(SPEC2, 1)
    assert [d.entries for d in discs] == [((0, 1), (1, 0))]


def test_disc_enumeration_bound_two():
    entries = {d.entries for d in enumerate_disc_vectors(SPEC2, 2)}
    assert ((0, 2), (2, 0)) in entries       # twice the two-cycle
    assert ((1, 1), (1, 1)) in entries       # two-cycle plus both loops
    assert ((1, 0), (0, 1)) not in entries   # loop pair: support not connected


def test_disc_enumeration_hamiltonian_cones():
    discs = enumerate_disc_vectors(SPEC3, 1)
    assert len(discs) == 2
    assert all(all(d.outflow(i) == 1 for i in range(3)) for d in discs)


def test_disc_enumeration_monotone_in_bound():
    rng = random.Random(8)
    for rows in ([[1, -1]], [[2, -1, -1]], [[1, 1, -2]], [[1, -1, 0], [1, 0, -1]]):
        spec = cone_spec(len(rows[0]), rows)
        small = set(d.entries for d in enumerate_disc_vectors(spec, 1))
        large = set(d.entries for d in enumerate_disc_vectors(spec, 2))
        assert small <= large


def test_disc_enumeration_limits():
    with pytest.raises(LimitExceeded):
        enumerate_disc_vectors(SPEC2, 7)


def test_every_disc_passes_membership():
    for rows in ([[2, -1, -1]], [[1, 1, -2]], [[1, -1, 2, -2]]):
        spec = cone_spec(len(rows[0]), rows)
        for d in enumerate_disc_vectors(spec, 2):
            assert is_disc_vector(spec, d)


def test_lp_columns_preserve_klein_values():
    # dropping dominated disc vectors must not change any packing optimum
    from sclflow.engine import klein_value

    spec = cone_spec(3, [[1, 1, -2]])
    full = enumerate_disc_vectors(spec, 2)
    cols = lp_columns(spec, 2)
    assert set(cols) <= set(full)
    rng = random.Random(5)
    for _ in range(10):
        v = zero_flow(3)
        for _ in range(rng.randint(1, 3)):
            d = full[rng.randrange(len(full))]
            v = v.add(d)
        kv = klein_value(spec, v, 2)
        # oracle: the LP over the unfiltered column set
        n = 3
        ineq = []
        for i in range(n):
            for j in range(n):
                row = [Fraction(int(d.entries[i][j])) for d in full]
                ineq.append((row, Fraction(v.entries[i][j])))
        res = solve_lp(make_lp([1] * len(full), ineq=ineq))
        assert res.value == kv


def brute_minimal(discs):
    """The <=-minimal discs, each compared with every disc: bit k of
    at_most[pos][v] says that disc k has entry pos at most v, so the AND
    over d's entries is the set of discs below d."""
    flat = [tuple(v for row in d.entries for v in row) for d in discs]
    top = max(max(f) for f in flat)
    at_most = [[sum(1 << k for k, f in enumerate(flat) if f[pos] <= v)
                for v in range(top + 1)] for pos in range(len(flat[0]))]
    minimal = []
    for k, f in enumerate(flat):
        below = (1 << len(flat)) - 1
        for pos, v in enumerate(f):
            below &= at_most[pos][v]
        if below == 1 << k:
            minimal.append(discs[k])
    return sorted(minimal, key=lambda d: d.entries)


@pytest.mark.parametrize("n,rows,bound", [
    (4, [[-3, 1, 1, 1]], 3),  # the (1,1,1) sweep word's a-side
    (4, [[-1, 1, -1, 1]], 3),  # the sweep's b-side
    (4, [[2, -1, 1, -2], [1, 1, 0, -2]], 2),
])
def test_lp_columns_are_the_minimal_discs(n, rows, bound):
    spec = cone_spec(n, rows)
    discs = enumerate_disc_vectors(spec, bound)
    assert list(lp_columns(spec, bound)) == brute_minimal(discs)


def test_lp_columns_random_cone_are_the_essential_discs():
    rng = random.Random(11)
    row = [0]
    while 0 in row:
        row = [rng.randint(-3, 3) for _ in range(3)]
        row.append(-sum(row))
    spec = cone_spec(4, [row])
    discs = enumerate_disc_vectors(spec, 2)
    cols = lp_columns(spec, 2)
    assert list(cols) == brute_minimal(discs)
    assert [d for d in discs if is_essential(spec, d)] == \
        sorted(cols, key=discs.index)
    assert len(cols) < len(discs)


@pytest.mark.parametrize("n,rows,bound", [
    (4, [[-3, 1, 1, 1]], 3),  # the (1,1,1) sweep word's a-side
    (4, [[-1, 1, -1, 1]], 3),  # the sweep's b-side
    (4, [[2, -1, 1, -2], [1, 1, 0, -2]], 2),
])
def test_priced_discs_are_the_discs_below_the_budget(n, rows, bound):
    # cutting tables by their running cost keeps exactly the discs whose
    # full cost is below the budget, in the order of the full list
    spec = cone_spec(n, rows)
    discs = enumerate_disc_vectors(spec, bound)
    price = disc_pricer(spec, bound)
    rng = random.Random(31)
    for _ in range(8):
        costs = [[rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
                 for _ in range(n)]
        budget = rng.randint(1, 12)

        def cost(d):
            return sum(c * v for crow, drow in zip(costs, d.entries)
                       for c, v in zip(crow, drow))

        assert list(price(costs, budget)) == [d for d in discs if cost(d) < budget]
    assert list(price()) == list(discs)
    with pytest.raises(LimitExceeded):
        disc_pricer(spec, 7)  # refused when called, not when first read


@pytest.mark.parametrize("costs,budget", [
    ([[0, -1, 0], [0, 0, 0], [0, 0, 0]], 1),  # would price in too few discs
    ([[0, 0.5, 0], [0, 0, 0], [0, 0, 0]], 1),
    ([[0, 0, 0], [0, 0, 0]], 1),
    ([[0, 0, 0], [0, 0], [0, 0, 0]], 1),
    (3, 1),
    ([[0] * 3] * 3, 1.5),
])
def test_priced_discs_refuses_bad_costs(costs, budget):
    # refused when called, before the first disc
    with pytest.raises(InputError):
        disc_pricer(cone_spec(3, [[1, 1, -2]]), 2)(costs, budget)


def test_is_essential_minimal_vector():
    assert is_essential(SPEC2, cycle_flow(2, [0, 1]))


def test_is_essential_decomposable_vector():
    d = Flow(2, ((1, 1), (1, 1)))  # two-cycle + both loops
    assert not is_essential(SPEC2, d)


def test_bool_entries_are_not_integral():
    # as errors.as_int does, integrality refuses bools, so True is no flow unit
    d = Flow(2, ((0, True), (True, 0)))
    assert not d.is_integral()
    assert not is_disc_vector(SPEC2, d)
    with pytest.raises(InputError):
        is_essential(SPEC2, d)


def test_is_extremal_two_cycle():
    rep = is_extremal(SPEC2, cycle_flow(2, [0, 1]), n_max=3)
    assert rep.is_extremal and rep.extremal_up_to == 3


def test_is_extremal_doubled_vector():
    rep = is_extremal(SPEC2, Flow(2, ((0, 2), (2, 0))), n_max=2)
    assert not rep.is_extremal
    assert rep.counterexample is not None


@pytest.mark.parametrize("n_max", [0, 1, True, 2.5])
def test_is_extremal_refuses_n_max_that_is_not_an_int_from_two(n_max):
    # n_max 0 once reported the doubled two-cycle extremal up to 0, True
    # came back as extremal_up_to, and 2.5 raised a bare TypeError
    with pytest.raises(InputError):
        is_extremal(SPEC2, Flow(2, ((0, 2), (2, 0))), n_max=n_max)


@pytest.mark.parametrize("check", [is_essential, is_extremal])
def test_checks_refuse_disc_entries_above_the_bound(check):
    check(SPEC2, cycle_flow(2, [0, 1]).scale(DISC_BOUND_LIMIT))
    with pytest.raises(LimitExceeded):
        check(SPEC2, cycle_flow(2, [0, 1]).scale(DISC_BOUND_LIMIT + 1))
    with pytest.raises(LimitExceeded):
        check(SPEC2, cycle_flow(2, [0, 1]).scale(10 ** 9))


def test_is_disc_vector_keeps_its_definition():
    # one pass decides is_disc_vector and collects _disc_support's edges and
    # values; both must agree with the definition on odd entries too:
    # Fractions, floats (a float zero included), bools and another size
    rng = random.Random(47)
    odd = (Fraction(1, 2), Fraction(2), 1.0, 0.0, True)
    cases = []
    for rows in ([[1, -1]], [[2, -1, -1]], [[1, 1, -2]], [[1, -1, 1, -1]]):
        spec = cone_spec(len(rows[0]), rows)
        discs = enumerate_disc_vectors(spec, 2)
        cases += [(spec, d) for d in discs]
        for d in discs:  # the same value as a Fraction, a float or a bool
            entries = [list(row) for row in d.entries]
            t, h = rng.randrange(d.n), rng.randrange(d.n)
            v = entries[t][h]
            entries[t][h] = rng.choice([Fraction(v), float(v)] + [True] * (v == 1))
            cases.append((spec, Flow(d.n, tuple(map(tuple, entries)))))
        # cone members whose support may be disconnected: sums of two discs,
        # random ones and every pair on disjoint vertices
        verts = [{v for e in d.support_edges() for v in e} for d in discs]
        sums = [(rng.randrange(len(discs)), rng.randrange(len(discs)))
                for _ in range(20)]
        sums += [(i, j) for i in range(len(discs)) for j in range(i)
                 if not verts[i] & verts[j]]
        for i, j in sums:
            cases.append((spec, Flow(spec.n, tuple(
                tuple(map(sum, zip(r, q)))
                for r, q in zip(discs[i].entries, discs[j].entries)))))
    for _ in range(300):
        n = rng.randint(2, 3)
        entries = [[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            entries[rng.randrange(n)][rng.randrange(n)] = rng.choice(odd)
        spec = SPEC3 if rng.random() < 0.2 else cone_spec(3, [[2, -1, -1]])
        cases.append((spec, Flow(n, tuple(map(tuple, entries)))))
    accepted = 0
    for spec, f in cases:
        disc = (not f.is_zero() and f.is_integral() and in_cone(spec, f)
                and support_strongly_connected(f.support_edges()))
        assert is_disc_vector(spec, f) == disc, f.entries
        try:
            edges, vals = cones._disc_support(spec, f, "essentiality")
        except InputError as exc:
            assert str(exc) == "essentiality is defined for disc vectors only"
            assert not disc, f.entries
        else:
            assert disc, f.entries
            assert edges == f.support_edges()
            assert vals == tuple(int(f.entries[t][h]) for t, h in edges)
            accepted += 1
    assert 20 <= accepted < len(cases) - 100


def test_is_extremal_stops_at_the_first_counterexample(monkeypatch):
    # the N = 2 search reads the box below 2d lazily and ends at the first
    # cone member other than d and 2d, well before the box is exhausted
    spec = cone_spec(4, [[1, 1, -1, -1]])
    d = Flow(4, ((1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1)))
    edges = d.support_edges()
    box = sum(1 for _ in iter_bounded_flows(
        edges, [2 * int(d.entries[t][h]) for t, h in edges]))
    consumed = 0
    real = cones.iter_bounded_flows

    def counting(edges, caps):
        nonlocal consumed
        for vals in real(edges, caps):
            consumed += 1
            yield vals

    monkeypatch.setattr(cones, "iter_bounded_flows", counting)
    assert not is_extremal(spec, d, n_max=2).is_extremal
    assert 0 < consumed < box


def test_extremal_implies_essential_small():
    for rows in ([[1, -1]], [[2, -1, -1]], [[1, 1, -2]]):
        spec = cone_spec(len(rows[0]), rows)
        for d in enumerate_disc_vectors(spec, 2):
            if is_extremal(spec, d, n_max=2).is_extremal:
                assert is_essential(spec, d)


def test_extremal_rays_two_blocks():
    rays = extremal_rays(SPEC2)
    entries = {r.entries for r in rays}
    assert ((0, 1), (1, 0)) in entries  # the two-cycle
    assert ((1, 0), (0, 1)) in entries  # the loop pair
    for r in rays:
        assert in_cone(SPEC2, r)


def test_extremal_rays_equal_outflow_cone():
    rays = extremal_rays(SPEC3)
    assert rays
    for r in rays:
        flows = [r.outflow(i) for i in range(3)]
        assert len(set(flows)) == 1


def test_extremal_rays_scaling_stays_in_cone():
    for rows in ([[1, -1]], [[2, -1, -1]]):
        spec = cone_spec(len(rows[0]), rows)
        for r in extremal_rays(spec):
            assert in_cone(spec, r.scale(3))


def test_ray_not_a_combination_of_others():
    # LP feasibility: no ray is a nonnegative combination of the rest
    spec = cone_spec(3, [[2, -1, -1]])
    rays = extremal_rays(spec)
    n = spec.n
    for k, target in enumerate(rays):
        others = [r for i, r in enumerate(rays) if i != k]
        if not others:
            continue
        eq = []
        for i in range(n):
            for j in range(n):
                row = [Fraction(int(r.entries[i][j])) for r in others]
                eq.append((row, Fraction(target.entries[i][j])))
        res = solve_lp(make_lp([0] * len(others), eq=eq))
        assert res.status == "infeasible"


def test_ray_limit_refusal():
    with pytest.raises(LimitExceeded):
        extremal_rays(cone_spec(6, [[1, -1, 0, 0, 0, 0], [1, 0, -1, 0, 0, 0],
                                    [1, 0, 0, -1, 0, 0], [1, 0, 0, 0, -1, 0],
                                    [1, 0, 0, 0, 0, -1]]))


def test_iter_bounded_flows_conservation():
    edges = [(0, 1), (1, 0), (0, 0)]
    caps = [2, 2, 1]
    flows = list(iter_bounded_flows(edges, caps))
    # all (a, a, c) with a <= 2, loop free
    assert sorted(flows) == sorted((a, a, c) for a in range(3) for c in range(2))
    # the cone members among them are the nonzero flows passing in_cone
    rng = random.Random(17)
    complete = [(i, j) for i in range(3) for j in range(3)]
    for rows in ([[1, 2, -3]], [[2, -1, -1]], [[1, 1, -2]], [[1, -1, 0], [1, 0, -1]]):
        spec = cone_spec(3, rows)
        supports = [complete] + [sorted(rng.sample(complete, rng.randint(4, 7)))
                                 for _ in range(3)]
        for support in supports:
            caps = [rng.randint(1, 2) for _ in support]
            members = list(iter_cone_members(spec, support, caps))
            expected = [vals for vals in iter_bounded_flows(support, caps)
                        if any(vals) and in_cone(spec, flow_from_edges(
                            3, dict(zip(support, vals))))]
            assert members == expected


def test_iter_bounded_flows_matches_brute_force():
    # random boxes with loops and zero caps, against every value tuple of
    # the box that conserves flow at each vertex, in edge order
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(1, 4)
        complete = [(i, j) for i in range(n) for j in range(n)]
        edges = rng.sample(complete, rng.randint(1, min(6, len(complete))))
        caps = [rng.randint(0, 3) for _ in edges]
        expected = []
        for vals in product(*(range(c + 1) for c in caps)):
            net = [0] * n
            for (t, h), v in zip(edges, vals):
                net[t] += v
                net[h] -= v
            if not any(net):
                expected.append(vals)
        flows = list(iter_bounded_flows(edges, caps))
        assert sorted(flows) == expected, (edges, caps)


def _random_box(rng, split):
    """Up to 10 edges drawn with repeats among 1-5 vertex ids out of 0-7,
    loops included; with `split`, from two vertex sets no edge joins."""
    labels = rng.sample(range(8), rng.randint(1, 5))
    cut = rng.randint(1, len(labels) - 1) if split and len(labels) > 1 else 0
    pieces = [labels[:cut], labels[cut:]] if cut else [labels]
    edges = []
    for _ in range(rng.randint(1, 10)):
        piece = rng.choice(pieces)
        edges.append((rng.choice(piece), rng.choice(piece)))
    return edges, [rng.choice((0, 1, 1, 2, 2, 3)) for _ in edges]


def test_iter_bounded_flows_matches_the_recursive_walk():
    # the same tuples in the same order: is_extremal reports the first
    # counterexample it meets
    rng = random.Random(41)
    seen = {"loop": 0, "zero cap": 0, "repeat": 0, "split": 0, "10 edges": 0}
    for case in range(240):
        edges, caps = _random_box(rng, split=case % 3 == 0)
        expected = list(reference_flows.iter_bounded_flows(edges, caps))
        assert list(iter_bounded_flows(edges, caps)) == expected, (edges, caps)
        seen["loop"] += any(t == h for t, h in edges)
        seen["zero cap"] += 0 in caps
        seen["repeat"] += len(set(edges)) < len(edges)
        seen["split"] += len(_weak_pieces(edges)) > 1
        seen["10 edges"] += len(edges) == 10
    assert min(seen.values()) >= 10, seen


def _weak_pieces(edges):
    """The vertex sets of the weakly connected pieces of the edges."""
    pieces = []
    for t, h in edges:
        touching = [p for p in pieces if t in p or h in p]
        merged = {t, h}.union(*touching)
        pieces = [p for p in pieces if p not in touching] + [merged]
    return pieces


def test_iter_cone_members_matches_the_recursive_walk():
    rng = random.Random(43)
    for case in range(200):
        edges, caps = _random_box(rng, split=case % 3 == 0)
        spec = None
        while spec is None:  # rows summing to zero, with no zero column
            rows = [[rng.randint(-3, 3) for _ in range(7)]
                    for _ in range(rng.randint(1, 2))]
            try:
                spec = cone_spec(8, [row + [-sum(row)] for row in rows])
            except InputError:
                pass
        expected = list(reference_flows.iter_cone_members(spec, edges, caps))
        assert list(iter_cone_members(spec, edges, caps)) == expected, (edges, caps, spec.rows)


def test_iter_bounded_flows_does_not_recurse_per_edge():
    # a 400-edge cycle under a recursion limit just above the current stack
    # depth: a walk that nests a frame per edge raises RecursionError
    cycle = [(v, (v + 1) % FLOW_EDGE_LIMIT) for v in range(FLOW_EDGE_LIMIT)]
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        flows = list(iter_bounded_flows(cycle, [1] * FLOW_EDGE_LIMIT))
    finally:
        sys.setrecursionlimit(limit)
    assert flows == [(0,) * FLOW_EDGE_LIMIT, (1,) * FLOW_EDGE_LIMIT]


@pytest.mark.parametrize("edges, caps", [
    ([(0, 1), (1, 0)], [1]),              # fewer caps than edges
    ([(0, 1), (1, 0)], [1, 1, 1]),        # more caps than edges
    ([(0, 1), (1, 0)], [1, 1.0]),         # a float cap
    ([(0, -1), (-1, 0)], [1, 1]),         # a negative vertex id
], ids=["fewer-caps", "extra-caps", "float-cap", "negative-vertex"])
def test_iter_bounded_flows_refuses_bad_input(edges, caps):
    with pytest.raises(InputError):
        next(iter_bounded_flows(edges, caps))


def test_iter_bounded_flows_refuses_more_edges_than_the_limit():
    # the limit bounds the input, not the stack: the walk keeps one level
    # per edge in a list, and synthesized points reach 340 support edges
    loops = [(0, 0)] * FLOW_EDGE_LIMIT
    assert list(iter_bounded_flows(loops, [0] * FLOW_EDGE_LIMIT)) == [
        (0,) * FLOW_EDGE_LIMIT]
    with pytest.raises(LimitExceeded):
        next(iter_bounded_flows(loops + [(0, 0)], [0] * (FLOW_EDGE_LIMIT + 1)))


def test_ray_component_shapes_fall_into_three_classes():
    # every ray is a union of at most two embedded cycles, so each
    # connected piece abstracts to a loop, two loops at one vertex, or two
    # cycles sharing a path
    from sclflow.acceptance import _connected_pieces

    loop = mdgraph(1, [(0, 0)])
    wedge = mdgraph(1, [(0, 0), (0, 0)])
    theta = mdgraph(2, [(0, 1), (0, 1), (1, 0)])
    shapes = [loop, wedge, theta]
    for rows in ([[1, -1]], [[2, -1, -1]], [[1, 1, -2]], [[1, -1, 2, -2]],
                 [[1, 1, -1, -1]]):
        spec = cone_spec(len(rows[0]), rows)
        for r in extremal_rays(spec):
            for piece in _connected_pieces(r):
                assert any(isomorphic(piece, s) for s in shapes)


def test_ray_with_two_cycles_sharing_a_path_exists():
    # at four vertices a cycle pair sharing an edge spans a ray; its
    # abstract support is the two-vertex theta shape
    theta = mdgraph(2, [(0, 1), (0, 1), (1, 0)])
    spec = cone_spec(4, [[1, -1, 2, -2]])
    found = False
    for r in extremal_rays(spec):
        g = abstract_graph(r.support_graph())
        if isomorphic(mdgraph(g.vertex_count, g.edges), theta):
            found = True
    assert found


def test_intersection_cone_has_all_loops_ray():
    # the cone cut out by a full set of weight rows is the equal-outflow
    # cone; the identity flow (one loop per vertex) is one of its rays, a
    # shape beyond the three single-weight classes
    rays = extremal_rays(SPEC3)
    assert ((1, 0, 0), (0, 1, 0), (0, 0, 1)) in {r.entries for r in rays}


@pytest.mark.parametrize("bound", [2.5, True])
def test_enumerate_disc_vectors_bound_must_be_an_int(bound):
    # range() would run True as bound 1 and fail on 2.5 with a TypeError
    with pytest.raises(InputError, match="expected an integer"):
        enumerate_disc_vectors(SPEC2, bound)
