"""Lazy extremality search against the listing reference.

`sclflow.cones.is_extremal` stops at the first counterexample it meets;
`reference_extremal.extremal_by_listing` lists and sorts the whole box
first.  Both must give the same verdict and `extremal_up_to` on every disc
vector, and every counterexample must be a real decomposition.
"""

from reference_extremal import extremal_by_listing

from sclflow.acceptance import _geometry_corpus
from sclflow.cones import cone_spec, enumerate_disc_vectors, in_cone, is_extremal
from sclflow.graphs import flow_from_edges


def assert_valid_counterexample(spec, d, report):
    N = report.extremal_up_to + 1
    parts = report.counterexample
    edges = report.edges
    d_vals = tuple(int(d.entries[t][h]) for t, h in edges)
    assert edges == tuple(d.support_edges())
    assert len(parts) == N
    for p in parts:
        assert any(p) and in_cone(spec, flow_from_edges(spec.n, dict(zip(edges, p))))
    assert [sum(col) for col in zip(*parts)] == [N * v for v in d_vals]
    assert any(p != d_vals for p in parts)


def assert_matches_reference(spec, n_max):
    for d in enumerate_disc_vectors(spec, 2):
        report = is_extremal(spec, d, n_max=n_max)
        up_to, reference = extremal_by_listing(spec, d, n_max)
        assert report.extremal_up_to == up_to, (spec.rows, d.entries)
        assert report.is_extremal == (reference is None), (spec.rows, d.entries)
        if not report.is_extremal:
            assert_valid_counterexample(spec, d, report)


def test_criterion_11_small_cones_match_reference_up_to_three():
    for spec in _geometry_corpus():
        if spec.n <= 3:
            assert_matches_reference(spec, 3)


def test_four_vertex_cone_matches_reference_up_to_two():
    assert_matches_reference(cone_spec(4, [[1, 1, -1, -1]]), 2)
