"""Double-description extremal rays against vertex enumeration.

`sclflow.cones.extremal_rays` and `reference_rays.extremal_rays_by_vertices`
share no step, so they must return the same list of primitive integral
rays, in the same order, on every cone.  Each ray must also pass the rank
test on its support.
"""

import random

from reference_rays import extremal_rays_by_vertices, support_nullity

from sclflow.acceptance import _geometry_corpus
from sclflow.cones import cone_spec, extremal_rays, in_cone

SPEC3 = cone_spec(3, [[1, -1, 0], [1, 0, -1]])


def assert_rays_match(spec):
    rays = extremal_rays(spec)
    assert rays == extremal_rays_by_vertices(spec), spec.rows
    for r in rays:
        assert in_cone(spec, r)
        assert support_nullity(spec, r.entries) == 1, (spec.rows, r.entries)
    return rays


def random_row(rng, n):
    """Integers in [-3, 3] summing to zero."""
    while True:
        row = [rng.randint(-3, 3) for _ in range(n - 1)]
        last = -sum(row)
        if -3 <= last <= 3:
            return row + [last]


def random_cone(rng, n, nrows):
    # every column needs a nonzero entry for the rows to define a cone
    while True:
        rows = [random_row(rng, n) for _ in range(nrows)]
        if all(any(row[j] for row in rows) for j in range(n)):
            return cone_spec(n, rows)


def test_criterion_11_cones_match_vertex_enumeration():
    for spec in _geometry_corpus():
        assert_rays_match(spec)


def test_two_row_cone_matches_vertex_enumeration():
    rays = assert_rays_match(SPEC3)
    assert len(rays) == 6


def test_random_cones_match_vertex_enumeration():
    rng = random.Random(4101)
    shapes = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)] * 4
    for n, nrows in shapes:
        assert_rays_match(random_cone(rng, n, nrows))
