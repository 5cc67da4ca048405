"""Disc pricing on candidate lists against the nested-generator reference.

`sclflow.cones.priced_discs` walks per-row candidate lists, forces the last
row of each table and tests connectivity on bitmasks;
`reference_pricing.priced_discs` builds every row entry by entry and tests
connectivity on vertex sets.  On seeded cones, bounds, cost tables and
budgets both must yield the same discs in the same order.
"""

import random

from reference_pricing import priced_discs as reference_priced_discs

from sclflow.cones import cone_spec, priced_discs
from sclflow.errors import InputError


def random_cone(rng, n):
    """One or two rows that define a cone on n vertices, each row's first
    n - 1 entries in [-2, 2]: small entries leave many annihilating
    outflows besides the constant ones."""
    while True:
        rows = []
        for _ in range(rng.choice((1, 1, 2))):
            row = [rng.randint(-2, 2) for _ in range(n - 1)]
            rows.append(row + [-sum(row)])
        try:
            return cone_spec(n, rows)
        except InputError:
            continue


def assert_pricing_matches(spec, bound, rng, tables):
    n = spec.n
    assert list(priced_discs(spec, bound)) == reference_priced_discs(spec, bound)
    for _ in range(tables):
        costs = [[rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
                 for _ in range(n)]
        budget = rng.randint(1, 12)
        assert list(priced_discs(spec, bound, costs, budget)) == \
            reference_priced_discs(spec, bound, costs, budget), \
            (spec.rows, bound, costs, budget)


def test_small_cones_match_reference():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for bound in (1, 2, 3):
            for _ in range(4 if n < 4 or bound < 3 else 2):
                assert_pricing_matches(random_cone(rng, n), bound, rng, 3)


def test_five_vertex_cones_match_reference():
    rng = random.Random(5)
    for _ in range(2):
        assert_pricing_matches(random_cone(rng, 5), 2, rng, 2)
