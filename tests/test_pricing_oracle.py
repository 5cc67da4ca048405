"""Disc pricing on packed rows against the nested-generator reference.

`sclflow.cones.disc_pricer` walks per-row candidate lists of packed ints,
solves the last entry of each outflow, forces the last row of each table
and tests connectivity on successor masks; `reference_pricing.priced_discs`
lists every outflow, builds every row entry by entry and tests
connectivity on vertex sets.  On seeded cones, bounds, cost tables and
budgets both must yield the same discs in the same order.
"""

import random

from reference_pricing import priced_discs as reference_priced_discs

from sclflow import cones
from sclflow.cones import DISC_BOUND_LIMIT, DISC_N_LIMIT, cone_spec, disc_pricer
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
    price = disc_pricer(spec, bound)
    assert list(price()) == reference_priced_discs(spec, bound)
    for _ in range(tables):
        costs = [[rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
                 for _ in range(n)]
        budget = rng.randint(1, 12)
        assert list(price(costs, budget)) == \
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


def test_bound_zero_has_no_discs():
    rng = random.Random(2)
    for n in (2, 3, 4):
        assert_pricing_matches(random_cone(rng, n), 0, rng, 1)
        assert list(disc_pricer(random_cone(rng, n), 0)()) == []


def test_large_bounds_match_reference():
    # the largest entries and column totals a packed row holds, at n = 2, 3
    rng = random.Random(23)
    for n, bounds in ((2, (4, 5, 6)), (3, (4, 5))):
        for bound in bounds:
            assert_pricing_matches(random_cone(rng, n), bound, rng, 3)
    assert_pricing_matches(cone_spec(3, [[1, 1, -2]]), 6, rng, 2)


def test_six_vertex_cone_matches_reference():
    rng = random.Random(6)
    assert_pricing_matches(random_cone(rng, 6), 1, rng, 3)


def test_column_totals_stay_below_the_guard_bit():
    # a column of a table sums to at most n * bound; a packed entry must
    # hold that below its guard bit, or the column test borrows across
    # entries.  Raising a limit needs a wider entry.
    assert DISC_N_LIMIT * DISC_BOUND_LIMIT < cones._GUARD
