"""The one-walk annihilation search against the level-by-level reference.

The reference walks each weight level from the root; the fast search walks
each prefix once for all levels together, in the same position order, and
cuts only subtrees that hold no wanted witness.  Within one weight both
meet the witnesses in the same lexicographic order, and the fast search
orders them by weight afterwards, so in both modes the two must return the
same list in the same order, not just the same least weight.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_vanishing import vanishing_combinations as reference

from sclflow.bounds import sample_generic_word, universal_word, vanishing_combinations
from sclflow.hardness import instance, reduce_ss_to_smallscl

REDUCTION_INPUTS = ([1, -1], [1, 2, -3], [2, -1, -1], [1, 2, 3], [3, -2, 1],
                    [2, 3, -5, 1], [1, 2, 4, -4])


def assert_same(vectors, max_weight):
    for first_only in (True, False):
        got = vanishing_combinations(vectors, max_weight, first_only)
        assert got == reference(vectors, max_weight, first_only)


def test_seeded_vector_lists():
    rng = random.Random(7)
    for _ in range(400):
        k = rng.randint(1, 3)
        n = rng.randint(1, 8)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)]
        assert_same(vectors, rng.randint(1, 7))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
           st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=8)),
       st.integers(1, 7))
def test_hypothesis_vector_lists(vectors, max_weight):
    assert_same(vectors, max_weight)


def test_degenerate_inputs():
    assert_same([], 3)
    assert_same([(0,)], 2)
    assert_same([(), ()], 3)
    assert_same([(2, -1), (-2, 1)], 0)


def test_least_weight_witness_after_a_heavier_one():
    # walk order meets a weight-3 witness before the least one, of weight 2,
    # so first-only mode must keep lowering its cap past the first witness
    vectors = [(-3, 3), (-2, -3), (0, 1), (-1, -2), (2, 3), (1, -1), (-1, 0)]
    assert [sum(lam) for lam in reference(vectors, 7, True)] == [2]
    assert_same(vectors, 7)


def test_zero_last_vector_takes_every_unit_count():
    assert_same([(0,), (0,)], 2)
    assert_same([(0, 0)], 3)
    assert vanishing_combinations([(0, 0)], 3, False) == [(1,), (2,), (3,)]


def test_multi_row_exponent_columns():
    for x in (universal_word(6).x, sample_generic_word(8, 1).x):
        columns = tuple(zip(*x.rows))
        assert_same(columns, x.n)


def test_reduction_collapsed_lists_and_tables():
    for vals in REDUCTION_INPUTS:
        for step in reduce_ss_to_smallscl(vals).steps:
            ints = instance("VARSSP", step.collapsed).vectors
            assert_same(ints, len(ints) - 1)
            columns = step.table.columns
            assert_same(columns, len(columns) - 1)
