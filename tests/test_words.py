import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclflow.errors import InputError, LimitExceeded, ParseError
from sclflow.words import (
    GENERATOR_LIMIT,
    ExponentMatrix,
    make_word,
    matrix,
    parse_word,
    reduced_length,
    render_word,
)


def test_parse_commutator():
    w = parse_word("a^1 b^1 a^-1 b^-1")
    assert w.n == 2
    assert w.x.rows == ((1, -1),)
    assert w.y.rows == ((1, -1),)


def test_parse_mixed_generator_word():
    w = parse_word("a1 b1 b2 a1^-1 b1^-1 b2^-1")
    assert w.n == 2
    assert w.x.rows == ((1, -1),)
    assert w.y.rows == ((1, -1), (1, -1))


def test_parse_rejects_unbalanced_generator():
    with pytest.raises(ParseError, match="totals"):
        parse_word("a^2 b a^-1 b^-1")


def test_parse_rejects_malformed_token():
    with pytest.raises(ParseError, match="a\\^0"):
        parse_word("a^0 b")


def test_parse_rejects_wrong_block_order():
    with pytest.raises(ParseError):
        parse_word("b a b a")
    with pytest.raises(ParseError):
        parse_word("a b a")


def test_parse_merges_repeated_generator_in_block():
    w = parse_word("a a b a^-2 b^-1")
    assert w.x.rows == ((2, -2),)


def test_parse_rejects_block_emptied_by_merge():
    with pytest.raises(ParseError, match="empty"):
        parse_word("a a^-1 b a b a^-1 b^-1 b^-1")


def test_render_commutator_uses_bare_letters():
    w = make_word(2, [[1, -1]], [[1, -1]])
    assert render_word(w) == "a b a^-1 b^-1"


def test_render_subscripted_word():
    w = make_word(2, [[1, -1]], [[1, -1], [1, -1]])
    assert render_word(w) == "a1 b1 b2 a1^-1 b1^-1 b2^-1"


def test_render_universal_three():
    from sclflow.bounds import universal_word

    assert render_word(universal_word(3)) == "a1 a2 b1 b2 a1^-1 b1^-1 a2^-1 b2^-1"


def test_generator_subscripts_past_the_cap_are_refused():
    from sclflow.bounds import UNIVERSAL_N_LIMIT, universal_word

    # every word `scl universal` prints parses back
    w = universal_word(UNIVERSAL_N_LIMIT)
    assert parse_word(render_word(w)) == w
    top = f"a{GENERATOR_LIMIT} b a{GENERATOR_LIMIT}^-1 b^-1"
    assert parse_word(top).x.rows[-1] == (1, -1)
    # 5000 digits are more than Python converts to an int
    for sub in (str(GENERATOR_LIMIT + 1), "1" * 5000):
        with pytest.raises(LimitExceeded):
            parse_word(f"a b a{sub} b^-1")


def test_exponents_longer_than_python_converts_are_refused():
    # Python converts at most 4300 digits to an int; 4000 still parse
    e = "1" + "0" * 3999
    assert parse_word(f"a^{e} b a^-{e} b^-1").x.rows == ((10 ** 3999, -10 ** 3999),)
    long = "1" + "0" * 5000
    for tok in (f"a^{long}", f"a^-{long}"):
        with pytest.raises(LimitExceeded, match="5001 digits") as info:
            parse_word(f"{tok} b a^-1 b^-1")
        assert long not in str(info.value)


def test_reduced_length():
    assert reduced_length(parse_word("a b a^-1 b^-1")) == 4
    assert reduced_length(parse_word("a1 b1 b2 a1^-1 b1^-1 b2^-1")) == 4


@pytest.mark.parametrize("n, rows, message", [
    (2, ((Fraction(1, 2), Fraction(-1, 2)),), "integer"),
    (2, ((True, -1),), "integer"),
    (3, ((1, -1),), "does not have 3 entries"),
    (2, ((2, -1),), "does not sum to zero"),
    (3, ((1, -1, 0), (0, 0, 0)), "column 3 .* is all zero"),
    (2, (), "column 1 .* is all zero"),
    (0, (), "positive integer"),
], ids=["fraction", "bool", "short-row", "nonzero-sum", "zero-column", "no-rows",
        "no-blocks"])
def test_exponent_matrix_refuses_invalid_rows(n, rows, message):
    with pytest.raises(InputError, match=message):
        ExponentMatrix(n, rows)
    with pytest.raises(InputError, match=message):
        matrix(n, rows)


def test_matrix_coerces_entries_and_drops_trailing_zero_rows():
    m = matrix(2, [[Fraction(1), Fraction(-1)], [0, 0]])
    assert m == ExponentMatrix(2, ((1, -1),))
    # the constructor itself refuses a Fraction, even an integral one
    with pytest.raises(InputError, match="integer"):
        ExponentMatrix(2, ((Fraction(1), Fraction(-1)),))


def test_make_word_rejects_bad_matrices():
    with pytest.raises(InputError):
        make_word(2, [[1, 1]], [[1, -1]])
    with pytest.raises(InputError):
        make_word(3, [[1, -1, 0]], [[1, -1, 0]])  # column 3 all zero


def test_make_word_refuses_non_integer_exponents():
    # integral Fractions are integers; anything else is refused, not truncated
    assert make_word(2, [[Fraction(3), Fraction(-3)]], [[1, -1]]).x.rows == ((3, -3),)
    for bad in ([[Fraction(3, 2), Fraction(-3, 2)]], [[1.0, -1.0]], [[True, -1]]):
        with pytest.raises(InputError, match="integer"):
            make_word(2, bad, [[1, -1]])


def random_word(rng, n):
    """Random valid word: each side gets 1-3 rows that sum to zero and
    jointly cover all columns."""
    def side():
        while True:
            nrows = rng.randint(1, 3)
            rows = []
            for _ in range(nrows):
                row = [rng.randint(-2, 2) for _ in range(n - 1)]
                row.append(-sum(row))
                rows.append(row)
            try:
                return matrix(n, rows).rows
            except InputError:  # a column is all zero
                pass
    return make_word(n, side(), side())


def test_round_trip_500_random_words():
    rng = random.Random(99)
    for _ in range(500):
        w = random_word(rng, rng.randint(2, 4))
        assert parse_word(render_word(w)) == w


def test_reduced_length_invariant_under_generator_permutation():
    rng = random.Random(5)
    for _ in range(50):
        w = random_word(rng, 3)
        perm = list(range(len(w.x.rows)))
        rng.shuffle(perm)
        w2 = make_word(3, [w.x.rows[i] for i in perm], w.y.rows)
        assert reduced_length(w2) == reduced_length(w)


@given(st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60)
def test_parsed_words_always_satisfy_membership(p, q):
    # build a balanced two-block word from arbitrary nonzero exponents
    if p == 0 or q == 0:
        return
    w = parse_word(f"a^{p} b^{q} a^{-p} b^{-q}")
    assert ExponentMatrix(w.n, w.x.rows) == w.x
    assert ExponentMatrix(w.n, w.y.rows) == w.y
