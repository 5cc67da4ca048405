import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclflow import bounds
from sclflow.bounds import (
    generic_check,
    lower_bound,
    min_vanishing,
    sample_generic_word,
    universal_word,
    upper_bound_C,
    vanishing_combinations,
)
from sclflow.engine import conjecture_check
from sclflow.errors import InputError, InternalCheckError
from sclflow.words import make_word, matrix, parse_word

F = Fraction


def brute_min_vanishing(rows, n):
    """Independent oracle: plain exhaustive enumeration over weight levels."""
    from itertools import product as iproduct

    for w in range(1, n + 1):
        # all vectors with entries <= w summing to w
        for lam in iproduct(range(w + 1), repeat=n):
            if sum(lam) != w:
                continue
            if all(sum(l * z for l, z in zip(lam, row)) == 0 for row in rows):
                return w
    raise AssertionError("all-ones must vanish")


def test_min_vanishing_examples():
    assert min_vanishing(matrix(2, [[1, -1]]))[0] == 2
    assert min_vanishing(matrix(4, [[3, -1, -1, -1]]))[0] == 4
    assert min_vanishing(matrix(3, [[1, 2, -3]])) == (3, (1, 1, 1))


def test_min_vanishing_matches_brute_force():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 4)
        while True:
            rows = []
            for _ in range(rng.randint(1, 2)):
                row = [rng.randint(-3, 3) for _ in range(n - 1)]
                row.append(-sum(row))
                rows.append(row)
            try:
                m = matrix(n, rows)
                break
            except InputError:  # a column is all zero
                pass
        p, lam = min_vanishing(m)
        assert p == brute_min_vanishing(m.rows, n)
        assert sum(lam) == p
        assert all(sum(l * z for l, z in zip(lam, row)) == 0 for row in m.rows)


def test_vanishing_combinations_all_mode_matches_brute_force():
    from itertools import product as iproduct

    rng = random.Random(23)
    for _ in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 2)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)]
        top = rng.randint(0, n)
        got = vanishing_combinations(vectors, top, first_only=False)
        want = {lam for lam in iproduct(range(top + 1), repeat=n)
                if 0 < sum(lam) <= top
                and all(sum(l * v[c] for l, v in zip(lam, vectors)) == 0
                        for c in range(k))}
        assert sorted(got) == sorted(want) and len(got) == len(want)
        assert [sum(lam) for lam in got] == sorted(sum(lam) for lam in got)
        first = vanishing_combinations(vectors, top, first_only=True)
        assert first == got[:1]


def test_min_vanishing_range():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 5)
        while True:
            row = [rng.randint(-3, 3) for _ in range(n - 1)]
            row.append(-sum(row))
            try:
                m = matrix(n, [row])
                break
            except InputError:  # a column is all zero
                pass
        p, _ = min_vanishing(m)
        assert 2 <= p <= n


def test_lower_bound_commutator_is_zero():
    assert lower_bound(parse_word("a b a^-1 b^-1")) == 0


def test_lower_bound_universal_five():
    assert lower_bound(universal_word(5)) == F(3, 2)


def test_lower_bound_largest_universal_word():
    # n = 100 is the largest universal word the CLI builds; each side needs
    # the all-ones combination, so the bound is (n/2)(1 - 2/n) = 49
    assert lower_bound(universal_word(100)) == 49


def test_min_vanishing_reports_a_failed_search(monkeypatch):
    monkeypatch.setattr(bounds, "vanishing_combinations", lambda *args, **kw: [])
    with pytest.raises(InternalCheckError):
        min_vanishing(matrix(2, [[1, -1]]))


def test_lower_bound_formula():
    # p = q = 3 at n = 6 gives exactly 1
    w = make_word(6, [[2, -1, -1, 2, -1, -1]], [[1, 1, -2, 1, 1, -2]])
    p, _ = min_vanishing(w.x)
    q, _ = min_vanishing(w.y)
    if (p, q) == (3, 3):
        assert lower_bound(w) == 1


def test_universal_word_small():
    assert universal_word(2).x.rows == ((1, -1),)
    assert universal_word(3).x.rows == ((1, -1, 0), (1, 0, -1))
    with pytest.raises(InputError):
        universal_word(1)


def test_universal_word_equal_outflow_cone():
    from sclflow.cones import cone_spec, enumerate_disc_vectors

    w = universal_word(4)
    spec = cone_spec(4, w.x.rows)
    for d in enumerate_disc_vectors(spec, 2):
        outs = [d.outflow(i) for i in range(4)]
        assert len(set(outs)) == 1


def test_upper_bound_values():
    assert upper_bound_C(6) == F(1, 2)
    assert upper_bound_C(8) == F(7, 6)
    assert upper_bound_C(12) == 3 - F(119, 142)
    with pytest.raises(InputError):
        upper_bound_C(4)
    with pytest.raises(InputError):
        upper_bound_C(7)


@given(st.integers(3, 8))
@settings(max_examples=12)
def test_upper_bound_closed_form(n):
    m = 2 * n
    if n % 2 == 1:
        assert upper_bound_C(m) == F(n, 2) - 1
    else:
        assert upper_bound_C(m) == F(n, 2) - F(factorial(n - 1) - 1,
                                               n * factorial(n - 2) - 2)


def test_generic_check():
    assert generic_check(matrix(3, [[1, -1, 0], [1, 0, -1]]))
    # a short combination exists: lambda = (1, 1, 0, ...) kills every row
    bad = matrix(4, [[1, -1, 0, 0], [2, -2, 1, -1]])
    assert not generic_check(bad)


def test_sample_generic_word_properties():
    w = sample_generic_word(6, 1)
    p, _ = min_vanishing(w.x)
    q, _ = min_vanishing(w.y)
    assert p >= 6 and q >= 6
    assert lower_bound(w) == 2


def test_sample_generic_small_n():
    w = sample_generic_word(3, 7)
    assert lower_bound(w) == F(1, 2)


def test_sample_generic_deterministic_per_seed():
    assert sample_generic_word(4, 5) == sample_generic_word(4, 5)
    with pytest.raises(InputError):
        sample_generic_word(2, 0)


def test_conjecture_word_shape():
    report = conjecture_check(3, 1, 1, 1, bound=1)
    assert report.predicted == F(5, 6)
    report = conjecture_check(4, 1, 2, 1, bound=1)
    assert report.predicted == F(3, 4)
    with pytest.raises(InputError):
        conjecture_check(4, 1, 1, 1)


@pytest.mark.parametrize("call, whole_float", [
    (universal_word, 3.0),
    (lambda n: sample_generic_word(n, 1), 3.0),
    (upper_bound_C, 8.0),
], ids=["universal_word", "sample_generic_word", "upper_bound_C"])
def test_size_parameters_must_be_ints(call, whole_float):
    # range() and factorial() fail on any float with a TypeError
    for value in (2.5, True, whole_float):
        with pytest.raises(InputError, match="expected an integer"):
            call(value)
