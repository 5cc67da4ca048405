import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import reference_certificate
from test_simplex_oracle import _with_columns

from sclflow.bounds import lower_bound, universal_word
from sclflow.cones import cone_spec, in_cone
from sclflow.engine import (
    SclCertificate,
    SideDecomposition,
    conjecture_check,
    klein_value,
    pair_flow,
    is_paired,
    scl,
    verify_certificate,
)
from sclflow.errors import InputError, InternalCheckError, LimitExceeded
from sclflow.graphs import Flow, cycle_flow, zero_flow
from sclflow.words import make_word, parse_word, render_word

F = Fraction

SPEC2 = cone_spec(2, [[1, -1]])
SPEC3 = cone_spec(3, [[1, -1, 0], [1, 0, -1]])


def test_pairing_is_entrywise_bijection():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 5)
        f = zero_flow(n)
        for _ in range(rng.randint(1, 3)):
            f = f.add(cycle_flow(n, rng.sample(range(n), rng.randint(1, n))))
        g = pair_flow(f)
        assert is_paired(f, g)
        # total mass is preserved
        assert sum(map(sum, f.entries)) == sum(map(sum, g.entries))
        # the defining identity, index shift by one with wraparound
        for i in range(n):
            for j in range(n):
                assert f.entries[i][j] == g.entries[(j - 1) % n][i]


def test_pairing_inverse_recovers_original():
    # slot correspondence A -> B -> A is the identity
    rng = random.Random(44)
    for _ in range(20):
        n = rng.randint(2, 5)
        f = cycle_flow(n, rng.sample(range(n), rng.randint(1, n)))
        g = pair_flow(f)
        back = Flow(n, tuple(tuple(g.entries[(j - 1) % n][i] for j in range(n))
                             for i in range(n)))
        assert back == f


def test_pairing_of_odd_alternating_cycle():
    # the alternating cycle pairs with the descending cycle
    v_a = cycle_flow(3, [0, 2, 1])
    v_b = pair_flow(v_a)
    assert v_b == cycle_flow(3, [0, 2, 1])


def test_klein_value_single_disc():
    assert klein_value(SPEC2, cycle_flow(2, [0, 1]), 1) == 1


def test_klein_value_homogeneous():
    assert klein_value(SPEC2, cycle_flow(2, [0, 1]).scale(2), 2) == 2


def test_klein_value_two_cycles():
    v = cycle_flow(3, [0, 1, 2]).add(cycle_flow(3, [0, 2, 1]))
    assert klein_value(SPEC3, v, 1) == 2


def test_klein_value_requires_cone_membership():
    with pytest.raises(InputError):
        klein_value(SPEC2, cycle_flow(2, [0]), 1)


def test_scl_commutator():
    res = scl(parse_word("a b a^-1 b^-1"))
    assert res.value == F(1, 2)
    assert res.status == "stabilized"


def test_scl_mixed_generator_word():
    w = parse_word("a1 b1 b2 a1^-1 b1^-1 b2^-1")
    res = scl(w)
    assert res.value == F(1, 2)
    assert verify_certificate(res.certificate, res.value, w)


def test_scl_universal_words():
    assert scl(universal_word(3)).value == F(1, 2)
    assert scl(universal_word(4)).value == F(7, 6)


def test_scl_monotone_in_bound():
    w = make_word(4, [[-3, 1, 1, 1]], [[-1, 1, -1, 1]])
    values = [scl(w, bound=b, stabilize=False).value for b in (1, 2, 3)]
    assert values[0] >= values[1] >= values[2]


def _random_word(rng, n):
    from sclflow.words import matrix

    def side():
        while True:
            rows = []
            for _ in range(rng.randint(1, 2)):
                row = [rng.randint(-2, 2) for _ in range(n - 1)]
                row.append(-sum(row))
                rows.append(row)
            try:
                return matrix(n, rows).rows
            except InputError:  # a column is all zero
                pass
    return make_word(n, side(), side())


def test_scl_certificates_on_random_words():
    rng = random.Random(6)
    for _ in range(25):
        w = _random_word(rng, rng.randint(2, 3))
        res = scl(w, bound=2)
        assert verify_certificate(res.certificate, res.value, w)
        assert lower_bound(w) <= res.value


def test_certificate_on_universal_word():
    w = universal_word(4)
    res = scl(w)
    assert verify_certificate(res.certificate, res.value, w)
    cert = res.certificate
    n = w.n
    for i in range(n):
        assert cert.v_a.outflow(i) == 1
        assert cert.v_b.outflow(i) == 1
    spec_x = cone_spec(n, w.x.rows)
    spec_y = cone_spec(n, w.y.rows)
    assert in_cone(spec_x, cert.v_a)
    assert in_cone(spec_y, cert.v_b)


def test_scl_prices_the_words_own_matrices(monkeypatch):
    # the two cones are the word's sides themselves, not rebuilt copies
    from sclflow import engine

    pricer, priced = engine.disc_pricer, []

    def recording(spec, bound):
        priced.append(spec)
        return pricer(spec, bound)

    monkeypatch.setattr(engine, "disc_pricer", recording)
    w = parse_word("a1 b1 b2 a1^-1 b1^-1 b2^-1")
    scl(w)
    assert {id(spec) for spec in priced} == {id(w.x), id(w.y)}


def _bracket(res):
    return res.lower, res.value


def test_scl_bracket_commutator():
    assert _bracket(scl(parse_word("a b a^-1 b^-1"))) == (F(0), F(1, 2))


def test_scl_bracket_universal():
    assert _bracket(scl(universal_word(3))) == (F(1, 2), F(1, 2))
    assert _bracket(scl(universal_word(4))) == (F(1), F(7, 6))


@pytest.mark.parametrize("stabilize", [True, False])
def test_every_result_carries_the_lower_bound(stabilize):
    for w in (parse_word("a b a^-1 b^-1"), universal_word(3), universal_word(4)):
        res = scl(w, bound=2, stabilize=stabilize)
        assert res.lower == lower_bound(w) <= res.value


@pytest.mark.parametrize("stabilize", [True, False])
def test_a_lower_bound_above_the_value_is_an_internal_failure(monkeypatch, stabilize):
    from sclflow import engine

    w = parse_word("a b a^-1 b^-1")
    value = scl(w, stabilize=stabilize).value
    monkeypatch.setattr(engine, "lower_bound", lambda w: value + 1)
    with pytest.raises(InternalCheckError, match="exceeds LP upper value"):
        scl(w, stabilize=stabilize)


def test_scl_size_refusal():
    with pytest.raises(LimitExceeded):
        scl(universal_word(7))


def test_row_span_inclusion_inequality():
    # adding a row shrinks the cone, so the value cannot increase when the
    # spans grow; equality when the extra row is a combination
    base = make_word(3, [[2, -1, -1]], [[1, 1, -2]])
    bigger = make_word(3, [[2, -1, -1], [0, 1, -1]], [[1, 1, -2]])
    for b in (1, 2):
        v_small = scl(base, bound=b, stabilize=False).value
        v_big = scl(bigger, bound=b, stabilize=False).value
        assert v_small <= v_big


def test_span_equal_words_get_equal_values():
    first = make_word(4, [[2, -2, 3, -3], [-3, 1, 1, 1]], [[1, 1, 1, -3]])
    second = make_word(4, [[2, -2, 3, -3], [-3, 1, 1, 1], [5, -3, 2, -4]],
                       [[1, 1, 1, -3]])
    for b in (1, 2):
        assert scl(first, bound=b, stabilize=False).value == \
            scl(second, bound=b, stabilize=False).value


def test_basis_change_leaves_value_unchanged():
    rng = random.Random(12)
    w = universal_word(3)
    rows = [list(r) for r in w.x.rows]
    # row operations that keep the integer span: swap and add
    rows = [rows[1], rows[0]]
    rows[0] = [a + b for a, b in zip(rows[0], rows[1])]
    other = make_word(3, rows, w.y.rows)
    assert scl(other).value == scl(w).value


def test_unstabilized_scl_solves_only_at_its_bound(monkeypatch):
    from sclflow import engine

    bounds, solved = [], []
    packing, solve, resume = engine._solve_packing, engine.solve_lp, engine.resume_lp

    def recording_packing(*args):
        for yielded in packing(*args):
            bounds.append(yielded[0])
            yield yielded

    def recording_solve(lp):
        solved.append(lp)
        return solve(lp)

    def recording_resume(start, columns):
        solved.append(columns)
        return resume(start, columns)

    monkeypatch.setattr(engine, "_solve_packing", recording_packing)
    monkeypatch.setattr(engine, "solve_lp", recording_solve)
    monkeypatch.setattr(engine, "resume_lp", recording_resume)
    w = parse_word("a^-3 b^-1 a b a b^-1 a b")
    res = scl(w, bound=3, stabilize=False)
    assert (res.bound_used, res.status) == (3, "upper_bound")
    assert bounds == [3]
    # bound 7 is refused before any LP is solved
    bounds.clear()
    solved.clear()
    with pytest.raises(LimitExceeded):
        scl(w, bound=7, stabilize=False)
    assert not bounds and not solved


def test_stabilized_scl_solves_no_column_set_twice(monkeypatch):
    # the (1,2,1) sweep word goes on to bound 3; each bound continues the
    # same run, so every LP solved has more columns than the one before
    from sclflow import engine

    dims = []
    solve, resume = engine.solve_lp, engine.resume_lp

    def recording_solve(lp):
        dims.append(lp.dim())
        return solve(lp)

    def recording_resume(start, columns):
        dims.append(len(start.witness) + len(columns))
        return resume(start, columns)

    monkeypatch.setattr(engine, "solve_lp", recording_solve)
    monkeypatch.setattr(engine, "resume_lp", recording_resume)
    res = scl(parse_word("a^-4 b^-1 a b a^2 b^-1 a b"), bound=3)
    assert (res.value, res.status, res.bound_used) == (F(3, 4), "stabilized", 3)
    assert len(dims) > 1 and all(a < b for a, b in zip(dims, dims[1:]))


def test_resumed_lps_skip_phase_1_and_pivot_less_than_cold_solves(monkeypatch):
    # the (1,1,1) sweep word at bound 3 solves one LP, then appends columns
    # to the last optimum several times: only the first solve runs phase 1,
    # and resuming costs fewer pivots in all than solving each LP, the last
    # one with the columns appended, from scratch
    from sclflow import engine

    solved = []  # (LP, start, result)
    solve, resume = engine.solve_lp, engine.resume_lp

    def recording_solve(lp):
        res = solve(lp)
        solved.append((lp, None, res))
        return res

    def recording_resume(start, columns):
        res = resume(start, columns)
        solved.append((_with_columns(solved[-1][0], columns), start, res))
        return res

    monkeypatch.setattr(engine, "solve_lp", recording_solve)
    monkeypatch.setattr(engine, "resume_lp", recording_resume)
    scl(parse_word("a^-3 b^-1 a b a b^-1 a b"), bound=3, stabilize=False)
    assert len(solved) > 1 and solved[0][1] is None
    assert all(start is res for (_, _, res), (_, start, _) in zip(solved, solved[1:]))
    assert all(res.phase1_pivots == 0 for _, _, res in solved[1:])
    resumed = sum(res.phase1_pivots + res.phase2_pivots for _, _, res in solved)
    cold = sum(r.phase1_pivots + r.phase2_pivots
               for r in (solve(lp) for lp, _, _ in solved))
    assert resumed < cold


def test_a_shared_run_yields_the_value_of_every_bound(monkeypatch):
    # one run over bounds 1, 2, 3 yields at each bound the value of the LP
    # solved for that bound alone
    from itertools import product

    from sclflow import engine

    packing = engine._solve_packing
    for p, q, r in product((1, 2), repeat=3):
        w = make_word(4, [[-(p + q + r), p, q, r]], [[-1, 1, -1, 1]])
        alone = [scl(w, bound=b, stabilize=False).value for b in (1, 2, 3)]
        shared = []

        def every_bound(eq_rows, n_fixed, capacity_rows, sides, bounds):
            for b, res, columns in packing(eq_rows, n_fixed, capacity_rows,
                                           sides, (1, 2, 3)):
                shared.append((w.n - res.value) / 2)
            yield b, res, columns

        monkeypatch.setattr(engine, "_solve_packing", every_bound)
        assert scl(w, bound=3, stabilize=False).value == alone[2]
        monkeypatch.undo()
        assert shared == alone, (p, q, r)


@pytest.mark.parametrize("word,stabilize,built", [
    ("a^-3 b^-1 a b a b^-1 a b", False, [1, 1, 3, 3]),
    ("a^-4 b^-1 a b a^2 b^-1 a b", True, [1, 1, 2, 2, 3, 3]),
], ids=["(1,1,1) at bound 3", "(1,2,1) stabilized"])
def test_one_pricer_per_side_and_bound(monkeypatch, word, stabilize, built):
    # a pricer lists the outflows and rows of its bound once; every
    # pricing round at that bound reuses it.  The start columns come from
    # a pricer of bound 1 per side: the run's own at bound 1.
    from sclflow import engine

    bounds, calls = [], []
    make = engine.disc_pricer

    def recording_pricer(spec, bound):
        bounds.append(bound)
        price = make(spec, bound)

        def recording_price(*args):
            calls.append(bound)
            return price(*args)
        return recording_price

    monkeypatch.setattr(engine, "disc_pricer", recording_pricer)
    scl(parse_word(word), bound=3, stabilize=stabilize)
    assert sorted(bounds) == built
    assert len(calls) > len(bounds)


@pytest.mark.parametrize("name,pivots", [("scl-words", 521), ("scl-sweep", 395)])
def test_seed_1_benchmark_pass_pivot_count(monkeypatch, name, pivots):
    # the pivots of a pass follow from which columns each pricing round
    # adds and in which order, so a pricer that changes either moves them
    import sclflow
    from sclflow import linprog
    from test_values_digest import load

    load(monkeypatch, "checks")
    wl = load(monkeypatch, "workloads").build(name, 1, sclflow)
    count = 0
    pivot = linprog._Tableau.pivot

    def counting_pivot(self, r, c):
        nonlocal count
        count += 1
        return pivot(self, r, c)

    monkeypatch.setattr(linprog._Tableau, "pivot", counting_pivot)
    for item in wl.items:
        wl.op(sclflow, item)
    assert count == pivots


def _checked(cert, value, w) -> bool:
    """The engine's verdict on a certificate, after asserting that the
    reference Fraction checker gives the same one."""
    got = verify_certificate(cert, value, w)
    ref = reference_certificate.verify_certificate(
        SimpleNamespace(certificate=cert, value=value), w)
    assert got == ref
    return got


def test_certificate_with_a_forged_part_is_refused():
    # one part per side, v/10 with weight 10, claims kappa 20 and value -9;
    # the parts are cone members but not integral, so not disc vectors
    w = parse_word("a b a^-1 b^-1")
    cert = scl(w).certificate
    forged = SclCertificate(
        v_a=cert.v_a, v_b=cert.v_b,
        side_a=SideDecomposition((F(10),), (cert.v_a.scale(F(1, 10)),)),
        side_b=SideDecomposition((F(10),), (cert.v_b.scale(F(1, 10)),)))
    assert (w.n - forged.kappa_sum()) / 2 == -9
    assert not _checked(forged, F(-9), w)


def _commutator_forgeries():
    """Forged certificates for the commutator, each refused by exactly one
    check, with the value each claims.  Its true certificate has v_A the
    2-cycle, carried by that cycle at weight 1 on side A, and nothing on
    side B.  No forgery is refused only by v_B's unit sums or by a cone
    test: those follow from pairing, v_A's unit sums and exponent rows
    that sum to zero."""
    cycle = cycle_flow(2, [0, 1])
    double = cycle.scale(2)
    no_parts = SideDecomposition((), ())
    return {
        "v_A-not-unit": (SclCertificate(
            double, pair_flow(double),
            SideDecomposition((F(1),), (cycle,)), no_parts), F(1, 2)),
        "parts-above-v": (SclCertificate(
            cycle, pair_flow(cycle),
            SideDecomposition((F(2),), (cycle,)), no_parts), F(0)),
        "negative-weight": (SclCertificate(
            cycle, pair_flow(cycle), SideDecomposition((F(1),), (cycle,)),
            SideDecomposition((F(-1),), (cycle,))), F(1)),
    }


def test_commutator_certificate_is_the_forgeries_base():
    w = parse_word("a b a^-1 b^-1")
    res = scl(w)
    cycle = cycle_flow(2, [0, 1])
    assert res.certificate == SclCertificate(
        cycle, pair_flow(cycle),
        SideDecomposition((F(1),), (cycle,)), SideDecomposition((), ()))
    assert _checked(res.certificate, res.value, w)


@pytest.mark.parametrize("name", sorted(_commutator_forgeries()))
def test_forged_certificates_are_refused(name):
    cert, value = _commutator_forgeries()[name]
    w = parse_word("a b a^-1 b^-1")
    assert (w.n - cert.kappa_sum()) / 2 == value
    assert not _checked(cert, value, w)


def test_a_weight_without_a_part_is_refused():
    # the reference checker zips weights with parts, so it drops the extra
    # weight from every check but counts it in kappa, and accepts scl <= -9/2
    w = parse_word("a b a^-1 b^-1")
    cert = scl(w).certificate
    forged = SclCertificate(
        cert.v_a, cert.v_b,
        SideDecomposition(cert.side_a.weights + (F(10),), cert.side_a.parts),
        cert.side_b)
    assert (w.n - forged.kappa_sum()) / 2 == F(-9, 2)
    assert not verify_certificate(forged, F(-9, 2), w)
    assert reference_certificate.verify_certificate(
        SimpleNamespace(certificate=forged, value=F(-9, 2)), w)


@pytest.mark.parametrize("cert_word, w", [
    ("a b a^-1 b^-1", universal_word(3)),
    ("a1 a2 b1 b2 a1^-1 b1^-1 a2^-1 b2^-1", parse_word("a b a^-1 b^-1")),
], ids=["fewer-blocks", "more-blocks"])
def test_certificate_of_another_size_is_refused(cert_word, w):
    # the fewer-blocks case used to index past the certificate's flows
    res = scl(parse_word(cert_word))
    assert not _checked(res.certificate, res.value, w)


def test_certificates_hold_on_a_seeded_corpus():
    # words of 2-4 blocks plus the span-equal pair of criterion 4; a
    # stabilized answer comes from a run shared by its bounds, whose
    # certificate must hold at the bound reported
    from sclflow.acceptance import _linear_algebra_example_pair

    rng = random.Random(23)
    corpus = [(_random_word(rng, rng.randint(2, 4)), rng.randint(1, 2))
              for _ in range(20)]
    corpus.extend((w, 2) for w in _linear_algebra_example_pair())
    for w, bound in corpus:
        for stabilize in (True, False):
            res = scl(w, bound=bound, stabilize=stabilize)
            assert _checked(res.certificate, res.value, w), \
                (render_word(w), bound, stabilize)
            # the same certificate does not prove any other value
            assert not _checked(res.certificate, res.value - F(1, 7), w)


@pytest.mark.parametrize("bound", [2.5, True])
@pytest.mark.parametrize("call", [
    lambda b: scl(universal_word(2), bound=b),
    lambda b: klein_value(SPEC2, cycle_flow(2, [0, 1]), b),
    lambda b: conjecture_check(1, 1, 1, b),
], ids=["scl", "klein_value", "conjecture_check"])
def test_bound_must_be_an_int(call, bound):
    # range() would run True as bound 1 and fail on 2.5 with a TypeError
    with pytest.raises(InputError, match="expected an integer"):
        call(bound)
