import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from sclflow import hardness
from sclflow.cones import is_essential
from sclflow.errors import InputError, InternalCheckError, LimitExceeded, PromiseViolation
from sclflow.hardness import (
    SS_BRUTE_LIMIT,
    append_balance,
    build_table,
    collapse,
    decide_small_scl,
    essential_gadget,
    essential_gadget_answer,
    instance,
    j_pair_certificate,
    reduce_ss_to_smallscl,
    small_scl_instance,
    solve_subset,
    verify_table_properties,
)
from sclflow.graphs import cycle_flow, mdgraph
from sclflow.synth import lemma_numbers, step2_weights, step3_concretize
from sclflow.words import render_word

F = Fraction


def brute_ss(vals):
    n = len(vals)
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            if sum(vals[i] for i in idx) == 0:
                return True
    return False


def test_solve_ss_examples():
    assert solve_subset(instance("SS", [1, -1, 3])).answer
    assert solve_subset(instance("SS", [1, 2])).answer is False


def test_solve_ssp_examples():
    assert not solve_subset(instance("SSP", [1, -1])).answer
    assert solve_subset(instance("SSP", [1, -1, 0])).answer


def test_solve_varssp_example():
    assert not solve_subset(instance("VARSSP", [2, -1, -1])).answer
    ans = solve_subset(instance("VARSSP", [2, -1, -1, 0]))
    assert ans.answer and sum(ans.witness) < 4


def _first_zero_subset(vectors, top):
    """The first zero-sum index set by size, then lexicographically."""
    n, k = len(vectors), len(vectors[0])
    for size in range(1, top + 1):
        for idx in combinations(range(n), size):
            if all(sum(vectors[i][c] for i in idx) == 0 for c in range(k)):
                return tuple(1 if i in idx else 0 for i in range(n))
    return None


def test_binary_witnesses_match_plain_search():
    rng = random.Random(12)
    for _ in range(300):
        k = rng.randint(1, 3)
        n = rng.randint(1, 7)
        vectors = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        balanced = vectors + [[-sum(col) for col in zip(*vectors)]]
        for variant, vecs, top in (("SS", vectors, n), ("SSP", balanced, n)):
            ans = solve_subset(instance(variant, vecs))
            want = _first_zero_subset(vecs, top)
            assert ans.answer == (want is not None)
            assert ans.witness == want


def test_mixed_promise_violation():
    # SSP false but a weighted solution of weight < n exists
    # (1,1,-2,0,0): wait - find a genuine example by search instead
    found = None
    for vals in product(range(-3, 4), repeat=4):
        if sum(vals) != 0:
            continue
        ssp = solve_subset(instance("SSP", list(vals))).answer
        var = solve_subset(instance("VARSSP", list(vals))).answer
        if ssp != var:
            found = list(vals)
            break
    assert found is not None
    with pytest.raises(PromiseViolation):
        solve_subset(instance("MIXEDSSP", found))


def test_coss():
    assert solve_subset(instance("COSS", [1, 2, 4])).answer
    assert not solve_subset(instance("COSS", [1, -1, 4])).answer


def test_append_balance():
    assert append_balance([1, 2]).vectors == ((1,), (2,), (-3,))
    assert append_balance([1, -1]).vectors == ((1,), (-1,), (0,))


def test_append_balance_equivalence_exhaustive():
    for m in (1, 2, 3, 4):
        for vals in product(range(-3, 4), repeat=m):
            ss = solve_subset(instance("SS", list(vals))).answer
            ssp = solve_subset(append_balance(list(vals))).answer
            assert ss == ssp


def test_complement_lemma_exhaustive():
    # proper-subset answer on a zero-sum list equals the subset answer on
    # the list with its last entry dropped
    for m in (2, 3, 4):
        for vals in product(range(-3, 4), repeat=m - 1):
            full = list(vals) + [-sum(vals)]
            ssp = solve_subset(instance("SSP", full)).answer
            ss = solve_subset(instance("SS", full[:-1])).answer
            assert ssp == ss


def test_build_table_matches_hand_instance():
    t = build_table([1, -1], 1)
    assert t.columns == (
        (1, -1, -1, 0, -1),
        (-1, -1, 0, -1, -1),
        (0, -1, -1, 0, 0),
        (0, -1, 0, -1, 0),
        (0, 2, 1, 1, 1),
        (0, 2, 1, 1, 1),
    )


def test_build_table_row_sums_zero():
    t = build_table([1, -1, 2, -2], 3)
    k = len(t.columns[0])
    for row in range(k):
        assert sum(c[row] for c in t.columns) == 0


def test_table_with_no_solution():
    for r in (1,):
        t = build_table([1, -1], r)
        assert verify_table_properties(t) == []


def test_table_witness_properties():
    t = build_table([1, -1, 2, -2], 2)
    reports = verify_table_properties(t)
    assert reports
    for rep in reports:
        assert rep.all_hold()


def test_table_witness_lift():
    # mu = (1,1,0,0) kills the base row with weight 2, so
    # lambda = (mu, 1 - mu, 1, 0) kills every table row at r = 2 only
    mu = [1, 1, 0, 0]
    lam = mu + [1 - m for m in mu] + [1, 0]

    def residue(t):
        return [sum(l * c[row] for l, c in zip(lam, t.columns))
                for row in range(t.n + 3)]

    t = build_table([1, -1, 2, -2], 2)
    assert 0 < sum(lam) < len(t.columns)
    assert not any(residue(t))
    assert any(residue(build_table([1, -1, 2, -2], 1)))


def test_build_table_input_validation():
    with pytest.raises(InputError):
        build_table([1, 1], 1)  # not zero-sum
    with pytest.raises(InputError):
        build_table([1, -1], 2)  # r out of range


def test_collapse_identity_for_scalars():
    assert collapse([[3], [-1], [5]], 4) == [3, -1, 5]


def test_collapse_preserves_answers_exhaustive():
    rng = random.Random(10)
    for _ in range(150):
        k = rng.randint(1, 3)
        n = rng.randint(2, 4)
        vectors = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        ints = collapse(vectors, n)
        for variant in ("SS",):
            a = solve_subset(instance(variant, vectors)).answer
            b = solve_subset(instance(variant, ints)).answer
            assert a == b
        # zero-sum inputs also compare the proper and weighted variants
        if all(sum(v[c] for v in vectors) == 0 for c in range(k)):
            for variant in ("SSP", "VARSSP"):
                a = solve_subset(instance(variant, vectors)).answer
                b = solve_subset(instance(variant, ints)).answer
                assert a == b


def test_collapse_on_tables_preserves_mixed_answer():
    for vals in ([1, -1], [1, -1, 2], [2, -1, -1]):
        balanced = append_balance(vals)
        base = [v[0] for v in balanced.vectors]
        n = len(base)
        for r in range(1, n):
            t = build_table(base, r)
            collapsed = collapse(t.columns, 2 * n + 2)
            a = solve_subset(t.to_instance("SSP")).answer
            b = solve_subset(instance("SSP", collapsed)).answer
            assert a == b


def test_small_scl_instance_words():
    assert render_word(small_scl_instance([1, -1])) == "a b a^-1 b^-1"
    assert render_word(small_scl_instance([2, -1, -1])) == "a^2 b a^-1 b a^-1 b^-2"
    with pytest.raises(InputError):
        small_scl_instance([1, 0, -1])
    with pytest.raises(InputError):
        small_scl_instance([1, 1])


def test_j_pair_certificate_example():
    from types import SimpleNamespace

    import reference_certificate
    from sclflow.engine import verify_certificate

    xs = [1, 1, -1, -1, 2, -2]
    cert = j_pair_certificate(xs, [0, 2])
    assert cert.count == 6
    assert cert.certified_upper == F(23, 12)
    # v_A decomposes into 2N disc parts of weight 1/N, and v_B is N * v_B
    # at weight 1/N
    scl_cert = cert.certificate
    assert len(scl_cert.side_a.parts) == 12
    assert set(scl_cert.side_a.weights) == {F(1, 6)}
    assert scl_cert.side_b.weights == (F(1, 6),)
    assert scl_cert.side_b.parts[0] == scl_cert.v_b.scale(6)
    w = small_scl_instance(xs)
    assert verify_certificate(scl_cert, cert.certified_upper, w)
    assert reference_certificate.verify_certificate(
        SimpleNamespace(certificate=scl_cert, value=cert.certified_upper), w)


def test_j_pair_certificate_with_a_non_disc_part_is_refused(monkeypatch):
    # the first complement cycle 1 -> 3 -> 4 -> 5 -> 1 is swapped for the
    # two 2-cycles 1 <-> 3 and 4 <-> 5: the same unit flow through each
    # vertex and a cone member, but not strongly connected, so not a disc
    xs = [1, 1, -1, -1, 2, -2]
    real = hardness.hamiltonian_cycles
    split = cycle_flow(6, [1, 3]).add(cycle_flow(6, [4, 5]))

    def swapped(subset, n):
        cycles = real(subset, n)
        if tuple(subset) == (1, 3, 4, 5):
            assert cycles[0] == cycle_flow(6, [1, 3, 4, 5])
            cycles[0] = split
        return cycles

    monkeypatch.setattr(hardness, "hamiltonian_cycles", swapped)
    with pytest.raises(InternalCheckError, match="does not prove"):
        j_pair_certificate(xs, [0, 2])


def test_j_pair_rejects_adjacent_pair():
    with pytest.raises(InputError):
        j_pair_certificate([1, -1, 3, -3], [0, 1])
    with pytest.raises(InputError):
        j_pair_certificate([3, -3, 1, -1], [0, 1])


def test_j_pair_certificate_bounds_lp_value():
    from sclflow.engine import scl

    xs = (1, 2, -1, -2)
    cert = j_pair_certificate(xs, (0, 2))
    w = small_scl_instance(list(xs))
    value = scl(w, bound=2, stabilize=False).value
    assert value <= cert.certified_upper


def test_decide_small_scl_routes():
    assert decide_small_scl([1, -1, 3, -3]).route == "precheck"
    d = decide_small_scl([1, 2, -1, -2])
    assert d.answer and d.route == "jpair"
    d = decide_small_scl([1, 2, 4, -7])
    assert not d.answer and d.route == "lower-bound"


@pytest.mark.parametrize("a", [1, 2, 3])
def test_decide_small_scl_on_two_entries_matches_scl(a):
    # the cancelling pair is the whole list, not a proper subset, and
    # scl(a^a b a^-a b^-1) = 1/2 does not go below the threshold 0
    from sclflow.engine import scl

    xs = [a, -a]
    d = decide_small_scl(xs)
    value = scl(small_scl_instance(xs)).value
    assert d.answer == (value < F(len(xs), 2) - 1)
    assert not d.answer and d.route == "lower-bound"


def test_decide_small_scl_refuses_a_list_that_does_not_sum_to_zero():
    # such a list names no word; past the precheck it would reach
    # cone_spec through a J-pair certificate and fail there
    with pytest.raises(InputError, match="exponents must sum to zero"):
        decide_small_scl([1, 5, -1, 7])
    with pytest.raises(InputError, match="exponents must sum to zero"):
        decide_small_scl([1, -1, 3])
    # a zero entry is still answered by the precheck
    d = decide_small_scl([0, 5, 1])
    assert d.answer and d.route == "precheck"


def test_decide_small_scl_refuses_more_than_the_brute_limit_past_the_precheck():
    # powers of two and their negated sum: no proper zero-sum subset, so
    # an uncapped search would visit every subset of up to half the list
    powers = [2 ** k for k in range(SS_BRUTE_LIMIT)]
    with pytest.raises(LimitExceeded):
        decide_small_scl(powers + [-sum(powers)])
    # the precheck still answers longer lists
    assert decide_small_scl([0] + powers).route == "precheck"
    d = decide_small_scl([1, -1] + powers + [-sum(powers)])
    assert d.answer and d.route == "precheck"


def test_reduction_driver_matches_brute_force():
    rng = random.Random(14)
    for _ in range(40):
        m = rng.randint(1, 3)
        vals = [rng.randint(-3, 3) for _ in range(m)]
        transcript = reduce_ss_to_smallscl(vals)
        assert transcript.answer == brute_ss(vals)
        data = transcript.to_json()
        assert data["answer"] == transcript.answer
        assert len(data["steps"]) == len(transcript.steps)


def test_reduction_driver_brute_route_for_long_inputs():
    vals = [1, -2, 3, -2]
    transcript = reduce_ss_to_smallscl(vals)
    assert transcript.answer == brute_ss(vals)
    assert all(s.route == "brute" for s in transcript.steps)


def test_scl_path_steps_match_the_mixed_brute_force_answer():
    # the reduction answers each scl-path step by the threshold decision
    # alone; the weighted and 0/1 searches must agree with it
    checked = 0
    for m in (1, 2, 3):
        for vals in product(range(-2, 3), repeat=m):
            for step in reduce_ss_to_smallscl(list(vals)).steps:
                if step.route.startswith("smallscl/"):
                    mixed = solve_subset(instance("MIXEDSSP", step.collapsed))
                    assert step.mixed_answer == mixed.answer, (vals, step.r)
                    checked += 1
    assert checked


def test_reduction_notes_a_broken_promise_and_answers_by_ssp(monkeypatch):
    def broken(xs):
        raise PromiseViolation("outside the promise")

    monkeypatch.setattr(hardness, "decide_small_scl", broken)
    transcript = reduce_ss_to_smallscl([2, -1, -1])
    assert transcript.notes == ["r=1: outside the promise",
                                "r=2: outside the promise"]
    assert [(s.promise_ok, s.route, s.detail, s.mixed_answer)
            for s in transcript.steps] == [
        (False, "brute", "brute-force oracle", True),
        (False, "brute", "brute-force oracle", False)]
    assert transcript.answer


def test_reduction_runs_one_decision_per_step(monkeypatch):
    calls = {"binary": 0, "weighted": 0}

    def counted(kind, search):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return search(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hardness, "_solve_binary",
                        counted("binary", hardness._solve_binary))
    monkeypatch.setattr(hardness, "_solve_varssp",
                        counted("weighted", hardness._solve_varssp))
    transcript = reduce_ss_to_smallscl([2, -1, -1])
    assert [s.route for s in transcript.steps] == [
        "smallscl/jpair", "smallscl/lower-bound"]
    assert calls == {"binary": len(transcript.steps), "weighted": 0}


def test_essential_gadget_structure():
    g = essential_gadget([2, -1])
    assert g.balanced == (2, -1, -1)
    assert g.spec.n == 8
    assert is_essential(g.spec, g.disc)


def test_essential_gadget_answers():
    assert essential_gadget_answer([2, -1]) is True
    assert essential_gadget_answer([1, -1, 3]) is False
    assert essential_gadget_answer([0]) is False
    assert essential_gadget_answer([1, -1]) is False  # balance entry is zero


def test_essential_gadget_answer_refuses_an_empty_list():
    # the empty list's balance is 0, but it has no nonempty subset at all
    for call in (essential_gadget_answer, essential_gadget):
        with pytest.raises(InputError, match="need at least one value"):
            call([])


@pytest.mark.parametrize("values", [
    [2 ** k for k in range(SS_BRUTE_LIMIT + 1)],
    [0] + [2 ** k for k in range(SS_BRUTE_LIMIT)],
], ids=["powers-of-two", "with-zero"])
def test_essential_gadget_refuses_more_than_the_brute_limit(values):
    # the essentiality search visits every subset of petals
    with pytest.raises(LimitExceeded):
        essential_gadget_answer(values)
    with pytest.raises(LimitExceeded):
        essential_gadget(values)
    assert len(essential_gadget(values[1:]).balanced) == SS_BRUTE_LIMIT + 1


@pytest.mark.parametrize("call", [
    lambda: instance("SS", [1.7, -1.2]),
    lambda: instance("SS", [[1, F(1, 2)]]),
    lambda: append_balance([1.5, 2]),
    lambda: build_table([1.5, -1.5], 1),
    lambda: build_table([1, -1], 1.5),
    lambda: collapse([[1.5, 0], [-1.5, 0]], 2),
    lambda: collapse([[1, 2], [-1, -2]], 1.5),
    lambda: small_scl_instance([1.5, -1.2]),
    lambda: j_pair_certificate([1, 1, -1, -1, 2, -2], [0.0, 2]),
    lambda: decide_small_scl([1.5, -1.2, 3]),
    lambda: reduce_ss_to_smallscl([1.5, -1.2]),
    lambda: essential_gadget([1.5, 2]),
    lambda: essential_gadget_answer([1.5, 2]),
    lambda: lemma_numbers([1.5, 2]),
    lambda: step2_weights(mdgraph(2, [(0, 1), (1, 0)]), [1.5, 1], 0),
    lambda: step3_concretize(mdgraph(1, [(0, 0)]), [1.7], [0.5], [1, -1, 1, -1]),
], ids=["instance", "instance-vector", "append_balance", "build_table",
        "build_table-r", "collapse",
        "collapse-usage_bound", "small_scl_instance", "j_pair_certificate",
        "decide_small_scl", "reduce_ss_to_smallscl", "essential_gadget",
        "essential_gadget_answer", "lemma_numbers", "step2_weights",
        "step3_concretize"])
def test_reduction_chain_refuses_non_integer_values(call):
    with pytest.raises(InputError):
        call()
