import itertools
import random

import pytest

from flatknots import (
    GaussDiagram,
    MoveTrace,
    OrbitBudgetExceeded,
    OrbitLimits,
    TraceMismatch,
    apply,
    canonical_form,
    crossing_number,
    enumerate_diagrams,
    equivalent,
    fr3_orbit,
    is_minimal,
    minimal_class_code,
    monotone_reduce,
    parse,
    replay_trace,
    serialize,
    u_polynomial,
)
from flatknots.diagram import canonical_word
from flatknots.moves import KIND_DELTA
from conftest import all_legal_moves, full_move_graph_classes, random_diagram

# found by exhaustive tabulation at three arrows; irreducible, u = -2t+t^2
WITNESS_3 = "+1 +2 -1 -3 -2 +3"


def test_reduce_kink():
    minimal, trace = monotone_reduce(parse("+1 -1"))
    assert minimal.n == 0
    assert [m.kind for m in trace.steps] == ["fr1-remove"]
    assert trace.start == "+1 -1" and trace.end == "0"


def test_every_two_arrow_diagram_is_trivial():
    for n in (1, 2):
        for d in enumerate_diagrams(n):
            minimal, _ = monotone_reduce(d)
            assert minimal.n == 0, serialize(d)


def test_three_arrow_fixed_point():
    d = parse(WITNESS_3)
    minimal, trace = monotone_reduce(d)
    assert minimal.n == 3
    assert trace.steps == ()
    assert crossing_number(d) == 3


def test_crossing_number_examples():
    assert crossing_number(GaussDiagram(())) == 0
    assert crossing_number(parse("+1 -2 +2 -1")) == 0
    assert crossing_number(parse(WITNESS_3)) == 3


def test_orbit_of_empty():
    codes, pred = fr3_orbit(GaussDiagram(()))
    assert codes == ("0",)
    assert pred == {"0": None}


def test_two_arrow_orbit_is_singleton():
    for d in enumerate_diagrams(2):
        codes, _ = fr3_orbit(d)
        assert codes == (canonical_form(d),)


def test_orbit_contains_both_sides_of_a_slide():
    from flatknots import build_fr3_catalog, enumerate_fr3

    entry = build_fr3_catalog()[0]
    labels, word = {}, []
    for block in entry.before:
        for sym, role in block:
            lab = labels.setdefault(sym, len(labels) + 1)
            word.append(lab * role)
    d = GaussDiagram(tuple(word))
    m = next(mm for mm in enumerate_fr3(d) if mm.variant == entry.id)
    codes, _ = fr3_orbit(d)
    assert canonical_form(d) in codes
    assert canonical_form(apply(d, m)) in codes


def test_is_minimal_examples():
    assert is_minimal(GaussDiagram(()))
    assert not is_minimal(parse("+1 -1"))
    minimal, _ = monotone_reduce(parse("+1 +2 -1 -2 +3 -3"))
    assert is_minimal(minimal)


def test_traces_never_increase_crossing_count():
    rng = random.Random(21)
    for _ in range(60):
        d = random_diagram(rng, rng.randint(0, 5))
        _, trace = monotone_reduce(d)
        cur = canonical_word(parse(trace.start).word)
        for m in trace.steps:
            assert KIND_DELTA[m.kind] <= 0
            cur = canonical_word(apply(GaussDiagram(cur), m).word)
        assert serialize(GaussDiagram(cur)) == trace.end


def test_reduce_idempotent():
    rng = random.Random(22)
    for _ in range(40):
        d = random_diagram(rng, rng.randint(0, 5))
        minimal, _ = monotone_reduce(d)
        again, trace = monotone_reduce(minimal)
        assert again == minimal and trace.steps == ()


def test_trace_replay_round_trip():
    rng = random.Random(23)
    for _ in range(40):
        d = random_diagram(rng, rng.randint(0, 5))
        minimal, trace = monotone_reduce(d)
        assert replay_trace(trace) == minimal
        rehydrated = MoveTrace.from_json(trace.to_json())
        assert replay_trace(rehydrated) == minimal


def test_trace_end_mismatch_detected():
    _, trace = monotone_reduce(parse("+1 -1"))
    broken = MoveTrace(trace.start, trace.steps, "+1 -1 +2 -2")
    with pytest.raises(TraceMismatch):
        replay_trace(broken)


def test_equivalent_reflexive_random():
    rng = random.Random(24)
    for _ in range(25):
        d = random_diagram(rng, rng.randint(0, 5))
        assert equivalent(d, d)


def test_equivalent_kink_and_empty():
    assert equivalent(parse("+1 -1"), GaussDiagram(()))


def test_witness_not_trivial():
    assert not equivalent(parse(WITNESS_3), GaussDiagram(()))


def test_equivalence_symmetric_transitive_spot():
    rng = random.Random(25)
    pool = [random_diagram(rng, rng.randint(0, 4)) for _ in range(12)]
    for d1, d2 in itertools.combinations(pool, 2):
        assert equivalent(d1, d2) == equivalent(d2, d1)
    for d1, d2, d3 in itertools.combinations(pool, 3):
        if equivalent(d1, d2) and equivalent(d2, d3):
            assert equivalent(d1, d3)


def test_perturbation_stability():
    rng = random.Random(26)
    for _ in range(30):
        d = random_diagram(rng, rng.randint(0, 3))
        e = d
        for _ in range(rng.randint(1, 6)):
            moves = all_legal_moves(e)
            e = apply(e, rng.choice(moves))
        assert equivalent(d, e), (serialize(d), serialize(e))


def test_equivalent_agrees_with_full_graph_oracle_small():
    oracle = full_move_graph_classes(4)
    diagrams = [d for n in range(3) for d in enumerate_diagrams(n)]
    for d1, d2 in itertools.combinations_with_replacement(diagrams, 2):
        want = oracle[canonical_word(d1.word)] == oracle[canonical_word(d2.word)]
        assert equivalent(d1, d2) == want


def test_certificate_concatenates_and_replays():
    d1 = parse("+1 -1 +2 +3 -2 -3")
    d2 = parse("-3 +3 +1 +2 -1 -2")
    same, cert = equivalent(d1, d2, with_certificate=True)
    assert same and cert is not None
    assert cert.start == canonical_form(d1)
    assert cert.end == canonical_form(d2)
    assert replay_trace(cert) == GaussDiagram(canonical_word(d2.word))
    not_same, no_cert = equivalent(d1, parse(WITNESS_3), with_certificate=True)
    assert not not_same and no_cert is None


def test_u_fast_path_never_blocks_true():
    # equal u-polynomials must fall through to the orbit decision
    d1 = parse("+1 +2 -1 -2 +3 +4 -3 -4")
    d2 = parse("+1 +2 -3 -4 +3 +4 -1 -2")
    assert u_polynomial(d1) == u_polynomial(d2)
    assert not equivalent(d1, d2)


def test_orbit_budget_exceeded_signals():
    # this five-arrow connected sum has an FR3 orbit with more than one node
    d = parse("+1 +2 -1 -2 +3 +4 -3 +5 -4 -5")
    start = canonical_form(d)
    with pytest.raises(OrbitBudgetExceeded) as info:
        fr3_orbit(d, OrbitLimits(max_nodes=1))
    # the message names where the search started and how far it got
    assert f"FR3 orbit of {start} " in str(info.value)
    assert "(nodes explored: 1, expanded: 1)" in str(info.value)
    codes, _ = fr3_orbit(d)
    assert len(codes) == 2


def test_orbit_limits_validation():
    with pytest.raises(ValueError):
        OrbitLimits(max_nodes=0)


def test_minimal_class_code_is_class_invariant():
    rng = random.Random(27)
    for _ in range(20):
        d = random_diagram(rng, rng.randint(0, 4))
        e = d
        for _ in range(3):
            moves = all_legal_moves(e)
            e = apply(e, rng.choice(moves))
        assert minimal_class_code(d) == minimal_class_code(e)
