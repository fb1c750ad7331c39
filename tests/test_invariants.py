import random

import pytest

from flatknots import (
    GaussDiagram,
    UnknownArrow,
    UPolynomial,
    apply,
    arrow_index,
    enumerate_diagrams,
    enumerate_fr3,
    parse,
    u_polynomial,
)
from conftest import all_legal_moves, random_diagram


def test_index_single_arrow():
    assert arrow_index(parse("+1 -1"), 1) == 0


def test_index_interleaved_pair():
    d = parse("+1 +2 -1 -2")
    assert arrow_index(d, 1) == -1
    assert arrow_index(d, 2) == 1


def test_index_non_interlaced_pair():
    d = parse("+1 -1 +2 -2")
    assert arrow_index(d, 1) == 0
    assert arrow_index(d, 2) == 0


def test_index_unknown_arrow():
    with pytest.raises(UnknownArrow):
        arrow_index(parse("+1 -1"), 2)


def test_u_of_empty_is_zero():
    u = u_polynomial(GaussDiagram(()))
    assert u.is_zero and str(u) == "0"


def test_u_interleaved_pair_cancels():
    assert u_polynomial(parse("+1 +2 -1 -2")).is_zero


def test_u_zero_for_all_diagrams_up_to_two_arrows():
    for n in (0, 1, 2):
        for d in enumerate_diagrams(n):
            assert u_polynomial(d).is_zero


def test_u_text_format():
    assert str(UPolynomial.from_dict({1: -1, 3: 2})) == "-t^1+2t^3"
    assert str(UPolynomial.from_dict({2: 1})) == "t^2"
    assert str(UPolynomial.from_dict({1: 2, 2: -1})) == "2t^1-t^2"
    assert str(UPolynomial.from_dict({1: 0})) == "0"


def test_u_rejects_nonpositive_exponents():
    with pytest.raises(ValueError):
        UPolynomial.from_dict({0: 3})


def test_u_known_nontrivial_witness():
    # evaluated by hand from the index definition
    assert str(u_polynomial(parse("+1 +2 -1 -3 -2 +3"))) == "-2t^1+t^2"


def test_u_invariant_under_every_move():
    rng = random.Random(11)
    checked = 0
    while checked < 1500:
        d = random_diagram(rng, rng.randint(0, 6))
        moves = all_legal_moves(d, max_arrows=8)
        if not moves:
            continue
        m = rng.choice(moves)
        assert u_polynomial(apply(d, m)) == u_polynomial(d), (d.word, m)
        checked += 1


def test_index_sum_invariant_under_fr3():
    rng = random.Random(12)
    checked = 0
    while checked < 300:
        d = random_diagram(rng, rng.randint(3, 6))
        sites = enumerate_fr3(d)
        if not sites:
            continue
        m = rng.choice(sites)
        e = apply(d, m)
        before = sum(arrow_index(d, a) for a in range(1, d.n + 1))
        after = sum(arrow_index(e, a) for a in range(1, e.n + 1))
        assert before == after
        checked += 1
