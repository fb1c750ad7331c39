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
from conftest import all_legal_moves, arrow_index_oracle, random_diagram, u_polynomial_oracle


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


@pytest.mark.parametrize("arrow", [True, 2.0, "1", None])
def test_index_rejects_an_arrow_that_is_not_an_int(arrow):
    # True and 2.0 compare equal to arrows 1 and 2, which are present
    with pytest.raises(UnknownArrow):
        arrow_index(parse("+1 +2 -1 -2"), arrow)


def test_u_of_empty_is_zero():
    u = u_polynomial(GaussDiagram(()))
    assert not u.terms and str(u) == "0"


def test_u_interleaved_pair_cancels():
    assert not u_polynomial(parse("+1 +2 -1 -2")).terms


def test_u_zero_for_all_diagrams_up_to_two_arrows():
    for n in (0, 1, 2):
        for d in enumerate_diagrams(n):
            assert not u_polynomial(d).terms


def test_u_text_format():
    assert str(UPolynomial.from_dict({1: -1, 3: 2})) == "-t^1+2t^3"
    assert str(UPolynomial.from_dict({2: 1})) == "t^2"
    assert str(UPolynomial.from_dict({1: 2, 2: -1})) == "2t^1-t^2"
    assert str(UPolynomial.from_dict({1: 0})) == "0"


def test_u_rejects_nonpositive_exponents():
    for exponent in (0, -1):
        with pytest.raises(ValueError, match="^u-polynomial exponents must be >= 1$"):
            UPolynomial.from_dict({exponent: 3})


@pytest.mark.parametrize("exponent", [True, 1.5, "1", None])
def test_u_rejects_an_exponent_that_is_not_an_integer(exponent):
    # True once printed as t^True and 1.5 as t^1.5
    with pytest.raises(ValueError) as info:
        UPolynomial.from_dict({2: 1, exponent: 1})
    assert str(info.value) == f"u-polynomial exponents must be an integer, not {exponent!r}"


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


def test_index_and_u_match_the_oracle_in_every_rotation():
    """u on every rotation of every diagram with n <= 5, so arcs cross
    the word's end in every way they can, and every arrow's index on each
    diagram.  A rotation keeps each arrow's arcs, so the oracle runs once
    per diagram."""
    nonzero = 0
    for n in range(6):
        for d in enumerate_diagrams(n):
            assert [arrow_index(d, a) for a in range(1, n + 1)] == [
                arrow_index_oracle(d, a) for a in range(1, n + 1)
            ]
            u = u_polynomial_oracle(d)
            nonzero += bool(u.terms)
            for r in range(max(d.size, 1)):
                rotated = GaussDiagram(d.word[r:] + d.word[:r])
                assert u_polynomial(rotated) == u, rotated.word
    assert nonzero > 1000


def test_u_matches_the_oracle_on_random_words():
    rng = random.Random(73)
    nonzero = 0
    for _ in range(20000):
        d = random_diagram(rng, rng.randint(0, 16))
        got = u_polynomial(d)
        assert got == u_polynomial_oracle(d), d.word
        nonzero += bool(got.terms)
    assert nonzero > 10000
