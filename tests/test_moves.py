import collections
import random

import pytest

from flatknots import (
    GaussDiagram,
    Move,
    SiteMismatch,
    apply,
    build_fr3_catalog,
    canonical_form,
    classify,
    crossing_number,
    enumerate_decreasing,
    enumerate_fr1_decreasing,
    enumerate_fr1_increasing,
    enumerate_fr2_decreasing,
    enumerate_fr2_increasing,
    enumerate_fr3,
    enumerate_diagrams,
    enumerate_increasing,
    fr3_orbit,
    inverse,
    parse,
    serialize,
)
from flatknots import diagram
from flatknots.diagram import HEAD, TAIL, canonical_word
from flatknots.moves import canonical_pattern
from conftest import (
    _fr3_structural,
    all_legal_moves,
    apply_oracle,
    fr1_oracle,
    fr2_oracle,
    fr3_oracle,
    random_diagram,
)

# ---------------------------------------------------------------------------
# FR1
# ---------------------------------------------------------------------------


def test_fr1_isolated_kink():
    moves = enumerate_fr1_decreasing(parse("+1 -1"))
    assert len(moves) == 1 and moves[0].variant == "th"


def test_fr1_opposite_direction():
    moves = enumerate_fr1_decreasing(parse("-1 +1"))
    assert len(moves) == 1 and moves[0].variant == "ht"


def test_fr1_no_adjacent_endpoints():
    assert enumerate_fr1_decreasing(parse("+1 +2 -1 -2")) == []


def test_fr1_remove_and_insert_round():
    empty = apply(parse("+1 -1"), Move("fr1-remove", "th", (0, 1)))
    assert empty.n == 0
    back = apply(empty, Move("fr1-insert", "th", (0,)))
    assert back.word == (1, -1)


def test_fr1_remove_relabels():
    d = parse("+2 -2 +1 -1")
    out = apply(d, Move("fr1-remove", "th", (0, 1)))
    assert out.word == (1, -1)


@pytest.mark.parametrize(
    "enumerate_sites, oracle, min_sites",
    [
        (enumerate_fr1_decreasing, fr1_oracle, 80000),
        (enumerate_fr2_decreasing, fr2_oracle, 40000),
    ],
    ids=["fr1", "fr2"],
)
def test_decreasing_enumerators_match_oracles_in_every_rotation(enumerate_sites, oracle, min_sites):
    # rotations put a site on the wrap from the last endpoint to the first
    rng = random.Random(32)
    bases = [d for n in range(6) for d in enumerate_diagrams(n)]
    bases += [random_diagram(rng, 1 + i % 16) for i in range(3000)]
    words = [d.word[r:] + d.word[:r] for d in bases for r in range(max(d.size, 1))]
    assert len(words) > 80000
    sites = 0
    for word in words:
        d = GaussDiagram(word)
        got = enumerate_sites(d)
        assert got == oracle(d), word
        sites += len(got)
    assert sites > min_sites


# ---------------------------------------------------------------------------
# FR2 and the coordinate bigon model
# ---------------------------------------------------------------------------


def bigon_model_classes():
    """Independent FR2 oracle: every removable two-arrow pattern realizable
    by two strands crossing twice in the plane.  Strand A runs along the
    x-axis with direction sa; strand B is a parabola through the two
    crossings u, v, bulging to side c, with direction sb.  An endpoint is
    a tail when the ordered tangent pair at its crossing has positive
    determinant."""
    classes = set()
    for sa in (1, -1):
        for sb in (1, -1):
            for c in (1, -1):
                det_u = -c * sa * sb  # det(tA, tB) at u, up to a positive factor
                det_v = c * sa * sb
                role_a = {"u": TAIL if det_u > 0 else HEAD, "v": TAIL if det_v > 0 else HEAD}
                a_visits = ["u", "v"] if sa > 0 else ["v", "u"]
                b_visits = ["u", "v"] if sb > 0 else ["v", "u"]
                labels, word = {}, []
                for sym in a_visits:
                    lab = labels.setdefault(sym, len(labels) + 1)
                    word.append(lab * role_a[sym])
                for sym in b_visits:
                    lab = labels.setdefault(sym, len(labels) + 1)
                    word.append(lab * -role_a[sym])
                classes.add(canonical_word(tuple(word)))
    return classes


def test_fr2_rule_matches_bigon_model_exactly():
    model = bigon_model_classes()
    admitting = {
        canonical_word(d.word)
        for d in enumerate_diagrams(2)
        if enumerate_fr2_decreasing(d)
    }
    assert admitting == model


def test_fr2_sites_embed_in_bigon_model():
    model = bigon_model_classes()
    rng = random.Random(5)
    seen = 0
    while seen < 200:
        d = random_diagram(rng, rng.randint(2, 6))
        for m in enumerate_fr2_decreasing(d):
            a0, a1, b0, b1 = m.positions
            x, y = d.word[a0], d.word[a1]
            standalone = (
                (1 if x > 0 else -1),
                (2 if y > 0 else -2),
                d.word[b0] // abs(d.word[b0]) * (1 if abs(d.word[b0]) == abs(x) else 2),
                d.word[b1] // abs(d.word[b1]) * (1 if abs(d.word[b1]) == abs(x) else 2),
            )
            assert canonical_word(standalone) in model
            seen += 1


def test_fr2_nested_tails_only_pair_illegal():
    assert enumerate_fr2_decreasing(parse("+1 +2 -2 -1")) == []


def test_fr2_nested_mixed_pair_legal():
    moves = enumerate_fr2_decreasing(parse("+1 -2 +2 -1"))
    assert len(moves) == 1
    assert apply(parse("+1 -2 +2 -1"), moves[0]).n == 0


def test_fr2_interleaved_same_role_pairing_illegal():
    # the (0,1)/(2,3) pairing is tails-only against heads-only and is not
    # a site; only the wrap pairing, which mixes roles, qualifies
    d = parse("+1 +2 -1 -2")
    moves = enumerate_fr2_decreasing(d)
    assert len(moves) == 1
    assert set(moves[0].positions) == {0, 1, 2, 3}
    assert moves[0].positions[:2] != (0, 1)
    assert apply(d, moves[0]).n == 0
    with pytest.raises(SiteMismatch):
        apply(d, Move("fr2-remove", "Ith", (0, 1, 2, 3)))


def test_fr2_one_move_per_arrow_pair():
    rng = random.Random(6)
    for _ in range(200):
        d = random_diagram(rng, rng.randint(2, 6))
        pairs = [
            frozenset(abs(d.word[p]) for p in m.positions)
            for m in enumerate_fr2_decreasing(d)
        ]
        assert len(pairs) == len(set(pairs))


def test_fr2_insert_same_gap_nested():
    d = apply(GaussDiagram(()), Move("fr2-insert", "Nth", (0, 0)))
    assert d.word == (1, -2, 2, -1)
    assert enumerate_fr2_decreasing(d)


# ---------------------------------------------------------------------------
# FR3 catalog from the triangle model
# ---------------------------------------------------------------------------


def test_fr3_catalog_size_frozen():
    catalog = build_fr3_catalog()
    assert len(catalog) == 8
    pairs = {frozenset((e.id, e.inverse_id)) for e in catalog}
    assert len(pairs) == 4
    assert all(e.inverse_id != e.id for e in catalog)


def test_fr3_catalog_worked_configuration():
    # all three strands in the positive direction, blocks in (A, B, C)
    # order: before [r q][r p][q p], after [q r][p r][p q]; r points
    # block1->block2, q block1->block3, p block2->block3
    before = (
        (("r", TAIL), ("q", TAIL)),
        (("r", HEAD), ("p", TAIL)),
        (("q", HEAD), ("p", HEAD)),
    )
    after = (
        (("q", TAIL), ("r", TAIL)),
        (("p", TAIL), ("r", HEAD)),
        (("p", HEAD), ("q", HEAD)),
    )
    index = {e.before: e for e in build_fr3_catalog()}
    entry = index.get(canonical_pattern(before))
    assert entry is not None
    assert canonical_pattern(entry.after) == canonical_pattern(after)


def test_fr3_entries_keep_arrow_directions():
    for e in build_fr3_catalog():
        # a catalog match therefore implies the blocks cover three arrows
        # pairwise, which is why `apply` needs no separate check for it
        assert _fr3_structural(e.before) and _fr3_structural(e.after)
        roles_before = sorted((sym, role) for block in e.before for sym, role in block)
        roles_after = sorted((sym, role) for block in e.after for sym, role in block)
        assert roles_before == roles_after
        assert e.after == tuple((b, a) for a, b in e.before)


def _instantiate(pattern):
    labels, word = {}, []
    for block in pattern:
        for sym, role in block:
            lab = labels.setdefault(sym, len(labels) + 1)
            word.append(lab * role)
    return GaussDiagram(tuple(word))


def test_fr3_enumerate_needs_three_arrows():
    assert enumerate_fr3(parse("+1 +2 -1 -2")) == []
    assert enumerate_fr3(GaussDiagram(())) == []


def test_fr3_pattern_instantiations_have_sites():
    catalog = build_fr3_catalog()
    for e in catalog:
        d = _instantiate(e.before)
        moves = enumerate_fr3(d)
        assert any(
            m.variant == e.id and set(m.positions) == {0, 1, 2, 3, 4, 5} for m in moves
        )


def test_fr3_apply_then_inverse_site_present():
    e = build_fr3_catalog()[0]
    d = _instantiate(e.before)
    m = next(
        m for m in enumerate_fr3(d) if m.variant == e.id and m.positions[0] == 0
    )
    out = apply(d, m)
    back_moves = enumerate_fr3(out)
    assert any(
        bm.variant == e.inverse_id and bm.positions == m.positions for bm in back_moves
    )


def test_fr3_preserves_crossing_count_and_arrows():
    rng = random.Random(9)
    seen = 0
    while seen < 150:
        d = random_diagram(rng, rng.randint(3, 6))
        sites = enumerate_fr3(d)
        if not sites:
            continue
        out = apply(d, rng.choice(sites))
        assert out.n == d.n
        seen += 1


def _fr3_sites_checked(diagrams) -> int:
    """Compare the pair-indexed enumerator with the cubic-scan oracle on
    every diagram; return the number of sites compared."""
    total = 0
    for d in diagrams:
        got = enumerate_fr3(d)
        assert got == fr3_oracle(d), serialize(d)
        total += len(got)
    return total


def test_fr3_index_matches_oracle_small_n_all_rotations():
    # rotations move blocks onto the wrap from the last endpoint to the first
    canonical = [d for n in range(6) for d in enumerate_diagrams(n)]
    assert len(canonical) == 3274
    assert _fr3_sites_checked(canonical) == 1034
    rotated = [
        GaussDiagram(d.word[r:] + d.word[:r]) for d in canonical for r in range(1, d.size)
    ]
    assert _fr3_sites_checked(rotated) >= 9000


def test_fr3_index_matches_oracle_random_large_n():
    rng = random.Random(31)
    diagrams = [random_diagram(rng, 6 + i % 11) for i in range(330)]
    assert _fr3_sites_checked(diagrams) >= 50


def test_fr3_index_matches_oracle_on_classified_orbits():
    members = []
    for rec in classify(5):
        codes = fr3_orbit(parse(rec.code))
        assert len(codes) == rec.orbit_size
        members.extend(parse(c) for c in codes)
    assert len(members) >= 400
    assert _fr3_sites_checked(members) >= 100


# ---------------------------------------------------------------------------
# apply / inverse across all kinds
# ---------------------------------------------------------------------------


def test_apply_site_mismatch():
    d = parse("+1 +2 -1 -2")
    with pytest.raises(SiteMismatch):
        apply(d, Move("fr1-remove", "th", (0, 1)))
    with pytest.raises(SiteMismatch):
        apply(d, Move("fr1-insert", "th", (9,)))
    with pytest.raises(SiteMismatch):
        apply(d, Move("fr2-remove", "Nth", (0, 1, 2, 3)))
    with pytest.raises(SiteMismatch):
        apply(d, Move("fr3", 0, (0, 1, 2, 3, 4, 5)))
    with pytest.raises(SiteMismatch):
        apply(d, Move("fr2-insert", "Xth", (0, 0)))


def test_apply_rejects_positions_past_the_end():
    # each block's second position wraps to a valid index, so only a
    # range check keeps the first one from indexing past the word
    with pytest.raises(SiteMismatch):
        apply(parse("+1 +2 -1 -2"), Move("fr2-remove", "Nth", (7, 0, 1, 2)))
    with pytest.raises(SiteMismatch):
        apply(parse("+1 +2 -1 -3 -2 +3"), Move("fr3", 0, (11, 0, 1, 2, 3, 4)))


@pytest.mark.parametrize(
    "move",
    [
        Move("fr1-insert", "th", ()),
        Move("fr1-insert", "th", (0, 1)),
        Move("fr2-insert", "Nth", (0,)),
        Move("fr2-insert", "Nth", (0, 1, 2)),
    ],
)
def test_apply_rejects_insert_with_wrong_position_count(move):
    with pytest.raises(SiteMismatch):
        apply(parse("+1 +2 -1 -2"), move)


_POSITION_COUNTS = {"fr1-remove": 2, "fr1-insert": 1, "fr2-remove": 4, "fr2-insert": 2, "fr3": 6}
_ANY_VARIANT = ("th", "ht", "Nth", "Nht", "Ith", "Iht", "Xth", *range(-1, 10))


def _perturbed(rng, m, size):
    """m with its variant, one position, or the order of its blocks changed."""
    how = rng.randrange(3)
    if how == 0:
        return Move(m.kind, rng.choice(_ANY_VARIANT), m.positions)
    positions = list(m.positions)
    if how == 1:
        positions[rng.randrange(len(positions))] = rng.randrange(-1, size + 2)
    elif len(positions) > 2:
        pairs = [positions[i : i + 2] for i in range(0, len(positions), 2)]
        positions = [p for pair in pairs[1:] + pairs[:1] for p in pair]
    else:
        positions.reverse()
    return Move(m.kind, m.variant, tuple(positions))


def _random_move(rng, size):
    """A move of any kind and variant, at random positions or, for half
    the removals and FR3 moves, on random cyclically consecutive blocks."""
    kind = rng.choice(sorted(_POSITION_COUNTS))
    count = _POSITION_COUNTS[kind]
    if kind in ("fr1-remove", "fr2-remove", "fr3") and size and rng.random() < 0.5:
        starts = [rng.randrange(size) for _ in range(count // 2)]
        positions = tuple(p for s in starts for p in (s, (s + 1) % size))
    else:
        count = max(0, count + rng.choice((0, 0, 0, -1, 1)))
        positions = tuple(rng.randrange(-1, size + 2) for _ in range(count))
    return Move(kind, rng.choice(_ANY_VARIANT), positions)


def _outcome(apply_fn, d, m):
    try:
        return apply_fn(d, m).word
    except Exception as exc:
        return type(exc)


def test_apply_matches_oracle_on_legal_perturbed_and_random_moves():
    """`apply` accepts exactly the moves the hand-checked reference
    accepts, with the same result word, and rejects the rest with the
    same exception type."""
    rng = random.Random(34)
    accepted = collections.Counter()
    rejected = 0
    for _ in range(3000):
        d = random_diagram(rng, rng.randint(0, 7))
        by_kind = collections.defaultdict(list)
        for m in all_legal_moves(d):
            by_kind[m.kind].append(m)
        moves = [m for ms in by_kind.values() for m in rng.sample(ms, min(len(ms), 2))]
        moves += [_perturbed(rng, m, d.size) for m in moves]
        moves += [_random_move(rng, d.size) for _ in range(8)]
        for m in moves:
            got = _outcome(apply, d, m)
            assert got == _outcome(apply_oracle, d, m), (d.word, m)
            if isinstance(got, tuple):
                accepted[m.kind] += 1
            else:
                rejected += 1
    assert set(accepted) == set(_POSITION_COUNTS), accepted
    assert min(accepted.values()) > 500 and rejected > 30000, (accepted, rejected)


def test_apply_always_returns_a_valid_word():
    """A legal move on a valid word gives a valid word, which is why
    `apply` does not validate its result."""
    rng = random.Random(33)
    diagrams = [d for n in range(6) for d in enumerate_diagrams(n)]
    diagrams += [random_diagram(rng, rng.randint(0, 12)) for _ in range(300)]
    checked = 0
    for d in diagrams:
        moves = enumerate_decreasing(d) + enumerate_fr3(d)
        if d.n <= 3:
            moves += enumerate_increasing(d)
        for m in moves:
            word = apply(d, m).word
            assert type(word) is tuple, (d.word, m)
            diagram._validate_word(word)
            checked += 1
    assert checked > 13000


def test_crossing_delta_accounting():
    rng = random.Random(10)
    for _ in range(400):
        d = random_diagram(rng, rng.randint(0, 5))
        for m in all_legal_moves(d, max_arrows=7):
            assert apply(d, m).n - d.n == m.delta


def test_involution_all_kinds():
    rng = random.Random(13)
    checked = 0
    while checked < 1200:
        d = random_diagram(rng, rng.randint(0, 5))
        moves = all_legal_moves(d, max_arrows=7)
        if not moves:
            continue
        m = rng.choice(moves)
        e = apply(d, m)
        back = apply(e, inverse(m, d.size))
        assert canonical_form(back) == canonical_form(d), (d.word, m)
        checked += 1


def test_double_inverse_round_trip():
    rng = random.Random(14)
    checked = 0
    while checked < 400:
        d = random_diagram(rng, rng.randint(0, 4))
        moves = all_legal_moves(d, max_arrows=6)
        if not moves:
            continue
        m = rng.choice(moves)
        e = apply(d, m)
        inv = inverse(m, d.size)
        back = apply(e, inv)
        again = apply(back, inverse(inv, e.size))
        assert canonical_form(again) == canonical_form(e)
        checked += 1


def test_inverse_examples():
    m = inverse(Move("fr1-remove", "th", (0, 1)), 2)
    assert m == Move("fr1-insert", "th", (0,))
    e = build_fr3_catalog()[0]
    m3 = inverse(Move("fr3", e.id, (0, 1, 2, 3, 4, 5)), 6)
    assert m3 == Move("fr3", e.inverse_id, (0, 1, 2, 3, 4, 5))


def test_insert_closure_reduces_back_to_empty():
    rng = random.Random(15)
    for _ in range(40):
        d = GaussDiagram(())
        for _ in range(rng.randint(1, 6)):
            inserts = enumerate_fr1_increasing(d) + enumerate_fr2_increasing(d)
            d = apply(d, rng.choice(inserts))
        assert crossing_number(d) == 0


def test_move_record_round_trip():
    moves = [
        Move("fr1-remove", "th", (0, 1)),
        Move("fr2-insert", "Iht", (2, 2)),
        Move("fr3", 3, (0, 1, 4, 5, 8, 9)),
    ]
    for m in moves:
        assert Move.from_record(m.to_record()) == m
    with pytest.raises(ValueError):
        Move.from_record({"kind": "fr9", "variant": "", "positions": []})


def test_enumerations_are_sorted_deterministically():
    rng = random.Random(16)
    for _ in range(100):
        d = random_diagram(rng, rng.randint(0, 5))
        for moves in (enumerate_decreasing(d), enumerate_fr3(d)):
            assert moves == sorted(moves, key=Move.sort_key)
