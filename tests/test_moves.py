import collections
import functools
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
    enumerate_fr1_increasing,
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
from flatknots.moves import (
    FR1_REMOVE,
    FR2_REMOVE,
    FR2_VARIANTS,
    FR3,
    _decreasing_sites,
    _fr3_at,
    _fr3_sites,
    _fr3_shape_table,
    _perform,
    canonical_pattern,
)
from conftest import (
    _fr2_block_move,
    _fr3_blocks_at,
    _fr3_structural,
    all_legal_moves,
    apply_oracle,
    decreasing_sites_oracle,
    fr1_at_oracle,
    fr1_oracle,
    fr2_oracle,
    fr3_before_index_oracle,
    fr3_catalog_oracle,
    fr3_oracle,
    fr3_partner_list_oracle,
    random_diagram,
)


def removals(d: GaussDiagram, kind: str) -> list[Move]:
    """The sites of one removal kind among enumerate_decreasing's."""
    return [m for m in enumerate_decreasing(d) if m.kind == kind]


# ---------------------------------------------------------------------------
# FR1
# ---------------------------------------------------------------------------


def test_fr1_isolated_kink():
    moves = removals(parse("+1 -1"), FR1_REMOVE)
    assert len(moves) == 1 and moves[0].variant == "th"


def test_fr1_opposite_direction():
    moves = removals(parse("-1 +1"), FR1_REMOVE)
    assert len(moves) == 1 and moves[0].variant == "ht"


def test_fr1_no_adjacent_endpoints():
    assert removals(parse("+1 +2 -1 -2"), FR1_REMOVE) == []


def test_fr1_remove_and_insert_round():
    empty = apply(parse("+1 -1"), Move("fr1-remove", "th", (0, 1)))
    assert empty.n == 0
    back = apply(empty, Move("fr1-insert", "th", (0,)))
    assert back.word == (1, -1)


def test_fr1_remove_relabels():
    d = parse("+2 -2 +1 -1")
    out = apply(d, Move("fr1-remove", "th", (0, 1)))
    assert out.word == (1, -1)


def _rotations(diagrams):
    """Every rotation of each diagram's word: rotations put a site on the
    wrap from the last endpoint to the first."""
    return [d.word[r:] + d.word[:r] for d in diagrams for r in range(max(d.size, 1))]


def _every_rotation_words(max_n=5):
    """All rotations of the n <= max_n canonical words, 32,175 for
    max_n = 5."""
    return _rotations(d for n in range(max_n + 1) for d in enumerate_diagrams(n))


def _random_rotation_words():
    """All rotations of 3,000 seeded random words, n = 1..16."""
    rng = random.Random(32)
    return _rotations([random_diagram(rng, 1 + i % 16) for i in range(3000)])


def _random_words():
    """6,000 seeded words, n = 6..16: a random word rotated, then the
    same word with one random bigon inserted, so that FR2 sites are
    frequent enough to be checked."""
    rng = random.Random(29)
    words = []
    for i in range(3000):
        d = random_diagram(rng, 6 + i % 11)
        r = rng.randrange(d.size)
        words.append(d.word[r:] + d.word[:r])
        gaps = (rng.randrange(d.size), rng.randrange(d.size))
        words.append(apply(d, Move("fr2-insert", rng.choice(FR2_VARIANTS), gaps)).word)
    return words


_WHERE = ("wrap", "base 0", "base > 0")


def _check_decreasing_sites(words):
    """Check every word's decreasing sites against both references, and
    count the cases seen, so that no case passes unseen.

    enumerate_decreasing, which lists moves._decreasing_sites, gives the
    FR1 and FR2 oracles' sites, each kind in its oracle's order and both
    sorted together; reading partner offsets, it gives exactly the sites
    of decreasing_sites_oracle, which finds partners by position, in its
    order; the reduction's first site is the list's first; and
    _perform's slices drop exactly a site's positions.

    Returns two counters: `seen` counts words with no site, one-arrow
    words, and the sites of each kind by where their base lies; `cases`
    counts the cases of the offset test: FR1, and FR2 with
    d = back[a1] - back[a0] equal to 0 (the second block repeats the
    arrow order) or 2."""
    seen, cases = collections.Counter(), collections.Counter()
    for word in words:
        d = diagram._trusted(word)
        back = diagram._offsets(word)
        sites = enumerate_decreasing(d)
        fr1, fr2 = fr1_oracle(d), fr2_oracle(d)
        assert [m for m in sites if m.kind == FR1_REMOVE] == fr1, word
        assert [m for m in sites if m.kind == FR2_REMOVE] == fr2, word
        assert sites == sorted(fr1 + fr2, key=Move.sort_key), word
        assert sites == list(decreasing_sites_oracle(word)), word
        assert next(_decreasing_sites(word, back), None) == (sites or [None])[0], word
        if not sites:
            seen["none"] += 1
        seen["one arrow"] += d.size == 2
        for m in sites:
            base = min(m.positions)
            wraps = m.positions[:2] == (d.size - 1, 0)
            seen[(m.kind, "wrap" if wraps else "base 0" if base == 0 else "base > 0")] += 1
            kept = tuple([t for p, t in enumerate(word) if p not in m.positions])
            assert _perform(word, m) == kept, (word, m)
            a0, a1 = m.positions[:2]
            cases[m.kind if m.kind == FR1_REMOVE else (m.kind, back[a1] - back[a0])] += 1
    return seen, cases


def _check_canonical_offsets(words):
    """_canonical hands on the offsets of the word it returns."""
    for word in words:
        canon = diagram._canonical(word)
        assert canon[2] == diagram._offsets(canon[0]), word


def _sites_of(seen, kind):
    return sum(seen[(kind, where)] for where in _WHERE)


@functools.cache
def _checked(words):
    """Build the word set `words()` and run _check_decreasing_sites on it
    once per session; the tests below assert on what it returns, (words,
    seen, cases).  A failed check is not cached, so every test reading
    that word set fails with it."""
    words = words()
    return (words, *_check_decreasing_sites(words))


@pytest.mark.parametrize("kind, min_sites", [(FR1_REMOVE, 80000), (FR2_REMOVE, 40000)], ids=["fr1", "fr2"])
def test_decreasing_enumerators_match_oracles_in_every_rotation(kind, min_sites):
    small, seen, _ = _checked(_every_rotation_words)
    large, more, _ = _checked(_random_rotation_words)
    assert len(small) + len(large) > 80000
    assert _sites_of(seen + more, kind) > min_sites, seen + more


def test_decreasing_sites_come_in_sort_order_in_every_rotation():
    _, seen, _ = _checked(_every_rotation_words)
    assert seen["none"] > 1000 and seen["one arrow"] == 2, seen
    for kind in (FR1_REMOVE, FR2_REMOVE):
        for where in _WHERE:
            assert seen[(kind, where)] > 100, seen


def test_decreasing_sites_come_in_sort_order_on_random_words():
    _, seen, _ = _checked(_random_words)
    assert seen["none"] > 500, seen
    for kind in (FR1_REMOVE, FR2_REMOVE):
        for where in _WHERE:
            assert seen[(kind, where)] > 20, seen


@pytest.mark.parametrize(
    "words, count", [(_every_rotation_words, 32_175), (_random_words, 6000)], ids=["rotations", "random"]
)
def test_offset_sites_match_the_oracle(words, count):
    """Every case of the offset test occurs: FR1, and FR2 with
    d = back[a1] - back[a0] equal to 0 or 2; and _canonical hands on the
    offsets of the word it returns."""
    words, _, cases = _checked(words)
    assert len(words) == count
    assert set(cases) == {FR1_REMOVE, (FR2_REMOVE, 0), (FR2_REMOVE, 2)}, cases
    assert min(cases.values()) > 20, cases
    _check_canonical_offsets(words)


def test_perform_then_relabel_is_apply():
    """Every decreasing and FR3 move enumerated on n <= 5, and every
    insert on n <= 2: _perform gives apply's word before relabeling."""
    performed = collections.Counter()
    for n in range(6):
        for d in enumerate_diagrams(n):
            found = enumerate_decreasing(d) + enumerate_fr3(d)
            if n <= 2:
                found += enumerate_increasing(d)
            for m in found:
                word = _perform(d.word, m)
                assert type(word) is tuple and len(word) == d.size + 2 * m.delta
                assert diagram._first_appearance(word) == apply(d, m).word, (d.word, m)
                performed[m.kind] += 1
    assert min(performed.values()) > 20 and len(performed) == 5, performed


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
        if removals(d, FR2_REMOVE)
    }
    assert admitting == model


def test_fr2_sites_embed_in_bigon_model():
    model = bigon_model_classes()
    rng = random.Random(5)
    seen = 0
    while seen < 200:
        d = random_diagram(rng, rng.randint(2, 6))
        for m in removals(d, FR2_REMOVE):
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
    assert removals(parse("+1 +2 -2 -1"), FR2_REMOVE) == []


def test_fr2_nested_mixed_pair_legal():
    moves = removals(parse("+1 -2 +2 -1"), FR2_REMOVE)
    assert len(moves) == 1
    assert apply(parse("+1 -2 +2 -1"), moves[0]).n == 0


def test_fr2_interleaved_same_role_pairing_illegal():
    # the (0,1)/(2,3) pairing is tails-only against heads-only and is not
    # a site; only the wrap pairing, which mixes roles, qualifies
    d = parse("+1 +2 -1 -2")
    moves = removals(d, FR2_REMOVE)
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
            for m in removals(d, FR2_REMOVE)
        ]
        assert len(pairs) == len(set(pairs))


def test_fr2_insert_same_gap_nested():
    d = apply(GaussDiagram(()), Move("fr2-insert", "Nth", (0, 0)))
    assert d.word == (1, -2, 2, -1)
    assert removals(d, FR2_REMOVE)


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
    # block1->block2, q block1->block3, p block2->block3; r, q, p are
    # arrows 1, 2, 3
    before = (1, 2, -1, 3, -2, -3)
    after = (2, 1, 3, -1, -3, -2)
    index = {e.before: e for e in build_fr3_catalog()}
    entry = index.get(canonical_pattern(before))
    assert entry is not None
    assert canonical_pattern(entry.after) == canonical_pattern(after)


def test_fr3_entries_keep_arrow_directions():
    for e in build_fr3_catalog():
        # a catalog match therefore implies the blocks cover three arrows
        # pairwise, which is why `apply` needs no separate check for it
        blocks = [_fr3_blocks_at(p, 6, (0, 2, 4)) for p in (e.before, e.after)]
        assert _fr3_structural(blocks[0]) and _fr3_structural(blocks[1])
        assert sorted(e.before) == sorted(e.after)
        assert e.after == tuple(e.before[i ^ 1] for i in range(6))


def test_fr3_catalog_matches_block_form_oracle():
    """The token catalog is the block-form catalog with each (arrow, role)
    endpoint written as the token arrow * role, entry by entry."""

    def tokens(blocks):
        return tuple(sym * role for block in blocks for sym, role in block)

    catalog, oracle = build_fr3_catalog(), fr3_catalog_oracle()
    assert len(catalog) == len(oracle) == 8
    for e, o in zip(catalog, oracle):
        assert (e.id, e.before, e.after, e.inverse_id) == (
            o.id,
            tokens(o.before),
            tokens(o.after),
            o.inverse_id,
        )
    index = fr3_before_index_oracle()
    assert len(index) == 16  # entries 0-3 are rotation-symmetric
    assert set(index.values()) == set(catalog)
    for key, e in index.items():
        assert canonical_pattern(key) == e.before


def test_fr3_shape_table_agrees_with_the_before_index():
    """Each 6-bit key spells the six tokens of a candidate site with a, b
    and c labeled 1, 2 and 3: the least block (a, b), a's block holding
    -a and c on either side of it, and b's holding -b and -c, in either
    order; the table names the entry those tokens match, or none."""
    index, table = fr3_before_index_oracle(), _fr3_shape_table()
    assert len(table) == 64
    for key in range(64):
        a, b, c = (1 if key & 32 else -1), (2 if key & 16 else -2), (3 if key & 8 else -3)
        a_block = [-a, c] if key & 4 else [c, -a]
        b_block = [-c, -b] if key & 2 else [-b, -c]
        tokens = [a, b] + (a_block + b_block if key & 1 else b_block + a_block)
        entry = index.get(diagram._first_appearance(tokens))
        assert table[key] == (None if entry is None else entry.id), key
    legal = [entry for entry in table if entry is not None]
    assert len(legal) == 16
    assert set(legal) == {e.id for e in build_fr3_catalog()}


def first_appearance_sequences(length: int) -> list[tuple[int, ...]]:
    """Every sequence of distinct endpoint tokens whose arrows are
    labeled 1, 2, ... in order of first appearance."""
    sequences = [()]
    for _ in range(length):
        grown = []
        for seq in sequences:
            fresh = max(map(abs, seq), default=0) + 1
            options = [-t for t in seq if -t not in seq] + [fresh, -fresh]
            grown += [seq + (t,) for t in options]
        sequences = grown
    return sequences


def test_fr3_at_agrees_with_the_before_index_on_every_six_token_sequence():
    """apply's recognizer reads a key from the blocks as given; the
    before index relabels the tokens and looks them up.  They agree on
    every six tokens, and on the same tokens with other labels."""
    index, positions = fr3_before_index_oracle(), (0, 1, 2, 3, 4, 5)
    sequences = first_appearance_sequences(6)
    assert len(sequences) == 1384
    matched = 0
    for tokens in sequences:
        entry = index.get(diagram._first_appearance(tokens))
        expected = None if entry is None else Move(FR3, entry.id, positions)
        assert _fr3_at(tokens, positions) == expected, tokens
        shifted = tuple(t + 3 if t > 0 else t - 3 for t in tokens)
        assert _fr3_at(shifted, positions) == expected, shifted
        matched += entry is not None
    assert matched == 16


def test_fr3_finds_a_site_whose_last_block_wraps():
    # the site's last block is (11, 0), and b's partner sits at 0
    w = parse("+1 +2 -1 -2 +3 +4 -3 +5 +6 -4 -5 -6").word
    d = GaussDiagram(w[7:] + w[:7])
    assert serialize(d) == "+5 +6 -4 -5 -6 +1 +2 -1 -2 +3 +4 -3"
    sites = enumerate_fr3(d)
    assert [m.positions for m in sites] == [(2, 3, 9, 10, 11, 0)]
    assert sites == fr3_oracle(d)


def test_fr3_enumerate_needs_three_arrows():
    assert enumerate_fr3(parse("+1 +2 -1 -2")) == []
    assert enumerate_fr3(GaussDiagram(())) == []


def test_fr3_pattern_instantiations_have_sites():
    catalog = build_fr3_catalog()
    for e in catalog:
        d = GaussDiagram(e.before)
        moves = enumerate_fr3(d)
        assert any(
            m.variant == e.id and set(m.positions) == {0, 1, 2, 3, 4, 5} for m in moves
        )


def test_fr3_apply_then_inverse_site_present():
    e = build_fr3_catalog()[0]
    d = GaussDiagram(e.before)
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
    """Compare the partner-scan enumerator with the cubic-scan oracle on
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


def _random_fr3_words():
    """2,000 seeded random words, n = 6..16."""
    rng = random.Random(34)
    return [random_diagram(rng, 6 + i % 11).word for i in range(2000)]


@pytest.mark.parametrize(
    "words, count",
    [(_every_rotation_words, 10_176), (_random_fr3_words, 674)],
    ids=["rotations", "random"],
)
def test_fr3_sites_on_offsets_match_the_partner_list_oracle(words, count):
    """`_fr3_sites` reads each partner it needs from the offsets and finds
    the sites the enumerator with a `where` dict and a `partner` list
    found, in the same order."""
    total = 0
    for w in words():
        got = _fr3_sites(w, diagram._offsets(w))
        assert got == fr3_partner_list_oracle(GaussDiagram(w)), w
        total += len(got)
    assert total == count


def test_fr3_sites_screen_matches_the_oracle_on_every_rotation():
    """`_fr3_sites` passes over a block start s whose partners are not
    both at or past it (back[s] < s or back[s + 1] < s + 1): on every
    rotation of seeded random words with n = 6..12 it finds the oracle's
    sites.  The screen is met at many starts, and sites are found whose
    least block has a partner at position 0, the case the screen keeps
    for blocks that wrap."""
    rng = random.Random(28)
    screened = wrapping = total = 0
    for n in range(6, 13):
        for _ in range(5):
            word = random_diagram(rng, n).word
            for r in range(len(word)):
                w = word[r:] + word[:r]
                back = diagram._offsets(w)
                got = _fr3_sites(w, back)
                assert got == fr3_oracle(GaussDiagram(w)), w
                total += len(got)
                screened += sum(back[s] < s or back[s + 1] < s + 1 for s in range(len(w) - 4))
                wrapping += sum(0 in (s - back[s], s + 1 - back[s + 1]) for s, *_ in (m.positions for m in got))
    assert total > 100 and wrapping > 10 and screened > 4000, (total, wrapping, screened)


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


def test_apply_accepts_exactly_the_removals_the_old_rules_accept():
    """On every rotation of every n <= 4 word, at every block start,
    `apply` accepts an fr1-remove of either variant exactly when the
    token test `fr1_at_oracle` finds it, and an fr2-remove of every
    variant and second-block start exactly when the position-based
    `_fr2_block_move` finds it, with the word that drops its endpoints.
    It rejects the rest with the "no ... site" message, the kind-crossed
    moves included: an fr2-remove at a one-arrow block, an fr1-remove at
    a bigon's block."""
    seen = collections.Counter()
    for word in _every_rotation_words(4):
        d, size = GaussDiagram(word), len(word)
        for a0 in range(size):
            a1 = (a0 + 1) % size
            kink = fr1_at_oracle(word, size, a0)
            bigon = _fr2_block_move(word, size, a0)
            moves = [Move(FR1_REMOVE, v, (a0, a1)) for v in ("th", "ht")]
            moves += [
                Move(FR2_REMOVE, v, (a0, a1, b0, (b0 + 1) % size))
                for v in FR2_VARIANTS
                for b0 in range(size)
            ]
            for m in moves:
                if len(set(m.positions)) < len(m.positions):
                    want = f"{m.kind} takes {len(m.positions)} distinct positions"
                elif m in (kink, bigon):
                    want = diagram._first_appearance([t for p, t in enumerate(word) if p not in m.positions])
                    seen[m.kind, "accepted"] += 1
                else:
                    want = f"no {m.kind} site {m.variant!r} at the stated positions"
                    crossed = kink if m.kind == FR2_REMOVE else bigon
                    seen[m.kind, "crossed" if crossed is not None else "rejected"] += 1
                try:
                    got = apply(d, m).word
                except SiteMismatch as exc:
                    got = str(exc)
                assert got == want, (word, m)
    assert len(seen) == 6 and min(seen.values()) > 2000, seen


@pytest.mark.parametrize("variant", [True, 1.0])
def test_apply_rejects_an_fr3_variant_equal_to_but_not_a_catalog_id(variant):
    # both compare equal to catalog id 1, the entry this site matches
    d = GaussDiagram(build_fr3_catalog()[1].before)
    site = (0, 1, 2, 3, 4, 5)
    assert serialize(apply(d, Move("fr3", 1, site))) == "+1 -2 +2 -3 +3 -1"
    with pytest.raises(SiteMismatch, match="unknown fr3 catalog entry"):
        apply(d, Move("fr3", variant, site))


@pytest.mark.parametrize(
    "move",
    [
        Move("fr1-insert", "th", ()),
        Move("fr1-insert", "th", (0, 1)),
        Move("fr2-insert", "Nth", (0,)),
        Move("fr2-insert", "Nth", (0, 1, 2)),
        Move("fr1-remove", "th", (0,)),
        Move("fr2-remove", "Nth", (0, 1, 2)),
        Move("fr3", 0, (0, 1, 2, 3, 4)),
        # the right count, but positions or a variant no move of the kind has
        Move("fr1-remove", "th", ("a", "b")),
        Move("fr1-remove", "th", (0.5, 1)),
        Move("fr1-insert", "th", (True,)),
        Move("fr2-insert", "th", (0, 1)),
        Move("fr1-insert", "zz", (0,)),
    ],
)
def test_apply_rejects_insert_with_wrong_position_count(move):
    """A move of any kind with the wrong position count or a malformed
    position or variant: `apply` raises a SiteMismatch and `inverse` a
    plain ValueError, each one line, from the one shape check."""
    d = parse("+1 +2 -1 -2")
    with pytest.raises(SiteMismatch) as info:
        apply(d, move)
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError) as info:
        inverse(move, d.size)
    assert type(info.value) is ValueError and "\n" not in str(info.value)


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


@pytest.mark.parametrize("variant", [-1, True, "x", 99])
def test_inverse_rejects_an_fr3_variant_that_is_not_a_catalog_id(variant):
    with pytest.raises(ValueError, match="unknown fr3 catalog entry"):
        inverse(Move("fr3", variant, (0, 1, 2, 3, 4, 5)), 6)


@pytest.mark.parametrize(
    "move",
    [
        Move("fr1-insert", "th", ()),
        Move("fr1-insert", "th", (0, 1)),
        Move("fr1-remove", "th", (0,)),
        Move("fr2-insert", "Nth", (0,)),
        Move("fr2-remove", "Nth", (0, 1, 2)),
        Move("fr3", 0, (0, 1, 2, 3, 4)),
    ],
    ids=str,
)
def test_inverse_rejects_a_move_with_the_wrong_number_of_positions(move):
    with pytest.raises(ValueError, match=f"^{move.kind}: {len(move.positions)} positions given"):
        inverse(move, 4)


@pytest.mark.parametrize("pre_size", [-5, -2, 3, True, False, 4.0, "4", None], ids=repr)
def test_inverse_rejects_a_pre_size_that_is_not_a_non_negative_even_int(pre_size):
    with pytest.raises(ValueError, match="^pre_size must be a non-negative even integer") as info:
        inverse(Move("fr1-insert", "th", (0,)), pre_size)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "move,pre_size,limit",
    [
        (Move("fr1-remove", "th", (7, 8)), 4, 4),
        (Move("fr1-remove", "th", (-1, 0)), 4, 4),
        (Move("fr1-remove", "th", (0, 1)), 0, 0),
        (Move("fr2-remove", "Nth", (0, 1, 2, 4)), 4, 4),
        (Move("fr3", 0, (0, 1, 2, 3, 4, 6)), 6, 6),
        (Move("fr3", 0, (-1, 0, 1, 2, 3, 4)), 6, 6),
        # an insert's gaps: one per endpoint, and gap 0 of the empty word
        (Move("fr1-insert", "th", (5,)), 2, 2),
        (Move("fr1-insert", "th", (1,)), 0, 1),
        (Move("fr1-insert", "th", (-1,)), 4, 4),
        (Move("fr2-insert", "Nth", (0, 4)), 4, 4),
        (Move("fr2-insert", "Nth", (-1, 0)), 4, 4),
        # a position that is not an int is not in the word either
        (Move("fr1-remove", "th", ("a", "b")), 4, 4),
        (Move("fr1-remove", "th", (0.5, 1)), 4, 4),
        (Move("fr1-remove", "th", (True, 2)), 4, 4),
        (Move("fr1-insert", "th", (True,)), 4, 4),
    ],
    ids=str,
)
def test_inverse_rejects_a_position_outside_the_pre_move_word(move, pre_size, limit):
    with pytest.raises(ValueError, match=rf"^{move.kind}: positions .* range\({limit}\)$"):
        inverse(move, pre_size)


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
