import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings

from flatknots import (
    BasedDiagram,
    GaussDiagram,
    LabelCountMismatch,
    MalformedToken,
    NonContiguousLabels,
    canonical_form,
    connected_sum,
    enumerate_diagrams,
    equivalent,
    find_splits,
    parse,
    rebase,
    serialize,
)
from flatknots import diagram, moves
from flatknots.compose import _minimal_verdict
from flatknots.diagram import _canonical, _first_appearance, _offsets
from flatknots.moves import _decreasing_sites, _perform
from conftest import (
    brute_force_splits,
    canonical_oracle,
    diagram_strategy,
    find_splits_oracle,
    key_oracle,
    random_diagram,
    random_split_prone_diagrams,
    word_of_key,
)
from test_cli import run_cli


def test_parse_smallest_code():
    assert parse("+1 -1").word == (1, -1)


def test_parse_interleaved():
    assert parse("+1 +2 -1 -2").word == (1, 2, -1, -2)


def test_parse_empty_diagram():
    assert parse("0").word == ()
    assert parse("0").n == 0


@pytest.mark.parametrize(
    "text,exc",
    [
        ("+1 +1 -1", LabelCountMismatch),
        ("+1 -1 +1 -1", LabelCountMismatch),
        ("+1 -2", LabelCountMismatch),
        ("+2 -2", NonContiguousLabels),
        ("+1 -1 +3 -3", NonContiguousLabels),
        ("x1 -1", MalformedToken),
        ("+0 -0", MalformedToken),
        ("", MalformedToken),
        ("0 +1 -1", MalformedToken),
    ],
)
def test_parse_rejects(text, exc):
    with pytest.raises(exc):
        parse(text)


@pytest.mark.parametrize(
    "word",
    [(1.0, -1.0), (True, -1), (-1, True), (1, -1.0), (1, -1, 2.5, -2.5), ("+1", "-1"), (None, None)],
)
def test_diagram_rejects_non_int_endpoints(word):
    with pytest.raises(MalformedToken):
        GaussDiagram(word)


def test_serialize_empty_is_zero_token():
    assert serialize(GaussDiagram(())) == "0"


def test_serialize_single_arrow():
    assert serialize(GaussDiagram((1, -1))) == "+1 -1"


def test_canonical_rotation_invariance():
    base = parse("+1 +2 -1 -2")
    codes = {canonical_form(rebase(base, g)) for g in range(4)}
    assert codes == {canonical_form(base)}


def test_canonical_relabel():
    assert canonical_form(parse("+2 -2 +1 -1")) == canonical_form(parse("+1 -1 +2 -2"))


def test_canonical_one_rotation():
    assert canonical_form(parse("+1 -1")) == canonical_form(parse("-1 +1"))


def test_rebase_examples():
    assert serialize(rebase(parse("+1 -1 +2 -2"), 2)) == "+2 -2 +1 -1"
    d = parse("+1 +2 -1 -2")
    assert rebase(d, 0) == d


# gaps out of range or not ints: 1.5 once reached a slice, and True made gap 1
BAD_GAPS = [
    (2, "must be between 0 and 1"),
    (-1, "must be between 0 and 1"),
    (1.5, "must be an integer, not 1.5"),
    (True, "must be an integer, not True"),
    ("1", "must be an integer, not '1'"),
    (None, "must be an integer, not None"),
]


def test_rebase_out_of_range():
    assert rebase(GaussDiagram(()), 0) == GaussDiagram(())
    with pytest.raises(ValueError, match="^gap must be between 0 and 0$"):
        rebase(GaussDiagram(()), 1)
    for g, text in BAD_GAPS:
        with pytest.raises(ValueError) as info:
            rebase(parse("+1 -1"), g)
        assert str(info.value) == f"gap {text}"


def test_based_diagram_gap_bounds():
    BasedDiagram(GaussDiagram(()), 0)
    with pytest.raises(ValueError, match="^base gap must be between 0 and 0$"):
        BasedDiagram(GaussDiagram(()), 1)
    for g, text in BAD_GAPS:
        with pytest.raises(ValueError) as info:
            BasedDiagram(parse("+1 -1"), g)
        assert str(info.value) == f"base gap {text}"


def test_find_splits_disjoint_arcs():
    splits = find_splits(parse("+1 -1 +2 -2"))
    assert [(s.gap_a, s.gap_b, s.side_sizes) for s in splits] == [(0, 2, (1, 1))]


def test_find_splits_interleaved_none():
    assert find_splits(parse("+1 +2 -1 -2")) == []


def test_no_nontrivial_split_below_two_arrows():
    assert find_splits(GaussDiagram(())) == []
    assert find_splits(parse("+1 -1")) == []
    assert find_splits(parse("-1 +1")) == []


def test_degenerate_splits_on_request():
    """`find_splits` lists no same-gap pair; `prime --all-splits` adds
    one row (g, g) per gap of the minimal diagram, whose first side is
    empty, in (gap_a, gap_b) order with the nontrivial splits."""
    assert [s for s in find_splits(parse("+1 -1")) if s.gap_a == s.gap_b] == []
    for code in ("+1 -1", "0"):
        assert run_cli(["prime", "--all-splits", code]) == (
            0,
            "trivial minimal=0 cr=0\nsplit gap_a=0 gap_b=0 sides=0,0\n",
        )
    code, out = run_cli(["prime", "--all-splits", "+1 +2 -1 -2 +3 +4 -3 -4"])
    assert code == 0
    assert out.splitlines() == [
        "composite minimal=+1 +2 -1 -2 +3 +4 -3 -4 cr=4 split=(0,4) sides=2,2",
        "split gap_a=0 gap_b=0 sides=0,4",
        "split gap_a=0 gap_b=4 sides=2,2",
    ] + [f"split gap_a={g} gap_b={g} sides=0,4" for g in range(1, 8)]


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_equivalent_rejects_a_with_certificate_that_is_not_a_bool(flag):
    # "no" once returned a (bool, MoveTrace) pair
    d = parse("+1 -1 +2 -2")
    with pytest.raises(ValueError) as info:
        equivalent(d, d, with_certificate=flag)
    assert str(info.value) == f"with_certificate must be True or False, not {flag!r}"


def test_find_splits_matches_brute_force():
    """Gaps, side sizes and order on random diagrams up to 16 arrows and
    on connected sums, which always split."""
    rng = random.Random(42)
    diagrams = [random_diagram(rng, rng.randint(0, 6)) for _ in range(300)]
    diagrams += [random_diagram(rng, rng.randint(7, 16)) for _ in range(300)]
    for _ in range(300):
        d1 = random_diagram(rng, rng.randint(1, 8))
        d2 = random_diagram(rng, rng.randint(1, 8))
        diagrams.append(
            connected_sum(
                BasedDiagram(d1, rng.randrange(d1.size)),
                BasedDiagram(d2, rng.randrange(d2.size)),
            )
        )
    nontrivial = 0
    for d in diagrams:
        got = [(s.gap_a, s.gap_b, s.side_sizes) for s in find_splits(d)]
        assert got == brute_force_splits(d)
        nontrivial += len(got)
    assert nontrivial >= 1000


def test_find_splits_matches_oracle_in_every_rotation_small_n():
    """Every n <= 5 word in every rotation.  A verdict's witness, found
    without listing the splits, is the first split listed."""
    nontrivial = 0
    for n in range(6):
        for d in enumerate_diagrams(n):
            for r in range(d.size):
                rotated = GaussDiagram(d.word[r:] + d.word[:r])
                got = find_splits(rotated)
                assert got == find_splits_oracle(rotated), rotated.word
                assert _minimal_verdict(rotated).witness == (got[0] if got else None)
                nontrivial += len(got)
    assert nontrivial > 10000


def test_find_splits_matches_oracle_on_random_words():
    """20,000 seeded random words with up to 16 arrows.  Half of them are
    two random words joined end to end and rotated, so they split.  A
    verdict's witness is the first split listed."""
    nontrivial = 0
    for d in random_split_prone_diagrams(random.Random(71), 20000):
        got = find_splits(d)
        assert got == find_splits_oracle(d), d.word
        assert _minimal_verdict(d).witness == (got[0] if got else None), d.word
        nontrivial += len(got)
    assert nontrivial > 20000


@settings(max_examples=200, deadline=None)
@given(diagram_strategy(max_n=5))
def test_parse_serialize_round_trip(d):
    assert parse(serialize(d)) == d
    assert canonical_form(parse(canonical_form(d))) == canonical_form(d)


@settings(max_examples=200, deadline=None)
@given(diagram_strategy(max_n=5))
def test_canonical_form_rebase_invariant(d):
    code = canonical_form(d)
    for g in range(max(d.size, 1)):
        assert canonical_form(rebase(d, g)) == code


def _relabel(word, perm):
    """Apply the arrow relabeling k -> perm[k - 1]."""
    return tuple(perm[t - 1] if t > 0 else -perm[-t - 1] for t in word)


def _rotations(word):
    return [word[r:] + word[:r] for r in range(max(len(word), 1))]


def _assert_matches_oracle(word):
    canon, r = canonical_oracle(word)
    back = _offsets(canon)
    assert _canonical(word) == (canon, r, back, key_oracle(canon, back)), word


def test_canonical_matches_oracle_small_n_every_rotation_and_relabeling():
    rng = random.Random(5)
    count = 0
    for n in range(6):
        # every relabeling up to n = 4; at n = 5 (120 of them) the
        # reversed labels and one seeded shuffle per diagram
        if n <= 4:
            perms = list(itertools.permutations(range(1, n + 1)))
        for d in enumerate_diagrams(n):
            if n == 5:
                shuffled = list(range(1, 6))
                rng.shuffle(shuffled)
                perms = [tuple(range(1, 6)), (5, 4, 3, 2, 1), tuple(shuffled)]
            for perm in perms:
                for word in _rotations(_relabel(d.word, perm)):
                    _assert_matches_oracle(word)
                    count += 1
    assert count == 133_523


def test_canon_holds_the_canonical_word_and_its_offsets():
    """`GaussDiagram._canon` on every rotation of every n <= 5 word and
    on seeded random words up to n = 16; its third item is the memo key
    of the first two, which decodes to the canonical word."""
    words = [w for n in range(6) for d in enumerate_diagrams(n) for w in _rotations(d.word)]
    assert len(words) == 32_175
    rng = random.Random(25)
    words += [random_diagram(rng, n).word for n in range(1, 17) for _ in range(20)]
    for word in words:
        canon = GaussDiagram(word)._canon
        assert canon[0] == canonical_oracle(word)[0], word
        assert canon[1] == _offsets(canon[0]), word
        assert canon[2] == key_oracle(canon[0], canon[1]), word
        assert word_of_key(canon[2]) == canon[0], word


def test_canonical_reads_every_head_label_from_the_shared_table():
    """_canonical matches the oracle on seeded random words, some with
    arbitrary distinct labels as a move leaves them, and on one word of
    300 arrows.  Every head label of a result of at most 256 endpoints is
    diagram._NEG's object; the longer word's labels reach past 256, and
    the table stays as it was."""
    rng = random.Random(35)
    words = []
    for _ in range(200):
        word = random_diagram(rng, rng.randint(1, 20)).word
        if rng.random() < 0.5:
            labels = rng.sample(range(1, 10**6), len(word) // 2)
            word = tuple(labels[t - 1] if t > 0 else -labels[-t - 1] for t in word)
        words.append(word)
    words.append(random_diagram(rng, 300).word)
    results = []
    for word in words:
        _assert_matches_oracle(word)
        results.append(_canonical(word)[0])
    table = diagram._NEG
    assert len(table) == 257 and all(table[k] == -k for k in range(257))
    short = [canon for canon in results if len(canon) <= 256]
    assert len(short) == 200
    assert all(t is table[-t] for canon in short for t in canon if t < 0)
    assert any(t < -256 for t in results[-1])  # past CPython's small ints


def test_shared_tables_stay_whole_when_threads_grow_them():
    """Eight threads, switching every microsecond, canonicalize words of
    up to 204 arrows 30 times over and ask moves._move for the same 420
    FR2 inserts, none of them shared yet.  Every word canonicalizes as it
    does on one thread, and all threads get one object per move."""
    rng = random.Random(36)
    words = [random_diagram(rng, n).word for n in range(4, 210, 6)]
    want = [_canonical(w)[0] for w in words]
    fields = [
        (moves.FR2_INSERT, v, (ga, gb))
        for v in moves.FR2_VARIANTS
        for ga in range(10**6, 10**6 + 14)
        for gb in range(ga, 10**6 + 14)
    ]
    assert len(fields) == 420 and not any(f in moves._SHARED for f in fields)
    rounds = 30
    barrier = threading.Barrier(8, timeout=60)
    results, errors = {}, []

    def work(i):
        try:
            shared = [moves._move(*f) for f in fields]
            for _ in range(rounds):
                barrier.wait()
                got = [_canonical(w)[0] for w in words]
                assert got == want
            barrier.wait()
            results[i] = shared
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads) and len(results) == 8
    for j in range(len(fields)):
        assert len({id(shared[j]) for shared in results.values()}) == 1


def test_a_computed_canonical_form_is_not_part_of_the_value():
    """A diagram keeps its canonical form once computed, and still
    compares, hashes, prints and pickles as the plain word it is."""
    code = "+2 +1 -2 -3 -1 +3"
    d, fresh = parse(code), parse(code)
    before = repr(d)
    assert canonical_form(d) == "+1 +2 -1 -3 -2 +3"
    assert "_canon" in vars(d) and "_canon" not in vars(fresh)
    assert d == fresh and hash(d) == hash(fresh) and len({d, fresh}) == 1
    assert repr(d) == before == repr(fresh)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for x in (d, fresh):
            back = pickle.loads(pickle.dumps(x, protocol))
            assert back == d and hash(back) == hash(d) and repr(back) == before
            assert back._canon == d._canon


def test_canonical_matches_oracle_random_words():
    rng = random.Random(11)
    for n in range(1, 21):
        for _ in range(30):
            _assert_matches_oracle(random_diagram(rng, n).word)


def test_canonical_matches_oracle_on_periodic_words():
    # k relabeled copies of one block, so at least k rotations tie for the
    # minimum; then copies whose arrows cross into the next block,
    # +1 -k +2 -1 ... +k -(k-1)
    rng = random.Random(17)
    blocks = [d.word for n in range(1, 4) for d in enumerate_diagrams(n)]
    blocks += [random_diagram(rng, n).word for n in range(1, 6) for _ in range(5)]
    words = []
    for block in blocks:
        m = len(block) // 2
        for k in (2, 3):
            copies = (t + j * m if t > 0 else t - j * m for j in range(k) for t in block)
            words.append((k, tuple(copies)))
    for k in (2, 3, 4, 5):
        words.append((k, tuple(x for j in range(k) for x in (j + 1, -((j - 1) % k + 1)))))
    for k, word in words:
        rotations = _rotations(word)
        for rotated in rotations:
            _assert_matches_oracle(rotated)
        # rotations that are themselves a minimal start
        assert sum(_canonical(rotated)[1] == 0 for rotated in rotations) >= k, word


def test_canonical_matches_oracle_on_gapped_labels():
    """Words whose labels are not 1..n, as `moves._perform` leaves them
    before relabeling: every decreasing move along seeded random words'
    reductions, and random words relabeled into sparse labels."""
    rng = random.Random(28)
    gapped = 0
    for i in range(300):
        word = random_diagram(rng, 3 + i % 12).word
        while True:
            moves = list(_decreasing_sites(word, _offsets(word)))
            for m in moves:
                out = _perform(word, m)
                _assert_matches_oracle(out)
                gapped += max(map(abs, out), default=0) > len(out) // 2
            if not moves:
                break
            word = _perform(word, moves[0])
        n = 1 + i % 16
        labels = rng.sample(range(1, 5 * n), n)
        sparse = _relabel(random_diagram(rng, n).word, labels)
        _assert_matches_oracle(sparse)
        gapped += max(labels) > n
    assert gapped > 1000, gapped


def test_canonical_matches_oracle_when_every_tail_rotation_ties():
    """Words with a rotation symmetry carrying each tail to the next, so
    every rotation starting at a tail relabels to the same word and the
    scan keeps them all to the end: tails at the even positions, the
    tail at 2j with its head at 2j + d (mod 2k) for every odd d, in every
    rotation and under a seeded relabeling."""
    rng = random.Random(29)
    count = 0
    for k in range(1, 11):
        for d in range(1, 2 * k, 2):
            word = [0] * (2 * k)
            for j in range(k):
                word[2 * j], word[(2 * j + d) % (2 * k)] = j + 1, -(j + 1)
            labels = rng.sample(range(1, k + 1), k)
            for w in (tuple(word), _relabel(tuple(word), labels)):
                for rotated in _rotations(w):
                    tails = [r for r, t in enumerate(rotated) if t > 0]
                    assert len({_first_appearance(rotated[r:] + rotated[:r]) for r in tails}) == 1
                    _assert_matches_oracle(rotated)
                    count += 1
    assert count == 2 * sum(k * 2 * k for k in range(1, 11))


def test_canonical_matches_oracle_on_edge_words():
    for word in [(), (1, -1), (-1, 1)]:
        _assert_matches_oracle(word)
    assert _canonical((-1, 1))[:2] == ((1, -1), 1)
