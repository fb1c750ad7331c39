import collections
import itertools
import random

import pytest

from flatknots import (
    BasedDiagram,
    GaussDiagram,
    apply,
    canonical_form,
    classify,
    connected_sum,
    crossing_number,
    enumerate_decreasing,
    enumerate_fr1_increasing,
    enumerate_increasing,
    enumerate_fr3,
    find_splits,
    fr3_orbit,
    is_composite,
    minimal_class_code,
    parse,
    permutant_set,
    rebase,
    serialize,
    verify_superadditivity,
)
from flatknots import compose, diagram, reduce
from flatknots.moves import _relabel
from conftest import random_diagram, strict

WITNESS_3 = "+1 +2 -1 -3 -2 +3"
# the interleaved two-arrow diagram: trivial as a knot, nontrivial long
TREFOIL_SHADOW = "+1 +2 -1 -2"
# its self-sum at basepoints (0, 0): minimal at four crossings
COMPOSITE_4 = "+1 +2 -1 -2 +3 +4 -3 -4"


def test_sum_with_empty_is_rebase():
    d = parse("+1 -1 +2 -2")
    for g in range(d.size):
        s = connected_sum(BasedDiagram(GaussDiagram(()), 0), BasedDiagram(d, g))
        assert s == rebase(d, g)


def test_sum_of_two_kinks():
    s = connected_sum(BasedDiagram(parse("+1 -1"), 0), BasedDiagram(parse("+1 -1"), 0))
    assert serialize(s) == "+1 -1 +2 -2"


def test_sum_adds_arrow_counts():
    rng = random.Random(31)
    for _ in range(50):
        d1 = random_diagram(rng, rng.randint(0, 4))
        d2 = random_diagram(rng, rng.randint(0, 4))
        g1 = rng.randrange(max(d1.size, 1))
        g2 = rng.randrange(max(d2.size, 1))
        s = connected_sum(BasedDiagram(d1, g1), BasedDiagram(d2, g2))
        assert s.n == d1.n + d2.n


def test_sum_exposes_splice_split():
    rng = random.Random(32)
    for _ in range(50):
        d1 = random_diagram(rng, rng.randint(1, 4))
        d2 = random_diagram(rng, rng.randint(1, 4))
        g1 = rng.randrange(d1.size)
        g2 = rng.randrange(d2.size)
        s = connected_sum(BasedDiagram(d1, g1), BasedDiagram(d2, g2))
        assert (0, d1.size) in {(sp.gap_a, sp.gap_b) for sp in find_splits(s)}


def test_permutants_of_empty():
    d = parse(WITNESS_3)
    ps = permutant_set(GaussDiagram(()), d)
    assert ps.members == (canonical_form(d),)
    ps2 = permutant_set(d, GaussDiagram(()))
    assert ps2.members == (canonical_form(d),)


def test_permutants_of_two_kinks_frozen():
    ps = permutant_set(parse("+1 -1"), parse("+1 -1"))
    assert ps.members == ("+1 -1 +2 -2", "+1 -1 -2 +2", "+1 -2 +2 -1")
    assert sum(len(v) for v in ps.sources.values()) == 4


def test_permutant_size_bound():
    rng = random.Random(33)
    for _ in range(20):
        d1 = random_diagram(rng, rng.randint(0, 3))
        d2 = random_diagram(rng, rng.randint(0, 3))
        ps = permutant_set(d1, d2)
        assert len(ps.members) <= max(2 * d1.n, 1) * max(2 * d2.n, 1)


def test_trivial_closure_pair_spans_trivial_and_four_crossings():
    # both summands are trivial knots, yet one basepoint choice yields a
    # four-crossing knot and another yields the trivial knot
    ps = permutant_set(parse(TREFOIL_SHADOW), parse(TREFOIL_SHADOW))
    crs = {m: crossing_number(parse(m)) for m in ps.members}
    assert 0 in crs.values()
    assert 4 in crs.values()
    assert canonical_form(parse(COMPOSITE_4)) in {m for m, c in crs.items() if c == 4}


def test_verdict_trivial():
    v = is_composite(GaussDiagram(()))
    assert v.verdict == "trivial" and v.minimal.n == 0 and v.witness is None
    assert is_composite(parse("+1 -2 +2 -1")).verdict == "trivial"


def test_verdict_prime_witness_three():
    v = is_composite(parse(WITNESS_3))
    assert v.verdict == "prime"
    assert v.witness is None
    assert v.minimal.n == 3


def test_verdict_composite_four_crossing_permutant():
    v = is_composite(parse(COMPOSITE_4))
    assert v.verdict == "composite"
    assert v.witness is not None
    assert min(v.witness.side_sizes) >= 1
    assert v.minimal.n == 4


def test_verdict_stable_across_orbit():
    d = parse("+1 +2 -1 -2 -3 -4 +3 -5 +4 +5")  # composite, orbit of size 3
    codes = fr3_orbit(d)
    assert len(codes) == 3
    for code in codes:
        assert find_splits(parse(code)), code
        assert is_composite(parse(code)).verdict == "composite"


def _closed_side_crossing_numbers(d, split):
    """Crossing numbers of the two arcs of a split, each closed into a
    diagram of its own, smaller first."""
    inside = d.word[split.gap_a : split.gap_b]
    outside = d.word[split.gap_b :] + d.word[: split.gap_a]
    return tuple(sorted(crossing_number(_relabel(w)) for w in (inside, outside)))


@pytest.mark.parametrize(
    "n, want",
    [
        (0, {}),
        (1, {}),
        (2, {}),
        (3, {}),
        (4, {((0, 0),): 3}),
        (5, {((0, 0),): 12, ((0, 3),): 24}),
    ],
)
def test_composite_classes_by_the_sides_of_their_splits(n, want):
    """A class is composite when its minimal diagrams have a split with at
    least one arrow on each side; the closed sides need not be
    nontrivial.  Over every split of every FR3-orbit member, each
    composite class shows one pair of side crossing numbers: at n = 4 all
    three split only into two trivial sides."""
    breakdown = collections.Counter()
    for r in classify(n):
        kinds = set()
        for code in fr3_orbit(parse(r.code)):
            d = parse(code)
            kinds |= {_closed_side_crossing_numbers(d, s) for s in find_splits(d)}
        assert bool(kinds) == (r.verdict == "C"), r.code
        if kinds:
            breakdown[tuple(sorted(kinds))] += 1
    assert breakdown == want


def test_sums_of_two_crossing_number_three_knots_at_six(classified):
    """Composite in the stricter sense, a sum of two nontrivial knots: the
    connected sums of every pair of 3-arrow minimal diagrams, over every
    basepoint pair, fall into exactly the 78 classes of crossing number 6
    whose minimal diagrams split into two sides of crossing number 3."""
    threes = [parse(c) for r in classified(3) for c in fr3_orbit(parse(r.code))]
    by_sums = {
        minimal_class_code(parse(code))
        for d1, d2 in itertools.product(threes, repeat=2)
        for code in permutant_set(d1, d2).members
    }
    by_splits = set()
    for r in classified(6):
        members = [parse(code) for code in fr3_orbit(parse(r.code))] if r.verdict == "C" else []
        if any(
            s.side_sizes == (3, 3) and _closed_side_crossing_numbers(d, s) == (3, 3)
            for d in members
            for s in find_splits(d)
        ):
            by_splits.add(r.code)
    assert len(by_splits) == 78
    assert by_sums == by_splits


@pytest.mark.parametrize("n, strict_classes, composite_classes", [(4, 0, 3), (5, 0, 36), (6, 78, 692)])
def test_strict_reading_is_constant_on_each_composite_orbit(n, strict_classes, composite_classes, classified):
    """The paper's first claim under the strict reading of composite, a
    sum of two nontrivial knots: whether some split of a minimal diagram
    has two nontrivial sides is the same on every member of a composite
    class's FR3 orbit, so either reading says that every minimal diagram
    of a composite is a connected-sum diagram.  The 78 strict classes at
    n = 6 are the sums of two crossing-number-3 knots."""
    composites = [r for r in classified(n) if r.verdict == "C"]
    readings = [{strict(parse(code).word) for code in fr3_orbit(parse(r.code))} for r in composites]
    assert all(len(values) == 1 for values in readings)
    assert (sum(True in values for values in readings), len(composites)) == (strict_classes, composite_classes)


def nontrivial_side(rng, inserts=1):
    """A diagram whose closure is a nontrivial knot (hence nontrivial as a
    long knot on either side of a sum), optionally padded with increasing
    moves so the sum offers decreasing sites."""
    d = parse(rng.choice([WITNESS_3, "+1 +2 +3 -1 -3 -2"]))
    for _ in range(rng.randint(0, inserts)):
        d = apply(d, rng.choice(enumerate_increasing(d)))
    return d


def test_split_preserved_by_non_increasing_moves_and_fr1():
    # both sides nontrivial as long knots: only increasing FR2 moves may
    # destroy connected-sum form
    rng = random.Random(34)
    trials = 0
    while trials < 400:
        d1 = nontrivial_side(rng)
        d2 = nontrivial_side(rng)
        s = connected_sum(
            BasedDiagram(d1, rng.randrange(d1.size)),
            BasedDiagram(d2, rng.randrange(d2.size)),
        )
        moves = (
            enumerate_decreasing(s) + enumerate_fr3(s) + enumerate_fr1_increasing(s)
        )
        if not moves:
            continue
        out = apply(s, rng.choice(moves))
        assert find_splits(out), (serialize(s), serialize(out))
        trials += 1


def test_superadditivity_with_empty_summand():
    d = parse(WITNESS_3)
    report = verify_superadditivity(GaussDiagram(()), d)
    assert report.cr1 == 0 and report.cr2 == 3
    assert all(r.cr == 3 for r in report.rows)
    assert report.ok


def test_superadditivity_two_minimal_witnesses():
    d = parse(WITNESS_3)
    report = verify_superadditivity(d, d)
    assert report.inputs_minimal and report.exhaustive
    assert all(r.cr == 6 and r.minimal for r in report.rows)
    assert report.ok
    assert report.distinct_classes >= 2  # permutants split into many classes


def test_superadditivity_strictness_observed():
    d = parse(TREFOIL_SHADOW)
    report = verify_superadditivity(d, d)
    assert report.cr1 == 0 and report.cr2 == 0
    assert not report.inputs_minimal
    crs = sorted({r.cr for r in report.rows})
    assert crs[0] == 0 and crs[-1] == 4
    assert report.ok and not report.equality_violations


def test_superadditivity_sampling_is_seeded():
    # 16 x 18 = 288 basepoint pairs forces the seeded-sample path; the
    # crossing-3 summand makes the rows depend on which pairs are sampled
    d1 = parse("+1 +2 -1 -3 -2 +3 " + " ".join(f"+{k} -{k}" for k in range(4, 9)))
    d2 = parse(" ".join(f"+{k} -{k}" for k in range(1, 10)))
    r1 = verify_superadditivity(d1, d2, seed=3, sample_size=20)
    r2 = verify_superadditivity(d1, d2, seed=3, sample_size=20)
    assert not r1.exhaustive
    assert r1 == r2
    r3 = verify_superadditivity(d1, d2, seed=4, sample_size=20)
    assert r1.ok and r3.ok
    assert r3 != r1


def test_superadditivity_sample_covering_every_pair_is_exhaustive():
    # 18 x 18 = 324 basepoint pairs: a sample at least that large checks
    # every pair, so the report is exhaustive and the seed does not matter
    d = parse(" ".join(f"+{k} -{k}" for k in range(1, 10)))
    full = verify_superadditivity(d, d, seed=1, sample_size=324)
    assert full.exhaustive
    assert verify_superadditivity(d, d, seed=2, sample_size=1000) == full
    partial = verify_superadditivity(d, d, seed=1, sample_size=323)
    assert not partial.exhaustive
    assert {r.code for r in partial.rows} <= {r.code for r in full.rows}


def test_superadditivity_reduces_each_member_once(monkeypatch, canonical_calls):
    codes = WITNESS_3, "+1 +2 +3 -1 -3 -2"
    # warm the memo first, so the counted run's reductions are memo reads
    # that canonicalize nothing
    members = len(verify_superadditivity(*map(parse, codes)).rows)
    # the sums' binding of _canonical goes through the spy too
    monkeypatch.setattr(compose, "_canonical", diagram._canonical)
    canonical_calls.clear()
    reduce_calls = []
    reduce_word = reduce._reduce_word

    def spy(word, back, max_nodes):
        reduce_calls.append(word)
        return reduce_word(word, back, max_nodes)

    monkeypatch.setattr(reduce, "_reduce_word", spy)
    monkeypatch.setattr(compose, "_reduce_word", spy)
    # fresh diagrams, whose canonical forms are not computed yet
    d1, d2 = map(parse, codes)
    report = verify_superadditivity(d1, d2)
    assert len(report.rows) == members == 36
    # one canonicalization per basepoint pair (6 x 6) and one per input
    assert sum(canonical_calls.values()) == d1.size * d2.size + 2
    # one reduction per member and one per input
    assert len(reduce_calls) == members + 2
    # the same objects again: each keeps its canonical form, so only the
    # sums are canonicalized
    canonical_calls.clear()
    assert verify_superadditivity(d1, d2) == report
    assert (canonical_calls[id(d1.word)], canonical_calls[id(d2.word)]) == (0, 0)
    assert sum(canonical_calls.values()) == d1.size * d2.size


def test_superadditivity_rejects_sample_size_below_one():
    # 18 x 18 = 324 basepoint pairs: a sample of none would check nothing
    d = parse(" ".join(f"+{k} -{k}" for k in range(1, 10)))
    for size in (0, -1):
        with pytest.raises(ValueError, match="sample_size must be >= 1"):
            verify_superadditivity(d, d, sample_size=size)
    # a count that is not an int, though True and 2.5 pass a bare `< 1` check
    for size in ("3", None, 2.5, True):
        with pytest.raises(ValueError, match="^sample_size must be an integer") as info:
            verify_superadditivity(d, d, sample_size=size)
        assert "\n" not in str(info.value)


def test_permutant_minimality_of_minimal_pairs_quick():
    reps = [parse(WITNESS_3), parse("+1 +2 +3 -1 -3 -2")]
    for d1, d2 in itertools.product(reps, repeat=2):
        ps = permutant_set(d1, d2)
        for code in ps.members:
            member = parse(code)
            assert crossing_number(member) == member.n
            assert crossing_number(member) == 6
