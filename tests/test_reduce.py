import hashlib
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from flatknots import (
    GaussDiagram,
    MoveTrace,
    OrbitBudgetExceeded,
    OrbitLimits,
    TraceMismatch,
    apply,
    canonical_form,
    classify,
    crossing_number,
    enumerate_decreasing,
    enumerate_diagrams,
    enumerate_increasing,
    equivalent,
    fr3_orbit,
    is_composite,
    minimal_class_code,
    monotone_reduce,
    parse,
    replay_trace,
    serialize,
    u_polynomial,
    verify_superadditivity,
)
from flatknots import catalog, compose, diagram, moves, reduce
from flatknots.cli import main
from flatknots.diagram import canonical_word
from flatknots.moves import KIND_DELTA
from flatknots.reduce import DEFAULT_LIMITS
from conftest import (
    all_legal_moves,
    bridge_digest,
    certificate_oracle,
    full_move_graph_classes,
    key_oracle,
    random_diagram,
    reduce_oracle,
    scan_every_site_oracle,
    u_polynomial_oracle,
    word_of_key,
)

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
    assert fr3_orbit(GaussDiagram(())) == ("0",)


def test_two_arrow_orbit_is_singleton():
    for d in enumerate_diagrams(2):
        codes = fr3_orbit(d)
        assert codes == (canonical_form(d),)


def test_orbit_contains_both_sides_of_a_slide():
    from flatknots import build_fr3_catalog, enumerate_fr3

    entry = build_fr3_catalog()[0]
    d = GaussDiagram(entry.before)
    m = next(mm for mm in enumerate_fr3(d) if mm.variant == entry.id)
    codes = fr3_orbit(d)
    assert canonical_form(d) in codes
    assert canonical_form(apply(d, m)) in codes


# equal-orbit pairs of classify(5) classes 15, 20, 383 and 312, whose
# certificates between them use FR3 catalog ids 6, 7; 0, 4; 1, 5; and 2
_ORBIT_PAIRS_5 = (
    ("+1 +2 -1 -2 -3 -4 +3 -5 +4 +5", "+1 +2 -1 +3 -2 -3 -4 -5 +4 +5"),
    ("+1 +2 -1 +3 -2 +4 -3 +5 -4 -5", "+1 +2 -3 +4 -2 +5 -4 -1 +3 -5"),
    ("+1 +2 -3 +4 -2 -5 +3 -1 +5 -4", "+1 +2 -3 -4 +3 -5 +4 -1 +5 -2"),
    ("+1 +2 +3 -4 -2 +4 -5 -1 +5 -3", "+1 +2 +3 -4 +5 -3 -1 +4 -2 -5"),
)


def test_trace_and_certificate_bytes_are_pinned():
    """The JSON of one reduction trace and four certificates, hashed:
    any change to a move's variant, positions or order shows here."""
    _, trace = monotone_reduce(parse("+1 +2 -1 +3 +4 -2 -3 +5 -4 -5"))
    assert trace.steps[0].kind == "fr3"
    texts = [trace.to_json()]
    fr3_ids = set()
    for code1, code2 in _ORBIT_PAIRS_5:
        same, cert = equivalent(parse(code1), parse(code2), with_certificate=True)
        assert same
        texts.append(cert.to_json())
        fr3_ids |= {m.variant for m in cert.steps if m.kind == "fr3"}
    assert fr3_ids == {0, 1, 2, 4, 5, 6, 7}
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "ec95d24bb2d764a7931a9c68763337f3d42fc2bec13c64922befb97167273c41"


def test_bridge_certificates_are_pinned(classified):
    """Certificates from the first word of each minimal FR3 orbit of two
    or more words at n = 3..6 to its last word after two random inserts,
    hashed with each scrambled word's reduction trace (`bridge_digest`).
    Every one crosses its orbit through an FR3 bridge."""
    assert bridge_digest(classified, 6) == (
        1292,
        1292,
        "3ad94d3dc27e0c0dda2b3003502c0ad8fca5d70858ab538e6514dcc894f3ec3f",
    )


def test_minimality_examples():
    empty = GaussDiagram(())
    assert crossing_number(empty) == empty.n
    kink = parse("+1 -1")
    assert crossing_number(kink) != kink.n
    minimal, _ = monotone_reduce(parse("+1 +2 -1 -2 +3 -3"))
    assert crossing_number(minimal) == minimal.n


def test_monotone_reduce_canonicalizes_its_input_once(canonical_calls):
    d = parse("+1 +2 -1 -2 +3 -3")
    monotone_reduce(d)
    assert canonical_calls[id(d.word)] == 1


def test_equivalent_certificate_canonicalizes_each_input_once(canonical_calls):
    d1, d2 = parse("+1 -1 +2 +3 -2 -3"), parse("+2 +3 -2 -3 +1 -1")
    same, cert = equivalent(d1, d2, with_certificate=True)
    assert same and cert is not None
    assert (canonical_calls[id(d1.word)], canonical_calls[id(d2.word)]) == (1, 1)


def test_a_diagram_is_canonicalized_once_across_every_entry_point(monkeypatch, canonical_calls):
    """Every entry point starts from `GaussDiagram._canon`, so one diagram
    object passed to all of them, and to `equivalent` on either side, is
    canonicalized once; and only the certificates' FR3 bridge computes
    partner offsets outside the canonicalizer (`_canonical` and the rank
    scan `_least_rotation` it shares with the reduction), those of its
    start, a minimal word that is canonical already: the memo keys of
    orbit words are built from the offsets the scan found them with.  The
    memo starts cold, so the reductions, the orbit scans and the bridge
    all run."""
    monkeypatch.setattr(reduce, "_memo", {})
    offsets = diagram._offsets
    depth, outside = [0], []

    def canonicalizing(canonicalizer):
        def spy(word):
            depth[0] += 1
            try:
                return canonicalizer(word)
            finally:
                depth[0] -= 1

        return spy

    def offsetting(word):
        if not depth[0]:
            outside.append(word)
        return offsets(word)

    spies = {
        "_canonical": canonicalizing(diagram._canonical),
        "_least_rotation": canonicalizing(diagram._least_rotation),
        "_offsets": offsetting,
    }
    # every module's own binding goes through the spies
    for mod in (diagram, moves, reduce, compose):
        for name, spy in spies.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy)
    # two kinked members of a two-node minimal FR3 orbit: a certificate
    # between them needs a bridge
    orbit = fr3_orbit(parse("+1 +2 -1 -2 +3 +4 -3 +5 -4 -5"))
    d, d2 = (parse(f"+6 -6 {code} +7 -7") for code in orbit)
    canonical_calls.clear()
    outside.clear()
    for _ in range(2):
        minimal, trace = monotone_reduce(d)
        assert trace.end == serialize(minimal)
        assert crossing_number(d) == minimal.n == 5
        assert minimal_class_code(d) == orbit[0]
        assert equivalent(d, d2) and equivalent(d2, d)
        for a, b in ((d, d2), (d2, d)):
            same, cert = equivalent(a, b, with_certificate=True)
            assert same and len(cert.steps) > 2
        assert len(fr3_orbit(d)) == 2
        assert canonical_form(d) == trace.start
        assert is_composite(d).verdict == "composite"
        assert verify_superadditivity(d, parse("+1 -1")).ok
    assert canonical_calls[id(d.word)] == 1
    assert canonical_calls[id(d2.word)] == 1
    # each loop's certificate from d, then from d2, bridges from its minimal word
    assert outside == [minimal.word, monotone_reduce(d2)[0].word] * 2
    # the spies are live
    assert sum(canonical_calls.values()) > 2
    outside.clear()
    enumerate_decreasing(d)
    assert outside == [d.word]


def test_engine_validates_only_words_from_outside(monkeypatch):
    """`parse` and the constructor validate; a word the engine derives
    from a valid one is valid by construction and is not checked again.
    Replaying a trace validates its start code and nothing else."""
    rng = random.Random(26)
    diagrams = [random_diagram(rng, 8 + i % 5) for i in range(10)]
    pairs = []
    for d in diagrams:
        e = d
        for _ in range(2):
            e = apply(e, rng.choice(enumerate_increasing(e)))
        pairs.append((d, e))
    traces = [monotone_reduce(d)[1] for d in diagrams]
    traces += [equivalent(d, e, with_certificate=True)[1] for d, e in pairs]
    starts = [parse(t.start).word for t in traces]

    calls = []
    validate = diagram._validate_word

    def spy(word):
        calls.append(word)
        validate(word)

    monkeypatch.setattr(diagram, "_validate_word", spy)
    runs = {
        "monotone_reduce": lambda: [monotone_reduce(d) for d in diagrams],
        "crossing_number": lambda: [crossing_number(d) for d in diagrams],
        "minimal_class_code": lambda: [minimal_class_code(d) for d in diagrams],
        "is_composite": lambda: [is_composite(d) for d in diagrams],
        "equivalent": lambda: [equivalent(d, e) for d, e in pairs],
        "certified equivalent": lambda: [
            equivalent(d, e, with_certificate=True) for d, e in pairs
        ],
        "fr3_orbit": lambda: [fr3_orbit(d) for d in diagrams],
        "classify(4)": lambda: classify(4),
    }
    for name, run in runs.items():
        assert run()
        assert not calls, f"{name} validated {len(calls)} words"
    for trace, start in zip(traces, starts):
        replay_trace(trace)
        assert calls == [start]
        calls.clear()


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


def test_equivalent_agrees_with_class_codes_on_scrambled_pairs_of_every_class(
    classified, monkeypatch
):
    """Two scrambles of each of the 429 classes up to n = 5, the one
    paired with the other, with a scramble of the next class, and with a
    scramble of the next class of the same u-polynomial: `equivalent`,
    with and without a certificate, agrees with comparing the pair's
    `minimal_class_code`s.  The pairs fall into three groups, equivalent,
    refuted by their u-polynomials (by the oracle's count) and
    inequivalent with equal u-polynomials, and none is empty, so both
    paths are checked."""
    monkeypatch.setattr(reduce, "_memo", {})
    rng = random.Random(43)
    records = [r for n in range(6) for r in classified(n)]
    assert len(records) == 429
    by_u: dict[str, list] = {}
    for r in records:
        by_u.setdefault(r.u_text, []).append(r)
    assert len(by_u[str(u_polynomial(GaussDiagram(())))]) > 10  # u = 0 is shared
    groups = {"equivalent": 0, "different u": 0, "equal u": 0}
    for i, r in enumerate(records):
        peers = by_u[r.u_text]
        others = [records[(i + 1) % len(records)], peers[(peers.index(r) + 1) % len(peers)]]
        d = _scrambled(rng, parse(r.code))
        for other in [r] + [o for o in others if o is not r]:
            e = _scrambled(rng, parse(other.code))
            want = minimal_class_code(d) == minimal_class_code(e)
            if want:
                groups["equivalent"] += 1
            elif u_polynomial_oracle(d) != u_polynomial_oracle(e):
                groups["different u"] += 1
            else:
                groups["equal u"] += 1
            assert equivalent(d, e) == want, (serialize(d), serialize(e))
            same, cert = equivalent(d, e, with_certificate=True)
            assert same == want and (cert is None) == (not want)
    assert all(groups.values()), groups


def test_a_pair_refuted_by_its_u_polynomials_searches_nothing(monkeypatch, canonical_calls):
    """A pair whose u-polynomials differ is refuted after the argument
    checks and before either diagram is canonicalized: under a 1-node
    budget, which the first diagram's two-node minimal FR3 orbit exceeds,
    it returns False and (False, None), and it leaves the memo as it
    was.  A pair with equal u-polynomials still reduces, and raises."""
    monkeypatch.setattr(reduce, "_memo", {})
    tight = OrbitLimits(max_nodes=1)
    two_node = "+1 +2 -1 -2 +3 +4 -3 +5 -4 -5"  # u = 0
    assert equivalent(parse(two_node), parse(two_node))
    memo = {budget: dict(entries) for budget, entries in reduce._memo.items()}
    assert memo and canonical_calls
    canonical_calls.clear()
    d1, d2 = parse(two_node), parse(WITNESS_3)
    assert u_polynomial(d1) != u_polynomial(d2)
    for a, b in ((d1, d2), (d2, d1)):
        assert equivalent(a, b, tight) is False
        assert equivalent(a, b, tight, with_certificate=True) == (False, None)
        assert equivalent(a, b, with_certificate=True) == (False, None)
    assert reduce._memo == memo
    assert not canonical_calls and "_canon" not in vars(d1) and "_canon" not in vars(d2)
    # the argument checks still come first
    with pytest.raises(ValueError, match="with_certificate"):
        equivalent(d1, d2, tight, with_certificate=1)
    with pytest.raises(ValueError, match="limits"):
        equivalent(d1, d2, 1)
    # equal u-polynomials: the kinked diagram reduces to the two-node orbit
    kinked = parse("+6 -6 " + two_node)
    assert u_polynomial(kinked) == u_polynomial(d1)
    for a, b in ((d1, kinked), (kinked, d1), (d1, GaussDiagram(()))):
        for certify in (False, True):
            with pytest.raises(OrbitBudgetExceeded, match="exceeds the 1-node budget"):
                equivalent(a, b, tight, with_certificate=certify)


def test_orbit_budget_exceeded_signals():
    # this five-arrow connected sum has an FR3 orbit with more than one node
    d = parse("+1 +2 -1 -2 +3 +4 -3 +5 -4 -5")
    start = canonical_form(d)
    with pytest.raises(OrbitBudgetExceeded) as info:
        fr3_orbit(d, OrbitLimits(max_nodes=1))
    # the message names where the search started and how far it got
    assert f"FR3 orbit of {start} " in str(info.value)
    assert "(nodes explored: 1, expanded: 1)" in str(info.value)
    codes = fr3_orbit(d)
    assert len(codes) == 2


def test_reduction_step_checks_the_start_word_first(monkeypatch):
    # the kink gives a decreasing site, so no FR3 neighbor of the word is
    # looked at and no orbit scan starts from it
    d = parse("+1 +2 -1 -3 -2 +3 +4 -4")
    w = canonical_word(d.word)
    fr3_calls, scans = [], []
    fr3_sites, scan_orbit = moves._fr3_sites, reduce._scan_orbit

    def spy(word, back):
        fr3_calls.append(word)
        return fr3_sites(word, back)

    def scanning(start, *args, **kwargs):
        scans.append(start)
        return scan_orbit(start, *args, **kwargs)

    monkeypatch.setattr(moves, "_fr3_sites", spy)
    monkeypatch.setattr(reduce, "_scan_orbit", scanning)
    for budget in (1, DEFAULT_LIMITS.max_nodes):
        monkeypatch.setattr(reduce, "_memo", {})
        minimal, _, links = reduce._reduce_word(d, budget)
        # one step reaches the minimal word; the link holds its key, the
        # move and its offset, and no FR3 path
        (link,) = links
        assert reduce._memo[budget][d._canon[2]] == link
        next_key = key_oracle(minimal, diagram._offsets(minimal))
        assert link[:2] == (next_key, enumerate_decreasing(GaussDiagram(w))[0])
        assert len(link) == 3
        assert w not in fr3_calls and w not in scans
    # the 3-crossing word it reaches has no decreasing site: its orbit is
    # scanned
    assert scans == [minimal, minimal] and fr3_calls


def test_reduction_performs_its_own_moves_without_apply(monkeypatch):
    """A reduction or a certificate performs only moves its own
    enumerators found: it neither re-checks one with apply nor builds
    every decreasing site to keep the first."""
    rng = random.Random(23)
    diagrams = [random_diagram(rng, n) for n in range(6, 11) for _ in range(4)]
    # two kinked members of a two-node minimal FR3 orbit need a bridge
    orbit = fr3_orbit(parse("+1 +2 -1 -2 +3 +4 -3 +5 -4 -5"))
    d1, d2 = (parse(f"+6 -6 {code} +7 -7") for code in orbit)
    expected = [reduce_oracle(d)[1].to_json() for d in diagrams]
    expected.append(certificate_oracle(d1, d2).to_json())

    calls = []
    for name in ("apply", "enumerate_decreasing"):
        monkeypatch.setattr(moves, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(reduce, "_memo", {})
    got = [monotone_reduce(d)[1] for d in diagrams]
    same, cert = equivalent(d1, d2, with_certificate=True)
    assert same and calls == []
    assert [t.to_json() for t in got] + [cert.to_json()] == expected
    kinds = {m.kind for t in got + [cert] for m in t.steps}
    assert {"fr1-remove", "fr2-remove", "fr3"} <= kinds, kinds


def _scan_matches_the_oracle(word, max_nodes, find_decreasing):
    """`_scan_orbit` from the word's offsets against `scan_every_site_oracle`:
    the same pred, items and insertion order, node and move, or the same
    budget error text.  Returns the scan's pred."""
    try:
        want = scan_every_site_oracle(word, max_nodes, find_decreasing)
    except OrbitBudgetExceeded as exc:
        with pytest.raises(OrbitBudgetExceeded) as info:
            reduce._scan_orbit(word, diagram._offsets(word), max_nodes, find_decreasing)
        assert str(info.value) == str(exc)
        return None
    got = reduce._scan_orbit(word, diagram._offsets(word), max_nodes, find_decreasing)
    assert list(got[0].items()) == list(want[0].items()), word
    assert got[1:] == want[1:], word
    return got[0]


def test_scan_matches_the_every_site_oracle_on_reduced_words():
    """Skipping the site back to each node's predecessor, and returning
    at once from a start with no FR3 site, changes no scan: on every
    reduced canonical word with n <= 6, in both modes."""
    words = [d.word for n in range(7) for d in enumerate_diagrams(n, reduced=True)]
    assert len(words) == 10_045
    one_word = 0
    for w in words:
        for find_decreasing in (True, False):
            pred = _scan_matches_the_oracle(w, DEFAULT_LIMITS.max_nodes, find_decreasing)
        one_word += len(pred) == 1
    # the one-word orbits are the starts with no FR3 site: 6,599 of the
    # 9,522 words at n = 6, and 363 below
    assert one_word == 6_599 + 363


def _reduce_random_words(count: int):
    """The first `count` inputs of the benchmark's reduce-random seed-1
    stream (`perfbench/inputs.py`, which builds them without the library)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return list(itertools.islice(inputs.reduce_random_inputs(1), count))


def test_scan_matches_the_every_site_oracle_on_reduced_random_words(monkeypatch):
    """The minimal words the first 2,000 reduce-random seed-1 inputs
    reduce to, n up to 16, in both modes: 544 of the 1,842 have an orbit
    of more than one word."""
    monkeypatch.setattr(reduce, "_memo", {})
    minimal = {
        reduce._reduce_word(GaussDiagram(w), DEFAULT_LIMITS.max_nodes)[0]
        for w in _reduce_random_words(2000)
    }
    multi = 0
    for w in minimal:
        _scan_matches_the_oracle(w, DEFAULT_LIMITS.max_nodes, True)
        multi += len(_scan_matches_the_oracle(w, DEFAULT_LIMITS.max_nodes, False)) > 1
    assert (len(minimal), multi) == (1842, 544)


def test_scan_budget_error_matches_the_oracle():
    """At budgets 1..4 the scan fails where the oracle fails, with the
    same text, on every reduced canonical word with n <= 5 and on the
    n = 6 words whose orbit has more than four words."""
    words = [d.word for n in range(6) for d in enumerate_diagrams(n, reduced=True)]
    words += [
        d.word
        for d in enumerate_diagrams(6, reduced=True)
        if len(fr3_orbit(d)) > 4
    ]
    raised = 0
    for w in words:
        for max_nodes in range(1, 5):
            for find_decreasing in (True, False):
                raised += _scan_matches_the_oracle(w, max_nodes, find_decreasing) is None
    assert raised > 0


def test_orbit_limits_validation():
    with pytest.raises(ValueError):
        OrbitLimits(max_nodes=0)


@pytest.mark.parametrize("max_nodes", [True, False, 2.5, 2.0, "5", None])
def test_orbit_limits_reject_a_budget_that_is_not_an_integer(max_nodes):
    with pytest.raises(ValueError, match="^max_nodes must be an integer, not .*") as info:
        OrbitLimits(max_nodes=max_nodes)
    assert "\n" not in str(info.value)


def test_minimal_class_code_is_class_invariant():
    rng = random.Random(27)
    for _ in range(20):
        d = random_diagram(rng, rng.randint(0, 4))
        e = d
        for _ in range(3):
            moves = all_legal_moves(e)
            e = apply(e, rng.choice(moves))
        assert minimal_class_code(d) == minimal_class_code(e)


# ---------------------------------------------------------------------------
# the memoized loop against the reference loop
# ---------------------------------------------------------------------------

MAX_NODES = DEFAULT_LIMITS.max_nodes


def _check_reduce_against_oracle(diagrams, monkeypatch):
    """Same minimal word and trace bytes as reduce_oracle, the same
    minimal word as the one _reduce_word returns on a cold memo, on the
    diagram's own entry, and on a memo warmed by every diagram before
    it, the first word of fr3_orbit as the class word _reduce_word
    returns for the minimal word on a cold memo, with no links, and links
    in the warm memo that replay."""
    wants = []
    for d in diagrams:
        minimal, trace = reduce_oracle(d)
        want = minimal.word
        wants.append((want, trace.to_json()))
        monkeypatch.setattr(reduce, "_memo", {})
        got, got_trace = monotone_reduce(d)
        assert (got, got_trace.to_json()) == (minimal, trace.to_json()), serialize(d)
        # the trace is read from the links the reduction wrote
        assert reduce._chain(reduce._memo[MAX_NODES], d._canon[2])[0] == minimal.word
        monkeypatch.setattr(reduce, "_memo", {})
        assert reduce._reduce_word(d, MAX_NODES)[0] == want, serialize(d)
        assert reduce._reduce_word(d, MAX_NODES)[0] == want, serialize(d)
        monkeypatch.setattr(reduce, "_memo", {})
        codes = fr3_orbit(minimal)
        got = reduce._reduce_word(minimal, MAX_NODES)
        assert got == (minimal.word, parse(codes[0]).word, []), serialize(d)
        assert minimal_class_code(d) == codes[0], serialize(d)
    monkeypatch.setattr(reduce, "_memo", {})
    for d, (want, trace_json) in zip(diagrams, wants):
        assert reduce._reduce_word(d, MAX_NODES)[0] == want, serialize(d)
        assert monotone_reduce(d)[1].to_json() == trace_json, serialize(d)
    _check_links_replay()


def _check_certificates_against_oracle(pairs, monkeypatch):
    """Certified `equivalent` writes the oracle's certificate bytes on a
    cold memo, on a memo warmed by `crossing_number` on both inputs (links
    written by plain reductions), and on a memo warmed by the certified
    call in the other direction (its certificate read from those links).
    Returns how many pairs reduce to two different minimal words, so need
    a bridge."""
    bridged = 0
    for d1, d2 in pairs:
        want = certificate_oracle(d1, d2).to_json()
        bridged += reduce_oracle(d1)[0] != reduce_oracle(d2)[0]
        for warm in (
            lambda: None,
            lambda: (crossing_number(d1), crossing_number(d2)),
            lambda: equivalent(d2, d1, with_certificate=True),
        ):
            monkeypatch.setattr(reduce, "_memo", {})
            warm()
            same, cert = equivalent(d1, d2, with_certificate=True)
            assert same and cert.to_json() == want, (serialize(d1), serialize(d2))
    return bridged


def _check_links_replay():
    """Every memo entry is a head (word, class word) for a member of a
    minimal orbit, the class word the orbit's first word in fr3_orbit, or
    a link and nothing else: the key of a word that has
    an entry, then FR3 moves and one decreasing move, each applied to the
    canonical word before it, whose results canonicalize at the stored
    offsets and end at that next word.  Each entry's word is the one its
    key encodes (`word_of_key`).  Links with and without an FR3 path must
    both occur."""
    fr3_paths = set()
    for memo in reduce._memo.values():
        for key, value in memo.items():
            word = word_of_key(key)
            if len(value) == 2:
                min_word, cls = value
                assert min_word == word
                assert cls == parse(fr3_orbit(GaussDiagram(word))[0]).word
                continue
            nxt, moves, offsets = value[0], value[1::2], value[2::2]
            fr3_paths.add(len(moves) > 1)
            assert [m.kind == "fr3" for m in moves] == [True] * (len(moves) - 1) + [False]
            assert moves[-1].delta < 0
            cur = word
            for m, r in zip(moves, offsets):
                cur, got_r = diagram._canonical(apply(GaussDiagram(cur), m).word)[:2]
                assert got_r == r, serialize(GaussDiagram(word))
            assert cur == word_of_key(nxt), serialize(GaussDiagram(word))
            assert nxt in memo
    assert fr3_paths == {False, True}


class _LinkCheckedMemo(dict):
    """One budget's memo dict that refuses a link whose next word has no
    entry yet."""

    def __setitem__(self, word, value):
        if len(value) > 2:
            assert value[0] in self, serialize(GaussDiagram(word))
        super().__setitem__(word, value)


def test_memo_links_are_written_after_their_next_word(monkeypatch):
    # so a walk down the stored links never meets a missing entry, even
    # while another caller is still writing its trail
    monkeypatch.setattr(reduce, "_memo", {MAX_NODES: _LinkCheckedMemo()})
    rng = random.Random(14)
    for n in range(6, 12):
        d = random_diagram(rng, n)
        e = random_diagram(rng, n)
        minimal, trace = monotone_reduce(d)
        assert replay_trace(trace) == minimal
        assert crossing_number(e) == reduce_oracle(e)[0].n
    # two kinked members of a two-node minimal FR3 orbit need a bridge
    orbit = fr3_orbit(parse("+1 +2 -1 -2 +3 +4 -3 +5 -4 -5"))
    d1, d2 = (parse(f"+6 -6 {code} +7 -7") for code in orbit)
    for a, b in ((d1, d2), (d2, d1)):
        same, cert = equivalent(a, b, with_certificate=True)
        assert same and serialize(replay_trace(cert)) == canonical_form(b)
        assert cert.to_json() == certificate_oracle(a, b).to_json()
    # every entry went through the checked dict
    (memo,) = reduce._memo.values()
    assert isinstance(memo, _LinkCheckedMemo)
    ends = {reduce._chain(memo, x._canon[2])[0] for x in (d1, d2)}
    assert len(ends) == 2
    # some trails were longer than one link, so their write order mattered
    assert any(len(memo[v[0]]) > 2 for v in memo.values() if len(v) > 2)


def test_the_memo_keeps_one_dict_of_canonical_words_per_budget(monkeypatch):
    """`reduce._memo` maps each orbit budget to a dict keyed by the
    key of each canonical word.  Entries written under the default
    budget never answer a call under budget 3: a diagram whose orbit scan
    needs more than three nodes still raises there, with the text a cold
    memo gives."""
    kinked = parse("+6 -6 +1 +2 -1 -2 +3 +4 -3 +5 -4 -5")
    # a minimal diagram whose FR3 orbit has four words
    wide = parse("+1 +2 -1 -2 -3 -4 -5 +4 -6 +5 +6 +3")
    tight = OrbitLimits(max_nodes=3)
    monkeypatch.setattr(reduce, "_memo", {})
    with pytest.raises(OrbitBudgetExceeded) as cold:
        crossing_number(wide, tight)
    monkeypatch.setattr(reduce, "_memo", {})
    assert (crossing_number(kinked), crossing_number(wide)) == (5, 6)
    default = dict(reduce._memo[MAX_NODES])
    assert crossing_number(kinked, tight) == 5
    with pytest.raises(OrbitBudgetExceeded) as warm:
        crossing_number(wide, tight)
    assert str(warm.value) == str(cold.value)
    assert sorted(reduce._memo) == [3, MAX_NODES]
    assert reduce._memo[MAX_NODES] == default
    for memo in reduce._memo.values():
        assert memo and all(canonical_word(word_of_key(k)) == word_of_key(k) for k in memo)
        assert all(GaussDiagram(word_of_key(k))._canon[2] == k for k in memo)
    kinked_key, wide_key = kinked._canon[2], wide._canon[2]
    assert kinked_key in reduce._memo[3]
    assert wide_key in default and wide_key not in reduce._memo[3]


def test_keys_are_exact_on_every_canonical_word_up_to_six_arrows():
    """The key `diagram._least_rotation` builds tells every canonical word
    apart: over all 58,814 words `catalog._orderly_words(n, False)` yields
    for n <= 6, each canonical at offset 0, with the offsets the
    generator yields beside it and the key `key_oracle` builds from the
    two, no two keys agree, each key has two bytes per endpoint, and each
    decodes to its own word."""
    keys = set()
    count = 0
    for n in range(7):
        for word, back in catalog._orderly_words(n, False):
            rotation, r, offsets, key = diagram._least_rotation(word)
            assert (rotation, r, offsets, key) == (word, 0, back, key_oracle(word, back)), word
            assert len(key) == 2 * len(word) and word_of_key(key) == word, word
            keys.add(key)
            count += 1
    assert count == len(keys) == 58_814


def test_every_rotation_and_relabeling_gives_the_key_of_the_canonical_form():
    """The rank scan's rotation of any rotation of a word, in any labels,
    has the key of the word's canonical form (`key_oracle`), and relabels
    to that form: on seeded random words up to 14 arrows, and on a few
    of 129 to 160 arrows, past 256 endpoints, whose keys take four bytes
    per offset, as drawn and with each arrow given an arbitrary distinct
    label, some far past 256."""
    rng = random.Random(36)
    checked = wide = 0
    for arrows in [(0, 14)] * 150 + [(129, 160)] * 3:
        d = random_diagram(rng, rng.randint(*arrows))
        canon = canonical_word(d.word)
        want = key_oracle(canon, diagram._offsets(canon))
        assert word_of_key(want) == canon
        labels = rng.sample(range(1, 10**9), d.n)
        relabeled = tuple(labels[t - 1] if t > 0 else -labels[-t - 1] for t in d.word)
        for word in (d.word, relabeled):
            for g in range(max(len(word), 1)):
                rotation, _, back, key = diagram._least_rotation(word[g:] + word[:g])
                assert key == want == key_oracle(rotation, back), word
                assert diagram._first_appearance(rotation) == canon, word
                checked += 1
                wide += len(word) > 256
    assert checked > 2000 and wide > 1500


def _grown(rng: random.Random, d: GaussDiagram, size: int) -> GaussDiagram:
    """d after seeded random FR1 and FR2 inserts, until it has more than
    size endpoints."""
    while d.size <= size:
        gaps = max(d.size, 1)
        if rng.random() < 0.3:
            m = moves.Move("fr1-insert", rng.choice(("th", "ht")), (rng.randrange(gaps),))
        else:
            ga, gb = sorted(rng.randrange(gaps) for _ in range(2))
            m = moves.Move("fr2-insert", rng.choice(moves.FR2_VARIANTS), (ga, gb))
        d = apply(d, m)
    return d


def test_a_word_over_256_endpoints_reduces_and_certifies_with_wide_keys(monkeypatch):
    """Past 256 endpoints a partner offset needs more than a byte, so the
    keys switch to four bytes per offset.  Two words grown from a minimal
    diagram to more than 256 endpoints reduce with the oracle's trace
    bytes and certify with its certificate bytes; both replay; every key
    of a word that long is the wide one, and every shorter word's the
    narrow one, each decoding to its own word."""
    monkeypatch.setattr(reduce, "_memo", {})
    rng = random.Random(256)
    base = parse(WITNESS_3)
    d1, d2 = _grown(rng, base, 256), _grown(rng, base, 256)
    for d in (d1, d2):
        minimal, trace = monotone_reduce(d)
        want_minimal, want_trace = reduce_oracle(d)
        assert (minimal, trace.to_json()) == (want_minimal, want_trace.to_json())
        assert replay_trace(trace) == minimal and minimal.n == 3
    same, cert = equivalent(d1, d2, with_certificate=True)
    assert same and cert.to_json() == certificate_oracle(d1, d2).to_json()
    assert serialize(replay_trace(cert)) == canonical_form(d2)
    (memo,) = reduce._memo.values()
    wide_width = 5
    widths = set()
    for key in memo:
        word = word_of_key(key)
        width = wide_width if len(word) > 256 else 2
        assert len(key) == width * len(word)
        widths.add(width)
    assert widths == {2, wide_width}
    assert len(d1._canon[2]) == wide_width * d1.size


def _scrambled(rng: random.Random, d: GaussDiagram) -> GaussDiagram:
    """d after a few random FR1/FR2 inserts and FR3 moves."""
    for _ in range(rng.randint(1, 4)):
        sites = moves.enumerate_fr3(d) if rng.random() < 0.3 else []
        d = apply(d, rng.choice(sites or enumerate_increasing(d)))
    return d


def test_certified_equivalences_share_their_fr1_fr2_moves_and_head_labels(monkeypatch):
    """After 80 seeded certified equivalences, each FR1/FR2 move value in
    the memo links and the certificates is one object, the one
    `moves._SHARED` holds; each head label of a labeled memo word, the
    minimal words and class words of the entry heads, is `diagram._NEG`'s
    object; and the shared table holds no FR3 move, though the links and
    certificates hold some."""
    monkeypatch.setattr(reduce, "_memo", {})
    rng = random.Random(35)
    pairs = []
    for _ in range(80):
        base = random_diagram(rng, rng.randint(3, 7))
        pairs.append((_scrambled(rng, base), _scrambled(rng, base)))
    # two kinked members of a two-node minimal FR3 orbit need a bridge
    orbit = fr3_orbit(parse("+1 +2 -1 -2 +3 +4 -3 +5 -4 -5"))
    pairs.append(tuple(parse(f"+6 -6 {code} +7 -7") for code in orbit))
    held = []
    for d1, d2 in pairs:
        same, cert = equivalent(d1, d2, with_certificate=True)
        assert same
        held += cert.steps
    (memo,) = reduce._memo.values()
    held += [m for value in memo.values() if len(value) > 2 for m in value[1::2]]
    fr3 = [m for m in held if m.kind == moves.FR3]
    shared = [m for m in held if m.kind != moves.FR3]
    assert fr3 and len(shared) > len({(m.kind, m.variant, m.positions) for m in shared})
    assert all(moves._SHARED[m.kind, m.variant, m.positions] is m for m in shared)
    assert all(m.kind != moves.FR3 for m in moves._SHARED.values())
    labeled = [w for value in memo.values() if len(value) == 2 for w in value]
    heads = [t for w in labeled for t in w if t < 0]
    assert min(heads) < -5  # past CPython's small ints
    assert all(t is diagram._NEG[-t] for t in heads)


def test_reduce_matches_oracle_small_n_exhaustive(monkeypatch):
    diagrams = [d for n in range(6) for d in enumerate_diagrams(n)]
    assert len(diagrams) == 3274
    _check_reduce_against_oracle(diagrams, monkeypatch)
    # certificates between consecutive members of each class
    classes: dict[str, list] = {}
    for d in diagrams:
        minimal, _ = reduce_oracle(d)
        classes.setdefault(fr3_orbit(minimal)[0], []).append(d)
    assert len(classes) == 1 + 0 + 0 + 2 + 26 + 400
    pairs = [p for members in classes.values() for p in zip(members, members[1:])]
    assert _check_certificates_against_oracle(pairs, monkeypatch) > 0


def test_reduce_matches_oracle_random_larger_n(monkeypatch):
    rng = random.Random(4)
    diagrams = [random_diagram(rng, n) for n in range(6, 13) for _ in range(16)]
    _check_reduce_against_oracle(diagrams, monkeypatch)
    pairs = []
    for d in diagrams:
        e = d
        for _ in range(2):
            e = apply(e, rng.choice(enumerate_increasing(e)))
        pairs.append((d, e))
    # and each diagram against another member of its minimal FR3 orbit,
    # so some certificates cross the orbit between two minimal words
    for d in diagrams:
        minimal = serialize(reduce_oracle(d)[0])
        others = [c for c in fr3_orbit(parse(minimal)) if c != minimal]
        if others:
            pairs.append((d, parse(rng.choice(others))))
    assert _check_certificates_against_oracle(pairs, monkeypatch) > 0


def test_budget_errors_do_not_depend_on_the_memo(monkeypatch, capsys):
    # a minimal diagram with a two-node FR3 orbit, and the same with a kink
    codes = ["+1 +2 -1 -2 +3 +4 -3 +5 -4 -5", "+6 -6 +1 +2 -1 -2 +3 +4 -3 +5 -4 -5"]
    tight = OrbitLimits(max_nodes=1)

    def budget_errors():
        errors = []
        for code in codes:
            d = parse(code)
            for call in (
                lambda: crossing_number(d, tight),
                lambda: equivalent(d, d, tight, with_certificate=True),
            ):
                with pytest.raises(OrbitBudgetExceeded) as info:
                    call()
                errors.append(str(info.value))
            capsys.readouterr()
            assert main(["--max-orbit", "1", "reduce", code]) == 2
            errors.append(capsys.readouterr().err)
        return errors

    monkeypatch.setattr(reduce, "_memo", {})
    cold = budget_errors()
    assert all("exceeds the 1-node budget" in e for e in cold)
    monkeypatch.setattr(reduce, "_memo", {})
    for code in codes:
        d = parse(code)
        assert crossing_number(d) == 5
        assert equivalent(d, d, with_certificate=True)[0]
        assert main(["reduce", code]) == 0
    assert budget_errors() == cold
