"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Criteria with stated runtime bounds
enforce them."""
import io
import itertools
import random
import sys
import time
from contextlib import redirect_stdout

from flatknots import (
    BasedDiagram,
    GaussDiagram,
    apply,
    classify,
    connected_sum,
    crossing_number,
    enumerate_decreasing,
    enumerate_diagrams,
    enumerate_fr1_increasing,
    enumerate_fr3,
    enumerate_increasing,
    equivalent,
    find_splits,
    fr3_orbit,
    parse,
    permutant_set,
    serialize,
    u_polynomial,
)
from flatknots.cli import main
from flatknots.diagram import canonical_word
from conftest import all_legal_moves, random_diagram

WITNESS_3 = "+1 +2 -1 -3 -2 +3"
WITNESS_3_OTHER = "+1 +2 +3 -1 -3 -2"
TREFOIL_SHADOW = "+1 +2 -1 -2"
COMPOSITE_4 = "+1 +2 -1 -2 +3 +4 -3 -4"


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def test_criterion_1_small_n_triviality():
    start = time.perf_counter()
    nonzero = []
    for n in (1, 2):
        for d in enumerate_diagrams(n):
            if crossing_number(d) != 0:
                nonzero.append(serialize(d))
    elapsed = time.perf_counter() - start
    ok = not nonzero and elapsed < 10.0
    _report(1, "small-n triviality", ok, f"{elapsed:.1f}s, irreducible={nonzero}")


def test_criterion_2_first_nontrivial_knot():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["tabulate", "3"])
    lines = out.getvalue().splitlines()
    records = [line for line in lines if line.startswith("class=")]
    ok = (
        code == 0
        and len(records) == 2  # frozen golden class count
        and all("cr=3" in line and "verdict=P" in line for line in records)
    )
    _report(2, "first nontrivial knot at three crossings", ok, f"classes={len(records)}")


def test_criterion_3_trivial_summands_span_trivial_and_nontrivial():
    start = time.perf_counter()
    two_arrow = list(enumerate_diagrams(2))
    witnesses = []
    for d1, d2 in itertools.product(two_arrow, repeat=2):
        crs = {
            crossing_number(parse(m)) for m in permutant_set(d1, d2).members
        }
        if 0 in crs and 4 in crs:
            witnesses.append((serialize(d1), serialize(d2)))
    elapsed = time.perf_counter() - start
    expected = (TREFOIL_SHADOW, TREFOIL_SHADOW)
    ok = expected in witnesses and elapsed < 60.0
    _report(
        3,
        "trivial summands with trivial and four-crossing sums",
        ok,
        f"{elapsed:.1f}s, witnesses={len(witnesses)}",
    )


def test_criterion_4_superadditivity_exhaustive():
    diagrams = {n: list(enumerate_diagrams(n)) for n in range(6)}
    violations = []
    strict = False
    for n1 in range(6):
        for n2 in range(6 - n1):
            for d1 in diagrams[n1]:
                c1 = crossing_number(d1)
                for d2 in diagrams[n2]:
                    c2 = crossing_number(d2)
                    for g1 in range(max(d1.size, 1)):
                        for g2 in range(max(d2.size, 1)):
                            s = connected_sum(BasedDiagram(d1, g1), BasedDiagram(d2, g2))
                            cp = crossing_number(s)
                            if cp < c1 + c2:
                                violations.append((serialize(d1), g1, serialize(d2), g2))
                            elif cp > c1 + c2:
                                strict = True
    # strictness is also visible on the trivial-summand witnesses
    fig8 = {
        crossing_number(parse(m))
        for m in permutant_set(parse(TREFOIL_SHADOW), parse(TREFOIL_SHADOW)).members
    }
    ok = not violations and strict and {0, 4} <= fig8
    _report(4, "crossing number super-additive under sums", ok, f"violations={len(violations)}")


def _minimal_diagrams(n):
    if n == 0:
        return [GaussDiagram(())]
    out = []
    for rec in classify(n):
        codes = fr3_orbit(parse(rec.code))
        out.extend(parse(c) for c in codes)
    return out


def test_criterion_5_permutant_minimality():
    failures = []
    # the substantive case: both summands nontrivial minimal diagrams
    minimal3 = _minimal_diagrams(3)
    for d1, d2 in itertools.product(minimal3, repeat=2):
        for code in permutant_set(d1, d2).members:
            member = parse(code)
            if crossing_number(member) != member.n or crossing_number(member) != 6:
                failures.append(code)
    # an empty summand: permutants are rotations of the other side
    for n in (0, 3, 4, 5, 6):
        if n == 6:
            # a diagram with a decreasing site has cr < 6, so this is every
            # diagram with cr = 6
            others = [d for d in enumerate_diagrams(6, reduced=True) if crossing_number(d) == 6]
        else:
            others = _minimal_diagrams(n)
        for d in others:
            for code in permutant_set(GaussDiagram(()), d).members:
                member = parse(code)
                if crossing_number(member) != member.n or crossing_number(member) != d.n:
                    failures.append(code)
    ok = not failures
    _report(5, "permutants of minimal diagrams stay minimal", ok, f"violations={len(failures)}")


def _assert_sums_of_minimal_summands_are_minimal(a, b, summands, sums):
    """Every sum of a minimal a-arrow diagram and a minimal b-arrow
    diagram, over every basepoint pair: `summands` minimal diagrams on
    each side, `sums` distinct sums, and each sum has crossing number
    a + b."""
    minimal_a, minimal_b = _minimal_diagrams(a), _minimal_diagrams(b)
    assert (len(minimal_a), len(minimal_b)) == summands
    members = {
        code
        for d1, d2 in itertools.product(minimal_a, minimal_b)
        for code in permutant_set(d1, d2).members
    }
    assert len(members) == sums
    assert {crossing_number(parse(code)) for code in members} == {a + b}


def test_superadditivity_is_equality_for_minimal_3_and_4_arrow_summands():
    """Sums of two nontrivial minimal diagrams with 3 + 4 arrows: every
    permutant is itself minimal, so cr(sum) = cr(d1) + cr(d2) exactly."""
    _assert_sums_of_minimal_summands_are_minimal(3, 4, (2, 30), 2784)


def test_superadditivity_is_equality_for_minimal_4_and_4_arrow_summands():
    """The same at eight crossings: every sum of two of the 30 minimal
    4-arrow diagrams, in either order, over every basepoint pair."""
    _assert_sums_of_minimal_summands_are_minimal(4, 4, (30, 30), 27_024)


def test_criterion_6_split_preservation():
    rng = random.Random(1006)
    base = [WITNESS_3, WITNESS_3_OTHER]
    violations = 0
    trials = 0
    while trials < 10_000:
        sides = []
        for _ in range(2):
            d = parse(rng.choice(base))
            if rng.random() < 0.5:
                d = apply(d, rng.choice(enumerate_increasing(d)))
            sides.append(d)
        d1, d2 = sides
        s = connected_sum(
            BasedDiagram(d1, rng.randrange(d1.size)),
            BasedDiagram(d2, rng.randrange(d2.size)),
        )
        moves = enumerate_decreasing(s) + enumerate_fr3(s) + enumerate_fr1_increasing(s)
        if not moves:
            continue
        out = apply(s, rng.choice(moves))
        if not find_splits(out):
            violations += 1
        trials += 1
    _report(6, "splits survive all moves but increasing FR2", violations == 0,
            f"trials={trials}, violations={violations}")


def test_criterion_7_compositeness_stability(classified):
    # every minimal diagram of a composite splits, and none of any other
    # class does
    violations = []
    composite_members = 0
    for n in (4, 5, 6):
        for rec in classified(n):
            composite = rec.verdict == "C"
            for code in fr3_orbit(parse(rec.code)):
                composite_members += composite
                if bool(find_splits(parse(code))) != composite:
                    violations.append(code)
    # orbit members of the 3, 36 and 692 composite classes at n = 4, 5, 6
    ok = not violations and composite_members == 3 + 40 + 793
    _report(7, "every minimal diagram of a composite splits", ok,
            f"composite members={composite_members}, violations={len(violations)}")


def test_criterion_8_u_polynomial_cross_check():
    rng = random.Random(1008)
    violations = 0
    checked = 0
    while checked < 10_000:
        d = random_diagram(rng, rng.randint(0, 6))
        moves = all_legal_moves(d, max_arrows=8)
        if not moves:
            continue
        m = rng.choice(moves)
        if u_polynomial(apply(d, m)) != u_polynomial(d):
            violations += 1
        checked += 1
    _report(8, "u-polynomial invariant under all moves", violations == 0,
            f"moves={checked}, violations={violations}")


def test_criterion_9_oracle_equivalence(oracle_classes_ceiling_5):
    oracle = oracle_classes_ceiling_5
    diagrams = [d for n in range(4) for d in enumerate_diagrams(n)]
    disagreements = []
    for d1, d2 in itertools.combinations_with_replacement(diagrams, 2):
        want = oracle[canonical_word(d1.word)] == oracle[canonical_word(d2.word)]
        if equivalent(d1, d2) != want:
            disagreements.append((serialize(d1), serialize(d2)))
    _report(9, "agreement with full-move-graph oracle", not disagreements,
            f"pairs={len(diagrams) * (len(diagrams) + 1) // 2}, "
            f"disagreements={len(disagreements)}")


def test_criterion_10_cli_determinism(tmp_path):
    trace = tmp_path / "trace.json"

    def run(argv, stdin_text=None):
        out = io.StringIO()
        old = sys.stdin
        try:
            if stdin_text is not None:
                sys.stdin = io.StringIO(stdin_text)
            with redirect_stdout(out):
                code = main(argv)
        finally:
            sys.stdin = old
        return code, out.getvalue()

    run(["reduce", "--trace", str(trace), "+1 -2 +2 -1"])
    commands = [
        ["canon", "+2 -2 +1 -1"],
        ["canon"],  # batch over stdin
        ["reduce", WITNESS_3],
        ["--format", "json", "reduce", TREFOIL_SHADOW],
        ["equiv", "+1 -1", "0"],
        ["prime", "--all-splits", COMPOSITE_4],
        ["csum", "+1 -1", "1", "+1 +2 -1 -2", "3"],
        ["--format", "json", "permutants", TREFOIL_SHADOW, TREFOIL_SHADOW],
        ["verify-superadd", "--seed", "11", WITNESS_3, WITNESS_3],
        ["--format", "json", "tabulate", "3"],
        ["replay", "+1 -2 +2 -1", str(trace)],
    ]
    stdin_payload = "+1 -1\n+2 -2 +1 -1\n"
    mismatches = []
    for argv in commands:
        text = stdin_payload if argv == ["canon"] else None
        first = run(argv, text)
        second = run(argv, text)
        if first != second:
            mismatches.append(argv)
    _report(10, "CLI output byte-identical across runs", not mismatches,
            f"commands={len(commands)}, mismatches={len(mismatches)}")
