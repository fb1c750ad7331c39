"""Connected sums, permutant sets, primality, and super-additivity checks.

A connected sum splices two based diagrams at their basepoint gaps; the
permutant set collects the sums over every basepoint choice.

Composite, as `_minimal_verdict` decides it: a nontrivial knot is
composite when a minimal diagram of it has a split with at least one
arrow on each side (arXiv 2312.03994: any minimal diagram of a composite
flat knot is a connected sum diagram).  Such a split certifies a
composite knot: were the knot equivalent to one of the two sides, its
crossing number would drop below the minimal diagram's, which is
impossible.  Conversely composite knots always show a split on minimal
diagrams, so primality is decided by reducing and inspecting splits.
The sides are long knots; closed up on their own they may be trivial.
At n = 4 all three composite classes split only into two sides that
close to the trivial knot, and at n = 5, 12 of the 36 do.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .diagram import (
    BasedDiagram,
    GaussDiagram,
    Split,
    _canonical,
    _first_split,
    _trusted,
    canonical_sort_key,
    rebase,
    serialize,
)
from .reduce import (
    OrbitLimits,
    crossing_number,
    _full_orbit,
    _reduce_word,
    DEFAULT_LIMITS,
)

VERDICT_TRIVIAL = "trivial"
VERDICT_PRIME = "prime"
VERDICT_COMPOSITE = "composite"


def connected_sum(b1: BasedDiagram, b2: BasedDiagram) -> GaussDiagram:
    """Splice the second diagram into the first at the basepoint gaps.

    Both words are read counterclockwise, so orientations match by
    construction; crossing counts add."""
    w1 = rebase(b1.diagram, b1.base).word
    w2 = rebase(b2.diagram, b2.base).word
    n1 = b1.diagram.n
    shifted = tuple(t + n1 if t > 0 else t - n1 for t in w2)
    return _trusted(w1 + shifted)


@dataclass(frozen=True)
class PermutantSet:
    """All connected sums of two diagrams over every basepoint pair,
    deduplicated by canonical code."""

    input_codes: tuple[str, str]
    members: tuple[str, ...]
    sources: dict[str, tuple[tuple[int, int], ...]]


def _gap_pairs(d1: GaussDiagram, d2: GaussDiagram) -> list[tuple[int, int]]:
    return [(g1, g2) for g1 in range(max(d1.size, 1)) for g2 in range(max(d2.size, 1))]


def _sum_words(d1: GaussDiagram, d2: GaussDiagram, pairs) -> dict:
    """Canonical word of each connected sum -> (its partner offsets, the
    gap pairs giving it).  Each sum is canonicalized once, by one
    `_canonical` call, and the offsets it returns are kept for
    `verify_superadditivity` to reduce the member from."""
    sources: dict[tuple[int, ...], tuple[list[int], list[tuple[int, int]]]] = {}
    for g1, g2 in pairs:
        s = connected_sum(BasedDiagram(d1, g1), BasedDiagram(d2, g2))
        w, _, back = _canonical(s.word)
        sources.setdefault(w, (back, []))[1].append((g1, g2))
    return sources


def permutant_set(d1: GaussDiagram, d2: GaussDiagram) -> PermutantSet:
    sources = _sum_words(d1, d2, _gap_pairs(d1, d2))
    codes = {w: serialize(_trusted(w)) for w in sorted(sources, key=canonical_sort_key)}
    return PermutantSet(
        (serialize(d1), serialize(d2)),
        tuple(codes.values()),
        {codes[w]: tuple(pairs) for w, (_, pairs) in sources.items()},
    )


@dataclass(frozen=True)
class CompositenessVerdict:
    verdict: str
    minimal: GaussDiagram
    witness: Split | None


def is_composite(d: GaussDiagram, limits: OrbitLimits | None = None) -> CompositenessVerdict:
    """Classify as trivial, prime, or composite by reducing and looking
    for a nontrivial split of the minimal diagram."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    min_word = _reduce_word(*d._canon, max_nodes)
    return _minimal_verdict(_trusted(min_word))


def _minimal_verdict(minimal: GaussDiagram) -> CompositenessVerdict:
    """Verdict read off a minimal diagram: a nontrivial split there
    certifies a composite, and composites always show one.  The witness
    is the first split `find_splits` would list, found without building
    the others (`diagram._first_split`)."""
    if minimal.n == 0:
        return CompositenessVerdict(VERDICT_TRIVIAL, minimal, None)
    witness = _first_split(minimal)
    verdict = VERDICT_PRIME if witness is None else VERDICT_COMPOSITE
    return CompositenessVerdict(verdict, minimal, witness)


@dataclass(frozen=True)
class MemberRow:
    code: str
    cr: int
    class_id: int
    minimal: bool


@dataclass(frozen=True)
class SuperadditivityReport:
    input_codes: tuple[str, str]
    cr1: int
    cr2: int
    inputs_minimal: bool
    exhaustive: bool
    rows: tuple[MemberRow, ...]
    distinct_classes: int
    inequality_violations: tuple[str, ...]
    equality_violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.inequality_violations and not self.equality_violations


def verify_superadditivity(
    d1: GaussDiagram,
    d2: GaussDiagram,
    limits: OrbitLimits | None = None,
    seed: int = 0,
    sample_size: int = 256,
) -> SuperadditivityReport:
    """Check cr(member) >= cr(d1) + cr(d2) over the permutant set, and
    exact equality when both inputs are minimal diagrams.

    Basepoint pairs are enumerated exhaustively when there are at most
    256 of them or at most sample_size, otherwise a seeded uniform sample
    of sample_size pairs is used."""
    if not isinstance(sample_size, int) or isinstance(sample_size, bool):
        raise ValueError(f"sample_size must be an integer, not {sample_size!r}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    c1 = crossing_number(d1, limits)
    c2 = crossing_number(d2, limits)
    inputs_minimal = c1 == d1.n and c2 == d2.n

    pairs = _gap_pairs(d1, d2)
    exhaustive = len(pairs) <= max(256, sample_size)
    if not exhaustive:
        pairs = sorted(random.Random(seed).sample(pairs, sample_size))
    member_words = _sum_words(d1, d2, pairs)

    # each member word is canonical already, its offsets at hand: one
    # reduction gives its crossing number, and the first word of its
    # minimal orbit its class
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    class_ids: dict[tuple[int, ...], int] = {}
    prelim = []
    for w in sorted(member_words, key=canonical_sort_key):
        min_word = _reduce_word(w, member_words[w][0], max_nodes)
        cr = len(min_word) // 2
        cls = _full_orbit(min_word, max_nodes)[0]
        prelim.append((serialize(_trusted(w)), cr, cls, 2 * cr == len(w)))
        class_ids.setdefault(cls, 0)
    for i, cls in enumerate(sorted(class_ids, key=canonical_sort_key), start=1):
        class_ids[cls] = i

    rows = tuple(
        MemberRow(code, cr, class_ids[cls], minimal)
        for code, cr, cls, minimal in prelim
    )
    floor = c1 + c2
    ineq = tuple(r.code for r in rows if r.cr < floor)
    eq = tuple(r.code for r in rows if inputs_minimal and r.cr != floor)
    return SuperadditivityReport(
        (serialize(d1), serialize(d2)),
        c1,
        c2,
        inputs_minimal,
        exhaustive,
        rows,
        len(class_ids),
        ineq,
        eq,
    )
