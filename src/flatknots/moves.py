"""Flat Reidemeister moves on Gauss diagrams.

Move legality is computed, not transcribed, from the planar convention
that an arrow points from the first-visited endpoint to the second iff
the ordered pair of strand tangents at the crossing is a positively
oriented basis.  Two coordinate models supply the legal local patterns:

* bigon (FR2): two strands crossing twice.  Working the determinant rule
  through every direction/side combination shows the removable pattern is
  two disjoint cyclically-adjacent endpoint pairs, each pair holding one
  endpoint of each arrow with one tail and one head.  Both the nested
  (x y y x) and interleaved (x y x y) arrangements occur.
* triangle (FR3): three straight strands A: y=0, B: y=x, C: y=-x+1 with
  crossings r=A^B, q=A^C, p=B^C.  Direction signs use the tangents
  sA*(1,0), sB*(1,1), sC*(-1,1).  Sliding A across p reverses the visit
  order of the two crossings on every strand and keeps every arrow
  direction, since tangents are unchanged.  build_fr3_catalog enumerates
  all sign/cyclic-order/side combinations and deduplicates.

Increasing moves are defined strictly as inverses of removals.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .diagram import (
    GaussDiagram,
    _check_diagram,
    _check_int,
    _check_type,
    _first_appearance,
    _offsets,
    _trusted,
    canonical_sort_key,
)

FR1_REMOVE = "fr1-remove"
FR1_INSERT = "fr1-insert"
FR2_REMOVE = "fr2-remove"
FR2_INSERT = "fr2-insert"
FR3 = "fr3"

KIND_DELTA = {
    FR1_REMOVE: -1,
    FR1_INSERT: +1,
    FR2_REMOVE: -2,
    FR2_INSERT: +2,
    FR3: 0,
}

_KIND_RANK = {FR1_REMOVE: 0, FR2_REMOVE: 1, FR3: 2, FR1_INSERT: 3, FR2_INSERT: 4}

FR2_VARIANTS = ("Nth", "Nht", "Ith", "Iht")


class SiteMismatch(ValueError):
    """The move's pattern is not present at the stated indices."""


@dataclass(frozen=True, slots=True)
class Move:
    """One flat Reidemeister move application site.

    positions refer to the pre-move diagram: endpoint indices for
    removals and FR3, gap indices for inserts.  variant pins the pattern:
    FR1 direction ("th"/"ht"), FR2 arrangement+roles of the first block
    ("N"/"I" + "th"/"ht"), or an FR3 catalog entry id.
    """

    kind: str
    variant: str | int
    positions: tuple[int, ...]

    @property
    def delta(self) -> int:
        return KIND_DELTA[self.kind]

    def sort_key(self):
        base = min(self.positions) if self.positions else 0
        return (base, _KIND_RANK[self.kind], str(self.variant), self.positions)

    def to_record(self) -> dict:
        return {"kind": self.kind, "variant": self.variant, "positions": list(self.positions)}

    @classmethod
    def from_record(cls, rec: dict) -> "Move":
        if not isinstance(rec, dict):
            raise ValueError(f"a move record must be an object, not {type(rec).__name__}")
        missing = [k for k in ("kind", "variant", "positions") if k not in rec]
        if missing:
            raise ValueError(f"move record lacks {', '.join(missing)}")
        kind, variant, positions = rec["kind"], rec["variant"], rec["positions"]
        if not isinstance(kind, str) or kind not in KIND_DELTA:
            raise ValueError(f"unknown move kind {kind!r}")
        if not isinstance(variant, (str, int)) or isinstance(variant, bool):
            raise ValueError(f"move variant must be a string or an integer, not {variant!r}")
        if not isinstance(positions, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in positions
        ):
            raise ValueError(f"move positions must be a list of integers, not {positions!r}")
        return cls(kind, variant, tuple(positions))


# One Move per FR1/FR2 value: (kind, variant, positions) -> its Move.
# Memo links and certificates hold the same few removals and inserts many
# times over, so they share one object each instead of holding copies.
_SHARED: dict[tuple, Move] = {}


def _move(kind: str, variant: str | int, positions: tuple[int, ...]) -> Move:
    """The Move of these fields: the one shared object for an FR1 or FR2
    removal or insert, a new object for an FR3 move.

    A move's positions lie below the size S of the word it applies to, so
    the moves on words of S endpoints fill at most 2S FR1 removals, 2S
    FR1 inserts, 4S^2 FR2 removals and 4S^2 FR2 inserts of the table: it
    grows as O(S^2) in the largest word size, whatever the number of
    words.  FR3 moves are not shared: there are O(S^3) of them, and the
    orbit scans drop each one at once.  setdefault is atomic, so racing
    callers get the same object."""
    if kind == FR3:
        return Move(kind, variant, positions)
    key = (kind, variant, positions)
    m = _SHARED.get(key)
    if m is None:
        m = _SHARED.setdefault(key, Move(kind, variant, positions))
    return m


# ---------------------------------------------------------------------------
# FR1 and FR2 removals
# ---------------------------------------------------------------------------

def _removal_at(word: tuple[int, ...], size: int, back: list[int], a0: int) -> Move | None:
    """The removal whose first block starts at a0, if any: the FR1
    removal when the block (a0, a1) holds one arrow's two endpoints, else
    the legal FR2 removal; back holds word's partner offsets
    (diagram._offsets).

    The block is one arrow exactly when a1's partner sits one position
    back, back[a1] == 1.  Otherwise the block's partners sit at
    ox = a0 - back[a0] and oy = a1 - back[a1] (mod size), so with
    d = back[a1] - back[a0] they are adjacent as (ox, oy) exactly when
    d == 0 modulo size, and as (oy, ox) exactly when d == 2.  Offsets
    lie in 1..size - 1, so d == 0 modulo size is d == 0; and d == 2 - size
    would need back[a0] == size - 1, which puts a0's partner at a1, the
    FR1 case."""
    a1 = (a0 + 1) % size
    ta = word[a0]
    if back[a1] == 1:
        return _move(FR1_REMOVE, "th" if ta > 0 else "ht", (a0, a1))
    tb = word[a1]
    if (ta > 0) == (tb > 0):
        return None  # the block must mix a tail and a head
    d = back[a1] - back[a0]
    if d == 0:
        b0 = a0 - back[a0]
        arrangement = "I"  # second block repeats the (x, y) arrow order
    elif d == 2:
        b0 = a1 - back[a1]
        arrangement = "N"
    else:
        return None
    b0 %= size
    roles = ("t" if ta > 0 else "h") + ("t" if tb > 0 else "h")
    return _move(FR2_REMOVE, arrangement + roles, (a0, a1, b0, (b0 + 1) % size))


def _decreasing_sites(word: tuple[int, ...], back: list[int]):
    """Yield the decreasing FR1 and FR2 sites of word in Move.sort_key
    order, building each only when it is asked for; back holds word's
    partner offsets (diagram._offsets, or the third item of
    diagram._least_rotation or diagram._canonical).  Only the signs of
    word are read, so its labels may be any.

    A start position holds at most one site, the one _removal_at finds
    there.  A kept site's base (its least position) is its first block's
    start, except for a block (size - 1, 0) that wraps, whose base is 0.
    So the base-0 sites come from starts 0 and size - 1, and a base
    b >= 1 site only from start b.  A block (b, b + 1) holds a site only
    when back[b + 1] is 1 or back[b + 1] - back[b] is 0 or 2: one
    subtraction rejects almost every start, with no call."""
    size = len(word)
    if size < 2:
        return
    last = size - 1
    # both base-0 blocks hold position 0, so a site there is always kept;
    # a lone arrow's two endpoints are adjacent both ways round: count it once
    base0 = []
    for a0, a1 in ((0, 1), (last, 0)) if size > 2 else ((0, 1),):
        if (c := back[a1]) == 1 or (d := c - back[a0]) == 0 or d == 2:
            m = _removal_at(word, size, back, a0)
            if m is not None:
                base0.append(m)
    if len(base0) > 1:
        base0.sort(key=Move.sort_key)
    yield from base0
    for b in range(1, last):
        if (c := back[b + 1]) == 1 or (d := c - back[b]) == 0 or d == 2:
            # a bigon is kept only from the block holding its least position
            m = _removal_at(word, size, back, b)
            if m is not None and min(m.positions) == b:
                yield m


def enumerate_decreasing(d: GaussDiagram) -> list[Move]:
    """Decreasing FR1 and FR2 sites in deterministic tie-break order."""
    _check_diagram(d, "d")
    return list(_decreasing_sites(d.word, _offsets(d.word)))


# ---------------------------------------------------------------------------
# FR1 and FR2 inserts
# ---------------------------------------------------------------------------

def enumerate_fr1_increasing(d: GaussDiagram) -> list[Move]:
    """One kink insertion per gap and direction."""
    _check_diagram(d, "d")
    gaps = max(d.size, 1)
    return [Move(FR1_INSERT, v, (g,)) for g in range(gaps) for v in ("th", "ht")]


def enumerate_fr2_increasing(d: GaussDiagram) -> list[Move]:
    """One bigon insertion per gap pair ga <= gb and variant."""
    _check_diagram(d, "d")
    gaps = max(d.size, 1)
    return [
        Move(FR2_INSERT, v, (ga, gb))
        for ga in range(gaps)
        for gb in range(ga, gaps)
        for v in FR2_VARIANTS
    ]


def _fr2_blocks(variant: str, x: int, y: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Endpoint tokens of the two inserted blocks for fresh arrows x, y."""
    arrangement, r0, r1 = variant[0], variant[1], variant[2]
    block_a = (x if r0 == "t" else -x, y if r1 == "t" else -y)
    block_b = (-block_a[1], -block_a[0]) if arrangement == "N" else (-block_a[0], -block_a[1])
    return block_a, block_b


def _swap_ab_variant(variant: str) -> str:
    """Variant as seen when the two blocks exchange the 'first block' role."""
    if variant[0] == "N":
        return variant
    flip = {"t": "h", "h": "t"}
    return "I" + flip[variant[1]] + flip[variant[2]]


def enumerate_increasing(d: GaussDiagram) -> list[Move]:
    """Increasing FR1 and FR2 sites in deterministic tie-break order."""
    out = enumerate_fr1_increasing(d) + enumerate_fr2_increasing(d)
    out.sort(key=Move.sort_key)
    return out


# ---------------------------------------------------------------------------
# FR3 catalog
# ---------------------------------------------------------------------------

Pattern = tuple[int, ...]  # six endpoint tokens, two per block


def canonical_pattern(tokens) -> Pattern:
    """Canonical form of a cyclic triple of two-endpoint blocks, given as
    six endpoint tokens: the least of the three block rotations after
    relabeling arrows by first appearance."""
    rotations = (tokens[r:] + tokens[:r] for r in (0, 2, 4))
    return min(map(_first_appearance, rotations), key=canonical_sort_key)


def _swap_blocks(pattern: Pattern) -> Pattern:
    return tuple(pattern[i ^ 1] for i in range(6))


@dataclass(frozen=True)
class FR3CatalogEntry:
    """A legal FR3 configuration: matching the before pattern permits
    swapping the two endpoints inside each block.  Both patterns are six
    endpoint tokens, two per block; a canonical before is a Gauss word."""

    id: int
    before: Pattern
    after: Pattern
    inverse_id: int


def _triangle_patterns():
    """(before, after) token patterns from the three-line coordinate model,
    with crossings r, q, p labeled 1, 2, 3."""
    for sa, sb, sc in itertools.product((1, -1), repeat=3):
        r = sa * sb  # det(tA, tB) sign: the endpoint on A is a tail iff +
        q = 2 * sa * sc  # det(tA, tC) sign
        p = 3 * sb * sc  # det(tB, tC) sign
        blocks_before = {
            "A": (r, q) if sa > 0 else (q, r),
            "B": (-r, p) if sb > 0 else (p, -r),
            "C": (-q, -p) if sc > 0 else (-p, -q),
        }
        for order in ("ABC", "ACB"):
            bw = tuple(t for s in order for t in blocks_before[s])
            aw = tuple(t for s in order for t in reversed(blocks_before[s]))
            yield bw, aw
            yield aw, bw


@functools.lru_cache(maxsize=1)
def build_fr3_catalog() -> tuple[FR3CatalogEntry, ...]:
    """Deduplicated FR3 catalog generated from the triangle model."""
    befores: dict[Pattern, Pattern] = {}
    for bw, aw in _triangle_patterns():
        cb = canonical_pattern(bw)
        if canonical_pattern(aw) != canonical_pattern(_swap_blocks(cb)):
            raise AssertionError("triangle model: after is not the blockwise swap")
        befores.setdefault(cb, _swap_blocks(cb))
    # traces record entry ids, so they keep their order: a head sorts
    # before a tail of the same arrow, not after it as in canonical_sort_key
    ordered = sorted(befores, key=lambda p: [(abs(t), t) for t in p])
    index = {cb: i for i, cb in enumerate(ordered)}
    entries = [
        FR3CatalogEntry(i, cb, befores[cb], index[canonical_pattern(befores[cb])])
        for i, cb in enumerate(ordered)
    ]
    for e in entries:
        if entries[e.inverse_id].inverse_id != e.id:
            raise AssertionError("FR3 catalog inverse pairing is not an involution")
    return tuple(entries)


@functools.lru_cache(maxsize=1)
def _fr3_befores() -> dict[Pattern, int]:
    """Each block rotation of each catalog before, relabeled by first
    appearance, -> its entry id: 16 keys, shared, so callers only read it.
    Six tokens read as three blocks match an entry exactly when they
    relabel to one of its keys."""
    return {
        _first_appearance(e.before[r:] + e.before[:r]): e.id
        for e in build_fr3_catalog()
        for r in (0, 2, 4)
    }


@functools.lru_cache(maxsize=1)
def _fr3_shape_table() -> tuple[int | None, ...]:
    """Catalog entry id, or None, for each 6-bit key that _fr3_sites
    computes from partner positions for a candidate whose least block
    (s, s + 1) holds arrows a and b.  Bit 32: word[s] is a tail; 16:
    word[s + 1] is a tail; 8: the endpoint q of arrow c next to a's
    partner p1 is a tail; 4: a's block is (p1, q), not (q, p1); 2: b's
    block ends, not starts, at b's partner p2; 1: a's block comes before
    b's.  The table spells each key's six tokens from its bits, a, b and
    c labeled 1, 2 and 3, and looks them up in _fr3_befores."""
    table = []
    for key in range(64):
        a, b, c = (1 if key & 32 else -1), (2 if key & 16 else -2), (3 if key & 8 else -3)
        a_block = (-a, c) if key & 4 else (c, -a)
        b_block = (-c, -b) if key & 2 else (-b, -c)
        tokens = (a, b) + (a_block + b_block if key & 1 else b_block + a_block)
        table.append(_fr3_befores().get(_first_appearance(tokens)))
    return tuple(table)


def _fr3_at(word: tuple[int, ...], positions: tuple[int, ...]) -> Move | None:
    """FR3 move on the blocks (positions[0], positions[1]), ... if their
    pattern is in the catalog: their tokens, read in the order given and
    relabeled by first appearance, are a key of `_fr3_befores`.  It holds
    every block rotation, so any of the three blocks may be listed first."""
    entry = _fr3_befores().get(_first_appearance([word[p] for p in positions]))
    return None if entry is None else Move(FR3, entry, positions)


def _fr3_sites(word: tuple[int, ...], back: list[int]) -> list[Move]:
    """All FR3 sites of word, in Move.sort_key order; back holds word's
    partner offsets (diagram._offsets, or the third item of
    diagram._canonical).

    Each site is found once, from its least block (s, s + 1), which holds
    two arrows a and b.  a's other block holds a's partner p1 and one
    neighbour q of it, an endpoint of the third arrow c; b's other block
    must then hold b's partner p2 and the partner of q side by side.  So
    a block start has at most two candidates, and each is matched by one
    lookup in _fr3_shape_table, with no relabeling.  A partner is read
    only where it is needed, as q - back[q] modulo the size: the work is
    linear in the number of endpoints."""
    size = len(word)
    last = size - 1
    shapes = _fr3_shape_table()
    moves = []
    for s in range(size - 4):
        s1 = s + 1
        ta, tb = word[s], word[s1]
        if ta == -tb:
            continue
        # a partner in 1..s puts its later block at or before s1; a
        # partner at 0 may still head a block (last, 0) that wraps
        if back[s] < s or back[s1] < s1:
            continue
        p1, p2 = s - back[s], s1 - back[s1]
        if p1 < 0:
            p1 += size
        if p2 < 0:
            p2 += size
        before_p2 = p2 - 1 if p2 else last
        after_p2 = p2 + 1 if p2 < last else 0
        for a_side in (0, 4):
            if a_side:
                a_start, q = p1, (p1 + 1 if p1 < last else 0)
            else:
                a_start = q = p1 - 1 if p1 else last
            r = q - back[q]
            if r < 0:
                r += size
            if r == after_p2:
                b_start, b_side = p2, 0
            elif r == before_p2:
                b_start, b_side = r, 2
            else:
                continue
            # both later blocks start past the least one, which keeps the
            # three disjoint except when s == 0 and a's block (last, 0) holds s
            if a_start <= s1 or b_start <= s1 or q == s:
                continue
            a_first = a_start < b_start
            signs = (32 if ta > 0 else 0) + (16 if tb > 0 else 0) + (8 if word[q] > 0 else 0)
            entry = shapes[signs + a_side + b_side + a_first]
            if entry is None:
                continue
            lo, hi = (a_start, b_start) if a_first else (b_start, a_start)
            moves.append(Move(FR3, entry, (s, s1, lo, lo + 1, hi, hi + 1 if hi < last else 0)))
    moves.sort(key=Move.sort_key)
    return moves


def enumerate_fr3(d: GaussDiagram) -> list[Move]:
    """All FR3 sites: three disjoint adjacent blocks, each holding two of
    the three arrows, arrow pairs covered once, pattern in the catalog;
    `_fr3_sites` of the word and its offsets."""
    _check_diagram(d, "d")
    return _fr3_sites(d.word, _offsets(d.word))


# ---------------------------------------------------------------------------
# apply / inverse
# ---------------------------------------------------------------------------

_BLOCK_POSITIONS = {FR1_REMOVE: 2, FR2_REMOVE: 4, FR3: 6}
_POSITION_COUNT = {**_BLOCK_POSITIONS, FR1_INSERT: 1, FR2_INSERT: 2}


def _check_shape(m: Move, size: int, error: type[ValueError]) -> None:
    """Raise error, with one line, unless m has the shape of a move on a
    word of size endpoints: a known kind; a variant of that kind, "th" or
    "ht" for FR1, one of FR2_VARIANTS for FR2, an int catalog id for FR3;
    that kind's position count; and every position an int inside the
    word, an endpoint 0..size - 1 for a removal or FR3 and a gap
    0..max(size, 1) - 1 for an insert.  Whether the word holds m is not
    asked."""
    kind, variant, positions = m.kind, m.variant, m.positions
    count = _POSITION_COUNT.get(kind)
    if count is None:
        raise error(f"unknown move kind {kind!r}")
    if kind == FR3:
        # Move equality would let True or 1.0 stand for catalog id 1
        if type(variant) is not int or not 0 <= variant < len(build_fr3_catalog()):
            raise error(f"unknown fr3 catalog entry {variant!r}")
    elif variant not in (("th", "ht") if kind in (FR1_REMOVE, FR1_INSERT) else FR2_VARIANTS):
        raise error(f"unknown {kind} variant {variant!r}")
    if len(positions) != count:
        raise error(f"{kind}: {len(positions)} positions given, {count} expected")
    limit = size if kind in _BLOCK_POSITIONS else max(size, 1)
    if not all(type(p) is int and 0 <= p < limit for p in positions):
        raise error(f"{kind}: positions {list(positions)} are not all integers in range({limit})")


def _perform(word: tuple[int, ...], m: Move) -> tuple[int, ...]:
    """The word a legal move m leaves, labels not renormalized: removals
    slice their endpoints out (an FR1 block (size - 1, 0) that wraps
    leaves word[1:-1]), FR3 swaps the two endpoints of each block, and
    inserts add fresh arrows n + 1 (and n + 2).  m is not checked.
    Removals and FR3 read no label, so they take a word in any labels;
    an insert needs labels 1..n."""
    kind, positions = m.kind, m.positions
    if kind == FR3:
        out = list(word)
        for p0, p1 in zip(positions[0::2], positions[1::2]):
            out[p0], out[p1] = out[p1], out[p0]
        return tuple(out)
    if kind == FR1_REMOVE:
        i, j = positions
        return word[1:-1] if j == 0 else word[:i] + word[i + 2 :]
    if kind == FR2_REMOVE:
        p0, p1, p2, p3 = sorted(positions)
        return word[:p0] + word[p0 + 1 : p1] + word[p1 + 1 : p2] + word[p2 + 1 : p3] + word[p3 + 1 :]
    fresh = len(word) // 2 + 1
    if kind == FR1_INSERT:
        (g,) = positions
        block = (fresh, -fresh) if m.variant == "th" else (-fresh, fresh)
        return word[:g] + block + word[g:]
    ga, gb = positions
    block_a, block_b = _fr2_blocks(m.variant, fresh, fresh + 1)
    if ga > gb:  # at equal gaps the first block comes first
        (ga, block_a), (gb, block_b) = (gb, block_b), (ga, block_a)
    return word[:ga] + block_a + word[ga:gb] + block_b + word[gb:]


def apply(d: GaussDiagram, m: Move) -> GaussDiagram:
    """Apply a move; labels are renormalized by first appearance.  The
    result is not validated again: a legal move keeps a valid word valid.

    Every move given is checked first: its shape by _check_shape, which
    is all an insert needs; then an fr1-remove or fr2-remove is legal
    when its positions are distinct and _removal_at, asked at m's first
    block, returns exactly m, so a removal of the other kind than the
    block holds is rejected; and an FR3 move when _fr3_at, which reads
    _fr3_befores, returns exactly m at m's positions.
    Then _perform makes the move."""
    _check_diagram(d, "d")
    _check_type(m, "m", Move)
    word, size = d.word, d.size
    _check_shape(m, size, SiteMismatch)
    kind, positions = m.kind, m.positions
    if kind in _BLOCK_POSITIONS:
        if len(set(positions)) != len(positions):
            raise SiteMismatch(f"{kind} takes {len(positions)} distinct positions")
        for s, p1 in zip(positions[0::2], positions[1::2]):
            if p1 != (s + 1) % size:
                raise SiteMismatch("blocks are not cyclically consecutive")
        if kind == FR3:
            found = _fr3_at(word, positions)
        else:
            found = _removal_at(word, size, _offsets(word), positions[0])
        if found != m:
            raise SiteMismatch(f"no {kind} site {m.variant!r} at the stated positions")
    return _trusted(_first_appearance(_perform(word, m)))


def _kept_below(position: int, removed: tuple[int, ...]) -> int:
    kept = position
    for r in removed:
        if r < position:
            kept -= 1
    return kept


def _vacated_gap(pair: tuple[int, int], removed: tuple[int, ...], pre_size: int) -> int:
    new_size = pre_size - len(removed)
    if new_size == 0:
        return 0
    start = 1 if pair[1] == 0 and pair[0] != 0 else pair[0]  # wrapped pair
    return _kept_below(start, removed) % new_size


def inverse(m: Move, pre_size: int) -> Move:
    """Move undoing m; pre_size is the endpoint count of m's pre-move
    diagram.  Positions refer to the literal post-move word of apply.
    m must have the shape _check_shape asks for on pre_size endpoints;
    whether the word holds m is not asked."""
    _check_type(m, "m", Move)
    _check_int(pre_size, "pre_size", 0)
    if pre_size % 2:
        raise ValueError(f"pre_size must be even, not {pre_size}")
    _check_shape(m, pre_size, ValueError)
    return _invert(m, pre_size)


def _invert(m: Move, pre_size: int) -> Move:
    """inverse without its checks, for a move already known legal on a
    word of pre_size endpoints; FR1 and FR2 results are shared (_move)."""
    if m.kind == FR1_INSERT:
        g = m.positions[0]
        return _move(FR1_REMOVE, m.variant, (g, g + 1))

    if m.kind == FR1_REMOVE:
        gap = _vacated_gap((m.positions[0], m.positions[1]), m.positions, pre_size)
        return _move(FR1_INSERT, m.variant, (gap,))

    if m.kind == FR2_INSERT:
        ga, gb = m.positions
        if ga <= gb:
            return _move(FR2_REMOVE, m.variant, (ga, ga + 1, gb + 2, gb + 3))
        return _move(FR2_REMOVE, _swap_ab_variant(m.variant), (gb, gb + 1, ga + 2, ga + 3))

    if m.kind == FR2_REMOVE:
        a0, a1, b0, b1 = m.positions
        gap_a = _vacated_gap((a0, a1), m.positions, pre_size)
        gap_b = _vacated_gap((b0, b1), m.positions, pre_size)
        if gap_a != gap_b:
            return _move(FR2_INSERT, m.variant, (gap_a, gap_b))
        # the two blocks collapsed into one gap: the reconstruction lists
        # first whichever block led the removed run
        removed = set(m.positions)
        run_starts = [p for p in m.positions if (p - 1) % pre_size not in removed]
        if run_starts:
            lead = run_starts[0]
        else:  # the whole word was removed
            wrapped = [p0 for p0, p1 in ((a0, a1), (b0, b1)) if p1 < p0]
            lead = wrapped[0] if wrapped else 0
        variant = m.variant if lead in (a0, a1) else _swap_ab_variant(m.variant)
        return _move(FR2_INSERT, variant, (gap_a, gap_b))

    return Move(FR3, build_fr3_catalog()[m.variant].inverse_id, m.positions)
