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

from .diagram import HEAD, TAIL, GaussDiagram, _trusted

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


@dataclass(frozen=True)
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

    def __str__(self) -> str:
        pos = ",".join(str(p) for p in self.positions)
        return f"{self.kind} {self.variant} [{pos}]"


def _relabel(word: list[int]) -> GaussDiagram:
    relab: dict[int, int] = {}
    out = []
    for t in word:
        a = t if t > 0 else -t
        lab = relab.get(a)
        if lab is None:
            lab = len(relab) + 1
            relab[a] = lab
        out.append(lab if t > 0 else -lab)
    return _trusted(tuple(out))


# ---------------------------------------------------------------------------
# FR1
# ---------------------------------------------------------------------------

def _fr1_at(word: tuple[int, ...], size: int, i: int) -> Move | None:
    """FR1 removal of the arrow whose endpoints sit at i and i + 1, if any."""
    j = (i + 1) % size
    if word[j] != -word[i]:
        return None
    return Move(FR1_REMOVE, "th" if word[i] > 0 else "ht", (i, j))


def enumerate_fr1_decreasing(d: GaussDiagram) -> list[Move]:
    """One move per arrow whose endpoints are cyclically consecutive."""
    word, size = d.word, d.size
    # a lone arrow's two endpoints are adjacent both ways round; count it once
    moves = [
        m for i in range(1 if size == 2 else size) if (m := _fr1_at(word, size, i)) is not None
    ]
    moves.sort(key=Move.sort_key)
    return moves


def enumerate_fr1_increasing(d: GaussDiagram) -> list[Move]:
    """One kink insertion per gap and direction."""
    gaps = max(d.size, 1)
    return [Move(FR1_INSERT, v, (g,)) for g in range(gaps) for v in ("th", "ht")]


# ---------------------------------------------------------------------------
# FR2
# ---------------------------------------------------------------------------

def _fr2_at(word: tuple[int, ...], size: int, where: dict[int, int], a0: int) -> Move | None:
    """Legal FR2 removal whose first block starts at a0, if any; where
    maps every endpoint token of word to its position."""
    a1 = (a0 + 1) % size
    ta, tb = word[a0], word[a1]
    if (ta > 0) == (tb > 0) or ta == -tb:
        return None  # the block must mix a tail and a head of two arrows
    ox, oy = where[-ta], where[-tb]
    if (ox + 1) % size == oy:
        b0, b1 = ox, oy
        arrangement = "I"  # second block repeats the (x, y) arrow order
    elif (oy + 1) % size == ox:
        b0, b1 = oy, ox
        arrangement = "N"
    else:
        return None
    roles = ("t" if ta > 0 else "h") + ("t" if tb > 0 else "h")
    return Move(FR2_REMOVE, arrangement + roles, (a0, a1, b0, b1))


def enumerate_fr2_decreasing(d: GaussDiagram) -> list[Move]:
    """One move per arrow pair forming two disjoint adjacent mixed blocks.

    Each bigon is found from both of its blocks and kept from the one
    holding its lowest position."""
    word, size = d.word, d.size
    where = dict(zip(word, range(size)))
    moves = []
    for a0 in range(size):
        m = _fr2_at(word, size, where, a0)
        if m is not None and min(m.positions) in m.positions[:2]:
            moves.append(m)
    moves.sort(key=Move.sort_key)
    return moves


def enumerate_fr2_increasing(d: GaussDiagram) -> list[Move]:
    """One bigon insertion per gap pair ga <= gb and variant."""
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


def enumerate_decreasing(d: GaussDiagram) -> list[Move]:
    """Decreasing FR1 and FR2 sites in deterministic tie-break order."""
    out = enumerate_fr1_decreasing(d) + enumerate_fr2_decreasing(d)
    out.sort(key=Move.sort_key)
    return out


def enumerate_increasing(d: GaussDiagram) -> list[Move]:
    """Increasing FR1 and FR2 sites in deterministic tie-break order."""
    out = enumerate_fr1_increasing(d) + enumerate_fr2_increasing(d)
    out.sort(key=Move.sort_key)
    return out


# ---------------------------------------------------------------------------
# FR3 catalog
# ---------------------------------------------------------------------------

Block = tuple[tuple[int, int], tuple[int, int]]  # ((arrow, role), (arrow, role))
Pattern = tuple[Block, Block, Block]


def canonical_pattern(blocks) -> Pattern:
    """Canonical form of a cyclic triple of two-endpoint blocks: minimum
    over the 3 rotations after relabeling arrows by first appearance."""
    best = None
    for rot in range(3):
        seq = blocks[rot:] + blocks[:rot]
        relab: dict[int, int] = {}
        enc = []
        for block in seq:
            eb = []
            for sym, role in block:
                lab = relab.get(sym)
                if lab is None:
                    lab = len(relab) + 1
                    relab[sym] = lab
                eb.append((lab, 0 if role == TAIL else 1))
            enc.append(tuple(eb))
        enc_t = tuple(enc)
        if best is None or enc_t < best:
            best = enc_t
    return tuple(
        tuple((sym, TAIL if bit == 0 else HEAD) for sym, bit in block) for block in best
    )


def _swap_blocks(pattern: Pattern) -> Pattern:
    return tuple((block[1], block[0]) for block in pattern)


@dataclass(frozen=True)
class FR3CatalogEntry:
    """A legal FR3 configuration: matching the before pattern permits
    swapping the two endpoints inside each block."""

    id: int
    before: Pattern
    after: Pattern
    inverse_id: int


def _triangle_patterns():
    """(before, after) block patterns from the three-line coordinate model."""
    for sa, sb, sc in itertools.product((1, -1), repeat=3):
        role_a_r = TAIL if sa * sb > 0 else HEAD  # det(tA, tB) sign
        role_a_q = TAIL if sa * sc > 0 else HEAD  # det(tA, tC) sign
        role_b_p = TAIL if sb * sc > 0 else HEAD  # det(tB, tC) sign
        blocks_before = {
            "A": [("r", role_a_r), ("q", role_a_q)] if sa > 0 else [("q", role_a_q), ("r", role_a_r)],
            "B": [("r", -role_a_r), ("p", role_b_p)] if sb > 0 else [("p", role_b_p), ("r", -role_a_r)],
            "C": [("q", -role_a_q), ("p", -role_b_p)] if sc > 0 else [("p", -role_b_p), ("q", -role_a_q)],
        }
        blocks_after = {s: list(reversed(b)) for s, b in blocks_before.items()}
        for order in (("A", "B", "C"), ("A", "C", "B")):
            bw = tuple(tuple(blocks_before[s]) for s in order)
            aw = tuple(tuple(blocks_after[s]) for s in order)
            yield bw, aw
            yield aw, bw


@functools.lru_cache(maxsize=1)
def build_fr3_catalog() -> tuple[FR3CatalogEntry, ...]:
    """Deduplicated FR3 catalog generated from the triangle model."""
    befores: dict[Pattern, Pattern] = {}
    for bw, aw in _triangle_patterns():
        cb = canonical_pattern(bw)
        ca_expected = canonical_pattern(_swap_blocks(cb))
        if canonical_pattern(aw) != ca_expected:
            raise AssertionError("triangle model: after is not the blockwise swap")
        befores.setdefault(cb, _swap_blocks(cb))
    ordered = sorted(befores)
    index = {cb: i for i, cb in enumerate(ordered)}
    entries = []
    for i, cb in enumerate(ordered):
        after = befores[cb]
        inv = index[canonical_pattern(after)]
        entries.append(FR3CatalogEntry(i, cb, after, inv))
    for e in entries:
        if entries[e.inverse_id].inverse_id != e.id:
            raise AssertionError("FR3 catalog inverse pairing is not an involution")
    return tuple(entries)


@functools.lru_cache(maxsize=1)
def _fr3_before_index() -> dict[Pattern, FR3CatalogEntry]:
    return {e.before: e for e in build_fr3_catalog()}


def _fr3_blocks_at(word, size, starts):
    blocks = []
    for s in starts:
        p0, p1 = s, (s + 1) % size
        blocks.append((
            (abs(word[p0]), TAIL if word[p0] > 0 else HEAD),
            (abs(word[p1]), TAIL if word[p1] > 0 else HEAD),
        ))
    return tuple(blocks)


def _fr3_at(word: tuple[int, ...], size: int, positions: tuple[int, ...]) -> Move | None:
    """FR3 move on the blocks starting at positions[0::2], if their pattern
    is in the catalog.  Every catalog pattern covers three arrows pairwise,
    and relabeling and rotation keep that, so a match implies it."""
    entry = _fr3_before_index().get(
        canonical_pattern(_fr3_blocks_at(word, size, positions[0::2]))
    )
    return None if entry is None else Move(FR3, entry.id, positions)


def enumerate_fr3(d: GaussDiagram) -> list[Move]:
    """All FR3 sites: three disjoint adjacent blocks, each holding two of
    the three arrows, arrow pairs covered once, pattern in the catalog.

    Adjacent blocks holding two distinct arrows are indexed by their
    sorted arrow pair; a site joins the blocks of (a,b), (a,c) and (b,c).
    Every arrow lies in at most four blocks, so the work grows with the
    number of candidate sites rather than with C(2n, 3)."""
    size = d.size
    if d.n < 3:
        return []
    word = d.word
    by_pair: dict[tuple[int, int], list[int]] = {}
    partners: dict[int, set[int]] = {}
    for s in range(size):
        x, y = abs(word[s]), abs(word[(s + 1) % size])
        if x == y:
            continue
        if x > y:
            x, y = y, x
        by_pair.setdefault((x, y), []).append(s)
        partners.setdefault(x, set()).add(y)
    moves = []
    for (a, b), ab_starts in by_pair.items():
        for c in partners[a]:
            if c <= b or (b, c) not in by_pair:
                continue
            for s1 in ab_starts:
                for s2 in by_pair[(a, c)]:
                    for s3 in by_pair[(b, c)]:
                        t1, t2, t3 = sorted((s1, s2, s3))
                        positions = (t1, (t1 + 1) % size, t2, (t2 + 1) % size, t3, (t3 + 1) % size)
                        if len(set(positions)) != 6:
                            continue
                        m = _fr3_at(word, size, positions)
                        if m is not None:
                            moves.append(m)
    moves.sort(key=Move.sort_key)
    return moves


# ---------------------------------------------------------------------------
# apply / inverse
# ---------------------------------------------------------------------------

def _check_gap(g: int, size: int):
    if not 0 <= g < max(size, 1):
        raise SiteMismatch(f"gap {g} out of range for {size} endpoints")


_BLOCK_POSITIONS = {FR1_REMOVE: 2, FR2_REMOVE: 4, FR3: 6}


def apply(d: GaussDiagram, m: Move) -> GaussDiagram:
    """Apply a move; labels are renormalized by first appearance.  The
    result is not validated again: a legal move keeps a valid word valid.

    A removal or FR3 move is legal when the recognizer its enumerator
    uses finds exactly m at m's positions."""
    word, size = d.word, d.size
    kind, positions = m.kind, m.positions

    count = _BLOCK_POSITIONS.get(kind)
    if count is not None:
        if len(positions) != count or len(set(positions)) != count:
            raise SiteMismatch(f"{kind} takes {count} distinct positions")
        if min(positions) < 0 or max(positions) >= size:
            raise SiteMismatch(f"positions out of range for {size} endpoints")
        starts = positions[0::2]
        for s, p1 in zip(starts, positions[1::2]):
            if p1 != (s + 1) % size:
                raise SiteMismatch("blocks are not cyclically consecutive")
        if kind == FR1_REMOVE:
            found = _fr1_at(word, size, positions[0])
        elif kind == FR2_REMOVE:
            found = _fr2_at(word, size, dict(zip(word, range(size))), positions[0])
        else:
            found = _fr3_at(word, size, positions)
        if found != m:
            raise SiteMismatch(f"no {kind} site {m.variant!r} at the stated positions")
        if kind == FR3:
            out = list(word)
            for p0, p1 in zip(starts, positions[1::2]):
                out[p0], out[p1] = out[p1], out[p0]
            return _relabel(out)
        return _relabel([t for p, t in enumerate(word) if p not in positions])

    if kind == FR1_INSERT:
        if m.variant not in ("th", "ht"):
            raise SiteMismatch(f"unknown fr1 variant {m.variant!r}")
        if len(positions) != 1:
            raise SiteMismatch("fr1-insert takes one gap")
        (g,) = positions
        _check_gap(g, size)
        fresh = d.n + 1
        block = (fresh, -fresh) if m.variant == "th" else (-fresh, fresh)
        return _relabel(word[:g] + block + word[g:])

    if kind == FR2_INSERT:
        if m.variant not in FR2_VARIANTS:
            raise SiteMismatch(f"unknown fr2 variant {m.variant!r}")
        if len(positions) != 2:
            raise SiteMismatch("fr2-insert takes two gaps")
        ga, gb = positions
        _check_gap(ga, size)
        _check_gap(gb, size)
        block_a, block_b = _fr2_blocks(m.variant, d.n + 1, d.n + 2)
        if ga > gb:  # at equal gaps the first block comes first
            (ga, block_a), (gb, block_b) = (gb, block_b), (ga, block_a)
        return _relabel(word[:ga] + block_a + word[ga:gb] + block_b + word[gb:])

    raise SiteMismatch(f"unknown move kind {kind!r}")


def _kept_below(position: int, removed: tuple[int, ...]) -> int:
    return position - sum(1 for r in removed if r < position)


def _vacated_gap(pair: tuple[int, int], removed: tuple[int, ...], pre_size: int) -> int:
    new_size = pre_size - len(removed)
    if new_size == 0:
        return 0
    start = 1 if pair[1] == 0 and pair[0] != 0 else pair[0]  # wrapped pair
    return _kept_below(start, removed) % new_size


def inverse(m: Move, pre_size: int) -> Move:
    """Move undoing m; pre_size is the endpoint count of m's pre-move
    diagram.  Positions refer to the literal post-move word of apply."""
    if m.kind == FR1_INSERT:
        g = m.positions[0]
        return Move(FR1_REMOVE, m.variant, (g, g + 1))

    if m.kind == FR1_REMOVE:
        gap = _vacated_gap((m.positions[0], m.positions[1]), m.positions, pre_size)
        return Move(FR1_INSERT, m.variant, (gap,))

    if m.kind == FR2_INSERT:
        ga, gb = m.positions
        if ga <= gb:
            return Move(FR2_REMOVE, m.variant, (ga, ga + 1, gb + 2, gb + 3))
        return Move(FR2_REMOVE, _swap_ab_variant(m.variant), (gb, gb + 1, ga + 2, ga + 3))

    if m.kind == FR2_REMOVE:
        a0, a1, b0, b1 = m.positions
        gap_a = _vacated_gap((a0, a1), m.positions, pre_size)
        gap_b = _vacated_gap((b0, b1), m.positions, pre_size)
        if gap_a != gap_b:
            return Move(FR2_INSERT, m.variant, (gap_a, gap_b))
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
        return Move(FR2_INSERT, variant, (gap_a, gap_b))

    if m.kind == FR3:
        entry = build_fr3_catalog()[m.variant]
        return Move(FR3, entry.inverse_id, m.positions)

    raise ValueError(f"unknown move kind {m.kind!r}")
