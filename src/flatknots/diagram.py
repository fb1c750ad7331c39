"""Gauss diagrams for flat virtual knots.

A diagram is a cyclic word of 2n endpoints on a counterclockwise circle.
Each of the n arrows owns exactly two endpoints: a tail (the arrow's
origin) and a head (its target).  The word is stored as a tuple of signed
integers: ``+k`` is the tail of arrow ``k``, ``-k`` its head.  Arrow
labels must be contiguous ``1..n``; nothing about virtual crossings is
recorded.

Gap indexing: gap ``g`` sits immediately before endpoint ``g``; the empty
diagram has the single gap 0.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property


class GaussCodeError(ValueError):
    """Base class for Gauss-code parsing and validation failures."""


class MalformedToken(GaussCodeError):
    pass


class LabelCountMismatch(GaussCodeError):
    pass


class NonContiguousLabels(GaussCodeError):
    pass


_TOKEN = re.compile(r"^[+-][0-9]+$")


def _check_int(value, name: str, lo: int | None = None, hi: int | None = None) -> None:
    """A one-line ValueError unless value is an int, not a bool, in lo..hi (None: open)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        if lo is not None and hi is not None:
            raise ValueError(f"{name} must be between {lo} and {hi}")
        raise ValueError(f"{name} must be " + (f">= {lo}" if hi is None else f"<= {hi}"))


def _check_flag(value, name: str) -> None:
    """A one-line ValueError unless value is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be True or False, not {value!r}")


def _check_type(value, name: str, kind: type) -> None:
    """A one-line ValueError unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, not {value!r}")


def _check_diagram(value, name: str) -> None:
    """A one-line ValueError unless value is a GaussDiagram."""
    _check_type(value, name, GaussDiagram)


def _validate_word(word: tuple[int, ...]) -> None:
    if len(word) % 2:
        raise LabelCountMismatch("word length must be even")
    n = len(word) // 2
    tails = set()
    heads = set()
    for t in word:
        if type(t) is not int:
            raise MalformedToken(f"endpoint {t!r} is not an int")
        if t > 0:
            if t in tails:
                raise LabelCountMismatch(f"tail of arrow {t} appears twice")
            tails.add(t)
        elif t < 0:
            if -t in heads:
                raise LabelCountMismatch(f"head of arrow {-t} appears twice")
            heads.add(-t)
        else:
            raise MalformedToken("arrow label 0 is not allowed")
    if tails != heads:
        missing = tails.symmetric_difference(heads)
        raise LabelCountMismatch(f"arrows without both endpoints: {sorted(missing)}")
    if tails and (min(tails) != 1 or max(tails) != n):
        raise NonContiguousLabels(f"labels must be 1..{n}, got {sorted(tails)}")


@dataclass(frozen=True)
class GaussDiagram:
    """Immutable Gauss diagram; ``word[i]`` is the endpoint at position i."""

    word: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.word, tuple):
            object.__setattr__(self, "word", tuple(self.word))
        _validate_word(self.word)

    @property
    def n(self) -> int:
        return len(self.word) // 2

    @property
    def size(self) -> int:
        return len(self.word)

    @cached_property
    def _canon(self) -> tuple[tuple[int, ...], list[int], bytes]:
        """(canonical word, its partner offsets, its memo key) from one
        `_canonical` call, made the first time it is read; every
        public entry point starts from it, so a diagram passed to several
        is canonicalized and keyed once.  The word is an immutable tuple,
        so the triple is never stale.  It is not a field: equality, hash
        and repr ignore it.  Readers must not change the offsets list."""
        word, _, back, key = _canonical(self.word)
        return word, back, key

    def __str__(self) -> str:
        return serialize(self)


def _trusted(word: tuple[int, ...]) -> GaussDiagram:
    """Unvalidated diagram of a word derived from valid ones by a move,
    rotation, splice, enumeration or canonicalization: valid by construction."""
    d = object.__new__(GaussDiagram)
    object.__setattr__(d, "word", word)
    return d


EMPTY = GaussDiagram(())


@dataclass(frozen=True)
class BasedDiagram:
    """A diagram together with a basepoint gap (a long flat knot diagram)."""

    diagram: GaussDiagram
    base: int = 0

    def __post_init__(self):
        _check_diagram(self.diagram, "diagram")
        _check_int(self.base, "base gap", 0, max(self.diagram.size, 1) - 1)


@dataclass(frozen=True)
class Split:
    """Two gaps whose arcs are each closed under the arrow pairing.

    ``gap_a < gap_b``; side_sizes counts arrows on the arc [gap_a, gap_b)
    and on the complementary arc, and neither side is empty.
    """

    gap_a: int
    gap_b: int
    side_sizes: tuple[int, int]


def parse(text: str) -> GaussDiagram:
    """Parse a Gauss code: whitespace-separated ``+k``/``-k`` tokens, or "0"."""
    _check_type(text, "text", str)
    tokens = text.split()
    if not tokens:
        raise MalformedToken("empty Gauss code")
    if tokens == ["0"]:
        return EMPTY
    word = []
    for tok in tokens:
        if not _TOKEN.match(tok):
            raise MalformedToken(f"bad token {tok!r}")
        k = int(tok[1:])
        if k == 0:
            raise MalformedToken(f"bad token {tok!r}: labels start at 1")
        word.append(k if tok[0] == "+" else -k)
    return GaussDiagram(tuple(word))


# _TEXT[t] is the token text of endpoint t, "+k" or "-k", for labels
# 1..256: a word of up to 512 endpoints is joined from it without
# formatting an int.  A longer word is formatted token by token, so the
# table stays fixed in size.
_TEXT: dict[int, str] = {s * k: f"{'+-'[s < 0]}{k}" for k in range(1, 257) for s in (1, -1)}


def serialize(d: GaussDiagram) -> str:
    """Render a diagram as a Gauss code; the empty diagram is "0"."""
    _check_diagram(d, "d")
    word = d.word
    if not word:
        return "0"
    if len(word) <= 512:
        return " ".join(map(_TEXT.__getitem__, word))
    return " ".join([f"+{t}" if t > 0 else f"-{-t}" for t in word])


# _NEG[k] is -k: one shared int per head label, so the labeled words the
# memo keeps, the words of minimal orbits, share their heads instead of
# each holding fresh ints (CPython caches only -5..256).  A word of more
# than 256 endpoints takes its head labels from a range and shares none.
_NEG: tuple[int, ...] = tuple(-k for k in range(257))


def _first_appearance(tokens) -> tuple[int, ...]:
    """tokens with their arrows relabeled 1, 2, ... by first appearance.
    No label exceeds the token count, so up to 256 tokens read each head
    label from _NEG."""
    neg = _NEG if len(tokens) <= 256 else range(0, -len(tokens) - 1, -1)
    relab: dict[int, int] = {}
    out = []
    for t in tokens:
        a = t if t > 0 else -t
        lab = relab.get(a)
        if lab is None:
            lab = relab[a] = len(relab) + 1
        out.append(lab if t > 0 else neg[lab])
    return tuple(out)


def _offsets(word: tuple[int, ...]) -> list[int]:
    """Partner offsets of a word: entry q counts the positions from q
    back to its partner, cyclically, so it lies in 1..len(word) - 1.
    Offsets do not depend on labels, and rotating the word rotates them.
    `_least_rotation` pairs endpoints in a loop of its own, which also
    keeps the tails and signs its scan and key read."""
    length = len(word)
    back = [0] * length
    first: dict[int, int] = {}
    for q, t in enumerate(word):
        a = t if t > 0 else -t
        p = first.pop(a, None)
        if p is None:
            first[a] = q
        else:
            back[q] = q - p
            back[p] = length - q + p
    return back


def _least_rotation(word: tuple[int, ...]) -> tuple[tuple[int, ...], int, list[int], bytes]:
    """The rank scan of `_canonical`: (the rotation of word that relabels
    to the canonical word, its labels as given; the smallest offset r of
    such a rotation; the rotation's _offsets; the canonical word's key in
    the reduction memo, `reduce._memo`).

    One loop over the word pairs its endpoints as `_offsets` does, keeps
    the positions of its tails and writes one sign byte per endpoint, 1
    for a head and 0 for a tail.  Two rotations whose relabeled prefixes
    agree compare at the next offset by rank alone: an endpoint whose
    partner lies b positions back inside the prefix ranks -b (an earlier
    first appearance, so a lower label), and an endpoint opening a new
    arrow ranks 0 as a tail, 1 as a head.  So every rotation starting at
    a tail is kept, then offset by offset only those of least rank; the
    survivor, or the smallest offset of a tie, wins.  One pass per offset
    keeps the least rank seen and the rotations, in offset order, that
    reach it.  The scan reads the offsets and the word doubled, so that a
    rotation's offset never wraps, and the winner and its offsets are one
    slice of them: the reduction reads its sites there.

    The key is the winner's offsets, then its sign bytes (the signs
    rotated by r).  Offsets and signs do not depend on labels, and they
    give the canonical word back: reading left to right, an endpoint
    whose partner offset reaches no further back than position 0 closes
    the arrow opened there, and any other opens the next label.  So two
    words have one key exactly when they have one canonical word, and no
    relabel is needed to key a word.  A word of L <= 256 endpoints has
    offsets below 256, one byte each, and a key of 2L <= 512 bytes; a
    longer one takes four little-endian bytes per offset, a key of
    5L > 1,280 bytes, so the two widths never meet."""
    length = len(word)
    if length == 0:
        return (), 0, [], b""
    back = [0] * length
    signs = bytearray(length)
    kept = []
    first: dict[int, int] = {}
    for q, t in enumerate(word):
        if t > 0:
            a = t
            kept.append(q)
        else:
            a = -t
            signs[q] = 1
        p = first.pop(a, None)
        if p is None:
            first[a] = q
        else:
            back[q] = q - p
            back[p] = length - q + p
    back += back
    doubled = word + word
    for i in range(1, length):
        if len(kept) < 2:
            break
        least = 2  # above every rank
        for r in kept:
            b = back[r + i]
            k = -b if b <= i else doubled[r + i] < 0
            if k < least:
                least = k
                tied = [r]
            elif k == least:
                tied.append(r)
        kept = tied
    r = kept[0]
    offsets = back[r : r + length]
    if length <= 256:
        key = bytes(offsets)
    else:
        key = b"".join([b.to_bytes(4, "little") for b in offsets])
    return doubled[r : r + length], r, offsets, key + signs[r:] + signs[:r]


def _canonical(word: tuple[int, ...]) -> tuple[tuple[int, ...], int, list[int], bytes]:
    """Canonical rotation of a word: relabel each rotation by first
    appearance, encode tail < head, and keep the lexicographic minimum.
    Returns (canonical word, smallest rotation offset achieving it, the
    canonical word's _offsets, its memo key).  The word may carry any
    distinct nonzero arrow labels, as a move leaves them before
    relabeling.  The rotation, its offsets and its key come from
    `_least_rotation`, and only the rotation is relabeled."""
    rotation, r, back, key = _least_rotation(word)
    return _first_appearance(rotation), r, back, key


def canonical_word(word: tuple[int, ...]) -> tuple[int, ...]:
    return _canonical(tuple(word))[0]


def canonical_form(d: GaussDiagram) -> str:
    """Canonical code text: equal for two diagrams iff they differ only by
    rotation of the cyclic word and relabeling of arrows."""
    _check_diagram(d, "d")
    return serialize(_trusted(d._canon[0]))


def canonical_sort_key(word: tuple[int, ...]) -> tuple[int, ...]:
    """Total order on canonical words (label-major, tail before head)."""
    return tuple(2 * t if t > 0 else 2 * (-t) + 1 for t in word)


def rebase(d: GaussDiagram, g: int) -> GaussDiagram:
    """Rotate the word so endpoint g becomes index 0; labels untouched."""
    _check_diagram(d, "d")
    _check_int(g, "gap", 0, max(d.size, 1) - 1)
    return _trusted(d.word[g:] + d.word[:g])


def find_splits(d: GaussDiagram) -> list[Split]:
    """Every nontrivial split: the gap pairs ga < gb whose two arcs are
    closed under the arrow pairing, so each side holds at least one
    arrow, in (gap_a, gap_b) order.

    The mask of gap g is the XOR of 1 << arrow over the endpoints before
    g, so the arc [ga, gb) holds both endpoints or neither of every arrow
    exactly when gaps ga and gb have equal masks.  One pass groups the
    gaps by mask, and every pair inside a group is a split.
    """
    _check_diagram(d, "d")
    n = d.n
    groups: dict[int, list[int]] = {}  # mask -> its gaps, in order
    mask = 0
    for g, t in enumerate(d.word):
        groups.setdefault(mask, []).append(g)
        mask ^= 1 << (t if t > 0 else -t)
    pairs = [
        (ga, gb)
        for group in groups.values()
        if len(group) > 1
        for i, ga in enumerate(group)
        for gb in group[i + 1 :]
    ]
    pairs.sort()
    return [Split(ga, gb, ((gb - ga) // 2, n - (gb - ga) // 2)) for ga, gb in pairs]


def _first_split(d: GaussDiagram) -> Split | None:
    """``find_splits(d)[0]``, or None when d has no nontrivial split,
    without building the other splits.

    The splits come in (gap_a, gap_b) order, and every pair of a mask
    group starts at or after the group's first gap, so the first split
    pairs the first two gaps of the group whose first gap is least.  One
    pass keeps each mask's first gap; a later gap of a group takes the
    lead only if the group's first gap is below the one held, so only the
    group's second gap ever does."""
    first: dict[int, int] = {}  # mask -> its first gap
    ga = gb = d.size
    mask = 0
    for g, t in enumerate(d.word):
        f = first.setdefault(mask, g)
        if f < g and f < ga:
            ga, gb = f, g
        mask ^= 1 << (t if t > 0 else -t)
    if gb == d.size:
        return None
    return Split(ga, gb, ((gb - ga) // 2, d.n - (gb - ga) // 2))
