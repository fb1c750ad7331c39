"""Shared builders and independent oracles for the test suite."""
from __future__ import annotations

import collections
import functools
import itertools
import random

import pytest
from hypothesis import strategies as st

from flatknots import (
    GaussDiagram,
    MoveTrace,
    UPolynomial,
    apply,
    build_fr3_catalog,
    canonical_form,
    classify,
    crossing_number,
    enumerate_decreasing,
    enumerate_diagrams,
    enumerate_fr1_increasing,
    enumerate_fr2_increasing,
    enumerate_fr3,
    u_polynomial,
)
from flatknots import diagram, moves, reduce
from flatknots.catalog import CatalogRecord
from flatknots.compose import _minimal_verdict
from flatknots.diagram import (
    HEAD,
    TAIL,
    Split,
    _first_appearance,
    canonical_sort_key,
    canonical_word,
    find_splits,
    serialize,
)
from flatknots.moves import (
    FR1_INSERT,
    FR1_REMOVE,
    FR2_INSERT,
    FR2_REMOVE,
    FR2_VARIANTS,
    FR3,
    FR3CatalogEntry,
    Move,
    SiteMismatch,
    _fr2_blocks,
    _relabel,
    inverse,
)
from flatknots.reduce import DEFAULT_LIMITS, OrbitBudgetExceeded


def random_diagram(rng: random.Random, n: int) -> GaussDiagram:
    """Uniform-ish random diagram with n arrows (not canonicalized)."""
    pts = list(range(2 * n))
    rng.shuffle(pts)
    pairs = sorted(tuple(sorted((pts[2 * i], pts[2 * i + 1]))) for i in range(n))
    word = [0] * (2 * n)
    for label, (p, q) in enumerate(pairs, start=1):
        if rng.random() < 0.5:
            word[p], word[q] = label, -label
        else:
            word[p], word[q] = -label, label
    return GaussDiagram(tuple(word))


def canonical_oracle(word: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Reference canonicalizer: relabel every rotation by first appearance,
    encode tail < head, and keep the lexicographic minimum.  Returns
    (canonical word, smallest rotation offset achieving it)."""
    length = len(word)
    if length == 0:
        return (), 0
    doubled = word + word
    best = None
    best_r = 0
    for r in range(length):
        relab: dict[int, int] = {}
        enc = []
        for i in range(length):
            t = doubled[r + i]
            a = t if t > 0 else -t
            lab = relab.get(a)
            if lab is None:
                lab = len(relab) + 1
                relab[a] = lab
            enc.append(2 * lab if t > 0 else 2 * lab + 1)
        enc_t = tuple(enc)
        if best is None or enc_t < best:
            best = enc_t
            best_r = r
    canon = tuple(e // 2 if e % 2 == 0 else -(e // 2) for e in best)
    return canon, best_r


def fr1_oracle(d: GaussDiagram) -> list[Move]:
    """Reference FR1 enumerator: find both endpoints of every arrow and
    test the two cyclic adjacencies; a lone arrow, adjacent both ways
    round, gives the one move that starts at position 0."""
    word, size = d.word, d.size
    moves = []
    for arrow in range(1, d.n + 1):
        t, h = word.index(arrow), word.index(-arrow)
        starts = [i for i, j in ((t, h), (h, t)) if (i + 1) % size == j]
        if starts:
            i = min(starts)
            variant = "th" if word[i] > 0 else "ht"
            moves.append(Move("fr1-remove", variant, (i, (i + 1) % size)))
    moves.sort(key=Move.sort_key)
    return moves


def _fr2_block_move(word: tuple[int, ...], size: int, a0: int) -> Move | None:
    """Legal FR2 removal whose first block starts at a0, if any."""
    a1 = (a0 + 1) % size
    ta, tb = word[a0], word[a1]
    if abs(ta) == abs(tb):
        return None
    if (ta > 0) == (tb > 0):
        return None  # the block must mix one tail and one head
    ox = word.index(-ta)
    oy = word.index(-tb)
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


def fr2_oracle(d: GaussDiagram) -> list[Move]:
    """Reference FR2 enumerator: locate each block's partners with two
    `index` scans, keep the first bigon found per arrow pair, and rebuild
    it from the block holding its lowest position."""
    word, size = d.word, d.size
    moves = []
    seen: set[frozenset[int]] = set()
    for a0 in range(size):
        m = _fr2_block_move(word, size, a0)
        if m is None:
            continue
        key = frozenset(abs(word[p]) for p in m.positions)
        if key in seen:
            continue
        seen.add(key)
        # normalize: the recorded first block is the one holding the
        # lowest endpoint index
        lowest = min(m.positions)
        if lowest not in m.positions[:2]:
            m = _fr2_block_move(word, size, m.positions[2])
        moves.append(m)
    moves.sort(key=Move.sort_key)
    return moves


def fr1_at_oracle(word: tuple[int, ...], size: int, i: int) -> Move | None:
    """Reference FR1 recognizer, the token test: the FR1 removal of the
    arrow whose endpoints sit at i and i + 1, if any."""
    j = (i + 1) % size
    if word[j] != -word[i]:
        return None
    return Move(FR1_REMOVE, "th" if word[i] > 0 else "ht", (i, j))


def decreasing_sites_oracle(word: tuple[int, ...]):
    """Reference for `moves._decreasing_sites`: the generator as it was
    before it read partner offsets.  Every start position's block goes
    through the FR1 test `fr1_at_oracle` and the FR2 recognizer
    `_fr2_block_move`, which finds the partners by position; an FR2 site
    is kept only from the block holding its least position.  The base-0
    sites, from starts 0 and size - 1, come sorted first, then one start
    at a time."""
    size = len(word)
    if size < 2:
        return

    def site_at(a0):
        m = fr1_at_oracle(word, size, a0) or _fr2_block_move(word, size, a0)
        return m if m is not None and min(m.positions) in m.positions[:2] else None

    # a lone arrow's two endpoints are adjacent both ways round; count it once
    starts = (0, size - 1) if size > 2 else (0,)
    yield from sorted(filter(None, map(site_at, starts)), key=Move.sort_key)
    for b in range(1, size - 1):
        m = site_at(b)
        if m is not None:
            yield m


def _block_canonical_pattern(blocks):
    """Canonical form of a cyclic triple of ((arrow, role), (arrow, role))
    blocks: minimum over the 3 rotations after relabeling arrows by first
    appearance, with a tail encoded below a head."""
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


def _block_swap(pattern):
    return tuple((block[1], block[0]) for block in pattern)


def _block_triangle_patterns():
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
def fr3_catalog_oracle() -> tuple[FR3CatalogEntry, ...]:
    """Reference FR3 catalog in block form: each pattern is three blocks
    ((arrow, role), (arrow, role)) with role TAIL or HEAD, canonicalized
    by `_block_canonical_pattern` and numbered in sorted block order."""
    befores = {}
    for bw, aw in _block_triangle_patterns():
        cb = _block_canonical_pattern(bw)
        if _block_canonical_pattern(aw) != _block_canonical_pattern(_block_swap(cb)):
            raise AssertionError("triangle model: after is not the blockwise swap")
        befores.setdefault(cb, _block_swap(cb))
    ordered = sorted(befores)
    index = {cb: i for i, cb in enumerate(ordered)}
    return tuple(
        FR3CatalogEntry(i, cb, befores[cb], index[_block_canonical_pattern(befores[cb])])
        for i, cb in enumerate(ordered)
    )


@functools.lru_cache(maxsize=1)
def fr3_before_index_oracle() -> dict[tuple[int, ...], FR3CatalogEntry]:
    """Every block rotation of every canonical before, relabeled by first
    appearance, mapped to its entry.  Six tokens relabeled the same way
    are a key exactly when their canonical pattern is that before."""
    return {
        diagram._first_appearance(e.before[r:] + e.before[:r]): e
        for e in build_fr3_catalog()
        for r in (0, 2, 4)
    }


def _fr3_blocks_at(word, size, starts):
    """The blocks (word[s], word[s + 1]) in block form."""
    blocks = []
    for s in starts:
        p0, p1 = s, (s + 1) % size
        blocks.append((
            (abs(word[p0]), TAIL if word[p0] > 0 else HEAD),
            (abs(word[p1]), TAIL if word[p1] > 0 else HEAD),
        ))
    return tuple(blocks)


def _fr3_structural(blocks) -> bool:
    arrow_pairs = []
    for block in blocks:
        pair = frozenset(sym for sym, _ in block)
        if len(pair) != 2:
            return False
        arrow_pairs.append(pair)
    if len(set(arrow_pairs)) != 3:
        return False
    return len(frozenset.union(*arrow_pairs)) == 3


def fr3_oracle(d: GaussDiagram) -> list[Move]:
    """Reference FR3 enumerator: scan every C(2n, 3) triple of block
    starts and keep the disjoint ones whose blocks cover three arrows
    pairwise with a pattern in the catalog."""
    size = d.size
    if d.n < 3:
        return []
    word = d.word
    index = {e.before: e for e in fr3_catalog_oracle()}
    moves = []
    for starts in itertools.combinations(range(size), 3):
        positions = []
        for s in starts:
            positions.extend((s, (s + 1) % size))
        if len(set(positions)) != 6:
            continue
        blocks = _fr3_blocks_at(word, size, starts)
        if not _fr3_structural(blocks):
            continue
        entry = index.get(_block_canonical_pattern(blocks))
        if entry is not None:
            moves.append(Move(FR3, entry.id, tuple(positions)))
    moves.sort(key=Move.sort_key)
    return moves


def fr3_partner_list_oracle(d: GaussDiagram) -> list[Move]:
    """`enumerate_fr3` as it was before it read partner offsets: it builds
    a `where` dict of every endpoint's position and a `partner` list of
    every endpoint's partner position, then finds each site from its least
    block as `moves._fr3_sites` does."""
    if d.n < 3:
        return []
    word, size = d.word, d.size
    last = size - 1
    where = dict(zip(word, range(size)))
    partner = [where[-t] for t in word]
    shapes = moves._fr3_shape_table()
    found = []
    for s in range(size - 4):
        s1 = s + 1
        ta, tb = word[s], word[s1]
        if ta == -tb:
            continue
        p1, p2 = partner[s], partner[s1]
        before_p2 = p2 - 1 if p2 else last
        after_p2 = p2 + 1 if p2 < last else 0
        for a_side in (0, 4):
            if a_side:
                a_start, q = p1, (p1 + 1 if p1 < last else 0)
            else:
                a_start = q = p1 - 1 if p1 else last
            r = partner[q]
            if r == after_p2:
                b_start, b_side = p2, 0
            elif r == before_p2:
                b_start, b_side = r, 2
            else:
                continue
            if a_start <= s1 or b_start <= s1 or q == s:
                continue
            a_first = a_start < b_start
            signs = (32 if ta > 0 else 0) + (16 if tb > 0 else 0) + (8 if word[q] > 0 else 0)
            entry = shapes[signs + a_side + b_side + a_first]
            if entry is None:
                continue
            lo, hi = (a_start, b_start) if a_first else (b_start, a_start)
            found.append(Move(FR3, entry, (s, s1, lo, lo + 1, hi, hi + 1 if hi < last else 0)))
    found.sort(key=Move.sort_key)
    return found


def _insert_blocks(word, inserts: list[tuple[int, list[int]]]) -> list[int]:
    """Insert blocks at gaps; for equal gaps, earlier-listed blocks come first."""
    out: list[int] = []
    for i in range(max(len(word), 1)):
        for g, block in inserts:
            if g == i:
                out.extend(block)
        if i < len(word):
            out.append(word[i])
    return out


def _check_gap(g: int, size: int):
    if not 0 <= g < max(size, 1):
        raise SiteMismatch(f"gap {g} out of range for {size} endpoints")


def apply_oracle(d: GaussDiagram, m: Move) -> GaussDiagram:
    """Reference `apply`: hand-written legality checks for each kind, with
    FR2 partners located by `_fr2_block_move` and FR3 blocks checked for
    a pairwise cover of three arrows before the catalog lookup."""
    word, size = d.word, d.size
    kind = m.kind

    if kind == FR1_REMOVE:
        if len(m.positions) != 2:
            raise SiteMismatch("fr1-remove takes two endpoint positions")
        i, j = m.positions
        if size < 2 or not (0 <= i < size) or j != (i + 1) % size:
            raise SiteMismatch("positions are not cyclically consecutive")
        if abs(word[i]) != abs(word[j]):
            raise SiteMismatch("endpoints belong to different arrows")
        if m.variant != ("th" if word[i] > 0 else "ht"):
            raise SiteMismatch("arrow direction does not match the variant")
        keep = [t for p, t in enumerate(word) if p not in (i, j)]
        return _relabel(keep)

    if kind == FR1_INSERT:
        if m.variant not in ("th", "ht"):
            raise SiteMismatch(f"unknown fr1 variant {m.variant!r}")
        if len(m.positions) != 1:
            raise SiteMismatch("fr1-insert takes one gap")
        (g,) = m.positions
        _check_gap(g, size)
        fresh = d.n + 1
        block = [fresh, -fresh] if m.variant == "th" else [-fresh, fresh]
        return _relabel(_insert_blocks(word, [(g, block)]))

    if kind == FR2_REMOVE:
        if m.variant not in FR2_VARIANTS:
            raise SiteMismatch(f"unknown fr2 variant {m.variant!r}")
        if len(m.positions) != 4 or len(set(m.positions)) != 4:
            raise SiteMismatch("fr2-remove takes four distinct positions")
        if not all(0 <= p < size for p in m.positions):
            raise SiteMismatch(f"positions out of range for {size} endpoints")
        a0, a1, b0, b1 = m.positions
        if size < 4 or a1 != (a0 + 1) % size or b1 != (b0 + 1) % size:
            raise SiteMismatch("blocks are not cyclically consecutive")
        probe = _fr2_block_move(word, size, a0)
        if probe is None or probe.positions != m.positions or probe.variant != m.variant:
            raise SiteMismatch("no matching bigon at the stated positions")
        keep = [t for p, t in enumerate(word) if p not in m.positions]
        return _relabel(keep)

    if kind == FR2_INSERT:
        if m.variant not in FR2_VARIANTS:
            raise SiteMismatch(f"unknown fr2 variant {m.variant!r}")
        if len(m.positions) != 2:
            raise SiteMismatch("fr2-insert takes two gaps")
        ga, gb = m.positions
        _check_gap(ga, size)
        _check_gap(gb, size)
        x, y = d.n + 1, d.n + 2
        block_a, block_b = _fr2_blocks(m.variant, x, y)
        return _relabel(_insert_blocks(word, [(ga, block_a), (gb, block_b)]))

    if kind == FR3:
        if len(m.positions) != 6 or len(set(m.positions)) != 6:
            raise SiteMismatch("fr3 takes six distinct positions")
        if not all(0 <= p < size for p in m.positions):
            raise SiteMismatch(f"positions out of range for {size} endpoints")
        starts = m.positions[0::2]
        for s, p1 in zip(starts, m.positions[1::2]):
            if p1 != (s + 1) % size:
                raise SiteMismatch("blocks are not cyclically consecutive")
        blocks = _fr3_blocks_at(word, size, starts)
        if not _fr3_structural(blocks):
            raise SiteMismatch("blocks do not cover three arrows pairwise")
        catalog = fr3_catalog_oracle()
        if type(m.variant) is not int or not 0 <= m.variant < len(catalog):
            raise SiteMismatch(f"unknown fr3 catalog entry {m.variant!r}")
        if _block_canonical_pattern(blocks) != catalog[m.variant].before:
            raise SiteMismatch("blocks do not match the catalog entry")
        out = list(word)
        for s in starts:
            p1 = (s + 1) % size
            out[s], out[p1] = out[p1], out[s]
        return _relabel(out)

    raise SiteMismatch(f"unknown move kind {kind!r}")


def scan_orbit_oracle(start: tuple[int, ...], max_nodes: int, find_decreasing: bool):
    """Reference FR3 orbit BFS: the engine's scan before it recorded
    rotation offsets.  pred maps each discovered word to (predecessor,
    move); with find_decreasing it stops at the first discovered node
    admitting a decreasing site and returns (pred, node, move), else
    (pred, None, None) over the whole orbit.  Reads and writes no memo."""
    pred: dict = {start: None}
    layer = [start]
    expanded = 0
    while layer:
        nxt = []
        for w in sorted(layer, key=canonical_sort_key):
            rep = GaussDiagram(w)
            expanded += 1
            for m in enumerate_fr3(rep):
                nw = canonical_word(apply(rep, m).word)
                if nw in pred:
                    continue
                if len(pred) >= max_nodes:
                    raise OrbitBudgetExceeded(
                        f"FR3 orbit of {serialize(GaussDiagram(start))} exceeds the "
                        f"{max_nodes}-node budget (nodes explored: {len(pred)}, "
                        f"expanded: {expanded})"
                    )
                pred[nw] = (w, m)
                nxt.append(nw)
                if find_decreasing:
                    dec = enumerate_decreasing(GaussDiagram(nw))
                    if dec:
                        return pred, nw, dec[0]
        layer = nxt
    return pred, None, None


def scan_every_site_oracle(start: tuple[int, ...], max_nodes: int, find_decreasing: bool):
    """`reduce._scan_orbit` as it was before it read FR3 sites from partner
    offsets: every node, the start included, is expanded through a
    trusted diagram and `fr3_partner_list_oracle`, and every site is
    performed and canonicalized, the one leading back to the node's
    predecessor too.  pred maps each discovered word to (predecessor,
    move, rotation offset), in discovery order.  Reads and writes no
    memo."""
    pred: dict = {start: None}
    layer = [start]
    expanded = 0
    while layer:
        nxt = []
        if len(layer) > 1:
            layer.sort(key=canonical_sort_key)
        for w in layer:
            rep = diagram._trusted(w)
            expanded += 1
            for m in fr3_partner_list_oracle(rep):
                nw, r, back = diagram._canonical(moves._perform(w, m))
                if nw in pred:
                    continue
                if len(pred) >= max_nodes:
                    raise OrbitBudgetExceeded(
                        f"FR3 orbit of {serialize(diagram._trusted(start))} exceeds the "
                        f"{max_nodes}-node budget (nodes explored: {len(pred)}, "
                        f"expanded: {expanded})"
                    )
                pred[nw] = (w, m, r)
                nxt.append(nw)
                if find_decreasing:
                    dec = next(moves._decreasing_sites(nw, back), None)
                    if dec is not None:
                        return pred, nw, dec
        layer = nxt
    return pred, None, None


def path_oracle(pred: dict, target: tuple[int, ...]) -> list[Move]:
    """Moves from the BFS start to target in a scan_orbit_oracle pred map."""
    chain = []
    w = target
    while pred[w] is not None:
        prev, m = pred[w]
        chain.append(m)
        w = prev
    chain.reverse()
    return chain


def reversed_steps_oracle(start_word: tuple[int, ...], steps) -> list[Move]:
    """Inverse steps, in reverse order, with positions translated into the
    canonical frame replay uses, found by re-applying and re-canonicalizing
    every step from start_word."""
    records = []
    cur = start_word
    for m in steps:
        post = apply(GaussDiagram(cur), m)
        pre_size = len(cur)
        cur, r = diagram._canonical(post.word)[:2]
        records.append((pre_size, m, r, len(cur)))
    out = []
    for pre_size, m, r, length in reversed(records):
        inv = inverse(m, pre_size)
        if length:
            inv = Move(inv.kind, inv.variant, tuple((p - r) % length for p in inv.positions))
        out.append(inv)
    return out


def reduce_oracle(d: GaussDiagram) -> tuple[GaussDiagram, MoveTrace]:
    """Reference reducer under the default budget: the trace-recording
    loop that ran beside the memoized one before the two were merged.  It
    reads and writes no memo."""
    max_nodes = DEFAULT_LIMITS.max_nodes
    start = canonical_word(d.word)
    steps: list[Move] = []
    cur = start
    while True:
        rep = GaussDiagram(cur)
        dec = enumerate_decreasing(rep)
        if dec:
            steps.append(dec[0])
            cur = canonical_word(apply(rep, dec[0]).word)
            continue
        pred, node, m = scan_orbit_oracle(cur, max_nodes, find_decreasing=True)
        if node is None:
            break
        steps.extend(path_oracle(pred, node))
        steps.append(m)
        cur = canonical_word(apply(GaussDiagram(node), m).word)
    minimal = GaussDiagram(cur)
    trace = MoveTrace(serialize(GaussDiagram(start)), tuple(steps), serialize(minimal))
    return minimal, trace


def certificate_oracle(d1: GaussDiagram, d2: GaussDiagram) -> MoveTrace:
    """Equivalence certificate d1 -> minimal(d1) -> minimal(d2) -> d2
    assembled from two reduce_oracle traces, for equivalent inputs."""
    m1, trace1 = reduce_oracle(d1)
    m2, trace2 = reduce_oracle(d2)
    pred, _, _ = scan_orbit_oracle(m1.word, DEFAULT_LIMITS.max_nodes, find_decreasing=False)
    bridge = path_oracle(pred, m2.word)
    back = reversed_steps_oracle(canonical_word(d2.word), trace2.steps)
    return MoveTrace(
        trace1.start,
        tuple(trace1.steps) + tuple(bridge) + tuple(back),
        canonical_form(d2),
    )


def all_legal_moves(d: GaussDiagram, max_arrows: int | None = None):
    """Every legal move at d; inserts only if the result stays within
    max_arrows (no cap when None)."""
    moves = enumerate_decreasing(d) + enumerate_fr3(d)
    if max_arrows is None or d.n + 1 <= max_arrows:
        moves += enumerate_fr1_increasing(d)
    if max_arrows is None or d.n + 2 <= max_arrows:
        moves += enumerate_fr2_increasing(d)
    return moves


def brute_force_splits(
    d: GaussDiagram, include_degenerate: bool = False
) -> list[tuple[int, int, tuple[int, int]]]:
    """Independent split oracle: every gap pair (ga, gb), ga < gb, whose
    arc [ga, gb) holds both endpoints or neither of each arrow, in (ga, gb)
    order, as (ga, gb, side sizes) with the sides read off the arc length;
    with include_degenerate, also (g, g, (0, n)) for every gap g."""
    size = d.size
    ends = [d.arrow_endpoints(arrow) for arrow in range(1, d.n + 1)]
    found = []
    for ga in range(max(size, 1)):
        if include_degenerate:
            found.append((ga, ga, (0, d.n)))
        for gb in range(ga + 1, size):
            if all((ga <= t < gb) == (ga <= h < gb) for t, h in ends):
                inside = (gb - ga) // 2
                found.append((ga, gb, (inside, d.n - inside)))
    return found


def find_splits_oracle(d: GaussDiagram, include_degenerate: bool = False) -> list[Split]:
    """Reference find_splits: widen the arc [ga, gb) from every gap ga one
    endpoint at a time, counting arrows with one endpoint inside; O(n^2)."""
    size = d.size
    splits = []
    arrows = [abs(t) for t in d.word]
    for ga in range(max(size, 1)):
        if include_degenerate:
            splits.append(Split(ga, ga, (0, d.n)))
        open_count = 0
        inside = [False] * (d.n + 1)
        for gb in range(ga + 1, size):
            a = arrows[gb - 1]
            if inside[a]:
                open_count -= 1
            else:
                inside[a] = True
                open_count += 1
            if open_count == 0:
                arrows_inside = (gb - ga) // 2
                splits.append(Split(ga, gb, (arrows_inside, d.n - arrows_inside)))
    return splits


def arrow_index_oracle(d: GaussDiagram, arrow: int) -> int:
    """Reference index: the set of endpoints on the open arc from the
    arrow's head to its tail, counting +1 per tail and -1 per head of the
    arrows with exactly one endpoint there."""
    word = d.word
    tail, head = d.arrow_endpoints(arrow)
    arc = set(word[head + 1 : tail] if head < tail else word[head + 1 :] + word[:tail])
    return sum(1 if t > 0 else -1 for t in arc if -t not in arc)


def u_polynomial_oracle(d: GaussDiagram) -> UPolynomial:
    """Reference u-polynomial from arrow_index_oracle, one arc set per
    arrow; O(n^2)."""
    coeffs: dict[int, int] = {}
    for arrow in range(1, d.n + 1):
        idx = arrow_index_oracle(d, arrow)
        if idx:
            exp = abs(idx)
            coeffs[exp] = coeffs.get(exp, 0) + (1 if idx > 0 else -1)
    return UPolynomial.from_dict(coeffs)


def _oracle_pairings(points: tuple[int, ...]):
    if not points:
        yield []
        return
    first = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1 :]
        for sub in _oracle_pairings(rest):
            yield [(first, points[i])] + sub


def enumerate_oracle(n: int):
    """Reference generator: every chord pairing times every direction
    assignment, kept when the word equals its own canonical form."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield GaussDiagram(())
        return
    size = 2 * n
    for pairing in _oracle_pairings(tuple(range(size))):
        # pairs come out ordered by first endpoint, matching
        # first-appearance labels
        for bits in range(1 << n):
            word = [0] * size
            for label, (p, q) in enumerate(pairing, start=1):
                if bits >> (label - 1) & 1:
                    word[p], word[q] = -label, label
                else:
                    word[p], word[q] = label, -label
            wt = tuple(word)
            if canonical_word(wt) == wt:
                yield GaussDiagram(wt)


def _prefix_cut_words(n: int, reduced: bool):
    """The orderly generator before its leaf check: every prefix cut of
    `catalog._orderly_words`, but a rotation is compared with rotation 0
    only on positions inside the prefix, and no FR2 site across the wrap
    is cut.  So it also builds words that are not their own canonical
    form, and, reduced, words with an FR2 site across the wrap."""
    size = 2 * n
    word = [0] * size
    opened = [0] * (n + 1)
    rank0 = [0] * size

    def extend(k, labels, open_labels, kept):
        if k == size:
            yield tuple(word)
            return
        choices = []
        for lab in open_labels:
            p = opened[lab]
            if reduced and (p == k - 1 or (p == 0 and k == size - 1)):
                continue
            choices.append((-word[p], p))
        if labels < n and len(open_labels) < size - k - 1:
            choices.append((labels + 1, -1))
            choices.append((-labels - 1, -1))
        u = word[k - 1]
        q = opened[u if u > 0 else -u]
        for t, p in choices:
            if p >= 0:
                if reduced and q != k - 1 and (u > 0) != (t > 0) and (q - p == 1 or p - q == 1):
                    continue
                rank = p - k
            else:
                rank = t < 0
            next_kept = []
            for r in kept:
                rr = rank if p >= r else t < 0
                c = rank0[k - r]
                if rr < c:
                    break
                if rr == c:
                    next_kept.append(r)
            else:
                if t > 0:
                    next_kept.append(k)
                word[k] = t
                rank0[k] = rank
                if p >= 0:
                    rest = [lab for lab in open_labels if lab != t and lab != -t]
                    yield from extend(k + 1, labels, rest, next_kept)
                else:
                    opened[labels + 1] = k
                    yield from extend(k + 1, labels + 1, open_labels + [labels + 1], next_kept)

    if n == 0:
        yield ()
        return
    word[0] = 1
    yield from extend(1, 1, [1], [])


def orderly_filter_oracle(n: int, reduced: bool):
    """Reference for `enumerate_diagrams`' words: the prefix-cut
    generator, then the exact filters it needed, the self-canonical check
    and, reduced, the first decreasing site."""
    for wt in _prefix_cut_words(n, reduced):
        if canonical_word(wt) == wt and not (reduced and next(moves._decreasing_sites(wt, diagram._offsets(wt)), None)):
            yield wt


@st.composite
def diagram_strategy(draw, max_n: int = 5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    order = draw(st.permutations(tuple(range(2 * n))))
    bits = draw(st.integers(min_value=0, max_value=max(0, (1 << n) - 1)))
    pairs = sorted(tuple(sorted((order[2 * i], order[2 * i + 1]))) for i in range(n))
    word = [0] * (2 * n)
    for label, (p, q) in enumerate(pairs, start=1):
        if bits >> (label - 1) & 1:
            word[p], word[q] = -label, label
        else:
            word[p], word[q] = label, -label
    return GaussDiagram(tuple(word))


def full_move_graph_classes(ceiling: int):
    """Independent equivalence oracle: connected components of the full
    move graph (increasing moves included) over all diagrams with at most
    `ceiling` arrows.  Uses union-find over canonical words; no reduction
    logic involved."""
    words = [
        canonical_word(d.word)
        for n in range(ceiling + 1)
        for d in enumerate_diagrams(n)
    ]
    parent = {w: w for w in words}

    def find(w):
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for w in words:
        d = GaussDiagram(w)
        for m in all_legal_moves(d, max_arrows=ceiling):
            union(w, canonical_word(apply(d, m).word))
    return {w: find(w) for w in words}


def classify_oracle(n: int, limits=None) -> list[CatalogRecord]:
    """`classify` as it was before its records streamed: every reached
    word is kept in `seen`, and every record in a list.  The orbit scans
    go through `reduce._scan_orbit`, so a spy there counts them."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    seen: set[tuple[int, ...]] = set()
    records = []
    for d in enumerate_diagrams(n, reduced=True):
        if d.word in seen:
            continue
        pred, node, _ = reduce._scan_orbit(
            d.word, diagram._offsets(d.word), max_nodes, find_decreasing=True
        )
        seen.update(pred)
        if node is None:
            records.append(
                CatalogRecord(
                    len(records) + 1,
                    serialize(d),
                    n,
                    str(u_polynomial(d)),
                    _minimal_verdict(d).verdict[0].upper(),
                    len(pred),
                )
            )
    return records


def catalog_text(records, n: int) -> str:
    """The catalog file's text, joined in one string: a header line,
    then one line per record."""
    lines = [f"flatcat v1 n={n} quotient=oriented"]
    lines.extend(
        f"class={r.class_id} code={r.code} cr={r.cr} "
        f"u={r.u_text} verdict={r.verdict} orbit={r.orbit_size}"
        for r in records
    )
    return "\n".join(lines) + "\n"


def strict(word: tuple[int, ...]) -> bool:
    """Composite in the strict sense, a sum of two nontrivial knots: some
    nontrivial split's two arcs, each relabeled by first appearance and
    closed into a diagram of its own, both have crossing number > 0."""
    d = GaussDiagram(word)
    for s in find_splits(d):
        inside = word[s.gap_a : s.gap_b]
        outside = word[s.gap_b :] + word[: s.gap_a]
        if all(crossing_number(GaussDiagram(_first_appearance(arc))) > 0 for arc in (inside, outside)):
            return True
    return False


@pytest.fixture(scope="session")
def oracle_classes_ceiling_5():
    return full_move_graph_classes(5)


@pytest.fixture(scope="session")
def classified():
    """classify(n) as a tuple of records, computed once per session for
    each n asked for; the default orbit budget."""
    return functools.cache(lambda n: tuple(classify(n)))


@pytest.fixture
def canonical_calls(monkeypatch):
    """Counter of `diagram._canonical` calls, keyed by the id of the word
    passed.  Identity, not equality: a new word that happens to be spelled
    like an input is a different diagram.  Every word passed is kept
    alive, so no later word reuses its id."""
    calls: collections.Counter = collections.Counter()
    passed = []
    canonical = diagram._canonical

    def spy(word):
        passed.append(word)
        calls[id(word)] += 1
        return canonical(word)

    monkeypatch.setattr(diagram, "_canonical", spy)
    return calls
