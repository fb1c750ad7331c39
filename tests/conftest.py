"""Shared builders and independent oracles for the test suite."""
from __future__ import annotations

import collections
import itertools
import random

import pytest
from hypothesis import strategies as st

from flatknots import (
    GaussDiagram,
    MoveTrace,
    apply,
    canonical_form,
    enumerate_decreasing,
    enumerate_diagrams,
    enumerate_fr1_increasing,
    enumerate_fr2_increasing,
    enumerate_fr3,
)
from flatknots import diagram
from flatknots.diagram import canonical_word, serialize
from flatknots.moves import (
    FR1_INSERT,
    FR1_REMOVE,
    FR2_INSERT,
    FR2_REMOVE,
    FR2_VARIANTS,
    FR3,
    Move,
    SiteMismatch,
    _check_gap,
    _fr2_blocks,
    _fr3_before_index,
    _fr3_blocks_at,
    _relabel,
    build_fr3_catalog,
    canonical_pattern,
)
from flatknots.reduce import DEFAULT_LIMITS, _path_from_pred, _reversed_steps, _scan_orbit


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
    index = _fr3_before_index()
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
        entry = index.get(canonical_pattern(blocks))
        if entry is not None:
            moves.append(Move(FR3, entry.id, tuple(positions)))
    moves.sort(key=Move.sort_key)
    return moves


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
        catalog = build_fr3_catalog()
        if not isinstance(m.variant, int) or not 0 <= m.variant < len(catalog):
            raise SiteMismatch(f"unknown fr3 catalog entry {m.variant!r}")
        if canonical_pattern(blocks) != catalog[m.variant].before:
            raise SiteMismatch("blocks do not match the catalog entry")
        out = list(word)
        for s in starts:
            p1 = (s + 1) % size
            out[s], out[p1] = out[p1], out[s]
        return _relabel(out)

    raise SiteMismatch(f"unknown move kind {kind!r}")


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
        pred, node, m = _scan_orbit(cur, max_nodes, find_decreasing=True)
        if node is None:
            break
        steps.extend(_path_from_pred(pred, node))
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
    pred, _, _ = _scan_orbit(m1.word, DEFAULT_LIMITS.max_nodes, find_decreasing=False)
    bridge = _path_from_pred(pred, m2.word)
    back = _reversed_steps(canonical_word(d2.word), trace2.steps)
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


@pytest.fixture(scope="session")
def oracle_classes_ceiling_5():
    return full_move_graph_classes(5)


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
