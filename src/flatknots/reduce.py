"""Monotone reduction to minimal crossing diagrams and exact equivalence.

Any diagram can be driven to a minimal crossing diagram without ever
increasing the crossing count, and all minimal diagrams of one flat knot
form a single FR3 orbit.  That yields a sound and complete stopping rule:
a diagram is minimal exactly when no member of its FR3 orbit admits a
decreasing FR1/FR2 site, and two diagrams are equivalent exactly when
their minimal diagrams share an FR3 orbit.

Every recorded move applies to the canonical representative of its
pre-move diagram; replay re-canonicalizes after each step.  This keeps
traces byte-reproducible across runs and platforms.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import moves as mv
from .diagram import (
    GaussDiagram,
    _canonical,
    _offsets,
    _trusted,
    canonical_sort_key,
    canonical_word,
    parse,
    serialize,
)


class OrbitBudgetExceeded(RuntimeError):
    """The FR3 orbit search hit its node budget before completing."""


class TraceMismatch(ValueError):
    """A trace does not replay to its recorded end code."""


@dataclass(frozen=True)
class OrbitLimits:
    max_nodes: int = 1_000_000

    def __post_init__(self):
        m = self.max_nodes
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"max_nodes must be an integer, not {m!r}")
        if m < 1:
            raise ValueError("max_nodes must be >= 1")


DEFAULT_LIMITS = OrbitLimits()


@dataclass(frozen=True)
class MoveTrace:
    """Replayable move sequence between two canonical codes.

    Traces emitted by monotone_reduce never increase the crossing count;
    equivalence certificates reuse the type and may.
    """

    start: str
    steps: tuple[mv.Move, ...]
    end: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "flatknots-trace v1",
                "start": self.start,
                "steps": [m.to_record() for m in self.steps],
                "end": self.end,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "MoveTrace":
        try:
            obj = json.loads(text)
        except RecursionError:
            raise TraceMismatch("trace JSON is nested too deeply") from None
        if not isinstance(obj, dict):
            raise TraceMismatch(f"a trace must be a JSON object, not {type(obj).__name__}")
        if obj.get("format") != "flatknots-trace v1":
            raise TraceMismatch(f"unsupported trace format {obj.get('format')!r}")
        for key in ("start", "end"):
            if not isinstance(obj.get(key), str):
                raise TraceMismatch(f"trace {key!r} must be a code string")
        if not isinstance(obj.get("steps"), list):
            raise TraceMismatch("trace 'steps' must be a list")
        steps = tuple(mv.Move.from_record(r) for r in obj["steps"])
        return cls(obj["start"], steps, obj["end"])


def replay_trace(trace: MoveTrace) -> GaussDiagram:
    """Replay steps from the start code, canonicalizing between steps;
    raises SiteMismatch on a bad step and TraceMismatch on a bad end."""
    cur = canonical_word(parse(trace.start).word)
    for m in trace.steps:
        nxt = mv.apply(_trusted(cur), m)
        cur = canonical_word(nxt.word)
    result = _trusted(cur)
    if serialize(result) != trace.end:
        raise TraceMismatch(f"trace replays to {serialize(result)!r}, not {trace.end!r}")
    return result


# ---------------------------------------------------------------------------
# FR3 orbit search
# ---------------------------------------------------------------------------

# The one memo: (canonical word, max_nodes) -> one flat tuple.  A word of
# a minimal diagram's FR3 orbit maps to (itself, the orbit), the orbit a
# tuple sorted by canonical_sort_key, so its first word names the class.
# Any other word w that a reduction passes through maps to (minimal word,
# orbit, next word, m1, r1, ..., mk, rk).  Everything after the orbit is
# w's link: the moves the reduction takes from w (an FR3 path, possibly
# empty, then one decreasing move), each applying to the canonical
# representative of its pre-move diagram and each result canonicalizing
# at rotation offset r; the last result is the next word, the same tuple
# as that word's key.  The path from a canonical word depends only on the
# key, so a link is exact.  Policy: a reduction stops at the first entry
# it finds; a trace or certificate is read afterwards from the stored links
# (_trace), and each link is written after its next word's entry.  Keying
# by the budget means an entry found under one --max-orbit never answers a
# call under another.  Values are pure, so racing writers are harmless.
# Only _reduce_word writes entries; catalog._records scans orbits itself
# and leaves the memo as it found it.
_memo: dict = {}


def _scan_orbit(start: tuple[int, ...], back: list[int], max_nodes: int, find_decreasing: bool):
    """Deterministic BFS over FR3 neighbors keyed by canonical word;
    ``back`` holds the start word's partner offsets.

    Each discovered word maps to (predecessor, move, offset): the move
    applies to the predecessor, and its result canonicalizes at that
    rotation offset.  With find_decreasing, every node but the start is
    checked on discovery, and the scan stops at the first node admitting
    a decreasing site, returning (pred, node, move) with move the first
    of enumerate_decreasing(node).  Otherwise returns (pred, None, None)
    with pred covering the whole orbit.  The start word is not checked:
    both callers that look for a decreasing site already know it has
    none (`_reduce_word` checks it first, and `catalog._records` scans
    only words that `catalog._orderly_words(n, reduced=True)` yields, each
    with no decreasing site).

    Every node's decreasing and FR3 sites (`moves._fr3_sites`) are read
    from its partner offsets: the start's are ``back``, and every other
    node's come from the ``_canonical`` call that discovered it.  A start
    with no FR3 site is its whole orbit, returned at once.  A node's
    expansion skips the site on the blocks of the move that discovered
    it, mapped into its frame by its offset r as (p - r) % size: FR3
    moves are involutions, so that site leads back to the predecessor,
    already in pred.  The scan performs only moves its own enumerators
    found, so it skips apply's legality check: each FR3 neighbor is
    _perform's word, canonicalized once.
    """
    start_sites = mv._fr3_sites(start, back)
    pred: dict = {start: None}
    if not start_sites:
        return pred, None, None
    size = len(start)
    layer = [(start, back)]
    expanded = 0
    while layer:
        nxt = []
        if len(layer) > 1:
            layer.sort(key=lambda node: canonical_sort_key(node[0]))
        for w, w_back in layer:
            expanded += 1
            link = pred[w]
            if link is None:
                sites, skip = start_sites, None
            else:
                _, via, r = link
                a, b, c = sorted((p - r) % size for p in via.positions[0::2])
                skip = (a, a + 1, b, b + 1, c, (c + 1) % size)
                sites = mv._fr3_sites(w, w_back)
            for m in sites:
                if m.positions == skip:
                    continue
                nw, r, nw_back = _canonical(mv._perform(w, m))
                if nw in pred:
                    continue
                if len(pred) >= max_nodes:
                    raise OrbitBudgetExceeded(
                        f"FR3 orbit of {serialize(_trusted(start))} exceeds the "
                        f"{max_nodes}-node budget (nodes explored: {len(pred)}, "
                        f"expanded: {expanded})"
                    )
                pred[nw] = (w, m, r)
                nxt.append((nw, nw_back))
                if find_decreasing:
                    dec = next(mv._decreasing_sites(nw, nw_back), None)
                    if dec is not None:
                        return pred, nw, dec
        layer = nxt
    return pred, None, None


def _full_orbit(word: tuple[int, ...], max_nodes: int) -> tuple:
    """FR3 orbit of the minimal diagram a canonical word reduces to,
    sorted by canonical_sort_key: its first word is the class word.  The
    word must have been reduced under max_nodes (_reduce_word)."""
    return _memo[(word, max_nodes)][1]


def _path_from_pred(pred: dict, target: tuple[int, ...]) -> tuple:
    """The BFS path to target as one flat tuple (m1, r1, ..., mk, rk)."""
    path = []
    w = target
    while pred[w] is not None:
        w, m, r = pred[w]
        path += (r, m)
    path.reverse()
    return tuple(path)


def fr3_orbit(d: GaussDiagram, limits: OrbitLimits | None = None) -> tuple[str, ...]:
    """BFS closure of d under FR3 moves: the sorted tuple of canonical
    codes in the orbit."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    pred, _, _ = _scan_orbit(*d._canon, max_nodes, find_decreasing=False)
    return tuple(serialize(_trusted(w)) for w in sorted(pred, key=canonical_sort_key))


# ---------------------------------------------------------------------------
# monotone reduction
# ---------------------------------------------------------------------------

def _reduce_word(word: tuple[int, ...], back: list[int], max_nodes: int) -> tuple[int, ...]:
    """Canonical word of a reached minimal diagram; its crossing number
    is half its length.

    The one reduction loop.  ``word`` must already be canonical and
    ``back`` must hold its partner offsets: each public entry point reads
    both from its input's `GaussDiagram._canon`, and
    `verify_superadditivity` from the `_canonical` call that made each
    member.  Each step takes the current word's first decreasing site, or
    when it has none, scans its FR3 orbit for the first node with one; a
    scan that finds none ends the reduction.  The sites are read from the
    current word's partner offsets: the start word's are ``back``, and
    every later word's come from the ``_canonical`` call that made it.
    A step whose site lies on the current word links straight to the
    next word; one that scanned links through the scan's FR3 path.  The
    step performs the decreasing move with ``moves._perform``, without
    apply's legality check: the move is one the enumerator found.  It
    stops at the first memo entry it finds, then writes an entry for
    every word it left, the last one first (see ``_memo``).
    """
    cur = word
    trail = []
    while (value := _memo.get((cur, max_nodes))) is None:
        node, path = cur, ()
        m = next(mv._decreasing_sites(cur, back), None)
        if m is None:
            pred, node, m = _scan_orbit(cur, back, max_nodes, find_decreasing=True)
            if node is None:
                orbit = tuple(sorted(pred, key=canonical_sort_key))
                for w in orbit:
                    _memo[(w, max_nodes)] = (w, orbit)
                value = _memo[(cur, max_nodes)]
                break
            path = _path_from_pred(pred, node)
        nxt, r, back = _canonical(mv._perform(node, m))
        trail.append((cur, (nxt, *path, m, r)))
        cur = nxt
    head = value[:2]
    for w, link in reversed(trail):
        _memo[(w, max_nodes)] = head + link
    return value[0]


def monotone_reduce(
    d: GaussDiagram, limits: OrbitLimits | None = None
) -> tuple[GaussDiagram, MoveTrace]:
    """Reduce to a minimal crossing diagram using only FR3 and decreasing
    FR1/FR2 moves; the trace replays start-to-end over canonical forms."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    start, back = d._canon
    min_word = _reduce_word(start, back, max_nodes)
    return _trusted(min_word), _trace(start, min_word, max_nodes)


def crossing_number(d: GaussDiagram, limits: OrbitLimits | None = None) -> int:
    """Least arrow count over the diagrams equivalent to d: half the
    length of the minimal word d reduces to."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    return len(_reduce_word(*d._canon, max_nodes)) // 2


def minimal_class_code(d: GaussDiagram, limits: OrbitLimits | None = None) -> str:
    """Complete flat-knot invariant: the least canonical code over the FR3
    orbit of a reached minimal diagram."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    min_word = _reduce_word(*d._canon, max_nodes)
    return serialize(_trusted(_full_orbit(min_word, max_nodes)[0]))


def _chain(word: tuple[int, ...], max_nodes: int):
    """(minimal word, stored links in order) of a reduced canonical word."""
    links = []
    value = _memo[(word, max_nodes)]
    while len(value) > 2:
        links.append(value[2:])
        value = _memo[(value[2], max_nodes)]
    return value[0], links


def _reversed_steps(links) -> list[mv.Move]:
    """Inverse steps of stored links, in reverse order, with positions
    translated into the canonical frame replay uses.  Each move's pre-move
    size, result size and offset are known, so nothing is applied."""
    out = []
    for link in reversed(links):
        post = len(link[0])
        size = post - 2 * link[-2].delta  # every move of a link starts at this size
        for i in range(len(link) - 2, 0, -2):
            inv = mv._invert(link[i], size)
            if post:
                r = link[i + 1]
                inv = mv.Move(inv.kind, inv.variant, tuple([(p - r) % post for p in inv.positions]))
            out.append(inv)
            post = size
    return out


def _trace(c1: tuple[int, ...], c2: tuple[int, ...], max_nodes: int) -> MoveTrace:
    """Moves from canonical word c1 to c2, two words of one class already
    reduced under max_nodes: c1's stored links down to its minimal word,
    an FR3 path to c2's minimal word, and c2's links inverted."""
    m1, links1 = _chain(c1, max_nodes)
    m2, links2 = _chain(c2, max_nodes)
    steps = [m for link in links1 for m in link[1::2]]
    # equal minimal words need no bridge, and their orbit was scanned
    # under this budget when it was memoized, so no budget error is lost
    if m1 != m2:
        pred, _, _ = _scan_orbit(m1, _offsets(m1), max_nodes, find_decreasing=False)
        steps += _path_from_pred(pred, m2)[0::2]
    steps += _reversed_steps(links2)
    return MoveTrace(serialize(_trusted(c1)), tuple(steps), serialize(_trusted(c2)))


def equivalent(
    d1: GaussDiagram,
    d2: GaussDiagram,
    limits: OrbitLimits | None = None,
    with_certificate: bool = False,
):
    """Decide flat equivalence.  With with_certificate, returns
    (bool, MoveTrace | None); the certificate runs d1 -> minimal(d1) ->
    minimal(d2) -> d2."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    (c1, back1), (c2, back2) = d1._canon, d2._canon
    m1 = _reduce_word(c1, back1, max_nodes)
    m2 = _reduce_word(c2, back2, max_nodes)
    verdict = _full_orbit(m1, max_nodes)[0] == _full_orbit(m2, max_nodes)[0]
    if not with_certificate:
        return verdict
    return verdict, (_trace(c1, c2, max_nodes) if verdict else None)
