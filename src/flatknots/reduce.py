"""Monotone reduction to minimal crossing diagrams and exact equivalence.

Any diagram can be driven to a minimal crossing diagram without ever
increasing the crossing count, and all minimal diagrams of one flat knot
form a single FR3 orbit.  That yields a sound and complete stopping rule:
a diagram is minimal exactly when no member of its FR3 orbit admits a
decreasing FR1/FR2 site, and two diagrams are equivalent exactly when
their minimal diagrams share an FR3 orbit.

`equivalent` first compares the inputs' u-polynomials
(`invariants._u_terms`), which no flat move changes.  A pair whose
polynomials differ is inequivalent, and it is answered before either
diagram is canonicalized or reduced: it searches no orbit, so it never
raises OrbitBudgetExceeded, whatever the budget, and it leaves the memo
as it found it.  The u-polynomial is not complete, so a pair with equal
polynomials goes on to the reduction, and every verdict stays exact.

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
    _check_diagram,
    _check_flag,
    _check_int,
    _check_type,
    _first_appearance,
    _least_rotation,
    _offsets,
    _trusted,
    canonical_form,
    canonical_sort_key,
    canonical_word,
    parse,
    serialize,
)
from .invariants import _u_terms


class OrbitBudgetExceeded(RuntimeError):
    """The FR3 orbit search hit its node budget before completing."""


class TraceMismatch(ValueError):
    """A trace does not replay to its recorded end code."""


@dataclass(frozen=True)
class OrbitLimits:
    """``max_nodes`` bounds the nodes one FR3 orbit scan may explore
    (``len(pred)`` in `_scan_orbit`); the memo keeps one dict per budget.
    Every ``limits`` argument takes an OrbitLimits or None (`_max_nodes`)."""

    max_nodes: int = 1_000_000

    def __post_init__(self):
        _check_int(self.max_nodes, "max_nodes", 1)


DEFAULT_LIMITS = OrbitLimits()


def _max_nodes(limits: OrbitLimits | None) -> int:
    """``limits.max_nodes``, DEFAULT_LIMITS' for None; anything else is refused."""
    if not isinstance(limits, (OrbitLimits, type(None))):
        raise ValueError(f"limits must be an OrbitLimits or None, not {limits!r}")
    return (DEFAULT_LIMITS if limits is None else limits).max_nodes


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
        except json.JSONDecodeError as exc:
            raise TraceMismatch(f"trace is not JSON: {exc}") from None
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
    _check_type(trace, "trace", MoveTrace)
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

# The one memo: max_nodes -> {key: one flat tuple}, the key of a word
# being the one diagram._least_rotation builds in its rank scan: the
# canonical rotation's partner offsets, then its sign bytes.  An entry
# is a head or a link, never both.  A word of a minimal diagram's FR3
# orbit maps to its head (itself, class word): the word labeled as its
# canonical code reads, and the orbit's least word by
# canonical_sort_key, which names the class.  These are the only
# labeled words the memo holds.  Any
# other word w that a reduction passes through maps to its link (next
# key, m1, r1, ..., mk, rk): the moves the reduction takes from w (an
# FR3 path, possibly empty, then one decreasing move), each applying to
# the canonical rotation of its pre-move diagram and each result
# canonicalizing at rotation offset r; the next key, the same bytes
# object as its dict key, is the last result's.  Entries hold shared
# objects, not copies: each head label of an orbit word is
# diagram._NEG's int, the class word is the one object every head of
# its orbit holds, and each FR1/FR2 move of a link (or of a certificate)
# is the one Move that moves._move hands out for its value.  The path
# from a canonical word depends only on the word and the budget, so a
# link is exact.  Policy: a reduction stops at the first entry it finds,
# writes each link after its next word's entry, and reads its head and
# links back with _chain, the one reader that follows links.  Only
# _reduce_word reads or writes entries; catalog._records scans orbits
# itself and leaves the memo as it found it.  One dict per budget means
# an entry found under one --max-orbit never answers a call under
# another.  _reduce_word takes its budget's dict once per call with
# setdefault, which is atomic, so racing callers lose no writes; values
# are pure, so racing writers are harmless.
_memo: dict = {}


def _scan_orbit(start: tuple[int, ...], back: list[int], max_nodes: int, find_decreasing: bool):
    """Deterministic BFS over FR3 neighbors keyed by canonical word;
    ``start`` must be a canonical word, labeled, and ``back`` holds its
    partner offsets.

    Each discovered word maps to (predecessor, move, offset, offsets,
    key): the move applies to the predecessor, its result canonicalizes
    at that rotation offset, and the last two items are the word's
    partner offsets and memo key, both from the ``_canonical`` call that
    discovered it.
    With find_decreasing, every node but the start is checked on
    discovery, and the scan stops at the first node admitting a
    decreasing site, returning (pred, node, move) with move the first site
    `moves._decreasing_sites` finds on the node's offsets.  Otherwise
    returns (pred, None, None) with pred covering the whole orbit.  The
    start word is not checked: both callers that look for a
    decreasing site already know it has none (`_reduce_word` checks it
    first, and `catalog._records` scans only words that
    `catalog._orderly_words(n, reduced=True)` yields, each with no
    decreasing site).

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
    layer = [start]
    expanded = 0
    while layer:
        nxt = []
        if len(layer) > 1:
            layer.sort(key=canonical_sort_key)
        for w in layer:
            expanded += 1
            link = pred[w]
            if link is None:
                sites, skip = start_sites, None
            else:
                _, via, r, w_back, _ = link
                a, b, c = sorted((p - r) % size for p in via.positions[0::2])
                skip = (a, a + 1, b, b + 1, c, (c + 1) % size)
                sites = mv._fr3_sites(w, w_back)
            for m in sites:
                if m.positions == skip:
                    continue
                nw, r, nw_back, nw_key = _canonical(mv._perform(w, m))
                if nw in pred:
                    continue
                if len(pred) >= max_nodes:
                    raise OrbitBudgetExceeded(
                        f"FR3 orbit of {serialize(_trusted(start))} exceeds the "
                        f"{max_nodes}-node budget (nodes explored: {len(pred)}, "
                        f"expanded: {expanded})"
                    )
                pred[nw] = (w, m, r, nw_back, nw_key)
                nxt.append(nw)
                if find_decreasing:
                    dec = next(mv._decreasing_sites(nw, nw_back), None)
                    if dec is not None:
                        return pred, nw, dec
        layer = nxt
    return pred, None, None


def _path_from_pred(pred: dict, target: tuple[int, ...]) -> tuple:
    """The BFS path to target as one flat tuple (m1, r1, ..., mk, rk)."""
    path = []
    w = target
    while pred[w] is not None:
        w, m, r = pred[w][:3]
        path += (r, m)
    path.reverse()
    return tuple(path)


def fr3_orbit(d: GaussDiagram, limits: OrbitLimits | None = None) -> tuple[str, ...]:
    """BFS closure of d under FR3 moves: the sorted tuple of canonical
    codes in the orbit."""
    _check_diagram(d, "d")
    start, back, _ = d._canon
    pred, _, _ = _scan_orbit(start, back, _max_nodes(limits), find_decreasing=False)
    return tuple(serialize(_trusted(w)) for w in sorted(pred, key=canonical_sort_key))


# ---------------------------------------------------------------------------
# monotone reduction
# ---------------------------------------------------------------------------

def _reduce_word(d: GaussDiagram, max_nodes: int) -> tuple:
    """(minimal word, class word, links) of d (`_chain`): the canonical
    word of a reached minimal diagram, whose crossing number is half its
    length, the least word of its FR3 orbit, which names the class, and
    the memo's links, in order, from d's canonical word down to the
    minimal word.

    The one reduction loop.  It starts from d's canonical word, its
    partner offsets and its key, all three read from `GaussDiagram._canon`.
    Each step takes the current word's first decreasing site, or when it
    has none, scans its FR3 orbit for the first node with one; a scan
    that finds none ends the reduction.  The working word is never
    relabeled: its sites are read from its signs and partner offsets, the
    step performs the decreasing move with ``moves._perform``, without
    apply's legality check (the move is one the enumerator found), and the
    result's canonical rotation, offsets and key come from one
    `diagram._least_rotation` call.  Every word is looked up by its key.
    Only a scan's start is relabeled, by `diagram._first_appearance`,
    since the scan orders its nodes by `canonical_sort_key`, and d's
    canonical word is relabeled already, so a scan from it relabels
    nothing; the words of a minimal orbit are entered labeled, each under
    the key the scan found it with.  A step whose site lies on the
    current word links straight to the next word's key; one that scanned
    links through the scan's FR3 path.  It stops at the first memo entry it finds, writes the link of
    every word it left, the last one first (see ``_memo``), and reads the
    answer back from the start key.
    """
    memo = _memo.setdefault(max_nodes, {})
    word, back, key = d._canon
    start_key = key
    trail = []
    while key not in memo:
        node, path = word, ()
        m = next(mv._decreasing_sites(word, back), None)
        if m is None:
            start = _first_appearance(word) if trail else word
            pred, node, m = _scan_orbit(start, back, max_nodes, find_decreasing=True)
            if node is None:
                cls = min(pred, key=canonical_sort_key)
                for w, link in pred.items():
                    memo[key if link is None else link[4]] = (w, cls)
                break
            path = _path_from_pred(pred, node)
        word, r, back, nxt = _least_rotation(mv._perform(node, m))
        trail.append((key, (nxt, *path, m, r)))
        key = nxt
    for k, link in reversed(trail):
        memo[k] = link
    return _chain(memo, start_key)


def _chain(memo: dict, key: bytes) -> tuple:
    """(minimal word, class word, links) of key in one budget's memo
    dict: the links stored from key on, in order, and the head of the
    entry the last one leads to."""
    links = []
    value = memo[key]
    while len(value) > 2:  # a link holds a move; a head is two items
        links.append(value)
        value = memo[value[0]]
    return *value, links


def monotone_reduce(
    d: GaussDiagram, limits: OrbitLimits | None = None
) -> tuple[GaussDiagram, MoveTrace]:
    """Reduce to a minimal crossing diagram using only FR3 and decreasing
    FR1/FR2 moves; the trace replays start-to-end over canonical forms."""
    _check_diagram(d, "d")
    min_word, _, links = _reduce_word(d, _max_nodes(limits))
    steps = tuple(m for link in links for m in link[1::2])
    minimal = _trusted(min_word)
    return minimal, MoveTrace(canonical_form(d), steps, serialize(minimal))


def crossing_number(d: GaussDiagram, limits: OrbitLimits | None = None) -> int:
    """Least arrow count over the diagrams equivalent to d: half the
    length of the minimal word d reduces to."""
    _check_diagram(d, "d")
    return len(_reduce_word(d, _max_nodes(limits))[0]) // 2


def minimal_class_code(d: GaussDiagram, limits: OrbitLimits | None = None) -> str:
    """Complete flat-knot invariant: the least canonical code over the FR3
    orbit of a reached minimal diagram."""
    _check_diagram(d, "d")
    return serialize(_trusted(_reduce_word(d, _max_nodes(limits))[1]))


def _reversed_steps(links, post: int) -> list[mv.Move]:
    """Inverse steps of stored links, in reverse order, with positions
    translated into the canonical frame replay uses; ``post`` is the size
    of the word the links end at.  A link's moves all start at the size
    of its word, which is its next word's size less twice its decreasing
    move's delta, and the next word of the link before is that word; so
    with each move's offset, nothing is applied.  FR1 and FR2 steps are
    the shared moves of `moves._move`."""
    out = []
    for link in reversed(links):
        size = post - 2 * link[-2].delta  # every move of a link starts at this size
        for i in range(len(link) - 2, 0, -2):
            inv = mv._invert(link[i], size)
            r = link[i + 1]
            if r:  # an inverse's positions already lie in 0..post - 1
                positions = tuple([(p - r) % post for p in inv.positions])
                inv = mv._move(inv.kind, inv.variant, positions)
            out.append(inv)
            post = size
    return out


def _trace(m1, links1, m2, links2, max_nodes: int) -> tuple[mv.Move, ...]:
    """Moves from the canonical word of one input to that of another of
    the same class, from the minimal word and links `_reduce_word` gave
    each under max_nodes: the first's links down to m1, an FR3 path from
    m1 to m2, and the second's links inverted."""
    steps = [m for link in links1 for m in link[1::2]]
    # equal minimal words need no bridge, and their orbit was scanned
    # under this budget when it was memoized, so no budget error is lost
    if m1 != m2:
        pred, _, _ = _scan_orbit(m1, _offsets(m1), max_nodes, find_decreasing=False)
        steps += _path_from_pred(pred, m2)[0::2]
    steps += _reversed_steps(links2, len(m2))
    return tuple(steps)


def equivalent(
    d1: GaussDiagram,
    d2: GaussDiagram,
    limits: OrbitLimits | None = None,
    with_certificate: bool = False,
):
    """Decide flat equivalence.  With with_certificate, returns
    (bool, MoveTrace | None); the certificate runs d1 -> minimal(d1) ->
    minimal(d2) -> d2.

    After the argument checks, a pair whose u-polynomials differ is
    refuted at once (False, or (False, None)): neither diagram is
    canonicalized or reduced, no orbit is searched, so no budget is
    exceeded, and no memo entry is written.  Only a pair with equal
    u-polynomials is reduced and compared by class word."""
    _check_diagram(d1, "d1")
    _check_diagram(d2, "d2")
    _check_flag(with_certificate, "with_certificate")
    max_nodes = _max_nodes(limits)
    if _u_terms(d1.word) != _u_terms(d2.word):
        return (False, None) if with_certificate else False
    m1, cls1, links1 = _reduce_word(d1, max_nodes)
    m2, cls2, links2 = _reduce_word(d2, max_nodes)
    verdict = cls1 == cls2
    if not with_certificate:
        return verdict
    if not verdict:
        return verdict, None
    steps = _trace(m1, links1, m2, links2, max_nodes)
    return verdict, MoveTrace(canonical_form(d1), steps, canonical_form(d2))
