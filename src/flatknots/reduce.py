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
    canonical_form,
    canonical_rotation,
    canonical_sort_key,
    canonical_word,
    parse,
    serialize,
)
from .invariants import u_polynomial


class OrbitBudgetExceeded(RuntimeError):
    """The FR3 orbit search hit its node budget before completing."""


class TraceMismatch(ValueError):
    """A trace does not replay to its recorded end code."""


@dataclass(frozen=True)
class OrbitLimits:
    max_nodes: int = 1_000_000

    def __post_init__(self):
        if self.max_nodes < 1:
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

    def to_json_obj(self) -> dict:
        return {
            "format": "flatknots-trace v1",
            "start": self.start,
            "steps": [m.to_record() for m in self.steps],
            "end": self.end,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MoveTrace":
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

    @classmethod
    def from_json(cls, text: str) -> "MoveTrace":
        return cls.from_json_obj(json.loads(text))


def replay_trace(trace: MoveTrace) -> GaussDiagram:
    """Replay steps from the start code, canonicalizing between steps;
    raises SiteMismatch on a bad step and TraceMismatch on a bad end."""
    cur = canonical_word(parse(trace.start).word)
    for m in trace.steps:
        nxt = mv.apply(GaussDiagram(cur), m)
        cur = canonical_word(nxt.word)
    result = GaussDiagram(cur)
    if serialize(result) != trace.end:
        raise TraceMismatch(f"trace replays to {serialize(result)!r}, not {trace.end!r}")
    return result


# ---------------------------------------------------------------------------
# FR3 orbit search
# ---------------------------------------------------------------------------

# caches keyed by (word, max_nodes); results are pure values, so racing
# writers are harmless
_orbit_sets: dict = {}
_reduce_values: dict = {}


def _scan_orbit(start: tuple[int, ...], max_nodes: int, find_decreasing: bool):
    """Deterministic BFS over FR3 neighbors keyed by canonical word.

    With find_decreasing, nodes are checked on discovery (start excluded)
    and the scan stops at the first node admitting a decreasing site,
    returning (pred, node, move).  Otherwise returns (pred, None, None)
    with pred covering the whole orbit.
    """
    pred: dict = {start: None}
    layer = [start]
    expanded = 0
    while layer:
        nxt = []
        for w in sorted(layer, key=canonical_sort_key):
            rep = GaussDiagram(w)
            expanded += 1
            for m in mv.enumerate_fr3(rep):
                nw = canonical_word(mv.apply(rep, m).word)
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
                    dec = mv.enumerate_decreasing(GaussDiagram(nw))
                    if dec:
                        return pred, nw, dec[0]
        layer = nxt
    return pred, None, None


def _full_orbit(word: tuple[int, ...], max_nodes: int) -> frozenset:
    key = (word, max_nodes)
    got = _orbit_sets.get(key)
    if got is not None:
        return got
    pred, _, _ = _scan_orbit(word, max_nodes, find_decreasing=False)
    orbit = frozenset(pred)
    for w in orbit:
        _orbit_sets[(w, max_nodes)] = orbit
    return orbit


def _path_from_pred(pred: dict, target: tuple[int, ...]) -> list[mv.Move]:
    chain = []
    w = target
    while pred[w] is not None:
        prev, m = pred[w]
        chain.append(m)
        w = prev
    chain.reverse()
    return chain


def fr3_orbit(d: GaussDiagram, limits: OrbitLimits | None = None):
    """BFS closure of d under FR3 moves.

    Returns (codes, pred): the sorted tuple of canonical codes in the
    orbit and a predecessor map code -> (previous code, move) with None
    at the start code.
    """
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    start = canonical_word(d.word)
    pred, _, _ = _scan_orbit(start, max_nodes, find_decreasing=False)
    codes = tuple(
        serialize(GaussDiagram(w)) for w in sorted(pred, key=canonical_sort_key)
    )
    pred_codes = {}
    for w, entry in pred.items():
        code = serialize(GaussDiagram(w))
        if entry is None:
            pred_codes[code] = None
        else:
            prev, m = entry
            pred_codes[code] = (serialize(GaussDiagram(prev)), m)
    return codes, pred_codes


# ---------------------------------------------------------------------------
# monotone reduction
# ---------------------------------------------------------------------------

def _reduce_word(word: tuple[int, ...], max_nodes: int) -> tuple[tuple[int, ...], int]:
    """Canonical word of a reached minimal diagram, and its crossing count."""
    cache = _reduce_values
    cur = canonical_word(word)
    trail = []
    while True:
        hit = cache.get((cur, max_nodes))
        if hit is not None:
            result = hit
            break
        trail.append(cur)
        rep = GaussDiagram(cur)
        dec = mv.enumerate_decreasing(rep)
        if dec:
            cur = canonical_word(mv.apply(rep, dec[0]).word)
            continue
        pred, node, m = _scan_orbit(cur, max_nodes, find_decreasing=True)
        if node is None:
            orbit = frozenset(pred)
            for w in orbit:
                _orbit_sets[(w, max_nodes)] = orbit
                cache[(w, max_nodes)] = (w, len(w) // 2)
            result = (cur, len(cur) // 2)
            break
        cur = canonical_word(mv.apply(GaussDiagram(node), m).word)
    for w in trail:
        cache[(w, max_nodes)] = result
    return result


def monotone_reduce(
    d: GaussDiagram, limits: OrbitLimits | None = None
) -> tuple[GaussDiagram, MoveTrace]:
    """Reduce to a minimal crossing diagram using only FR3 and decreasing
    FR1/FR2 moves; the trace replays start-to-end over canonical forms."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    start = canonical_word(d.word)
    steps: list[mv.Move] = []
    cur = start
    while True:
        rep = GaussDiagram(cur)
        dec = mv.enumerate_decreasing(rep)
        if dec:
            steps.append(dec[0])
            cur = canonical_word(mv.apply(rep, dec[0]).word)
            continue
        pred, node, m = _scan_orbit(cur, max_nodes, find_decreasing=True)
        if node is None:
            orbit = frozenset(pred)
            for w in orbit:
                _orbit_sets[(w, max_nodes)] = orbit
                _reduce_values[(w, max_nodes)] = (w, len(w) // 2)
            break
        steps.extend(_path_from_pred(pred, node))
        steps.append(m)
        cur = canonical_word(mv.apply(GaussDiagram(node), m).word)
    minimal = GaussDiagram(cur)
    trace = MoveTrace(serialize(GaussDiagram(start)), tuple(steps), serialize(minimal))
    return minimal, trace


def crossing_number(d: GaussDiagram, limits: OrbitLimits | None = None) -> int:
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    return _reduce_word(d.word, max_nodes)[1]


def is_minimal(d: GaussDiagram, limits: OrbitLimits | None = None) -> bool:
    """True iff no member of the FR3 orbit admits a decreasing site."""
    return crossing_number(d, limits) == d.n


def minimal_class_code(d: GaussDiagram, limits: OrbitLimits | None = None) -> str:
    """Complete flat-knot invariant: the least canonical code over the FR3
    orbit of a reached minimal diagram."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    min_word, _ = _reduce_word(d.word, max_nodes)
    orbit = _full_orbit(min_word, max_nodes)
    return serialize(GaussDiagram(min(orbit, key=canonical_sort_key)))


def _reversed_steps(start_word: tuple[int, ...], steps) -> list[mv.Move]:
    """Inverse steps, in reverse order, with positions translated into the
    canonical frame replay uses."""
    records = []
    cur = start_word
    for m in steps:
        rep = GaussDiagram(cur)
        post = mv.apply(rep, m)
        records.append((len(cur), m, post.word))
        cur = canonical_word(post.word)
    out = []
    for pre_size, m, post_literal in reversed(records):
        inv = mv.inverse(m, pre_size)
        length = len(post_literal)
        if length:
            r = canonical_rotation(post_literal)
            inv = mv.Move(
                inv.kind, inv.variant, tuple((p - r) % length for p in inv.positions)
            )
        out.append(inv)
    return out


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
    m1, cr1 = _reduce_word(d1.word, max_nodes)
    m2, cr2 = _reduce_word(d2.word, max_nodes)
    verdict = False
    if cr1 == cr2 and u_polynomial(d1) == u_polynomial(d2):
        verdict = m2 in _full_orbit(m1, max_nodes)
    if not with_certificate:
        return verdict
    if not verdict:
        return False, None
    _, trace1 = monotone_reduce(d1, limits)
    _, trace2 = monotone_reduce(d2, limits)
    pred, _, _ = _scan_orbit(m1, max_nodes, find_decreasing=False)
    bridge = _path_from_pred(pred, m2)
    back = _reversed_steps(canonical_word(d2.word), trace2.steps)
    cert = MoveTrace(
        trace1.start,
        tuple(trace1.steps) + tuple(bridge) + tuple(back),
        canonical_form(d2),
    )
    return True, cert
