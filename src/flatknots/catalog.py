"""Exhaustive enumeration and tabulation of flat knot classes.

Diagrams with n arrows are generated by one orderly generator: each word
is built left to right in first-appearance labels, starting with a tail,
and a prefix is cut as soon as some rotation of it already encodes below
it.  When a word is complete, the rotations that still tie with it are
compared through the word's end, so the generator yields exactly the
words that are their own canonical form, each rotation/relabel class
once, in `canonical_sort_key` order, and no word is canonicalized after
it is built.  With `reduced=True` the generator also cuts every prefix
with an FR1 site or a placed FR2 site, and drops a complete word whose
wrap block is an FR2 site, so it yields exactly the diagrams with no
decreasing move.  Classification scans the FR3 orbits of only those: a
diagram with a decreasing move has crossing number below n and can
never give a record.  One record per orbit with no decreasing site; the
reduction memo is left untouched.  Records stream in batches: the
words are scanned `_BATCH` at a time, then the batch's records are made
and yielded, since going back and forth between the generator's deep
chain of `yield from` and the scans for every single word slows both.
Of the words the scans reach only those the generator has not yielded
yet are kept, so memory grows with one batch, not with the class count.
Each record costs one pass over its word per question: the
u-polynomial from prefix sums of endpoint signs, the verdict from the
first split of the prefix XOR masks.  Classes are
oriented flat knot classes: no mirror or reversal quotient is applied,
and the file header says so.
"""
from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .diagram import (
    GaussDiagram, _check_flag, _check_int, _first_split, _trusted, canonical_sort_key, serialize
)
from .invariants import _terms_text, _u_terms
from .reduce import OrbitLimits, _max_nodes, _scan_orbit


# there are about (2n - 1)!! 2^n / 2n diagrams, 5.4e13 at n = 12 (the
# generator completes 77,296 words for 55,540 at n = 6), so no larger run
# could finish; the bound makes a mistyped n an input error, not a run
# that never ends
_MAX_ARROWS = 12

# words `_records` takes from the generator at a time (see there)
_BATCH = 64


@dataclass(frozen=True)
class CatalogRecord:
    class_id: int
    code: str
    cr: int
    u_text: str
    verdict: str  # T, P, or C
    orbit_size: int


def _orderly_words(n: int, reduced: bool) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(word, its partner offsets) for every n-arrow word equal to its
    own canonical form, in `canonical_sort_key` order; with reduced=True,
    only those with no decreasing FR1 or FR2 site.  No word is
    canonicalized or searched for a site after it is built.  The offsets
    are those `diagram._offsets` gives, set two at a time as each arrow
    closes, so a word's orbit scan needs no `_offsets` call.

    Each word is built left to right in first-appearance labels,
    starting with a tail.  A prefix is cut when some rotation starting at
    a tail already encodes below rotation 0 on the positions placed.  The
    comparison goes by `diagram._canonical`'s rank (-b for an endpoint
    whose partner lies b positions back, else 0 for a tail, 1 for a
    head), so rotation 0's ranks are stored and a rotation that ranks
    above rotation 0 is no longer followed; `_completes` finishes the
    comparison through the word's end.  With reduced=True a prefix is
    also cut at an FR1 site (an arrow closed right after its first
    endpoint, or arrow 1 closed at the last position) and at an FR2 site
    between two blocks already placed: by `moves._removal_at`'s rule, a
    block (a0, a1) of two returns that mixes a tail and a head is one
    when back[a1] - back[a0] is 0 or 2.  `_completes` checks the one
    block no prefix holds, the wrap."""
    size = 2 * n
    word = [0] * size
    back = [0] * size  # partner offset of each closed endpoint
    rank0 = [0] * size  # rotation 0's rank at each offset

    def extend(k, labels, open_at, kept):
        if k == size:
            if _completes(word, back, rank0, kept, reduced):
                yield tuple(word), back[:]
            return
        u = word[k - 1]
        bu = -rank0[k - 1]  # u's partner offset when u returns, else at most 0
        # (endpoint, partner position or -1 for a new arrow) in ascending
        # code order: returns by label, then a new tail, then a new head;
        # open_at holds the open arrows' first positions, in label order
        choices = []
        for p in open_at:
            if reduced and (p == k - 1 or (p == 0 and k == size - 1)):
                continue
            if reduced and bu > 0 and (u > 0) != (word[p] < 0) and (k - p) - bu in (0, 2):
                continue
            choices.append((-word[p], p))
        if labels < n and len(open_at) < size - k - 1:
            choices.append((labels + 1, -1))
            choices.append((-labels - 1, -1))
        for t, p in choices:
            rank = p - k if p >= 0 else t < 0
            # kept: tail positions r whose rotation encodes like rotation 0
            # so far; position k sits at its offset k - r
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
                    back[k], back[p] = k - p, size - k + p
                    rest = open_at.copy()
                    rest.remove(p)
                    yield from extend(k + 1, labels, rest, next_kept)
                else:
                    yield from extend(k + 1, labels + 1, open_at + [k], next_kept)

    if n == 0:
        yield (), []
        return
    word[0] = 1
    yield from extend(1, 1, [0], [])


def _completes(word, back, rank0, kept, reduced) -> bool:
    """Whether a word `_orderly_words` has just completed is yielded.

    Each rotation r still in `kept` has encoded like rotation 0 on
    positions r..size-1; position j < r sits at its offset
    i = size - r + j, and returns when its partner offset is at most i.
    A rank below rotation 0's rejects the word, a rank above drops r, and
    a rotation equal all the way through is a symmetry of the word.  With
    reduced=True the wrap block (size - 1, 0) must not be an FR2 site:
    word[0] is arrow 1's tail, which never closes at the last position,
    so the block mixes two arrows exactly when word[-1] is a head."""
    size = len(word)
    if reduced and word[-1] < 0 and back[0] - back[-1] in (0, 2):
        return False
    for r in kept:
        for j in range(r):
            b = back[j]
            i = size - r + j
            rank = -b if b <= i else word[j] < 0
            c = rank0[i]
            if rank != c:
                if rank < c:
                    return False
                break
    return True


def enumerate_diagrams(n: int, *, reduced: bool = False) -> Iterator[GaussDiagram]:
    """Every diagram with exactly n arrows, 0 <= n <= 12, once per
    rotation/relabel class (those whose word equals its own canonical
    form), in `canonical_sort_key` order of their words.

    With reduced=True, only those with no decreasing FR1 or FR2 site,
    in the same order.  The generator builds exactly these words, so
    none is canonicalized or searched for a site here; the partner
    offsets it also hands on are dropped."""
    _check_int(n, "n", 0, _MAX_ARROWS)
    _check_flag(reduced, "reduced")
    for wt, _ in _orderly_words(n, reduced):
        yield _trusted(wt)


def _records(n: int, limits: OrbitLimits | None) -> Iterator[CatalogRecord]:
    """`classify`'s records, made a batch at a time: `_BATCH` words are
    taken from the generator and scanned in order, then the records of
    the batch's minimal orbits are made and yielded.  Going back and
    forth between the generator's chain of `yield from`, one level per
    position, and the other stages for every single word slows the scans
    and the records alike, so the words come in batches; memory grows
    with one batch, not with the class count.

    The words and their partner offsets come straight from
    `_orderly_words(n, reduced=True)`, so a scan starts with no
    `_offsets` call.  Only the reached words the generator has not
    yielded yet are kept, in `ahead`.  The generator yields each reduced
    canonical word once, in `canonical_sort_key` order, and every word of
    a scan's `pred` but the returned node is such a word: the start
    passed the generator, and the scan checked each word it discovered.
    A minimal orbit's start is its least word, so the rest of the orbit
    is ahead of it; of an orbit the scan stopped in, only the words above
    the start are.  A word leaves `ahead` when the generator reaches it
    and is skipped there, so the same scans run, from the same starts and
    in the same order, as if every reached word were kept.  A scan over
    budget raises from inside its batch, before the batch's records are
    yielded: the same scan raises the same error as one word at a time.

    A record's fields are read off its class word directly: the u-text
    from `invariants._u_terms`, formatted as `UPolynomial.__str__`
    formats it once per distinct term tuple, and the verdict from
    `diagram._first_split`, as `compose._minimal_verdict` reads it."""
    _check_int(n, "n", 0, _MAX_ARROWS)
    max_nodes = _max_nodes(limits)
    ahead: set[tuple[int, ...]] = set()
    u_texts: dict[tuple[tuple[int, int], ...], str] = {}
    class_id = 0
    words = _orderly_words(n, True)
    while batch := list(islice(words, _BATCH)):
        minimal = []  # (class word, orbit size) of the batch's minimal orbits
        for start, back in batch:
            if start in ahead:
                ahead.remove(start)
                continue
            pred, node, _ = _scan_orbit(start, back, max_nodes, find_decreasing=True)
            if node is not None:
                key = canonical_sort_key(start)
                ahead.update(w for w in pred if w != node and canonical_sort_key(w) > key)
                continue
            if len(pred) > 1:
                ahead.update(pred)
                ahead.remove(start)
            minimal.append((start, len(pred)))
        for start, size in minimal:
            class_id += 1
            d = _trusted(start)
            terms = tuple(_u_terms(start))
            u_text = u_texts.get(terms)
            if u_text is None:
                u_text = u_texts[terms] = _terms_text(terms)
            verdict = "T" if n == 0 else ("P" if _first_split(d) is None else "C")
            yield CatalogRecord(class_id, serialize(d), n, u_text, verdict, size)


def classify(n: int, limits: OrbitLimits | None = None) -> list[CatalogRecord]:
    """Scan the FR3 orbit of every n-arrow diagram with no decreasing
    site that no earlier scan reached; one record per orbit the scan
    finds no decreasing site in.  Every word of such a minimal orbit is
    yielded, in `canonical_sort_key` order, so the word that starts its
    scan is the class word, and its verdict needs no reduction.

    The generator builds only words with no decreasing site, so the
    scan checks only the words it discovers.
    The record's u-polynomial and verdict each take one pass over the
    class word (`invariants._u_terms`, `diagram._first_split`).  The records
    are made by a generator that keeps only the reached words still ahead
    of it and scans `_BATCH` words before it makes their records
    (`_records`); `tabulate` streams them.  A budget error comes from the
    same scan as it would one word at a time."""
    return list(_records(n, limits))


def _header(n: int) -> str:
    return f"flatcat v1 n={n} quotient=oriented\n"


def _line(r: CatalogRecord) -> str:
    return (
        f"class={r.class_id} code={r.code} cr={r.cr} "
        f"u={r.u_text} verdict={r.verdict} orbit={r.orbit_size}\n"
    )


def write_catalog(records, path: str, n: int) -> None:
    """Write a header line, then one line per record, taken from `records`
    one at a time, to a temp file beside `path`, and rename it over `path`
    after the last record.  An item that is not a `CatalogRecord` raises
    a ValueError.  A new file gets the mode `open(path, "w")` would
    give (0o666 less the umask); a replaced file keeps its mode.  On any
    error, from the writing or from `records`, the temp file is removed,
    `path` is left as it was, and the error is re-raised; an OSError
    names `path`, never the temp file."""
    _check_int(n, "n", 0, _MAX_ARROWS)
    tmp = os.path.join(os.path.dirname(path), f".flatcat-{os.urandom(8).hex()}")
    fd = None
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_header(n))
            for r in records:
                if not isinstance(r, CatalogRecord):
                    raise ValueError(
                        f"a catalog item must be a CatalogRecord, not {type(r).__name__}"
                    )
                fh.write(_line(r))
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if fd is not None and os.path.exists(tmp):
            os.unlink(tmp)
