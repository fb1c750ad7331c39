"""Exhaustive enumeration and tabulation of flat knot classes.

Diagrams with n arrows are generated as all chord pairings times every
direction assignment that puts a tail at position 0, streamed through a
self-canonical filter so each rotation/relabel class appears exactly
once; a canonical word starts with a tail, so head-first candidates are
never built.  With `reduced=True` the generator also skips every
pairing with a chord between cyclically adjacent points (an FR1 site in
every direction assignment) and drops every survivor with an FR2
removal site, so it yields exactly the diagrams with no decreasing
move.  Classification reduces only those: a diagram with a decreasing
move has crossing number below n and can never give a record.  It keeps
the irreducible ones (crossing number exactly n) and groups them into
FR3 orbits; one record per orbit.  Classes are oriented flat knot
classes: no mirror or reversal quotient is applied, and the file header
says so.
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Iterator

from .compose import _minimal_verdict
from .diagram import GaussDiagram, _trusted, canonical_sort_key, canonical_word, serialize
from .invariants import u_polynomial
from .moves import enumerate_fr2_decreasing
from .reduce import OrbitLimits, _full_orbit, _reduce_word, DEFAULT_LIMITS


# (2n - 1)!! pairings times 2^(n - 1) directions: 332,640 candidates at
# n = 6 and 6.5e14 at n = 12, so no larger run could finish; the bound
# makes a mistyped n an input error, not a huge index range
_MAX_ARROWS = 12


@dataclass(frozen=True)
class CatalogRecord:
    class_id: int
    code: str
    cr: int
    u_text: str
    verdict: str  # T, P, or C
    orbit_size: int


def _pairings(points: tuple[int, ...]) -> Iterator[list[tuple[int, int]]]:
    if not points:
        yield []
        return
    first = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1 :]
        for sub in _pairings(rest):
            yield [(first, points[i])] + sub


def enumerate_diagrams(n: int, *, reduced: bool = False) -> Iterator[GaussDiagram]:
    """Every diagram with exactly n arrows, 0 <= n <= 12, once per
    rotation/relabel class (those whose word equals its own canonical
    form).

    With reduced=True, only those with no decreasing FR1 or FR2 site,
    in the same order."""
    if not 0 <= n <= _MAX_ARROWS:
        raise ValueError(f"n must be between 0 and {_MAX_ARROWS}")
    size = 2 * n
    for pairing in _pairings(tuple(range(size))):
        # a chord between cyclically adjacent points, (p, p + 1) or
        # (0, size - 1), is an FR1 site in every direction assignment
        if reduced and any(q - p in (1, size - 1) for p, q in pairing):
            continue
        # pairs come out ordered by first endpoint, matching
        # first-appearance labels; bit 0 set would put arrow 1's head at
        # position 0, and a canonical word starts with a tail
        for bits in range(0, 1 << n, 2):
            word = [0] * size
            for label, (p, q) in enumerate(pairing, start=1):
                if bits >> (label - 1) & 1:
                    word[p], word[q] = -label, label
                else:
                    word[p], word[q] = label, -label
            wt = tuple(word)
            if canonical_word(wt) == wt:
                d = _trusted(wt)
                if not (reduced and enumerate_fr2_decreasing(d)):
                    yield d


def classify(n: int, limits: OrbitLimits | None = None) -> list[CatalogRecord]:
    """Reduce every n-arrow diagram with no decreasing site, keep the
    irreducible ones, and emit one record per FR3 orbit.  A diagram with
    a decreasing site has crossing number below n, so skipping it loses
    no class.  Each orbit member is minimal, so its representative's
    verdict needs no second reduction."""
    max_nodes = (limits or DEFAULT_LIMITS).max_nodes
    classes: dict[tuple[int, ...], int] = {}
    for d in enumerate_diagrams(n, reduced=True):
        min_word = _reduce_word(d.word, max_nodes)
        if len(min_word) // 2 != n:
            continue
        orbit = _full_orbit(min_word, max_nodes)
        classes.setdefault(orbit[0], len(orbit))
    records = []
    for class_id, key in enumerate(sorted(classes, key=canonical_sort_key), start=1):
        rep = _trusted(key)
        verdict = _minimal_verdict(rep).verdict[0].upper()
        records.append(
            CatalogRecord(
                class_id,
                serialize(rep),
                n,
                str(u_polynomial(rep)),
                verdict,
                classes[key],
            )
        )
    return records


def catalog_text(records, n: int) -> str:
    """The catalog as text: a header line, then one line per record.
    Both `write_catalog` and `tabulate`'s text output use it."""
    lines = [f"flatcat v1 n={n} quotient=oriented"]
    lines.extend(
        f"class={r.class_id} code={r.code} cr={r.cr} "
        f"u={r.u_text} verdict={r.verdict} orbit={r.orbit_size}"
        for r in records
    )
    return "\n".join(lines) + "\n"


def write_catalog(records, path: str, n: int) -> None:
    """Atomic write: temp file in the same directory, then rename.  An
    OSError names the given path, never the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".flatcat-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(catalog_text(records, n))
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
