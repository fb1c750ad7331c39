"""Move-invariant fingerprints: per-arrow index and the u-polynomial.

For an arrow e, walk the open arc from its head to its tail along the
circle orientation.  Every arrow f interlaced with e (exactly one
endpoint on that arc) contributes +1 if its tail lies on the arc and -1
if its head does; the total is the index n(e).  The u-polynomial collects
sign(n(e)) * t^|n(e)| over arrows with nonzero index.  It is unchanged by
every legal move, which makes it the external cross-check for the move
catalogs.  It is not complete, and equivalence is decided without it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagram import GaussDiagram


class UnknownArrow(ValueError):
    pass


@dataclass(frozen=True)
class UPolynomial:
    """Sparse integer polynomial in t; terms are (exponent, coefficient)
    pairs, ascending, exponents >= 1, no zero coefficients."""

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "UPolynomial":
        terms = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0))
        if any(k < 1 for k, _ in terms):
            raise ValueError("u-polynomial exponents must be >= 1")
        return cls(terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.terms:
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{sign}{mag}t^{k}")
        return "".join(parts)


def arrow_index(d: GaussDiagram, arrow: int) -> int:
    """Signed count of arrows interlaced with the given arrow."""
    if not 1 <= arrow <= d.n or arrow not in d.word:
        raise UnknownArrow(f"no arrow {arrow} in this diagram")
    word, size = d.word, d.size
    tail, head = d.arrow_endpoints(arrow)
    arc_len = (tail - head - 1) % size
    inside = [word[(head + 1 + i) % size] for i in range(arc_len)]
    counts: dict[int, list[int]] = {}
    for t in inside:
        counts.setdefault(abs(t), []).append(t)
    total = 0
    for a, tokens in counts.items():
        if a != arrow and len(tokens) == 1:
            total += 1 if tokens[0] > 0 else -1
    return total


def u_polynomial(d: GaussDiagram) -> UPolynomial:
    coeffs: dict[int, int] = {}
    for arrow in range(1, d.n + 1):
        idx = arrow_index(d, arrow)
        if idx:
            exp = abs(idx)
            coeffs[exp] = coeffs.get(exp, 0) + (1 if idx > 0 else -1)
    return UPolynomial.from_dict(coeffs)
