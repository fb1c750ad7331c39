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

from .diagram import GaussDiagram, _check_diagram, _check_int, _check_type


class UnknownArrow(ValueError):
    pass


@dataclass(frozen=True)
class UPolynomial:
    """Sparse integer polynomial in t; terms are (exponent, coefficient)
    pairs, ascending, exponents >= 1, no zero coefficients."""

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "UPolynomial":
        _check_type(coeffs, "coeffs", dict)
        for k in coeffs:
            _check_int(k, "u-polynomial exponents", 1)
        return cls(tuple(sorted((k, c) for k, c in coeffs.items() if c != 0)))

    def __str__(self) -> str:
        return _terms_text(self.terms)


def _terms_text(terms) -> str:
    """Text of (exponent, coefficient) terms in ascending order, "0" when
    there are none: `UPolynomial.__str__`, and the u-text of a catalog
    record made without building a `UPolynomial`."""
    parts = []
    for k, c in terms:
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(f"{sign}{mag}t^{k}")
    return "".join(parts) or "0"


def _indices(word: tuple[int, ...]) -> list[int]:
    """Index of every arrow of a word, by label (entry 0 unused).

    An arrow with both endpoints on an arc adds +1 and -1 there, so the
    index is the plain signed sum of the arc [head + 1, tail).  With s(i)
    the sum of the signs before position i, that is s(tail) - s(head + 1),
    and the same across the wrap, because s(size) = 0.  One pass adds
    s(tail) at each tail and subtracts s(head + 1) at each head."""
    idx = [0] * (len(word) // 2 + 1)
    s = 0
    for t in word:
        if t > 0:
            idx[t] += s
            s += 1
        else:
            s -= 1
            idx[-t] -= s
    return idx


def arrow_index(d: GaussDiagram, arrow: int) -> int:
    """Signed count of arrows interlaced with the given arrow."""
    _check_diagram(d, "d")
    if not isinstance(arrow, int) or isinstance(arrow, bool) or not 1 <= arrow <= d.n:
        raise UnknownArrow(f"no arrow {arrow!r} in this diagram")
    return _indices(d.word)[arrow]


def _u_terms(word: tuple[int, ...]) -> list[tuple[int, int]]:
    """The u-polynomial's terms, ascending, from one pass over the word
    (see `_indices`).  An index lies in -(n - 1)..n - 1, so the
    coefficients fit a list by exponent."""
    idx = _indices(word)
    coeffs = [0] * len(idx)
    for i in idx:
        if i > 0:
            coeffs[i] += 1
        elif i:
            coeffs[-i] -= 1
    return [(k, c) for k, c in enumerate(coeffs) if c]


def u_polynomial(d: GaussDiagram) -> UPolynomial:
    """sign(n(e)) * t^|n(e)| summed over the arrows (see `_u_terms`)."""
    _check_diagram(d, "d")
    return UPolynomial(tuple(_u_terms(d.word)))
