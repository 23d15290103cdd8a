"""The module presentation tV - V^T and the linking pairing it carries.

Pairing values live in Q(L)/L where L is the integer Laurent ring.  They
are kept as unreduced fractions (num, den) with den = det(V - tV^T); no
canonical residue exists when the leading coefficient of the Alexander
polynomial is not a unit, so equality is decided by cross-multiplied
divisibility instead.  The adjugate and determinant of V - tV^T come from
the integer pencil core in seifert (one substitution t = X for a large power
of two X, one fraction-free Gauss-Jordan elimination there, and each entry
read off as base-X digits); they are computed once per matrix and shared by every pairing of
that matrix.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .laurent import LaurentPoly, is_multiple
from .seifert import (
    SeifertMatrix,
    adjugate_laurent,
    alexander,
    det_laurent,
)

T_MINUS_1 = LaurentPoly({1: 1, 0: -1})


class TorsionFraction(namedtuple("TorsionFraction", ("num", "den"))):
    """A value num/den taken modulo the ring of Laurent polynomials."""

    __slots__ = ()

    def __new__(cls, num, den):
        if den.is_zero:
            raise ZeroDivisionError("torsion fraction with zero denominator")
        return super().__new__(cls, num, den)

    def bar(self) -> "TorsionFraction":
        return TorsionFraction(self.num.bar(), self.den.bar())

    def scale(self, factor: LaurentPoly) -> "TorsionFraction":
        return TorsionFraction(self.num * factor, self.den)

    def __str__(self):
        return f"{self.num} / {self.den}"


def fractions_equal(f: TorsionFraction, g: TorsionFraction) -> bool:
    """Equality in Q(L)/L: the cross difference must be a multiple of the
    product of denominators."""
    return is_multiple(f.num * g.den - g.num * f.den, f.den * g.den)


def _pairing_matrix_entries(V: SeifertMatrix):
    """Entries of V - tV^T, the matrix inverted by the pairing formula."""
    rows = V.rows
    return [
        [LaurentPoly({0: a, 1: -b}) for a, b in zip(row, col)]
        for row, col in zip(rows, zip(*rows))
    ]


@lru_cache(maxsize=1)
def _pencil_inverse(V: SeifertMatrix):
    """(adj, det) of V - tV^T, so (V - tV^T)^-1 = adj / det.

    Cached for the last matrix: the suites and gram_matrix pair many
    elements of one module in a row.  The adjugate is a tuple of tuples so
    that no caller can change the cached value.
    """
    rows = _pairing_matrix_entries(V)
    adj = tuple(tuple(row) for row in adjugate_laurent(rows))
    return adj, det_laurent(rows)


def _as_coords(v, n):
    coords = [c if isinstance(c, LaurentPoly) else LaurentPoly.const(c) for c in v]
    if len(coords) != n:
        raise ValueError(f"module element must have {n} coordinates")
    return coords


def pairing(V: SeifertMatrix, v, w) -> TorsionFraction:
    """The sesquilinear pairing v^T (t-1) (V - tV^T)^-1 bar(w) as an exact
    fraction with denominator det(V - tV^T)."""
    if V.size == 0:
        raise ValueError("the 0x0 matrix presents the trivial module")
    n = V.size
    v = _as_coords(v, n)
    w = _as_coords(w, n)
    adj, den = _pencil_inverse(V)
    wbar = [c.bar() for c in w]
    acc = LaurentPoly.zero()
    for i in range(n):
        if v[i].is_zero:
            continue
        row_sum = LaurentPoly.zero()
        for j in range(n):
            if not wbar[j].is_zero:
                row_sum = row_sum + adj[i][j] * wbar[j]
        acc = acc + v[i] * row_sum
    return TorsionFraction(T_MINUS_1 * acc, den)


def gram_matrix(V: SeifertMatrix):
    """All pairings of the standard generators, as a matrix of fractions."""
    if V.size == 0:
        raise ValueError("the 0x0 matrix presents the trivial module")
    adj, den = _pencil_inverse(V)
    n = V.size
    return [
        [TorsionFraction(T_MINUS_1 * adj[i][j], den) for j in range(n)]
        for i in range(n)
    ]


def _check_literal_border(outer: SeifertMatrix, inner: SeifertMatrix) -> int:
    """Verify outer = [[eps,0,0],[1,x,M],[0,N^T,inner]] and return eps."""
    m = outer.size
    if m != inner.size + 2:
        raise ValueError("outer matrix must be two rows larger than the inner one")
    rows = outer.rows
    eps = rows[0][0]
    ok = (
        eps in (1, -1)
        and all(rows[0][j] == 0 for j in range(1, m))
        and rows[1][0] == 1
        and all(rows[i][0] == 0 for i in range(2, m))
        and all(rows[i + 2][j + 2] == inner[i][j] for i in range(inner.size) for j in range(inner.size))
    )
    if not ok:
        raise ValueError("outer matrix is not a literal border of the inner matrix")
    return eps


def border_self_pairing_check(outer: SeifertMatrix, inner: SeifertMatrix) -> bool:
    """For a once-bordered matrix, the self-pairing of the new generator
    equals eps * Delta(inner) / Delta(outer) modulo the ring.

    The outer matrix must literally be [[eps,0,0],[1,x,M],[0,N^T,inner]].
    """
    eps = _check_literal_border(outer, inner)
    rows = _pairing_matrix_entries(outer)
    cof = det_laurent([row[1:] for row in rows[1:]])
    den = det_laurent(rows)
    entry = TorsionFraction(T_MINUS_1 * cof, den)
    target = TorsionFraction(LaurentPoly.const(eps) * alexander(inner), alexander(outer))
    return fractions_equal(entry, target)
