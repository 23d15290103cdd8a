"""The module presentation V - tV^T and the linking pairing it carries.

Pairing values live in Q(L)/L where L is the integer Laurent ring.  They
are kept as unreduced fractions (num, den) with den = det(V - tV^T); no
canonical residue exists when the leading coefficient of the Alexander
polynomial is not a unit, so fractions_equal decides equality by
cross-multiplied divisibility instead.  The denominator is t^(n/2) Delta
for the size n, from the Alexander polynomial the matrix kept when it was
validated.  The main-theorem check needs only that one denominator: it
writes eps Delta(inner) / Delta(outer) over t^(n/2) Delta(outer).  The
numerator of a pairing is (t - 1) v^T adj(V - tV^T) bar(w), and by the
Cauchy expansion v^T adj(M) u = -det [[M, u], [v^T, 0]], so it is one
bordered determinant of the pencil, det_bordered(V.rows, v, bar(w)) from
the integer pencil core in seifert.  The Gram matrix of the standard
generators is the whole adjugate, adjugate_laurent(V.rows), taken once.
Coordinates must have integer coefficients.
"""

from __future__ import annotations

from collections import namedtuple

from .laurent import LaurentPoly, is_multiple
from .seifert import SeifertMatrix, _Checked, _unbordered, adjugate_laurent, alexander, det_bordered, det_laurent

T_MINUS_1 = LaurentPoly({1: 1, 0: -1})


class TorsionFraction(_Checked, namedtuple("TorsionFraction", ("num", "den"))):
    """A value num/den taken modulo the ring of Laurent polynomials."""

    __slots__ = ()

    def __new__(cls, num, den):
        if den.is_zero:
            raise ZeroDivisionError("torsion fraction with zero denominator")
        return super().__new__(cls, num, den)

    def scale(self, factor: LaurentPoly) -> "TorsionFraction":
        return TorsionFraction(self.num * factor, self.den)

    def __str__(self):
        return f"{self.num} / {self.den}"


def fractions_equal(f: TorsionFraction, g: TorsionFraction) -> bool:
    """Equality in Q(L)/L: the cross difference must be a multiple of the
    product of denominators."""
    return is_multiple(f.num * g.den - g.num * f.den, f.den * g.den)


def _as_coords(v, n):
    coords = [c if isinstance(c, LaurentPoly) else LaurentPoly.const(c) for c in v]
    if len(coords) != n:
        raise ValueError(f"module element must have {n} coordinates")
    for p in coords:
        if not p.is_integral:
            raise ValueError(f"module element coefficients must be integers, got {p}")
    return coords


def _denominator(V: SeifertMatrix) -> LaurentPoly:
    """det(V - tV^T) = det(tV - V^T) = t^(n/2) Delta for the even size n."""
    if V.size == 0:
        raise ValueError("the 0x0 matrix presents the trivial module")
    return alexander(V).shift(V.size // 2)


def pairing(V: SeifertMatrix, v, w) -> TorsionFraction:
    """The sesquilinear pairing v^T (t-1) (V - tV^T)^-1 bar(w) as an exact
    fraction with denominator det(V - tV^T).

    The numerator is (t - 1) v^T adj(V - tV^T) bar(w), which is
    -(t - 1) det [[V - tV^T, bar(w)], [v^T, 0]].
    """
    den = _denominator(V)
    v = _as_coords(v, V.size)
    w_bar = [c.bar() for c in _as_coords(w, V.size)]
    return TorsionFraction(T_MINUS_1 * -det_bordered(V.rows, v, w_bar), den)


def gram_matrix(V: SeifertMatrix):
    """All pairings of the standard generators, as a matrix of fractions."""
    den = _denominator(V)
    return [[TorsionFraction(T_MINUS_1 * a, den) for a in row] for row in adjugate_laurent(V.rows)]


def border_self_pairing_check(outer: SeifertMatrix, inner: SeifertMatrix) -> bool:
    """For a once-bordered matrix, the self-pairing of the new generator
    equals eps * Delta(inner) / Delta(outer) modulo the ring.

    The outer matrix must literally be [[eps,0,0],[1,x,M],[0,N^T,inner]],
    the a+ border of inner.
    """
    if outer.size != inner.size + 2:
        raise ValueError("outer matrix must be two rows larger than the inner one")
    eps = outer[0][0]
    if eps not in (1, -1) or _unbordered(outer, "a+", eps) != inner.rows:
        raise ValueError("outer matrix is not a literal border of the inner matrix")
    # the (0, 0) cofactor of V - tV^T is the pencil of V without row and column 0
    cof = det_laurent([row[1:] for row in outer.rows[1:]])
    # the target over the entry's denominator t^(n/2) Delta(outer): t is a unit
    target = alexander(inner).shift(outer.size // 2) * eps
    return is_multiple(T_MINUS_1 * cof - target, _denominator(outer))
