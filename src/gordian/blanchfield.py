"""The module presentation V - tV^T and the linking pairing it carries.

Pairing values live in Q(L)/L where L is the integer Laurent ring.  They
are kept as unreduced fractions (num, den) with den = det(V - tV^T); no
canonical residue exists when the leading coefficient of the Alexander
polynomial is not a unit, so equality is decided by cross-multiplied
divisibility instead.  V - tV^T is a pencil A - tA^T with A = V, so its
adjugate is adjugate_laurent(V.rows) from the integer pencil core in
seifert (one substitution t = X for a large power of two X, one
fraction-free Gauss-Jordan elimination there, and each entry read off as
base-X digits); its determinant is t^(n/2) Delta for the size n, from the
Alexander polynomial the matrix kept when it was validated.  Both are
computed once per matrix and shared by every pairing of that matrix.  A
pairing is one more substitution: the coordinates and the adjugate entries
are evaluated at a power of two, the products summed as integers, and the
sum read back as base-X digits.  Coordinates must have integer
coefficients.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .laurent import LaurentPoly, is_multiple
from .seifert import (
    SeifertMatrix,
    _as_laurent,
    _digits,
    _radix,
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

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: run the checks of __new__ there too
        return cls(*iterable)

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


@lru_cache(maxsize=1)
def _pencil_inverse(V: SeifertMatrix):
    """(adj, det) of V - tV^T, so (V - tV^T)^-1 = adj / det.

    det(V - tV^T) = det(tV - V^T) = t^(n/2) Delta for the even size n, so
    only the adjugate is eliminated here.  Cached for the last matrix: the
    suites and gram_matrix pair many elements of one module in a row.  The
    adjugate is a tuple of tuples so that no caller can change the cached
    value.
    """
    adj = tuple(tuple(row) for row in adjugate_laurent(V.rows))
    return adj, alexander(V).shift(V.size // 2)


def _as_coords(v, n):
    coords = [c if isinstance(c, LaurentPoly) else LaurentPoly.const(c) for c in v]
    if len(coords) != n:
        raise ValueError(f"module element must have {n} coordinates")
    for p in coords:
        for c in p.terms.values():
            if not isinstance(c, int):
                raise ValueError(f"module element coefficients must be integers, got {c}")
    return coords


def _norm(p: LaurentPoly) -> int:
    return sum(map(abs, p.terms.values()))


def _at(p: LaurentPoly, low: int, k: int) -> int:
    """t^-low p at t = 2^k; low is at most p's lowest exponent."""
    return sum(c << k * (e - low) for e, c in p.terms.items())


def pairing(V: SeifertMatrix, v, w) -> TorsionFraction:
    """The sesquilinear pairing v^T (t-1) (V - tV^T)^-1 bar(w) as an exact
    fraction with denominator det(V - tV^T).

    The sum s = sum_ij v_i adj_ij bar(w_j) is taken by one substitution
    t = X: every coefficient of s is at most
    B = sum_ij |v_i|_1 |adj_ij|_1 |w_j|_1, so for a power of two X > 2B the
    signed base-X digits of the integer sum are the coefficients of s.
    """
    if V.size == 0:
        raise ValueError("the 0x0 matrix presents the trivial module")
    n = V.size
    v = _as_coords(v, n)
    w = _as_coords(w, n)
    adj, den = _pencil_inverse(V)
    vs = [(i, c) for i, c in enumerate(v) if c.terms]
    ws = [(j, c.bar()) for j, c in enumerate(w) if c.terms]
    w_norms = [(j, _norm(c)) for j, c in ws]
    bound = sum(_norm(c) * sum(_norm(adj[i][j]) * m for j, m in w_norms) for i, c in vs)
    if not bound:
        return TorsionFraction(LaurentPoly.zero(), den)
    X = _radix(bound)
    k = X.bit_length() - 1
    v_exps = [e for _, c in vs for e in c.terms]
    w_exps = [e for _, c in ws for e in c.terms]
    adj_exps = [e for row in adj for p in row for e in p.terms]
    v_low, w_low, adj_low, adj_high = min(v_exps), min(w_exps), min(adj_exps), max(adj_exps)
    w_at = [(j, _at(c, w_low, k)) for j, c in ws]
    total = 0
    for i, c in vs:
        adj_row = adj[i]
        total += _at(c, v_low, k) * sum(_at(adj_row[j], adj_low, k) * x for j, x in w_at)
    count = (max(v_exps) - v_low) + (adj_high - adj_low) + (max(w_exps) - w_low) + 1
    s = _as_laurent(_digits(total, X, count), v_low + adj_low + w_low)
    return TorsionFraction(T_MINUS_1 * s, den)


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
    # the (0, 0) cofactor of V - tV^T is the pencil of V without row and column 0
    cof = det_laurent([row[1:] for row in outer.rows[1:]])
    delta = alexander(outer)
    entry = TorsionFraction(T_MINUS_1 * cof, delta.shift(outer.size // 2))
    target = TorsionFraction(LaurentPoly.const(eps) * alexander(inner), delta)
    return fractions_equal(entry, target)
