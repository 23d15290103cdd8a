"""Independent arithmetic for checking gordian's outputs.

Nothing here imports gordian: polynomials are plain ``{exponent: coefficient}``
dicts, matrices are lists of integer rows.  The checks compare what the
commands print against facts that hold for any correct implementation, so a
change to the code under test cannot silently change what counts as correct.
"""

from __future__ import annotations

import re
from fractions import Fraction

# -- Laurent polynomials as dicts ----------------------------------------------------


def norm(p):
    return {e: c for e, c in p.items() if c}


def add(p, q, scale=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + scale * c
    return norm(out)


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return norm(out)


def bar(p):
    return {-e: c for e, c in p.items()}


def evaluate(p, k):
    """Exact value at the nonzero integer k, as a Fraction."""
    return sum((Fraction(c) * Fraction(k) ** e for e, c in p.items()), Fraction(0))


def is_symmetric(p):
    return all(p.get(-e, 0) == c for e, c in p.items())


def h_form(h):
    return norm({1: h, -1: h, 0: 1 - 2 * h})


def divides(b, a):
    """True when a = q * b for a Laurent polynomial q with integer coefficients."""
    a = norm(a)
    if not a:
        return True
    top_b, low_b = max(b), min(b)
    while a:
        top = max(a)
        if top - min(a) < top_b - low_b:
            return False
        q, r = divmod(a[top], b[top_b])
        if r:
            return False
        a = add(a, {e + top - top_b: c for e, c in b.items()}, -q)
    return True


_TERM = re.compile(r"([+-]?)(\d*)(t(?:\^([+-]?\d+))?)?")


def parse(text):
    """The command-line grammar: integer coefficients with ``t`` and ``t^E``."""
    s = "".join(text.split())
    if s == "0":
        return {}
    out, pos = {}, 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, digits, tpart, exp = m.groups()
        if m.end() == pos or not (digits or tpart) or (pos and not sign):
            raise ValueError(f"bad polynomial text {text!r}")
        coeff = int(digits) if digits else 1
        power = 0 if not tpart else (int(exp) if exp else 1)
        out[power] = out.get(power, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    return norm(out)


def to_text(p):
    """Inverse of parse: terms in decreasing exponent order."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mag = abs(c)
        body = str(mag) if e == 0 else ("" if mag == 1 else str(mag)) + (
            "t" if e == 1 else f"t^{e}"
        )
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


# -- integer matrices ------------------------------------------------------------------


def det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev if n else 1


def pencil(V, k):
    """k V - V^T, the presentation matrix at t = k."""
    n = len(V)
    return [[k * V[i][j] - V[j][i] for j in range(n)] for i in range(n)]


def interpolate(points, values):
    """Coefficients (low to high) of the polynomial through the points."""
    coeffs = [Fraction(0)] * len(points)
    for i, xi in enumerate(points):
        basis, denom = [Fraction(1)], 1
        for j, xj in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for d in range(len(basis) - 1):
                    basis[d] -= xj * basis[d + 1]
                denom *= xi - xj
        for d, b in enumerate(basis):
            coeffs[d] += Fraction(values[i], denom) * b
    return coeffs


def alexander(V):
    """t^-n det(tV - V^T) for a 2n x 2n integer matrix, by interpolation."""
    size = len(V)
    points = list(range(size + 1))
    coeffs = interpolate(points, [det(pencil(V, x)) for x in points])
    return norm({d - size // 2: int(c) for d, c in enumerate(coeffs)})


def signature(S):
    """Signature of a symmetric integer matrix from its characteristic polynomial.

    Every root is real, so Descartes' rule of signs counts the positive and
    the negative eigenvalues exactly.
    """
    n = len(S)
    points = list(range(n + 1))
    values = [
        det([[(x if i == j else 0) - S[i][j] for j in range(n)] for i in range(n)])
        for x in points
    ]
    coeffs = [int(c) for c in interpolate(points, values)]

    def changes(seq):
        signs = [c > 0 for c in seq if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(coeffs) - changes([c * (-1) ** d for d, c in enumerate(coeffs)])


def is_square_mod(a, m):
    return any((x * x - a) % m == 0 for x in range(m))
