"""Exact arithmetic in the ring of integer Laurent polynomials.

A Laurent polynomial is stored sparsely as a mapping {exponent: coefficient}
with no zero coefficients kept; the zero polynomial is the empty mapping.
Exponents may be negative.  Coefficients are Python ints, so everything is
arbitrary precision.  Division helpers work over the rationals and may
return polynomials with Fraction coefficients; a Fraction that happens to
be integral is normalised back to int.

The text grammar used by parse() and str() writes terms in strictly
decreasing exponent order with explicit signs, for example
``-3t^2+12t-17+12t^-1-3t^-2``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush


class PolyParseError(ValueError):
    """Raised when a polynomial string does not match the grammar."""


def _norm_coeff(c):
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def _canonical(table):
    """table without its zero coefficients, integral Fractions made int."""
    return {e: c if type(c) is int else _norm_coeff(c) for e, c in table.items() if c}


def _from_terms(terms) -> "LaurentPoly":
    """A polynomial holding terms, which must already be canonical."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    return p


_TERM_RE = re.compile(r"([+-])?(\d+)?(t(?:\^([+-]?\d+))?)?")


class LaurentPoly:
    """An integer (or rational) Laurent polynomial in canonical sparse form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if hasattr(terms, "items"):
            self.terms = _canonical(terms)
        elif terms is None:
            self.terms = {}
        elif isinstance(terms, str):
            raise ValueError(f"LaurentPoly takes terms, not text: use LaurentPoly.parse({terms!r})")
        else:
            raise TypeError(f"LaurentPoly takes a mapping {{exponent: coefficient}}, got {type(terms).__name__}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int) -> "LaurentPoly":
        return cls({exp: 1})

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the term grammar: integer coefficients, ``t`` and ``t^E``.

        Whitespace is insignificant and repeated exponents are summed.
        Raises PolyParseError on anything outside the grammar.
        """
        s = re.sub(r"\s+", "", text)
        if not s:
            raise PolyParseError("empty polynomial string")
        table = {}
        pos = 0
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if m is None or m.end() == pos:
                raise PolyParseError(f"cannot parse polynomial at ...{s[pos:]!r}")
            sign, digits, tpart, exp_digits = m.groups()
            if digits is None and tpart is None:
                raise PolyParseError(f"cannot parse polynomial at ...{s[pos:]!r}")
            if pos > 0 and sign is None:
                raise PolyParseError(f"missing + or - before ...{s[pos:]!r}")
            coeff = int(digits) if digits is not None else 1
            if sign == "-":
                coeff = -coeff
            if tpart is None:
                exp = 0
            elif exp_digits is None:
                exp = 1
            else:
                exp = int(exp_digits)
            table[exp] = table.get(exp, 0) + coeff
            pos = m.end()
        return cls(table)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self.terms)

    @property
    def valuation(self) -> int:
        """Smallest exponent with a nonzero coefficient."""
        if not self.terms:
            raise ValueError("the zero polynomial has no valuation")
        return min(self.terms)

    @property
    def breadth(self) -> int:
        """Exponent spread max - min; the working notion of degree here."""
        return self.degree - self.valuation

    def coeff(self, exp: int):
        return self.terms.get(exp, 0)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def is_bar_symmetric(self) -> bool:
        return all(self.terms.get(-e, 0) == c for e, c in self.terms.items())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + c
        return _from_terms(_canonical(out))

    __radd__ = __add__

    def __neg__(self):
        return _from_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) - c
        return _from_terms(_canonical(out))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _from_terms(_canonical(out))

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """The involution t -> t^-1: negate every exponent."""
        return _from_terms({-e: c for e, c in self.terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return _from_terms({e + k: c for e, c in self.terms.items()})

    def evaluate(self, x: int):
        """The value at t = 1 or t = -1, the only points any invariant
        needs: the sum of the coefficients, with odd exponents negated at
        t = -1.  An int when the value is integral, otherwise a Fraction."""
        if x == 1:
            return _norm_coeff(sum(self.terms.values()))
        if x == -1:
            return _norm_coeff(sum(-c if e & 1 else c for e, c in self.terms.items()))
        raise ValueError(f"evaluate takes t = 1 or t = -1, got {x!r}")

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it hashes as the value does
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            negative = c < 0
            mag = -c if negative else c
            sign = "-" if negative else ("+" if parts else "")
            if exp == 0:
                body = str(mag)
            else:
                coeff_str = "" if mag == 1 else str(mag)
                body = coeff_str + ("t" if exp == 1 else f"t^{exp}")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({str(self)!r})"


def _coerce(value):
    if type(value) is LaurentPoly:
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly({0: value})
    return NotImplemented


def divmod_rational(a: LaurentPoly, b: LaurentPoly):
    """Divide a by b over the rationals: a = q*b + r exactly.

    The remainder is the unique representative of a mod b supported on the
    exponent window [0, breadth(b) - 1]; uniqueness holds because any two
    window representatives differ by a multiple of b, which has larger
    breadth.  In particular r = 0 exactly when b divides a over Q.
    Coefficients of q and r may be Fractions.

    The division works in place on one copy of a's term table, in two
    sweeps over its nonzero exponents.  The first runs from the top exponent
    down to breadth(b): each entry e is cleared by subtracting the divisor
    shifted by e - degree(b), times a factor.  The second runs from the
    lowest exponent up to -1 and shifts by e - valuation(b).  A top step
    touches exponents e - breadth(b) >= 0 to e, so it makes no new
    negative exponent, and a bottom step touches none at breadth(b) or
    above; every nonzero exponent is cleared once, so every quotient term
    is set once, to a nonzero normalised factor, and the quotient table is
    canonical as built.  A step touches breadth(b) + 1 entries, deletes
    those that become zero and normalises the changed ones.  A heap hands
    each sweep its next nonzero exponent, so a division of n terms takes at
    most breadth(a) steps of O(breadth(b) + log n) each, and the empty
    exponents of a sparse a cost nothing.  A non-monic divisor still grows
    Fraction denominators as lead^k, so the bit cost stays superlinear.

    Normalising keeps an integral value an int: otherwise every later step
    on that entry would multiply an int by an integral Fraction, which
    costs far more than int arithmetic.  For the same reason an int entry
    that the divisor's end coefficient divides is divided as an int, with
    no Fraction built: an integer dividend and a monic divisor build none.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    width = b.breadth
    b_deg, b_val = b.degree, b.valuation
    q_terms: dict = {}
    r = dict(a.terms)
    get = r.get
    # (sign, anchor, divisor, stop): a sweep clears each exponent e with
    # sign * e <= stop, in increasing order of sign * e, popping them from a
    # heap of the nonzero ones so that it never visits an empty exponent
    sweeps = (
        (-1, b_deg, b.coeff(b_deg), -width),
        (1, b_val, b.coeff(b_val), -1),
    )
    for sign, anchor, divisor, stop in sweeps:
        todo = [key for key in (sign * e for e in r) if key <= stop]
        heapify(todo)
        while todo:
            e = sign * heappop(todo)
            c = get(e)
            if c is None:
                continue
            shift = e - anchor
            if type(c) is int and not c % divisor:
                factor = c // divisor
            else:
                factor = _norm_coeff(Fraction(c) / divisor)
            q_terms[shift] = factor
            for d, bc in b.terms.items():
                d += shift
                old = get(d)
                if old is None:
                    if sign * d <= stop:
                        heappush(todo, sign * d)
                    old = 0
                v = old - bc * factor
                if v:
                    r[d] = v if type(v) is int else _norm_coeff(v)
                else:
                    del r[d]
    return _from_terms(q_terms), _from_terms(r)


def is_multiple(a: LaurentPoly, b: LaurentPoly) -> bool:
    """True when a = q*b for some q with integer coefficients."""
    q, r = divmod_rational(a, b)
    return r.is_zero and q.is_integral
