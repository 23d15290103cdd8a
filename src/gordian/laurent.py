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
        if not terms:
            self.terms = {}
        elif hasattr(terms, "items"):
            # a mapping holds each exponent once: nothing to merge
            self.terms = _canonical(terms)
        else:
            table = {}
            for exp, coeff in terms:
                table[exp] = table.get(exp, 0) + coeff
            self.terms = _canonical(table)

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
    def monomial(cls, exp: int, coeff=1) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the term grammar: integer coefficients, ``t`` and ``t^E``.

        Whitespace is insignificant.  Raises PolyParseError on anything
        outside the grammar.
        """
        s = re.sub(r"\s+", "", text)
        if not s:
            raise PolyParseError("empty polynomial string")
        terms = []
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
            terms.append((exp, coeff))
            pos = m.end()
        return cls(terms)

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

    @property
    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    @property
    def constant_value(self):
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, 0)

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for general polynomials")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def bar(self) -> "LaurentPoly":
        """The involution t -> t^-1: negate every exponent."""
        return _from_terms({-e: c for e, c in self.terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return _from_terms({e + k: c for e, c in self.terms.items()})

    def evaluate(self, x: int):
        """Exact substitution t := x for a nonzero integer x.

        Returns an int when the value is integral, otherwise a Fraction.
        """
        if x == 0:
            raise ValueError("cannot evaluate at t = 0")
        if x == 1:
            return _norm_coeff(sum(self.terms.values()))
        if x == -1:
            return _norm_coeff(sum(-c if e & 1 else c for e, c in self.terms.items()))
        # x^low * value is a polynomial in x: sum it, divide once at the end
        low = min(0, min(self.terms, default=0))
        num = sum(c * x ** (e - low) for e, c in self.terms.items())
        return _norm_coeff(Fraction(num, x**-low) if low else num)

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
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
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    width = b.breadth
    b_deg, b_val = b.degree, b.valuation
    b_lead, b_low = b.coeff(b_deg), b.coeff(b_val)
    q_terms: dict = {}
    r = a
    while not r.is_zero and (r.degree >= width or r.valuation < 0):
        if r.degree >= width:
            shift = r.degree - b_deg
            factor = Fraction(r.coeff(r.degree)) / b_lead
        else:
            shift = r.valuation - b_val
            factor = Fraction(r.coeff(r.valuation)) / b_low
        q_terms[shift] = q_terms.get(shift, 0) + factor
        r = r - b.shift(shift) * factor
    return LaurentPoly(q_terms), r


def is_multiple(a: LaurentPoly, b: LaurentPoly) -> bool:
    """True when a = q*b for some q with integer coefficients."""
    q, r = divmod_rational(a, b)
    return r.is_zero and q.is_integral
