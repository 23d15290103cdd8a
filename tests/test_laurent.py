import random
from fractions import Fraction

import pytest

from gordian.laurent import LaurentPoly, PolyParseError, divmod_rational, is_multiple
from gordian.seifert import h_form
from oracles import divmod_by_long_division, is_multiple_by_long_division

L = LaurentPoly


def P(text):
    return LaurentPoly.parse(text)


def random_poly(rng, max_exp=5, max_coeff=20):
    return L(
        {
            e: rng.randint(-max_coeff, max_coeff)
            for e in range(-max_exp, max_exp + 1)
            if rng.random() < 0.4
        }
    )


class TestParsePrint:
    def test_round_trip_examples(self):
        for text in ("t-1+t^-1", "-3t^2+12t-17+12t^-1-3t^-2", "0", "1", "-1", "t", "-t^-3"):
            assert str(P(text)) == text

    def test_whitespace_insignificant(self):
        assert P(" -3 t^2 + 12 t - 17 + 12 t^-1 - 3 t^-2 ") == P("-3t^2+12t-17+12t^-1-3t^-2")

    def test_plain_integer(self):
        assert P("3") == L.const(3)
        assert P("0") == L.zero()

    def test_coefficient_one_elided(self):
        assert str(L({2: 1, 0: -1})) == "t^2-1"
        assert str(L({-1: -1})) == "-t^-1"

    def test_rejects_garbage(self):
        for bad in ("", "t^", "3x", "t2", "1+", "++1", "t^1.5"):
            with pytest.raises(PolyParseError):
                P(bad)

    def test_terms_accumulate(self):
        assert P("t+t-2t") == L.zero()


class TestConstruction:
    def test_pairs_with_cancelling_duplicates(self):
        p = L([(1, 2), (0, 5), (1, -2), (3, 1), (0, -5), (0, 4)])
        assert p.terms == {3: 1, 0: 4}
        assert L([(2, 1), (2, -1)]).terms == {}

    def test_text_is_refused_with_a_pointer_to_parse(self):
        for text in ("t-1+t^-1", "t", ""):
            with pytest.raises(ValueError, match=r"LaurentPoly\.parse"):
                L(text)

    def test_integral_fractions_become_int(self):
        half = Fraction(1, 2)
        made = [
            L({0: Fraction(4, 2), 1: Fraction(-3, 1)}),
            L([(0, half), (0, half)]),
            L({1: half}) + L({1: half, 0: Fraction(3, 2)}) + L({0: half}),
            L({1: half, 0: Fraction(1, 4)}) * L({0: 2}) * L({0: 2}),
            L({0: half}) * 2 + 1,
        ]
        for p in made:
            assert p.terms and p.is_integral
            assert all(type(c) is int for c in p.terms.values())

    def test_integral_fractions_feed_the_residue_criteria(self):
        # the remainder of an exact rational division has int coefficients
        delta = P("t-1+t^-1")
        q = L({1: Fraction(1, 3), 0: Fraction(2, 3)})
        _, r = divmod_rational(delta * q * 3 + 6, delta)
        assert r.terms == {0: 6} and type(r.terms[0]) is int
        assert r.is_integral and r == 6

    def test_non_integral_fractions_kept(self):
        third = Fraction(1, 3)
        for p in (L({0: third}), L([(1, third), (1, third)]), L({0: third}) + 1, L({0: third}) * L({1: 2})):
            assert not p.is_integral
            assert all(type(c) is Fraction and c.denominator == 3 for c in p.terms.values())

    def test_no_zero_coefficient_stored(self):
        rng = random.Random(12)
        zero_fraction = Fraction(0, 5)
        assert L({0: 0, 1: zero_fraction, 2: 3}).terms == {2: 3}
        assert L([(0, 0), (1, zero_fraction)]).terms == {}
        for _ in range(300):
            p, q = random_poly(rng, max_coeff=2), random_poly(rng, max_coeff=2)
            half = L({e: Fraction(c, 2) for e, c in q.terms.items()})
            for result in (p + q, p - p, p * q, p * L.zero(), half + half - q, half * 2 - q, -p, p.shift(3)):
                assert 0 not in result.terms.values()


class TestArithmetic:
    def test_add_cancellation(self):
        assert P("t-1") + P("1") == P("t")

    def test_add_identity(self):
        p = P("t^2-3")
        assert L.zero() + p == p

    def test_add_inverse(self):
        assert P("t+t^-1-1") + P("-t-t^-1+1") == L.zero()

    def test_mul_expand(self):
        assert P("t-1") * P("t^-1-1") == P("-t+2-t^-1")

    def test_mul_identity(self):
        p = P("5t^3-2t^-2")
        assert p * L.one() == p

    def test_mul_example_values(self):
        # the product that reconstructs the larger bundled polynomial
        prod = P("-3t+9-3t^-1") * P("t+t^-1-1") + L.const(-2)
        assert prod == P("-3t^2+12t-17+12t^-1-3t^-2")

    def test_int_coercion(self):
        assert 2 * P("t") - 1 == P("2t-1")


class TestHash:
    """A constant polynomial equals its value, so sets and dicts must find
    either one by the other."""

    @pytest.mark.parametrize("value", [3, -7, Fraction(1, 2), Fraction(-5, 3), 0])
    def test_constant_hashes_as_its_value(self, value):
        p = L.const(value)
        assert p == value and hash(p) == hash(value)
        assert value in {p} and p in {value}
        assert {p: "poly"}[value] == "poly" and {value: "number"}[p] == "number"
        assert len({p, value}) == 1

    def test_zero_polynomial(self):
        assert L() in {0} and 0 in {L.zero()}
        assert {0: "zero"}[L()] == "zero"
        assert hash(L()) == hash(0) == hash(P("t-t"))

    def test_non_constant_hash_unchanged(self):
        for text in ("t", "t-1+t^-1", "-3t^2+12t-17+12t^-1-3t^-2", "5t^-4"):
            p = P(text)
            assert hash(p) == hash(frozenset(p.terms.items()))
            assert hash(p) == hash(P(text)) and p in {P(text)}


class TestBar:
    def test_exponent_negation(self):
        assert P("t+2t^-3").bar() == P("t^-1+2t^3")

    def test_symmetric_fixed(self):
        p = P("t+t^-1-1")
        assert p.bar() == p

    def test_zero(self):
        assert L.zero().bar() == L.zero()


class TestEvaluate:
    def test_values(self):
        assert P("t+t^-1-1").evaluate(-1) == -3
        assert P("t+t^-1-1").evaluate(1) == 1
        assert P("-3t^2+12t-17+12t^-1-3t^-2").evaluate(-1) == -47
        assert L.zero().evaluate(-1) == 0

    def test_rational_result(self):
        assert L({-1: Fraction(1, 2)}).evaluate(-1) == Fraction(-1, 2)
        assert L({-1: Fraction(1, 2), 2: Fraction(1, 3)}).evaluate(1) == Fraction(5, 6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            P("t").evaluate(0)

    def test_rejects_other_points(self):
        # only t = 1 and t = -1 are taken; every other point raises
        for x in (2, -2, 3, -5, 10**20, Fraction(1, 2), 0.5):
            with pytest.raises(ValueError, match="t = 1 or t = -1"):
                P("t^-1").evaluate(x)
            with pytest.raises(ValueError, match="t = 1 or t = -1"):
                L.zero().evaluate(x)

    def test_plus_minus_one_keep_the_result_type(self):
        cases = [
            (L({1: Fraction(1, 2), -1: Fraction(1, 2)}), 1, -1),
            (L({0: Fraction(1, 2), 2: Fraction(-1, 2)}), 0, 0),
            (L({-3: Fraction(1, 3), 0: 1}), Fraction(4, 3), Fraction(2, 3)),
            (L({-3: 2, 4: -5, 0: 7}), 4, 0),
            (L.zero(), 0, 0),
        ]
        for p, at_one, at_minus_one in cases:
            for x, expected in ((1, at_one), (-1, at_minus_one)):
                value = p.evaluate(x)
                assert value == expected
                assert type(value) is type(expected)

    def test_against_fraction_reference(self):
        rng = random.Random(7)
        for i in range(400):
            terms = {e: rng.randint(-9, 9) for e in range(rng.randint(-4, 0), rng.randint(0, 4) + 1)}
            if i % 2:
                terms = {e: Fraction(c, rng.randint(1, 6)) for e, c in terms.items()}
            p = L(terms)
            for x in (1, -1):
                expected = sum((Fraction(c) * Fraction(x) ** e for e, c in p.terms.items()), Fraction(0))
                value = p.evaluate(x)
                assert value == expected
                assert isinstance(value, int) == (expected.denominator == 1)
            for x in (2, -2, 3, -5):
                with pytest.raises(ValueError):
                    p.evaluate(x)


class TestDivmod:
    def test_bundled_pair(self):
        q, r = divmod_rational(P("-3t^2+12t-17+12t^-1-3t^-2"), P("t+t^-1-1"))
        assert q == P("-3t+9-3t^-1")
        assert r == L.const(-2)

    def test_self(self):
        q, r = divmod_rational(P("t^2-t+1"), P("t^2-t+1"))
        assert q == L.one() and r == L.zero()

    def test_exact_multiple(self):
        # t * (t - 1 + t^-1) = t^2 - t + 1, checked by expanding
        q, r = divmod_rational(P("t^2-t+1"), P("t-1+t^-1"))
        assert q == P("t") and r == L.zero()

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divmod_rational(P("t"), L.zero())

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_poly(rng)
            b = random_poly(rng)
            if b.is_zero:
                continue
            q, r = divmod_rational(a, b)
            assert q * b + r == a
            if not r.is_zero:
                assert r.breadth < b.breadth
                assert r.valuation >= 0

    def test_remainder_window_is_canonical(self):
        # two representatives in the window must coincide
        b = P("t+t^-1-1")
        a = P("t^3+2t-5")
        q, r = divmod_rational(a, b)
        assert r.is_zero or (0 <= r.valuation and r.degree < b.breadth)


class TestIsMultiple:
    def test_equal_is_multiple(self):
        a = P("t-1") * P("t-1") + P("t")
        assert is_multiple(a, P("t^2-t+1"))

    def test_constant_not_multiple(self):
        assert not is_multiple(L.const(-2), P("t+t^-1-1"))

    def test_explicit_multiple(self):
        assert is_multiple(P("2t") * P("t+t^-1-1"), P("t+t^-1-1"))

    def test_rational_quotient_rejected(self):
        # a = b/2 over the rationals only
        assert not is_multiple(P("t+1"), P("2t+2"))

    def test_zero_is_multiple(self):
        assert is_multiple(L.zero(), P("t-1"))


class TestOneRemainderDecidesBothSigns:
    """An Alexander polynomial is primitive, since Delta(1) = 1.  So by
    Gauss's lemma an integer polynomial is a multiple of Delta exactly when
    its remainder is 0, and as the remainder is linear, s*dp - c*bar(c) is
    a multiple exactly when rem(c*bar(c)) == s*rem(dp), for either sign s."""

    @staticmethod
    def random_alexander(rng):
        half = {e: rng.randint(-9, 9) for e in range(1, rng.randint(1, 4) + 1)}
        terms = {0: 1 - 2 * sum(half.values())}
        for e, c in half.items():
            terms[e] = terms[-e] = c
        return L(terms)

    def test_against_is_multiple(self):
        rng = random.Random(19)
        moduli = [h_form(h) for h in range(-6, 7) if h]
        moduli += [self.random_alexander(rng) for _ in range(12)]
        hits = misses = 0
        for delta in moduli:
            assert delta.evaluate(1) == 1 and delta.is_bar_symmetric()
            for _ in range(15):
                c = random_poly(rng, max_exp=2, max_coeff=4)
                cc = c * c.bar()
                s = rng.choice((1, -1))
                # a random dp, and a constructed hit for the sign s
                for dp in (random_poly(rng), s * cc + delta * random_poly(rng, max_exp=2, max_coeff=5)):
                    rem_cc, rem_dp = divmod_rational(cc, delta)[1], divmod_rational(dp, delta)[1]
                    for sign in (1, -1):
                        hit = is_multiple(sign * dp - cc, delta)
                        assert hit == (rem_cc == sign * rem_dp), (delta, c, dp, sign)
                        hits += hit
                        misses += not hit
        assert hits >= len(moduli) * 15 and misses > 0


class TestAgainstLongDivision:
    """divmod_rational against the Fraction long division of the oracles,
    which works on plain dicts and shares no code with gordian.laurent."""

    @staticmethod
    def random_divisor(rng):
        # |lead| and |low| up to 6, the valuation often negative
        val = rng.randint(-4, 2)
        deg = val + rng.randint(0, 5)
        terms = {e: rng.randint(-6, 6) for e in range(val + 1, deg)}
        terms[val] = rng.choice((-1, 1)) * rng.randint(1, 6)
        terms[deg] = rng.choice((-1, 1)) * rng.randint(1, 6)
        return L(terms)

    @staticmethod
    def fraction_poly(rng):
        return L({e: Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for e in range(-3, 4) if rng.random() < 0.6})

    def cases(self):
        rng = random.Random(31)
        divisors = [h_form(s * h) for h in (1, 2, 3, 4, 6, 8) for s in (1, -1)]
        divisors += [self.random_divisor(rng) for _ in range(30)]
        for b in divisors:
            yield L.zero(), b
            for _ in range(4):
                yield random_poly(rng), b
                yield self.fraction_poly(rng), b
                # a multiple over the integers, and one over the rationals
                yield b * random_poly(rng, max_exp=3, max_coeff=5), b
                yield b * self.fraction_poly(rng), b
        for n in (31, 101, 301):
            for b in divisors[:12:3]:
                yield L({n: 1, 0: -1, -n: 1}), b

    def test_same_quotient_and_remainder(self):
        verdicts = []
        for a, b in self.cases():
            q, r = divmod_rational(a, b)
            q_ref, r_ref = divmod_by_long_division(a.terms, b.terms)
            assert q.terms == q_ref and r.terms == r_ref, (a, b)
            for c in [*q.terms.values(), *r.terms.values()]:
                assert type(c) is int or c.denominator != 1, (a, b, c)
            verdicts.append(is_multiple_by_long_division(a, b))
            assert is_multiple(a, b) == verdicts[-1], (a, b)
        assert len(verdicts) == 726 and set(verdicts) == {True, False}


class TestRingAxioms:
    def test_random_triples(self):
        rng = random.Random(2024)
        for _ in range(1000):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p

    def test_bar_is_ring_involution(self):
        rng = random.Random(99)
        for _ in range(300):
            p, q = random_poly(rng), random_poly(rng)
            assert (p * q).bar() == p.bar() * q.bar()
            assert (p + q).bar() == p.bar() + q.bar()
            assert p.bar().bar() == p

    def test_norm_is_bar_symmetric(self):
        rng = random.Random(5)
        for _ in range(300):
            p = random_poly(rng)
            assert (p * p.bar()).is_bar_symmetric()

    def test_canonical_form_closure(self):
        rng = random.Random(11)
        for _ in range(300):
            p, q = random_poly(rng), random_poly(rng)
            for result in (p + q, p - q, p * q, p.bar()):
                assert all(c != 0 for c in result.terms.values())
