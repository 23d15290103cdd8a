"""The Kronecker substitution core of gordian.seifert against the oracles.

Each polynomial determinant or adjugate is one integer computation at
t = X, read back as signed base-X digits; these tests check the digit
reader, the coefficient bound behind X, and the results against cofactor
expansion over the Laurent ring.
"""

import random

import pytest

from gordian import seifert
from gordian.laurent import LaurentPoly
from gordian.seifert import (
    SeifertMatrix,
    _digits,
    adjugate_laurent,
    alexander,
    det_laurent,
    presentation_entries,
)
from gordian.verify import random_seifert
from oracles import adjugate_by_cofactors, det_by_cofactors

BIG = 10**6


def random_matrix(rng, n, bound=BIG, exps=(-2, -1, 0, 1, 2)):
    return [
        [LaurentPoly({e: rng.randint(-bound, bound) for e in exps if rng.random() < 0.5}) for _ in range(n)]
        for _ in range(n)
    ]


def sylvester(n):
    """The n x n Sylvester-Hadamard matrix, n a power of two."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


class TestDigits:
    def test_round_trip(self):
        rng = random.Random(41)
        for X in (4, 8, 2**16, 2**61, 2**200):
            top = X // 2 - 1
            for count in range(1, 12):
                for _ in range(20):
                    digits = [rng.choice((top, -top, 0, rng.randint(-top, top))) for _ in range(count)]
                    value = sum(d * X**k for k, d in enumerate(digits))
                    assert _digits(value, X, count) == digits

    def test_extreme_digits(self):
        X = 2**20
        top = X // 2 - 1
        for digits in ([top] * 7, [-top] * 7, [top, -top] * 4, [-top, 0, 0, top]):
            value = sum(d * X**k for k, d in enumerate(digits))
            assert _digits(value, X, len(digits)) == digits

    def test_leftover_asserted(self):
        X = 2**10
        with pytest.raises(AssertionError, match="remainder"):
            _digits(X**3, X, 3)
        with pytest.raises(AssertionError, match="remainder"):
            _digits(-(X**3), X, 3)


class TestDetLaurent:
    def test_against_cofactors_sizes_0_to_8(self):
        rng = random.Random(43)
        for n in range(9):
            for _ in range(4 if n < 7 else 2):
                rows = random_matrix(rng, n)
                assert det_laurent(rows) == det_by_cofactors(rows)

    def test_zero_row(self):
        rng = random.Random(44)
        for n in range(1, 9):
            rows = random_matrix(rng, n)
            rows[rng.randrange(n)] = [LaurentPoly.zero()] * n
            assert det_laurent(rows).is_zero

    def test_two_equal_rows(self):
        rng = random.Random(45)
        for n in range(2, 9):
            rows = random_matrix(rng, n)
            i, j = rng.sample(range(n), 2)
            rows[j] = list(rows[i])
            assert det_laurent(rows).is_zero

    def test_hadamard_extreme(self):
        # |det| meets Hadamard's bound, the largest value the radix allows for
        for n in (1, 2, 4, 8):
            for c in (BIG, -BIG):
                rows = [[LaurentPoly({0: c * x}) for x in row] for row in sylvester(n)]
                expected = det_by_cofactors(rows)
                assert abs(expected.constant_value) == BIG**n * n ** (n // 2)
                assert det_laurent(rows) == expected
                shifted = [[LaurentPoly({1: c * x, -1: -c * x}) for x in row] for row in sylvester(n)]
                assert det_laurent(shifted) == det_by_cofactors(shifted)


class TestAdjugateLaurent:
    def test_against_cofactors_sizes_0_to_6(self):
        rng = random.Random(47)
        for n in range(7):
            for _ in range(3):
                rows = random_matrix(rng, n)
                assert adjugate_laurent(rows) == adjugate_by_cofactors(rows)

    def test_sizes_7_and_8(self):
        # adj(M) M = det(M) I determines adj(M) once det(M) is nonzero
        rng = random.Random(48)
        for n in (7, 8):
            rows = random_matrix(rng, n, exps=(-1, 0, 1))
            det = det_by_cofactors(rows)
            assert not det.is_zero
            adj = adjugate_laurent(rows)
            for i in range(n):
                for j in range(n):
                    entry = sum((adj[i][k] * rows[k][j] for k in range(n)), LaurentPoly.zero())
                    assert entry == (det if i == j else LaurentPoly.zero())

    def test_zero_row(self):
        rng = random.Random(49)
        for n in range(1, 7):
            rows = random_matrix(rng, n)
            z = rng.randrange(n)
            rows[z] = [LaurentPoly.zero()] * n
            adj = adjugate_laurent(rows)
            assert adj == adjugate_by_cofactors(rows)
            # only the cofactors that omit the zero row survive
            assert all(adj[i][j].is_zero for i in range(n) for j in range(n) if j != z)

    def test_two_equal_rows(self):
        # singular, but the cofactors that omit one of the two rows are not zero
        rng = random.Random(50)
        for n in range(2, 7):
            rows = random_matrix(rng, n)
            i, j = rng.sample(range(n), 2)
            rows[j] = list(rows[i])
            adj = adjugate_laurent(rows)
            assert det_laurent(rows).is_zero
            assert any(not p.is_zero for row in adj for p in row)
            assert adj == adjugate_by_cofactors(rows)


class TestAdjugateInt:
    """The integer adjugate by one fraction-free Gauss-Jordan elimination,
    with the cofactor sweep kept for singular matrices."""

    @staticmethod
    def oracle(m):
        rows = [[LaurentPoly.const(x) for x in row] for row in m]
        return [[p.constant_value for p in row] for row in adjugate_by_cofactors(rows)]

    def check(self, m):
        before = [list(row) for row in m]
        adj = seifert._adjugate_int(m)
        assert m == before
        assert adj == self.oracle(m)

    def test_sizes_0_to_8(self):
        rng = random.Random(52)
        for n in range(9):
            for _ in range(4 if n < 7 else 1):
                self.check([[rng.randint(-BIG, BIG) for _ in range(n)] for _ in range(n)])

    def test_zero_pivots_force_swaps(self):
        rng = random.Random(53)
        for n in range(2, 8):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m[0][0] = 0
            self.check(m)
            # the leading 2x2 minor vanishes, so the second pivot is zero
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m[1][:2] = [3 * m[0][0], 3 * m[0][1]]
            self.check(m)
        self.check([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_singular(self):
        rng = random.Random(54)
        for n in range(1, 8):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m[rng.randrange(n)] = [0] * n
            self.check(m)
            if n > 1:
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                i, j = rng.sample(range(n), 2)
                m[j] = list(m[i])
                self.check(m)
        self.check([[0]])
        self.check([[2, 4], [1, 2]])


class TestAlexander:
    def test_large_entries(self):
        rng = random.Random(51)
        for i in range(12):
            n = (2, 4, 6, 8)[i % 4]
            V = random_seifert(rng, n, bound=1000)
            expected = det_by_cofactors(presentation_entries(V)).shift(-(n // 2))
            assert alexander(V) == expected


class TestRadixTooSmall:
    """With a radix below twice the coefficient bound the digits wrap, and
    the leftover assertion must fire rather than return a wrong answer."""

    def test_det_laurent(self, monkeypatch):
        monkeypatch.setattr(seifert, "_radix", lambda norms: 4)
        with pytest.raises(AssertionError, match="radix"):
            det_laurent([[LaurentPoly({0: 5, 1: 1000})]])

    def test_adjugate_laurent(self, monkeypatch):
        monkeypatch.setattr(seifert, "_radix", lambda norms: 4)
        one = LaurentPoly.one()
        with pytest.raises(AssertionError, match="radix"):
            adjugate_laurent([[one, one], [one, LaurentPoly({0: 5, 1: 1000})]])

    def test_alexander(self, monkeypatch):
        V = SeifertMatrix([[1000, 1], [0, 1000]])
        assert alexander(V) == LaurentPoly({1: 10**6, 0: 1 - 2 * 10**6, -1: 10**6})
        monkeypatch.setattr(seifert, "_radix", lambda norms: 4)
        with pytest.raises(AssertionError, match="radix"):
            alexander(V)
