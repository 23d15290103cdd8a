"""The Kronecker substitution core of gordian.seifert against the oracles.

Every polynomial matrix is a pencil A - tA^T of an integer matrix A, bordered
or not.  Its determinant or adjugate is one integer computation at t = X,
read back as signed base-X digits; these tests check the digit reader, the coefficient
bound behind X, and the results against cofactor expansion of the pencil's
Laurent entries.
"""

import random
from math import isqrt

import pytest

from gordian import seifert
from gordian.laurent import LaurentPoly
from gordian.seifert import (
    SeifertMatrix,
    _digits,
    adjugate_laurent,
    alexander,
    det_bordered,
    det_laurent,
)
from gordian.verify import random_seifert
from oracles import adjugate_by_cofactors, det_by_cofactors, pencil_entries

BIG = 10**6


def random_matrix(rng, n, bound=BIG):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def zero_row_and_column(rng, A):
    """Zero row and column z of A, which zeroes row and column z of the pencil."""
    z = rng.randrange(len(A))
    A[z] = [0] * len(A)
    for row in A:
        row[z] = 0
    return z


def equal_rows(rng, A):
    """Make rows i and j of the pencil equal: A's rows i and j, then its
    columns i and j."""
    i, j = rng.sample(range(len(A)), 2)
    A[j] = list(A[i])
    for row in A:
        row[j] = row[i]


def symmetric_singular(rng, n, bound=BIG):
    """A symmetric A with det(A) = 0, so A - tA^T = (1 - t) A is singular."""
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(-bound, bound)
    if n > 1:
        i, j = rng.sample(range(n), 2)
        A[j] = list(A[i])
        for row in A:
            row[j] = row[i]
    else:
        A[0][0] = 0
    assert seifert.det_int(A) == 0
    return A


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
        not_unimodular = 0
        for n in range(9):
            for _ in range(4 if n < 7 else 2):
                A = random_matrix(rng, n)
                det = det_laurent(A)
                assert det == det_by_cofactors(pencil_entries(A))
                # the coefficients sum to det(A - A^T), 0 for odd n
                not_unimodular += det.evaluate(1) != 1
        assert not_unimodular >= 20

    def test_zero_row(self):
        rng = random.Random(44)
        for n in range(1, 9):
            A = random_matrix(rng, n)
            zero_row_and_column(rng, A)
            assert det_laurent(A).is_zero

    def test_two_equal_rows(self):
        rng = random.Random(45)
        for n in range(2, 9):
            A = random_matrix(rng, n)
            equal_rows(rng, A)
            assert det_laurent(A).is_zero

    def test_hadamard_extreme(self):
        # |det A| meets Hadamard's bound for A = c H; A is symmetric, so
        # A - tA^T = (1 - t) A and det = det(A) (1 - t)^n
        for n in (1, 2, 4, 8):
            for c in (BIG, -BIG):
                A = [[c * x for x in row] for row in sylvester(n)]
                expected = LaurentPoly.const(seifert.det_int(A))
                for _ in range(n):
                    expected = expected * LaurentPoly({0: 1, 1: -1})
                assert abs(seifert.det_int(A)) == BIG**n * n ** (n // 2)
                assert det_laurent(A) == expected

    def test_symmetric_singular(self):
        rng = random.Random(46)
        for n in range(1, 8):
            assert det_laurent(symmetric_singular(rng, n)).is_zero

    def test_rejects_laurent_entries(self):
        with pytest.raises(TypeError):
            det_laurent([[LaurentPoly({0: 1, 1: -1})]])


class TestAdjugateLaurent:
    def test_against_cofactors_sizes_0_to_6(self):
        rng = random.Random(47)
        for n in range(7):
            for _ in range(3):
                A = random_matrix(rng, n)
                assert adjugate_laurent(A) == adjugate_by_cofactors(pencil_entries(A))

    def test_sizes_7_and_8(self):
        # adj(M) M = det(M) I determines adj(M) once det(M) is nonzero
        rng = random.Random(48)
        for n in (7, 8):
            A = random_matrix(rng, n)
            rows = pencil_entries(A)
            det = det_by_cofactors(rows)
            assert not det.is_zero
            adj = adjugate_laurent(A)
            for i in range(n):
                for j in range(n):
                    entry = sum((adj[i][k] * rows[k][j] for k in range(n)), LaurentPoly.zero())
                    assert entry == (det if i == j else LaurentPoly.zero())

    def test_zero_row(self):
        # a zero row and column of the pencil make it singular: no adjugate
        rng = random.Random(49)
        for n in range(1, 7):
            A = random_matrix(rng, n)
            zero_row_and_column(rng, A)
            with pytest.raises(ValueError, match="singular pencil"):
                adjugate_laurent(A)

    def test_two_equal_rows(self):
        # singular, although the cofactors that omit one of the two rows are not zero
        rng = random.Random(50)
        for n in range(2, 7):
            A = random_matrix(rng, n)
            equal_rows(rng, A)
            assert det_laurent(A).is_zero
            with pytest.raises(ValueError, match="singular pencil"):
                adjugate_laurent(A)

    def test_symmetric_singular(self):
        # (1 - t) A is singular at every t, so at t = X too
        rng = random.Random(55)
        for n in range(1, 7):
            with pytest.raises(ValueError, match="singular pencil"):
                adjugate_laurent(symmetric_singular(rng, n))

    def test_singular_matrix_nonsingular_pencil(self):
        # a zero row of A alone leaves row z of the pencil -t (column z of A)
        rng = random.Random(56)
        for n in range(2, 7):
            A = random_matrix(rng, n)
            A[rng.randrange(n)] = [0] * n
            assert seifert.det_int(A) == 0
            assert not det_laurent(A).is_zero
            assert adjugate_laurent(A) == adjugate_by_cofactors(pencil_entries(A))

    def test_empty(self):
        assert adjugate_laurent([]) == []

    def test_rejects_laurent_entries(self):
        with pytest.raises(TypeError):
            adjugate_laurent([[LaurentPoly({0: 1, 1: -1})]])


def random_border(rng, n, bound=BIG):
    """n Laurent polynomials with exponents -3..3, about a quarter of them zero."""
    out = []
    for _ in range(n):
        if rng.random() < 0.25:
            out.append(LaurentPoly.zero())
        else:
            exps = rng.sample(range(-3, 4), rng.randint(1, 4))
            out.append(LaurentPoly({e: rng.randint(-bound, bound) or 1 for e in exps}))
    return out


def bordered_entries(A, v, u):
    """[[A - tA^T, u], [v^T, 0]] as Laurent entries."""
    rows = [row + [p] for row, p in zip(pencil_entries(A), u)]
    return rows + [list(v) + [LaurentPoly.zero()]]


class TestDetBordered:
    def test_against_cofactors_sizes_0_to_10(self):
        rng = random.Random(57)
        for n in range(11):
            for _ in range(3 if n < 8 else 1):
                A = random_matrix(rng, n)
                v, u = random_border(rng, n), random_border(rng, n)
                assert det_bordered(A, v, u) == det_by_cofactors(bordered_entries(A, v, u))

    def test_zero_borders(self):
        rng = random.Random(58)
        assert det_bordered([], [], []).is_zero
        for n in range(1, 7):
            A = random_matrix(rng, n)
            v = random_border(rng, n)
            v[0] = LaurentPoly({-2: BIG})
            zero = [LaurentPoly.zero()] * n
            assert det_bordered(A, v, zero).is_zero
            assert det_bordered(A, zero, v).is_zero

    def test_cauchy_expansion(self):
        # -det [[M, e_j], [e_i^T, 0]] is the (i, j) entry of adj(M)
        rng = random.Random(59)
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        for n in range(1, 6):
            A = random_matrix(rng, n)
            adj = adjugate_by_cofactors(pencil_entries(A))
            for i in range(n):
                for j in range(n):
                    e_i = [one if k == i else zero for k in range(n)]
                    e_j = [one if k == j else zero for k in range(n)]
                    assert -det_bordered(A, e_i, e_j) == adj[i][j]

    def test_singular_pencil(self):
        # no adjugate exists, but the bordered determinant does
        rng = random.Random(60)
        for n in range(1, 7):
            A = symmetric_singular(rng, n)
            v, u = random_border(rng, n), random_border(rng, n)
            assert det_bordered(A, v, u) == det_by_cofactors(bordered_entries(A, v, u))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length 2"):
            det_bordered([[1, 0], [0, 1]], [LaurentPoly.one()], [LaurentPoly.one()] * 2)


def hadamard_bound(norms):
    """Hadamard's coefficient bound from the full matrix of coefficient
    1-norms: isqrt of the product of the rows' sums of squares (a zero row
    counting as 1), plus 1."""
    product = 1
    for row in norms:
        product *= max(1, sum(x * x for x in row))
    return isqrt(product) + 1


def pencil_norms(A):
    return [[abs(a) + abs(b) for a, b in zip(row, col)] for row, col in zip(A, zip(*A))]


def norm1(p):
    return sum(abs(c) for c in p.terms.values())


def radix_test_matrix(rng, i):
    """A small random matrix; some have a zero row, a zero row and column, or
    one entry of 10^6."""
    n = rng.randint(1, 8)
    A = random_matrix(rng, n, bound=9)
    if i % 3 == 0:
        A[rng.randrange(n)] = [0] * n
    if i % 5 == 0:
        zero_row_and_column(rng, A)
    if i % 4 == 0:
        A[rng.randrange(n)][rng.randrange(n)] = BIG
    return A


class TestRadix:
    """X is exactly the radix of Hadamard's bound.  A larger X would pass
    every determinant test, only slower."""

    def test_pencil(self):
        rng = random.Random(61)
        for i in range(300):
            A = radix_test_matrix(rng, i)
            X, values = seifert._pencil(A)
            assert X == seifert._radix(hadamard_bound(pencil_norms(A)))
            assert values == [[a - X * b for a, b in zip(row, col)] for row, col in zip(A, zip(*A))]

    def test_det_bordered(self, monkeypatch):
        bounds = []
        radix = seifert._radix
        monkeypatch.setattr(seifert, "_radix", lambda bound: bounds.append(bound) or radix(bound))
        rng = random.Random(62)
        for i in range(200):
            A = radix_test_matrix(rng, i)
            v, u = random_border(rng, len(A), bound=9), random_border(rng, len(A), bound=9)
            # exponents of a random border lie in -3..3: neither side is zero
            v[0] = v[0] + LaurentPoly({-4: 1})
            u[-1] = u[-1] + LaurentPoly({4: BIG})
            det_bordered(A, v, u)
            norms = [row + [norm1(p)] for row, p in zip(pencil_norms(A), u)]
            norms.append([norm1(p) for p in v] + [0])
            assert bounds[-1] == hadamard_bound(norms)
        assert len(bounds) == 200


class TestAdjugateInt:
    """The integer adjugate by one fraction-free Gauss-Jordan elimination,
    which refuses a singular matrix."""

    @staticmethod
    def oracle(m):
        rows = [[LaurentPoly.const(x) for x in row] for row in m]
        adj = adjugate_by_cofactors(rows)
        assert all(p.terms.keys() <= {0} for row in adj for p in row)
        return [[p.coeff(0) for p in row] for row in adj]

    def check(self, m):
        # nonsingular: the cofactor oracle; singular: ValueError
        before = [list(row) for row in m]
        if seifert.det_int(m) == 0:
            with pytest.raises(ValueError, match="singular pencil"):
                seifert._adjugate_int(m)
        else:
            assert seifert._adjugate_int(m) == self.oracle(m)
        assert m == before

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
        cases = [[[0]], [[2, 4], [1, 2]]]
        for n in range(1, 8):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m[rng.randrange(n)] = [0] * n
            cases.append(m)
            if n > 1:
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                i, j = rng.sample(range(n), 2)
                m[j] = list(m[i])
                cases.append(m)
        for m in cases:
            assert seifert.det_int(m) == 0
            self.check(m)


class TestAlexander:
    def test_large_entries(self):
        rng = random.Random(51)
        for i in range(12):
            n = (2, 4, 6, 8)[i % 4]
            V = random_seifert(rng, n, bound=1000)
            expected = det_by_cofactors(pencil_entries(V.rows)).shift(-(n // 2))
            assert alexander(V) == expected


class TestRadixTooSmall:
    """With a radix below twice the coefficient bound the digits wrap, and
    the leftover assertion must fire rather than return a wrong answer."""

    def test_det_laurent(self, monkeypatch):
        monkeypatch.setattr(seifert, "_radix", lambda norms: 4)
        with pytest.raises(AssertionError, match="radix"):
            det_laurent([[1000]])

    def test_adjugate_laurent(self, monkeypatch):
        monkeypatch.setattr(seifert, "_radix", lambda norms: 4)
        with pytest.raises(AssertionError, match="radix"):
            adjugate_laurent([[1, 1], [1, 1000]])

    def test_det_bordered(self, monkeypatch):
        monkeypatch.setattr(seifert, "_radix", lambda norms: 4)
        with pytest.raises(AssertionError, match="radix"):
            det_bordered([[1000]], [LaurentPoly({-1: 7})], [LaurentPoly({2: 9})])

    def test_alexander(self, monkeypatch):
        # the Alexander polynomial is read off while the matrix is validated
        rows = [[1000, 1], [0, 1000]]
        delta = LaurentPoly({1: 10**6, 0: 1 - 2 * 10**6, -1: 10**6})
        assert alexander(SeifertMatrix(rows)) == delta
        monkeypatch.setattr(seifert, "_radix", lambda norms: 4)
        with pytest.raises(AssertionError, match="radix"):
            SeifertMatrix(rows)
