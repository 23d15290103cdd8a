"""Slow, independent reference implementations used only by the tests.

They share no code with the integer pencil core in ``gordian.seifert`` or
the number theory in ``gordian.numtheory``: determinants by cofactor
expansion over the Laurent ring, the pairing numerator multiplied out entry
by entry, the signature by congruence diagonalisation over the rationals,
and the Murakami condition and the quadratic form by linear scans.  The
cc-bar search runs the whole window, reversal pairs included, and the
cyclicity of the double cover's H1 is read off ranks modulo primes.
"""

import itertools
from fractions import Fraction
from math import isqrt

from gordian.laurent import LaurentPoly, is_multiple


def pencil_entries(A):
    """The pencil A - tA^T of an integer matrix A, as Laurent entries."""
    return [[LaurentPoly({0: a, 1: -b}) for a, b in zip(row, col)] for row, col in zip(A, zip(*A))]


def det_by_cofactors(rows) -> LaurentPoly:
    """Laplace expansion along the first column.

    The minor on columns k, k+1, ... is memoised by the rows it keeps, so
    an n x n matrix costs about n 2^n products rather than n!.
    """
    n = len(rows)
    memo = {}

    def minor(keep):
        col = n - len(keep)
        if col == n:
            return LaurentPoly.one()
        if keep not in memo:
            total = LaurentPoly.zero()
            for pos, i in enumerate(keep):
                c = rows[i][col]
                if c.is_zero:
                    continue
                term = c * minor(keep[:pos] + keep[pos + 1 :])
                total = total + term if pos % 2 == 0 else total - term
            memo[keep] = total
        return memo[keep]

    return minor(tuple(range(n)))


def adjugate_by_cofactors(rows):
    """Transpose of the cofactor matrix, so adj(M) M = det(M) I."""
    n = len(rows)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]
            cof = det_by_cofactors(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def pairing_by_entries(adj, v, w) -> LaurentPoly:
    """The pairing numerator (t - 1) sum_ij v_i adj_ij bar(w_j), multiplied
    out entry by entry in the Laurent ring from the adjugate adj."""
    n = len(v)
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
    return LaurentPoly({1: 1, 0: -1}) * acc


def signature_over_q(V) -> int:
    """Signature of V + V^T by exact congruence diagonalisation over Q."""
    n = V.size
    a = [[Fraction(V[i][j] + V[j][i]) for j in range(n)] for i in range(n)]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    continue
                for l in range(n):
                    a[k][l] += a[j][l]
                for l in range(n):
                    a[l][k] += a[l][j]
        p = a[k][k]
        if p == 0:
            continue
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                for j in range(n):
                    a[i][j] -= f * a[k][j]
                for j in range(n):
                    a[j][i] -= f * a[j][k]
    return pos - neg


def _rank_mod(rows, p) -> int:
    """Rank of an integer matrix over F_p, by Gaussian elimination."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col] * inv
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def double_cover_cyclic_by_ranks(V) -> bool:
    """Whether coker(V + V^T) is cyclic: exactly when V + V^T keeps rank at
    least n - 1 over F_p for every prime p, and only a p whose square
    divides det(V + V^T) can lose two.  The determinant comes from exact
    elimination over Q and its primes from trial division."""
    n = V.size
    s = [[V[i][j] + V[j][i] for j in range(n)] for i in range(n)]
    a = [[Fraction(x) for x in row] for row in s]
    det = Fraction(1)
    for k in range(n):
        pivot = next(i for i in range(k, n) if a[i][k])
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    det = abs(int(det))
    primes = [p for p in range(2, isqrt(det) + 1) if all(p % k for k in range(2, isqrt(p) + 1))]
    return all(det % (p * p) or _rank_mod(s, p) >= n - 1 for p in primes)


def murakami_by_scan(det1, det2):
    """(obstructs, smallest witness) for 4 d^2 = +-(det1 - det2) mod 2 det1,
    trying every d in one full residue system."""
    mod, diff = 2 * det1, det1 - det2
    for d in range(mod):
        if (4 * d * d - diff) % mod == 0 or (4 * d * d + diff) % mod == 0:
            return False, d
    return True, None


def _signed_range(bound):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def quadform_by_box(h, d, bound=10_000):
    """(outcome, x, y, sign, searched_bound) for h^2 x^2 + (2h-1) xy + y^2 = +-d.

    For h >= 1 every (x, y) of the box that bounds all solutions is tried in
    the order 0, 1, -1, 2, ...; for h <= -1 each |x| <= bound is tried with y
    solved from the discriminant, and no solution there is inconclusive.
    """
    if h >= 1:
        bx = isqrt(4 * abs(d) // (4 * h - 1))
        by = isqrt(4 * h * h * abs(d) // (4 * h - 1))
        for x in _signed_range(bx):
            for y in _signed_range(by):
                v = h * h * x * x + (2 * h - 1) * x * y + y * y
                if v == d:
                    return "witness", x, y, 1, None
                if v == -d:
                    return "witness", x, y, -1, None
        return "refuted", None, None, None, None
    for x in _signed_range(bound):
        for s in (1, -1):
            disc = (1 - 4 * h) * x * x + 4 * s * d
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            for pm in (root, -root) if root else (0,):
                num = -(2 * h - 1) * x + pm
                if num % 2 == 0:
                    return "witness", x, num // 2, s, None
    return "inconclusive", None, None, None, bound


def cc_bar_by_full_window(delta, delta_prime, max_breadth, max_coeff):
    """(c, sign) of the first c bar(c) = sign * delta_prime mod delta, or None.

    Every c of breadth <= max_breadth with support from exponent 0, positive
    lowest coefficient and coefficients bounded by max_coeff is tried for both
    signs, breadth by breadth, in the order 0, 1, -1, 2, ... at each exponent.
    """
    lead = range(1, max_coeff + 1)
    signed = list(_signed_range(max_coeff))
    nonzero = [v for v in signed if v]
    for breadth in range(max_breadth + 1):
        slots = [lead] + [signed] * (breadth - 1) + [nonzero] if breadth else [lead]
        for coeffs in itertools.product(*slots):
            c = LaurentPoly(dict(enumerate(coeffs)))
            cc = c * c.bar()
            for sign in (1, -1):
                if is_multiple(sign * delta_prime - cc, delta):
                    return c, sign
    return None
