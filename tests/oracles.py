"""Slow, independent reference implementations used only by the tests.

They share no code with the integer pencil core in ``gordian.seifert``:
determinants by cofactor expansion over the Laurent ring, and the signature
by congruence diagonalisation over the rationals.
"""

from fractions import Fraction

from gordian.laurent import LaurentPoly


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
