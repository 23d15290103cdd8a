"""Slow, independent reference implementations used only by the tests.

They share no code with the integer pencil core in ``gordian.seifert``:
determinants by cofactor expansion over the Laurent ring, and the signature
by congruence diagonalisation over the rationals.
"""

from fractions import Fraction

from gordian.laurent import LaurentPoly


def det_by_cofactors(rows) -> LaurentPoly:
    """Laplace expansion along the first column."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    total = LaurentPoly.zero()
    for i in range(n):
        c = rows[i][0]
        if c.is_zero:
            continue
        term = c * det_by_cofactors([row[1:] for k, row in enumerate(rows) if k != i])
        total = total + term if i % 2 == 0 else total - term
    return total


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
