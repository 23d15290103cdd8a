"""Seeded input generators owned by the benchmark.

These do not import gordian, so a change to the code under test (its own
random generators included) cannot change the inputs.  Polynomials are
``{exponent: coefficient}`` dicts as in ``oracle``; matrices are lists of
integer rows and reach the program as files, the way users supply them.
"""

from __future__ import annotations

import random

import oracle

SMALL_H = (1, 2, 3, 5)  # |h| values that give an automatic u_a = 1 certificate
ENTRY_BOUND = 3  # |entries| of the symmetric part of a random Seifert matrix


def random_seifert(rng: random.Random, size: int):
    """A random even-size V with det(V - V^T) = 1.

    V = S + U with S symmetric, nonzero entries in [-ENTRY_BOUND, ENTRY_BOUND], and U the
    block staircase with a single 1 above the diagonal of each 2x2 block, so
    V - V^T = U - U^T is block diagonal with determinant 1.  No entry of
    tV - V^T is zero, so the cost of cofactor expansion does not depend on
    where zeros happen to fall.
    """
    values = [v for v in range(-ENTRY_BOUND, ENTRY_BOUND + 1) if v]
    V = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            V[i][j] = V[j][i] = rng.choice(values)
    for k in range(0, size, 2):
        V[k][k + 1] += 1
    return V


def symmetric_delta(rng: random.Random, half_breadth: int, bound: int = 3):
    """Random symmetric Delta with Delta(1) = 1 and breadth 2 * half_breadth."""
    p = {}
    for e in range(1, half_breadth + 1):
        c = rng.randint(-bound, bound)
        if e == half_breadth and c == 0:
            c = rng.choice((-1, 1)) * rng.randint(1, bound)
        p[e] = p[-e] = c
    p[0] = 1 - 2 * sum(p[e] for e in range(1, half_breadth + 1))
    return oracle.norm(p)


def with_residue(rng: random.Random, delta, residue):
    """A symmetric Delta' = residue + delta * q with Delta'(1) = 1.

    q = a t + b + a t^-1 with q(1) = 1 - residue, so Delta' has canonical
    remainder ``residue`` modulo delta (its breadth exceeds delta's).
    """
    a = rng.choice((-1, 1)) * rng.randint(1, 3)
    q = {1: a, -1: a, 0: 1 - residue - 2 * a}
    return oracle.add(oracle.mul(delta, q), {0: residue})


def has_certificate(delta) -> bool:
    """Whether gordian certifies u_a = 1 from the polynomial alone."""
    return any(delta == oracle.h_form(h) for h in SMALL_H)


def write_matrix(path, V) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(" ".join(str(x) for x in row) for row in V) + "\n")
    return str(path)
