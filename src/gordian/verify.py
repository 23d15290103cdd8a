"""Seeded randomized verification suites.

Each suite draws its cases from an explicit 64 bit seed, so a run is fully
deterministic.  A failing case is reduced by greedily zeroing scalars while
the failure persists, then dumped in the suite result.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple

from .laurent import LaurentPoly
from .seifert import (
    BORDER_VARIANTS,
    SeifertMatrix,
    alexander,
    congruent_transform,
    det_laurent,
    enlarge,
    signature,
    try_reduce,
    unknotting_border,
)
from .blanchfield import border_self_pairing_check, fractions_equal, pairing
from .obstruct import form_value, quadform_represents


class SuiteResult(
    namedtuple(
        "SuiteResult",
        ("name", "seed", "iterations", "failures", "counterexample"),
        defaults=(None,),
    )
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0


# -- random generators -----------------------------------------------------------


def random_seifert_rows(rng: random.Random, size: int, bound: int = 3) -> list:
    """The rows of a random valid Seifert matrix: a symmetric part plus the
    staircase that fixes det(V - V^T) = 1.  Entries stay within
    [-bound, bound]."""
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = v
    for k in range(0, size, 2):
        if rows[k][k + 1] >= bound:
            rows[k][k + 1] -= 1
            rows[k + 1][k] -= 1
        rows[k][k + 1] += 1
    return rows


def random_seifert(rng: random.Random, size: int, bound: int = 3) -> SeifertMatrix:
    """random_seifert_rows as a SeifertMatrix."""
    return SeifertMatrix(random_seifert_rows(rng, size, bound))


def random_unimodular(rng: random.Random, size: int):
    """A random product of six elementary integer row operations; det is +-1."""
    P = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(6):
        kind = rng.randrange(3)
        i, j = rng.sample(range(size), 2) if size >= 2 else (0, 0)
        if kind == 0 and i != j:
            k = rng.choice((-2, -1, 1, 2))
            for col in range(size):
                P[i][col] += k * P[j][col]
        elif kind == 1 and i != j:
            P[i], P[j] = P[j], P[i]
        else:
            P[i] = [-x for x in P[i]]
    return P


def random_vector(rng: random.Random, size: int):
    return [rng.randint(-3, 3) for _ in range(size)]


def random_laurent(rng: random.Random) -> LaurentPoly:
    terms = {}
    for exp in range(-5, 6):
        if rng.random() < 0.4:
            terms[exp] = rng.randint(-20, 20)
    return LaurentPoly(terms)


def small_laurent(rng: random.Random) -> LaurentPoly:
    return LaurentPoly({e: rng.randint(-2, 2) for e in range(-1, 2)})


# -- counterexample shrinking -------------------------------------------------------


def _leaves(value):
    """The leaves of a nested list or tuple in order: an int that is not a
    bool as itself, any other leaf as None."""
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value if isinstance(value, int) and not isinstance(value, bool) else None]


def _rebuild(value, values):
    """value with each leaf replaced by the next of values, a None keeping
    the leaf as it is."""
    if isinstance(value, (list, tuple)):
        items = [_rebuild(item, values) for item in value]
        return tuple(items) if isinstance(value, tuple) else items
    new = next(values)
    return value if new is None else new


def minimize_case(case, still_fails):
    """Greedily zero scalars of a failing case while it keeps failing."""
    flat = _leaves(case)
    changed = True
    while changed:
        changed = False
        for idx, v in enumerate(flat):
            if v in (None, 0):
                continue
            trial = list(flat)
            trial[idx] = 0
            candidate = _rebuild(case, iter(trial))
            try:
                if still_fails(candidate):
                    flat = trial
                    case = candidate
                    changed = True
            except Exception:
                pass
    return case


# -- individual suites ----------------------------------------------------------------


def _loop(name, seed, iters, draw, check, describe):
    rng = random.Random(seed)
    for i in range(iters):
        case = draw(rng, i)
        ok = False
        try:
            ok = check(case)
        except Exception:
            ok = False
        if not ok:
            def fails(c):
                # a shrink that merely makes the case invalid is not kept
                try:
                    return check(c) is False
                except Exception:
                    return False

            small = minimize_case(case, fails)
            return SuiteResult(name, seed, i + 1, 1, describe(small))
    return SuiteResult(name, seed, iters, 0)


def suite_ring_axioms(seed: int, iters: int = 1000) -> SuiteResult:
    """Associativity, commutativity, distributivity, and the involution laws."""

    def draw(rng, _):
        return tuple(sorted(random_laurent(rng).terms.items()) for _ in range(3))

    def check(case):
        p, q, r = (LaurentPoly(dict(c)) for c in case)
        # shared subterms are taken once; the two sides of each identity
        # are still different expressions
        pq, pb, qb = p * q, p.bar(), q.bar()
        if (p + q) + r != p + (q + r):
            return False
        if pq * r != p * (q * r):
            return False
        if p * (q + r) != pq + p * r:
            return False
        if pq != q * p:
            return False
        if pq.bar() != pb * qb:
            return False
        if (p + q).bar() != pb + qb:
            return False
        if pb.bar() != p:
            return False
        return (p * pb).is_bar_symmetric()

    return _loop("ring-axioms", seed, iters, draw, check, lambda c: f"polynomial terms: {c}")


def _border_case(rng, i):
    size = (0, 2, 4)[i % 3]
    inner = random_seifert_rows(rng, size)
    eps = rng.choice((1, -1))
    x = rng.randint(-3, 3)
    M = random_vector(rng, size)
    N = random_vector(rng, size)
    return inner, eps, x, M, N


def suite_border_determinant(seed: int, iters: int = 200) -> SuiteResult:
    """Symbolic expansion identity for a once-bordered matrix.

    With W the border of W' by (eps, x, M, N):
    det(W - tW^T) = eps(1-t) det[[x(1-t), M-tN], [N^T-tM^T, W'-tW'^T]]
                    + t det(W' - tW'^T).
    """

    def check(case):
        inner_rows, eps, x, M, N = case
        if eps not in (1, -1):
            return True
        inner = SeifertMatrix(inner_rows)
        outer = unknotting_border(inner, eps, x, M, N, "a+")
        # det(W - tW^T) = t^(m/2) Delta(W) for a Seifert matrix W of size m;
        # the block is A - tA^T for A = [[x, M], [N^T, W']]
        lhs = alexander(outer).shift(outer.size // 2)
        inner_det = alexander(inner).shift(inner.size // 2)
        block = det_laurent([[x, *M]] + [[n, *row] for n, row in zip(N, inner.rows)])
        rhs = LaurentPoly({0: eps, 1: -eps}) * block + LaurentPoly.monomial(1) * inner_det
        return lhs == rhs

    return _loop(
        "eq5",
        seed,
        iters,
        _border_case,
        check,
        lambda c: f"inner = {c[0]}, eps = {c[1]}, x = {c[2]}, M = {c[3]}, N = {c[4]}",
    )


def suite_sequiv(seed: int, iters: int = 500) -> SuiteResult:
    """Invariance of (Alexander, signature, determinant) under congruence,
    enlargement, and all four border variants; reduction round-trips."""

    def draw(rng, i):
        size = (2, 4)[i % 2]
        rows = random_seifert_rows(rng, size)
        P = random_unimodular(rng, size)
        kind = rng.choice(("row-border", "column-border"))
        x = rng.randint(-3, 3)
        M = random_vector(rng, size)
        N = random_vector(rng, size)
        eps = rng.choice((1, -1))
        return rows, P, kind == "row-border", x, M, N, eps

    def triple(V):
        delta = alexander(V)
        return delta, signature(V), abs(delta.evaluate(-1))

    def check(case):
        rows, P, is_row, x, M, N, eps = case
        if eps not in (1, -1):
            return True
        V = SeifertMatrix(rows)
        expected = triple(V)
        if triple(congruent_transform(V, P)) != expected:
            return False
        kind = "row-border" if is_row else "column-border"
        E = enlarge(V, kind, x, M, N)
        if triple(E) != expected:
            return False
        if try_reduce(E) != V:
            return False
        variants = {
            triple(unknotting_border(V, eps, x, M, N, variant))
            for variant in BORDER_VARIANTS
        }
        return len(variants) == 1

    return _loop(
        "sequiv",
        seed,
        iters,
        draw,
        check,
        lambda c: f"V = {c[0]}, P = {c[1]}, row_border = {c[2]}, x = {c[3]}, M = {c[4]}, N = {c[5]}, eps = {c[6]}",
    )


def suite_sesquilinear(seed: int, iters: int = 200) -> SuiteResult:
    """pairing(a x, b y) equals a bar(b) pairing(x, y) in Q(L)/L."""

    def draw(rng, i):
        size = (2, 4)[i % 2]
        rows = random_seifert_rows(rng, size)
        x = [sorted(small_laurent(rng).terms.items()) for _ in range(size)]
        y = [sorted(small_laurent(rng).terms.items()) for _ in range(size)]
        a = sorted(small_laurent(rng).terms.items())
        b = sorted(small_laurent(rng).terms.items())
        return rows, x, y, a, b

    def check(case):
        rows, x_terms, y_terms, a_terms, b_terms = case
        V = SeifertMatrix(rows)
        x = [LaurentPoly(dict(t)) for t in x_terms]
        y = [LaurentPoly(dict(t)) for t in y_terms]
        a = LaurentPoly(dict(a_terms))
        b = LaurentPoly(dict(b_terms))
        lhs = pairing(V, [a * c for c in x], [b * c for c in y])
        rhs = pairing(V, x, y).scale(a * b.bar())
        return fractions_equal(lhs, rhs)

    return _loop(
        "sesquilinear",
        seed,
        iters,
        draw,
        check,
        lambda c: f"V = {c[0]}, x = {c[1]}, y = {c[2]}, a = {c[3]}, b = {c[4]}",
    )


def suite_border_pairing(seed: int, iters: int = 200) -> SuiteResult:
    """Self-pairing of the new generator of a bordered matrix equals
    eps Delta(inner) / Delta(outer)."""

    def check(case):
        inner_rows, eps, x, M, N = case
        if eps not in (1, -1):
            return True
        inner = SeifertMatrix(inner_rows)
        outer = unknotting_border(inner, eps, x, M, N, "a+")
        return border_self_pairing_check(outer, inner)

    return _loop(
        "main-theorem",
        seed,
        iters,
        _border_case,
        check,
        lambda c: f"inner = {c[0]}, eps = {c[1]}, x = {c[2]}, M = {c[3]}, N = {c[4]}",
    )


QUADFORM_H_VALUES = (1, 2, 3, 5, 7)
QUADFORM_D_LIMIT = 50
QUADFORM_ORACLE_BOX = 60


@functools.cache
def quadform_oracle_values(h: int) -> frozenset:
    """All values of the form with |x|, |y| <= QUADFORM_ORACLE_BOX, clipped
    to [0, QUADFORM_D_LIMIT].  Built once per h in a process."""
    box = range(-QUADFORM_ORACLE_BOX, QUADFORM_ORACLE_BOX + 1)
    values = set()
    for x in box:
        for y in box:
            v = form_value(h, x, y)
            if 0 <= v <= QUADFORM_D_LIMIT:
                values.add(v)
    return frozenset(values)


QUADFORM_GRID = tuple(
    (h, d) for h in QUADFORM_H_VALUES for d in range(-QUADFORM_D_LIMIT, QUADFORM_D_LIMIT + 1) if d
)


def suite_quadform_oracle(seed: int, iters: int = len(QUADFORM_GRID)) -> SuiteResult:
    """The decision procedure agrees with double-loop brute force on the
    grid h in {1,2,3,5,7}, 0 < |d| <= 50.  Case i is grid point i (cycling
    past the end); the default count is the whole grid.  The seed draws
    nothing and is accepted for interface uniformity."""

    def draw(_, i):
        return QUADFORM_GRID[i % len(QUADFORM_GRID)]

    def check(case):
        h, d = case
        if h not in QUADFORM_H_VALUES or not d:
            return True  # off the grid: a shrunk case must stay on it
        table = quadform_oracle_values(h)
        verdict = quadform_represents(h, d)
        if verdict.outcome == "witness":
            return abs(d) in table and form_value(h, verdict.x, verdict.y) == verdict.sign * d
        return verdict.outcome == "refuted" and abs(d) not in table

    return _loop("quadform-oracle", seed, iters, draw, check, lambda c: f"h = {c[0]}, d = {c[1]}")


SUITES = {
    "eq5": suite_border_determinant,
    "sequiv": suite_sequiv,
    "sesquilinear": suite_sesquilinear,
    "main-theorem": suite_border_pairing,
    "quadform-oracle": suite_quadform_oracle,
    "ring-axioms": suite_ring_axioms,
}


def run_suite(name: str, seed: int, iters: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if iters is None:
        return SUITES[name](seed)
    if iters < 1:
        raise ValueError(f"iteration count must be at least 1, got {iters}")
    return SUITES[name](seed, iters)
