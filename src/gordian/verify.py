"""Seeded randomized verification suites.

One table, ``SUITES``, maps each suite name to its default case count, its
draw, its check and its description of a failing case, and one runner,
``run_suite``, runs any of them.  Each run draws its cases from an explicit
64 bit seed, so it is fully deterministic.  A case is plain nested lists and
tuples of ints, and each check rebuilds its objects from it; that is why the
shrinker can zero any leaf.  The first failing case is reduced by greedily
zeroing scalars while the failure persists, then described in the suite
result.
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


# -- the suites ----------------------------------------------------------------------
# draw(rng, i) returns case i of a run; check(case) returns True when the
# identity holds for it.


def _draw_ring_axioms(rng, _):
    return tuple(sorted(random_laurent(rng).terms.items()) for _ in range(3))


def _check_ring_axioms(case) -> bool:
    """Associativity, commutativity, distributivity, and the involution laws."""
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


def _draw_border(rng, i):
    size = (0, 2, 4)[i % 3]
    inner = random_seifert_rows(rng, size)
    eps = rng.choice((1, -1))
    x = rng.randint(-3, 3)
    M = random_vector(rng, size)
    N = random_vector(rng, size)
    return inner, eps, x, M, N


def _border_case(case):
    """The inner matrix of a bordered case and its a+ border, or None when a
    shrink zeroed eps."""
    inner_rows, eps, x, M, N = case
    if eps not in (1, -1):
        return None
    inner = SeifertMatrix(inner_rows)
    return inner, unknotting_border(inner, eps, x, M, N, "a+")


def _check_eq5(case) -> bool:
    """Symbolic expansion identity for a once-bordered matrix.

    With W the border of W' by (eps, x, M, N):
    det(W - tW^T) = eps(1-t) det[[x(1-t), M-tN], [N^T-tM^T, W'-tW'^T]]
                    + t det(W' - tW'^T).
    """
    bordered = _border_case(case)
    if bordered is None:
        return True
    inner, outer = bordered
    _, eps, x, M, N = case
    # det(W - tW^T) = t^(m/2) Delta(W) for a Seifert matrix W of size m;
    # the block is A - tA^T for A = [[x, M], [N^T, W']]
    lhs = alexander(outer).shift(outer.size // 2)
    inner_det = alexander(inner).shift(inner.size // 2)
    block = det_laurent([[x, *M]] + [[n, *row] for n, row in zip(N, inner.rows)])
    rhs = LaurentPoly({0: eps, 1: -eps}) * block + LaurentPoly.monomial(1) * inner_det
    return lhs == rhs


def _check_main_theorem(case) -> bool:
    """Self-pairing of the new generator of a bordered matrix equals
    eps Delta(inner) / Delta(outer)."""
    bordered = _border_case(case)
    return bordered is None or border_self_pairing_check(bordered[1], bordered[0])


def _describe_border(case) -> str:
    inner, eps, x, M, N = case
    return f"inner = {inner}, eps = {eps}, x = {x}, M = {M}, N = {N}"


def _draw_sequiv(rng, i):
    size = (2, 4)[i % 2]
    rows = random_seifert_rows(rng, size)
    P = random_unimodular(rng, size)
    is_row = rng.choice((True, False))
    x = rng.randint(-3, 3)
    M = random_vector(rng, size)
    N = random_vector(rng, size)
    eps = rng.choice((1, -1))
    return rows, P, is_row, x, M, N, eps


def _invariants(V):
    delta = alexander(V)
    return delta, signature(V), abs(delta.evaluate(-1))


def _check_sequiv(case) -> bool:
    """Invariance of (Alexander, signature, determinant) under congruence,
    enlargement, and all four border variants; reduction round-trips."""
    rows, P, is_row, x, M, N, eps = case
    if eps not in (1, -1):
        return True
    V = SeifertMatrix(rows)
    expected = _invariants(V)
    if _invariants(congruent_transform(V, P)) != expected:
        return False
    E = enlarge(V, "row-border" if is_row else "column-border", x, M, N)
    if _invariants(E) != expected:
        return False
    if try_reduce(E) != V:
        return False
    return len({_invariants(unknotting_border(V, eps, x, M, N, v)) for v in BORDER_VARIANTS}) == 1


def _draw_sesquilinear(rng, i):
    size = (2, 4)[i % 2]
    rows = random_seifert_rows(rng, size)
    x = [sorted(small_laurent(rng).terms.items()) for _ in range(size)]
    y = [sorted(small_laurent(rng).terms.items()) for _ in range(size)]
    a = sorted(small_laurent(rng).terms.items())
    b = sorted(small_laurent(rng).terms.items())
    return rows, x, y, a, b


def _check_sesquilinear(case) -> bool:
    """pairing(a x, b y) equals a bar(b) pairing(x, y) in Q(L)/L."""
    rows, x_terms, y_terms, a_terms, b_terms = case
    V = SeifertMatrix(rows)
    x = [LaurentPoly(dict(t)) for t in x_terms]
    y = [LaurentPoly(dict(t)) for t in y_terms]
    a = LaurentPoly(dict(a_terms))
    b = LaurentPoly(dict(b_terms))
    lhs = pairing(V, [a * c for c in x], [b * c for c in y])
    rhs = pairing(V, x, y).scale(a * b.bar())
    return fractions_equal(lhs, rhs)


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


def _check_quadform_oracle(case) -> bool:
    """The decision procedure agrees with double-loop brute force on the
    grid h in {1,2,3,5,7}, 0 < |d| <= 50.  Case i is grid point i (cycling
    past the end); the default count is the whole grid.  The seed draws
    nothing."""
    h, d = case
    if h not in QUADFORM_H_VALUES or not d:
        return True  # off the grid: a shrunk case must stay on it
    table = quadform_oracle_values(h)
    verdict = quadform_represents(h, d)
    if verdict.outcome == "witness":
        return abs(d) in table and form_value(h, verdict.x, verdict.y) == verdict.sign * d
    return verdict.outcome == "refuted" and abs(d) not in table


# name -> (default count, draw, check, describe); describe(case) is the
# counterexample text of a failing case.
SUITES = {
    "eq5": (200, _draw_border, _check_eq5, _describe_border),
    "sequiv": (
        500,
        _draw_sequiv,
        _check_sequiv,
        lambda c: f"V = {c[0]}, P = {c[1]}, row_border = {c[2]}, x = {c[3]}, M = {c[4]}, N = {c[5]}, eps = {c[6]}",
    ),
    "sesquilinear": (
        200,
        _draw_sesquilinear,
        _check_sesquilinear,
        lambda c: f"V = {c[0]}, x = {c[1]}, y = {c[2]}, a = {c[3]}, b = {c[4]}",
    ),
    "main-theorem": (200, _draw_border, _check_main_theorem, _describe_border),
    "quadform-oracle": (
        len(QUADFORM_GRID),
        lambda _, i: QUADFORM_GRID[i % len(QUADFORM_GRID)],
        _check_quadform_oracle,
        lambda c: f"h = {c[0]}, d = {c[1]}",
    ),
    "ring-axioms": (1000, _draw_ring_axioms, _check_ring_axioms, lambda c: f"polynomial terms: {c}"),
}


def run_suite(name: str, seed: int, iters: int | None = None) -> SuiteResult:
    """Check iters cases of the suite drawn from seed, its default count when
    iters is None.  The first failing case ends the run; it is shrunk and
    described in the result."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    default, draw, check, describe = SUITES[name]
    if iters is None:
        iters = default
    if iters < 1:
        raise ValueError(f"iteration count must be at least 1, got {iters}")
    rng = random.Random(seed)
    for i in range(iters):
        case = draw(rng, i)
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

            return SuiteResult(name, seed, i + 1, 1, describe(minimize_case(case, fails)))
    return SuiteResult(name, seed, iters, 0)
