"""Pairs one step apart with a certified u_a = 1 side, as an oracle for
every residue criterion.

K = unknotting_border(W, eps, x, M, N) for W the 0x0 matrix or an
enlargement of it.  W is S-equivalent to the 0x0 matrix, so one algebraic
unknotting step takes K to the trivial class, and u_a(K) = 1 exactly
whenever Delta(K) != 1: a report may pass u_a = 1 for K honestly.  K' is
one step from K: a diagonal crossing change K +- E_ii (see
tests/test_crossing_change.py), or an unknotting_border of K in any of the
four variants.  So dga(K, K') <= 1, and no criterion may certify a bound
above 1 on the pair, in either order, as matrices or as polynomials.

Random matrices rarely carry a certified u_a = 1 side, so on them the
residue criteria (parity, quadratic-form, cc-bar-witness, murakami) seldom
apply; here every report has one.
"""

import random

import pytest

from gordian.obstruct import SearchBounds, build_report
from gordian.seifert import (
    BORDER_VARIANTS,
    SeifertMatrix,
    alexander,
    enlarge,
    signature,
    unknotting_border,
)
from gordian.verify import random_vector
from oracles import signature_over_q

SEED = 19
PAIRS = 120
BOUNDS = SearchBounds(cc_max_breadth=2, cc_max_coeff=2)
EMPTY = SeifertMatrix([])


def _border(rng, V):
    """A random algebraic unknotting step on V."""
    return unknotting_border(
        V,
        rng.choice((1, -1)),
        rng.randint(-3, 3),
        random_vector(rng, V.size),
        random_vector(rng, V.size),
        rng.choice(BORDER_VARIANTS),
    )


def unknotting_one(rng):
    """A matrix K with u_a(K) = 1: one step from 0x0 or from an enlargement
    of it."""
    while True:
        W = EMPTY
        for _ in range(rng.randrange(3)):
            W = enlarge(W, rng.choice(("row-border", "column-border")), rng.randint(-3, 3),
                        random_vector(rng, W.size), random_vector(rng, W.size))
        K = _border(rng, W)
        if alexander(K) != 1:
            return K


def one_step(rng, K):
    """K +- E_ii or an unknotting_border of K."""
    if rng.random() < 0.5:
        i, eps = rng.randrange(K.size), rng.choice((1, -1))
        return SeifertMatrix([[a + eps * (j == k == i) for k, a in enumerate(row)] for j, row in enumerate(K.rows)])
    return _border(rng, K)


def one_step_pairs():
    rng = random.Random(SEED)
    return [(K, one_step(rng, K)) for K in (unknotting_one(rng) for _ in range(PAIRS))]


@pytest.fixture(scope="module")
def pairs():
    return one_step_pairs()


@pytest.fixture(scope="module")
def reports(pairs):
    """Matrix and polynomial sides in both orders, with u_a = 1 on K."""
    out = []
    for K, L in pairs:
        for a, b in ((K, L), (alexander(K), alexander(L))):
            out.append(build_report(a, b, ua1=1, bounds=BOUNDS))
            out.append(build_report(b, a, ua2=1, bounds=BOUNDS))
    return out


def test_signatures_match_the_rational_oracle(pairs):
    # the signature criterion reads these on every matrix side
    for K, L in pairs:
        assert signature(K) == signature_over_q(K), K
        assert signature(L) == signature_over_q(L), L


def test_no_report_certifies_more_than_one(reports):
    above = [
        (r.label1, r.label2, c.name, c.certificate)
        for r in reports
        for c in r.criteria
        if max(c.rho_lower, c.dga_lower, c.dg_lower) > 1
    ]
    assert above == []
    assert all(max(r.rho_lower, r.dga_lower, r.dg_lower) <= 1 for r in reports)


def test_the_residue_criteria_apply(pairs, reports):
    # not vacuous: the pairs reach sizes 2 to 8, every criterion applies to
    # some report, cc-bar and murakami to every pair with distinct
    # polynomials (rho_upper 2), and most reports certify a bound of 1
    assert {K.size for K, _ in pairs} == {2, 4, 6} and max(L.size for _, L in pairs) == 8
    applied = {c.name for r in reports for c in r.criteria if c.applicable}
    assert {"parity", "quadratic-form", "cc-bar-witness", "murakami", "signature"} <= applied
    distinct = [r for r in reports if r.rho_upper]
    assert len(distinct) > 0.9 * len(reports)
    assert all(c.applicable for r in distinct for c in r.criteria if c.name in ("cc-bar-witness", "murakami"))
    assert sum(r.dga_lower == 1 for r in reports) > 0.9 * len(reports)
