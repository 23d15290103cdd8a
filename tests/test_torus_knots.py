"""Torus knots T(2, 2k+1), a corpus whose distances are known exactly.

V_k is the 2k x 2k matrix with -1 on the diagonal and 1 just above it; V_1
is the bundled trefoil.  Its signature is -2k, and between T(2, 2a+1) and
T(2, 2b+1) the Gordian distance and the algebraic Gordian distance are both
|a - b|: the signature bound |sigma_a - sigma_b| / 2 gives it from below,
and changing |a - b| crossings of the 2-braid gives it from above.  So no
certified lower bound may exceed |a - b|, in either argument order, whether
the sides are given as matrices or as their Alexander polynomials.
"""

import itertools

import pytest

from gordian.obstruct import SearchBounds, build_report
from gordian.seifert import SeifertMatrix, alexander, signature
from gordian.tables import load_entries

KS = range(1, 7)
BOUNDS = SearchBounds(2, 2, 60)
KINDS = ("matrix", "polynomial")


def torus_matrix(k: int) -> SeifertMatrix:
    n = 2 * k
    return SeifertMatrix([[-1 if j == i else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


def _input(k, kind):
    V = torus_matrix(k)
    return V if kind == "matrix" else alexander(V)


@pytest.fixture(scope="module")
def reports():
    """(a, b, kind, report) for each ordered pair a != b and each kind."""
    return [
        (a, b, kind, build_report(_input(a, kind), _input(b, kind), bounds=BOUNDS))
        for a, b in itertools.permutations(KS, 2)
        for kind in KINDS
    ]


def test_signature_and_trefoil():
    assert torus_matrix(1) == load_entries()["3_1"].matrix
    for k in KS:
        assert signature(torus_matrix(k)) == -2 * k


def test_no_bound_exceeds_the_distance(reports):
    assert len(reports) == 60
    for a, b, kind, r in reports:
        known = abs(a - b)
        assert r.rho_lower <= known and r.dga_lower <= known and r.dg_lower <= known, (a, b, kind)
        for c in r.criteria:
            assert max(c.rho_lower, c.dga_lower, c.dg_lower) <= known, (a, b, kind, c)


def test_share_of_exact_bounds(reports):
    # floors measured on this corpus; a new criterion should raise them
    matrix = [(a, b, r) for a, b, kind, r in reports if kind == "matrix"]
    assert sum(r.dga_lower == abs(a - b) for a, b, r in matrix) >= 10
    assert sum(r.dg_lower == abs(a - b) for a, b, _, r in reports) >= 40
