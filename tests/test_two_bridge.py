"""Two-bridge knots b(p, q), a corpus whose unknotting numbers are known.

V = diag(a_1, ..., a_2n) with 1 just above the diagonal is a Seifert matrix
for every a, because V - V^T is the tridiagonal +-1 form with determinant 1.
S = V + V^T is the form of a linear plumbing, so the double branched cover
is the lens space L(p, q) with p = |det S| and q the determinant of S
without its first row and column, and the knot is b(p, q) (Hodgson and
Rubinstein, "Involutions and isotopies of lens spaces", 1985).  b(p, q)
depends only on p and on q up to q -> +-q^(+-1) modulo p.

Two answers are known from arithmetic alone, and both are decided here by
brute force over residues modulo p:
- u = 1 exactly when p = 2mn +- 1 for coprime m, n > 0 and q or q^-1 is
  +-2n^2 modulo p (Kanenobu and H. Murakami, "Two-bridge knots with
  unknotting number one", 1986);
- if q = +-2x^2 modulo p has no solution, Lickorish's test gives u_a >= 2.

So against the unknot no bound on a u = 1 class may exceed 1, and between
two u = 1 classes none may exceed 2.
"""

import itertools
import random
from math import gcd

import pytest

from gordian.laurent import LaurentPoly
from gordian.obstruct import SearchBounds, build_report
from gordian.seifert import SeifertMatrix, alexander

# at the default window the cc-bar search runs for minutes on some pairs
BOUNDS = SearchBounds(cc_max_breadth=2, cc_max_coeff=2, quadform_bound=60)
# entry ranges by size: size 6 keeps to [-2, 2], 5^6 vectors
ENTRIES = {2: range(-3, 4), 4: range(-3, 4), 6: range(-2, 3)}
UNKNOT = (SeifertMatrix([]), LaurentPoly.const(1))


def _continuant(a) -> int:
    """det of the tridiagonal matrix with 2a_i on the diagonal and 1 beside it."""
    prev, cur = 0, 1
    for x in a:
        prev, cur = cur, 2 * x * cur - prev
    return cur


def plumbing_matrix(a) -> SeifertMatrix:
    n = len(a)
    return SeifertMatrix([[a[i] if j == i else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


def sides(a):
    """(matrix, polynomial) for the entry vector a."""
    V = plumbing_matrix(a)
    return V, alexander(V)


def unknotting_number_one(p: int, q: int) -> bool:
    qs = {q, pow(q, -1, p)}
    for n in range(1, p):
        if qs & {2 * n * n % p, -2 * n * n % p}:
            for m in range(1, (p + 1) // (2 * n) + 1):
                if gcd(m, n) == 1 and p in (2 * m * n - 1, 2 * m * n + 1):
                    return True
    return False


def passes_lickorish(p: int, q: int) -> bool:
    return any((q - 2 * x * x) % p == 0 or (q + 2 * x * x) % p == 0 for x in range(p))


@pytest.fixture(scope="module")
def classes():
    """{(p, q): a} with q the least of +-q^(+-1) mod p, and a the first entry
    vector met; the unknot (p = 1) is left out."""
    out = {}
    for size, entries in ENTRIES.items():
        for a in itertools.product(entries, repeat=size):
            p = abs(_continuant(a))
            if p == 1:
                continue
            q = _continuant(a[1:]) % p
            qi = pow(q, -1, p)
            out.setdefault((p, min(q, -q % p, qi, -qi % p)), a)
    return out


@pytest.fixture(scope="module")
def u_one(classes):
    return [a for (p, q), a in classes.items() if unknotting_number_one(p, q)]


@pytest.fixture(scope="module")
def lickorish_failures(classes):
    return [a for (p, q), a in classes.items() if not passes_lickorish(p, q)]


def _max_bound(report) -> int:
    return max(
        report.rho_lower,
        report.dga_lower,
        report.dg_lower,
        *(max(c.rho_lower, c.dga_lower, c.dg_lower) for c in report.criteria),
    )


def _kinds_and_orders(one, two):
    """Two (matrix, polynomial) sides paired as matrices and as polynomials,
    each in both orders."""
    for x, y in zip(one, two):
        yield x, y
        yield y, x


def test_corpus_and_known_answers_agree(classes, u_one, lickorish_failures):
    assert (len(classes), len(u_one), len(lickorish_failures)) == (1558, 178, 567)
    # the classes first met at sizes 2 and 4
    small = [[a for a in found if len(a) <= 4] for found in (classes.values(), u_one, lickorish_failures)]
    assert tuple(map(len, small)) == (372, 71, 103)
    # a knot with u = 1 passes Lickorish's test: the two formulas agree
    assert not set(u_one) & set(lickorish_failures)
    assert plumbing_matrix((-1, -1)).rows == ((-1, 1), (0, -1))  # the trefoil
    for (p, _), a in classes.items():
        assert abs(alexander(plumbing_matrix(a)).evaluate(-1)) == p


def test_unknotting_number_one_against_the_unknot(u_one):
    reports = [build_report(x, y, bounds=BOUNDS) for a in u_one for x, y in _kinds_and_orders(sides(a), UNKNOT)]
    assert len(reports) == 712
    assert all(_max_bound(r) <= 1 for r in reports)


def test_lickorish_failures_against_the_unknot(lickorish_failures):
    reports = []
    for a in lickorish_failures:
        V = plumbing_matrix(a)
        reports += [build_report(V, UNKNOT[0], bounds=BOUNDS), build_report(UNKNOT[0], V, bounds=BOUNDS)]
    assert len(reports) == 1134
    # Lickorish's test refutes u_a = 1, so no criterion may take one of these
    # sides as a modulus with a certified u_a = 1
    assert not any("u_a certificate" in c.certificate for r in reports for c in r.criteria)
    # floors measured on this corpus, all of it from the signature.  Every
    # one of these classes has dga >= 2 against the unknot, but no criterion
    # reads the linking form that shows it, so none certifies it yet
    small = reports[: 2 * sum(len(a) <= 4 for a in lickorish_failures)]  # met first
    assert len(small) == 206
    assert sum(r.dg_lower >= 2 for r in small) >= 90
    assert sum(r.dg_lower >= 2 for r in reports) >= 520


def test_pairs_of_unknotting_number_one(u_one):
    # drawn from the size 2 and 4 classes, as the floor below was measured
    small = [a for a in u_one if len(a) <= 4]
    rng = random.Random(12)
    reports = []
    for _ in range(300):
        a, b = rng.sample(small, 2)
        reports += [build_report(x, y, bounds=BOUNDS) for x, y in _kinds_and_orders(sides(a), sides(b))]
    assert len(reports) == 1200
    # both are one crossing change from the unknot
    assert all(_max_bound(r) <= 2 for r in reports)
    # a floor measured on this corpus
    assert sum(r.dg_lower >= 2 for r in reports) >= 52
