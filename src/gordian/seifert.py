"""Seifert matrices, their classical invariants, and the matrix moves.

A Seifert matrix is an even-size integer matrix V with det(V - V^T) = 1.
The 0x0 matrix is allowed and stands for the trivial class.  All arithmetic
is exact and stays in the integers: determinants of integer matrices use
Bareiss fraction-free elimination, and the signature comes from
fraction-free symmetric elimination of V + V^T.

Every polynomial matrix in gordian is a pencil A - tA^T for an integer
matrix A, possibly bordered by one row and column of Laurent polynomials:
the presentation V - tV^T, its cofactors, the bordered blocks the verify
suites expand, and the bordered pencil whose determinant is the pairing's
numerator.  det_laurent(A), adjugate_laurent(A) and det_bordered(A, v, u)
take that integer A.  Each substitutes t = X once, for a power of two X
above twice the Hadamard bound on the coefficients, eliminates the integer
matrix A - XA^T (with its border at t = X), and reads the coefficients off
as the signed base-X digits of the result (Kronecker substitution).  This
module is the only one that knows that packing.

Each matrix is eliminated once: the constructor takes det(V - tV^T) this
way, checks that its coefficients sum to det(V - V^T) = 1, and keeps the
Alexander polynomial it gives.  The Alexander polynomial and the knot
determinant |Delta(-1)| are then read from that polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt
from operator import index, mul

from .laurent import LaurentPoly, _from_terms


class InvalidMatrixError(ValueError):
    """The entries do not form a Seifert matrix."""


def _int_rows(rows, error=ValueError):
    """The rows of a matrix as lists of ints, each entry taken by
    operator.index: an entry that is not an integer (a float, a Fraction, a
    string) raises error naming it, instead of being truncated by int()."""
    try:
        return [list(map(index, row)) for row in rows]
    except TypeError:
        for row in rows:
            for x in row:
                if not hasattr(x, "__index__"):
                    raise error(f"matrix entries must be integers, got {x!r}") from None
        raise


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    return _bareiss(_int_rows(rows))


def _bareiss(a) -> int:
    """det_int of a, a list of fresh int rows that it overwrites."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k]
        p = pivot[k]
        rest = range(k + 1, n)
        for i in rest:
            row = a[i]
            f = row[k]
            for j in rest:
                row[j] = (row[j] * p - f * pivot[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def mat_mul(a, b):
    """Product of two integer matrices given as row lists."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def transpose(rows):
    return [list(col) for col in zip(*rows)] if rows else []


class SeifertMatrix:
    """An even-size integer matrix V with det(V - V^T) = 1.

    Instances are immutable; constructing one validates both conditions and
    raises InvalidMatrixError naming the violated invariant otherwise.  The
    Alexander polynomial found while validating is kept for alexander().
    """

    __slots__ = ("rows", "_delta")

    def __init__(self, entries):
        rows = tuple(map(tuple, _int_rows(entries, InvalidMatrixError)))
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidMatrixError("matrix must be square")
        if n % 2:
            raise InvalidMatrixError(f"matrix size must be even, got {n}")
        # the coefficients of det(V - tV^T) = det(tV - V^T) (n is even) sum
        # to det(V - V^T) and, shifted by t^(-n/2), give the Alexander polynomial
        coeffs = _pencil_det(rows)
        d = sum(coeffs)
        if d != 1:
            raise InvalidMatrixError(f"det(V - V^T) must be 1, got {d}")
        self.rows = rows
        self._delta = _as_laurent(coeffs, -(n // 2))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if isinstance(other, SeifertMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SeifertMatrix({[list(r) for r in self.rows]})"

    def to_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


def parse_matrix_text(text: str) -> SeifertMatrix:
    """Parse the matrix file format: one row per line, integers separated
    by spaces, blank lines and ``#`` comments ignored.  The empty file is
    the 0x0 matrix."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise InvalidMatrixError(f"line {lineno}: entries must be integers") from None
    return SeifertMatrix(rows)


# -- the integer pencil core -------------------------------------------------
#
# Every polynomial matrix here is a pencil A - tA^T with A an integer matrix,
# bordered or not, so its determinant and adjugate are found from one integer
# matrix (Kronecker substitution): substitute t = X for a power of two X above
# twice any coefficient the answer can have, take a Bareiss determinant (or,
# for the adjugate, one fraction-free Gauss-Jordan elimination), and read the
# coefficients off as the signed base-X digits of the result.


def _hadamard(norms) -> int:
    """A bound B on every coefficient of the determinant, and of every
    cofactor, of a polynomial matrix whose entry (i, j) has coefficient
    1-norm norms[i][j].

    A coefficient is at most the largest |det| on the unit circle, where
    each entry is at most its 1-norm.  So Hadamard's inequality gives
    B = isqrt(prod_i r_i) + 1 with r_i = sum_j norms[i][j]^2.  A zero row
    counts as 1, which keeps every r_i >= 1 and the bound valid for minors.
    """
    product = 1
    for row in norms:
        product *= sum(map(mul, row, row)) or 1
    return isqrt(product) + 1


def _radix(bound: int) -> int:
    """The power of two X > 2 bound, so that every integer of size at most
    bound is one signed base-X digit."""
    return 1 << (2 * bound).bit_length()


def _digits(value: int, X: int, count: int):
    """The count signed base-X digits of value, lowest first.

    X is a power of two and each digit lies in [-X/2, X/2), so the digits
    are the coefficients of the polynomial that takes value at t = X
    whenever its coefficients are below X/2 in size.  Anything left over
    after count digits means a coefficient was not, and is asserted.
    """
    shift = X.bit_length() - 1
    mask, half = X - 1, X >> 1
    digits = []
    for _ in range(count):
        d = value & mask
        if d >= half:
            d -= X
        digits.append(d)
        value = (value - d) >> shift
    assert value == 0, "Kronecker substitution left a remainder: the radix is too small"
    return digits


def _as_laurent(coeffs, shift) -> LaurentPoly:
    return _from_terms({d + shift: c for d, c in enumerate(coeffs) if c})


def _pencil(A):
    """The radix X for the pencil A - tA^T of an integer matrix A, and the
    integer matrix A - XA^T, the pencil at t = X."""
    cols = tuple(zip(*A))
    X = _radix(_hadamard([[abs(a) + abs(b) for a, b in zip(row, col)] for row, col in zip(A, cols)]))
    return X, [[a - X * b for a, b in zip(row, col)] for row, col in zip(A, cols)]


def _pencil_det(A):
    """The n + 1 coefficients of det(A - tA^T) for an n x n integer matrix
    A, lowest degree first."""
    X, values = _pencil(A)
    return _digits(_bareiss(values), X, len(A) + 1)


def det_laurent(A) -> LaurentPoly:
    """det(A - tA^T) for a square integer matrix A."""
    return _as_laurent(_pencil_det(A), 0)


def _at(p: LaurentPoly, low: int, k: int) -> int:
    """t^-low p at t = 2^k; low is at most p's lowest exponent."""
    return sum(c << k * (e - low) for e, c in p.terms.items())


def det_bordered(A, v, u) -> LaurentPoly:
    """det [[A - tA^T, u], [v^T, 0]] for an n x n integer matrix A and
    length-n vectors v, u of Laurent polynomials with integer coefficients.

    By the Cauchy expansion this is -v^T adj(A - tA^T) u.  v and u are
    shifted to start at exponent 0, so the determinant has at most
    n + breadth(v) + breadth(u) coefficients, all within the Hadamard bound
    of the bordered matrix (a border entry counts with its 1-norm); one
    Bareiss determinant at t = X reads them off.
    """
    if len(v) != len(A) or len(u) != len(A):
        raise ValueError(f"border vectors must have length {len(A)}")
    v_exps = [e for p in v for e in p.terms]
    u_exps = [e for p in u for e in p.terms]
    if not v_exps or not u_exps:
        return _from_terms({})
    v_low, u_low = min(v_exps), min(u_exps)
    cols = tuple(zip(*A))
    norms = [
        [abs(a) + abs(b) for a, b in zip(row, col)] + [sum(map(abs, p.terms.values()))]
        for row, col, p in zip(A, cols, u)
    ]
    norms.append([sum(map(abs, p.terms.values())) for p in v] + [0])
    X = _radix(_hadamard(norms))
    k = X.bit_length() - 1
    values = [[a - X * b for a, b in zip(row, col)] + [_at(p, u_low, k)] for row, col, p in zip(A, cols, u)]
    values.append([_at(p, v_low, k) for p in v] + [0])
    count = len(A) + max(v_exps) - v_low + max(u_exps) - u_low
    return _as_laurent(_digits(_bareiss(values), X, count), v_low + u_low)


def _adjugate_int(a):
    """Integer adjugate adj(a) of a nonsingular square int matrix, so
    adj(a) a = det(a) I.

    Fraction-free Gauss-Jordan elimination of [a | I] (Bareiss's exact
    division, applied above the pivot as well as below) ends at
    [p I | R] with p = det(Pa) and R = p (Pa)^-1 for the row swaps P, so
    adj(a) = sign(P) R.  A singular a leaves a zero pivot column and raises
    ValueError.
    """
    n = len(a)
    rows = [row + [0] * n for row in a]
    for i, row in enumerate(rows):
        row[n + i] = 1
    sign = 1
    prev = 1
    width = range(2 * n)
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                raise ValueError("singular pencil: det(A - tA^T) is the zero polynomial")
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k]
        p = pivot[k]
        cols = width[k + 1 :]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                for j in cols:
                    row[j] = (row[j] * p - f * pivot[j]) // prev
        prev = p
    return [row[n:] if sign > 0 else [-x for x in row[n:]] for row in rows]


def adjugate_laurent(A):
    """adj(A - tA^T) for a square integer matrix A with det(A - tA^T) != 0.

    Convention: adj(M) M = det(M) I, so the adjugate is the transpose of
    the cofactor matrix.  Each entry is an (n-1) x (n-1) minor of the
    pencil, so it has n coefficients.  A pencil whose determinant is the
    zero polynomial is singular at t = X too, and raises ValueError; a
    Seifert matrix never gives one, since det(V - tV^T) = t^(n/2) Delta.
    """
    X, values = _pencil(A)
    n = len(A)
    return [[_as_laurent(_digits(entry, X, n), 0) for entry in row] for row in _adjugate_int(values)]


# -- classical invariants ------------------------------------------------------


def _symmetrised(V: SeifertMatrix):
    rows = V.rows
    return [[a + b for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))]


def alexander(V: SeifertMatrix) -> LaurentPoly:
    """Alexander polynomial t^-n det(tV - V^T) of a 2n x 2n Seifert matrix.

    It is read off the elimination that validated V, so it takes the value
    det(V - V^T) = 1 at t = 1.  It is symmetric under t -> t^-1; that is
    asserted, a failure means a bug rather than bad input.
    """
    delta = V._delta
    assert delta.is_bar_symmetric(), "Alexander polynomial must be bar symmetric"
    return delta


def signature(V: SeifertMatrix) -> int:
    """Signature of V + V^T by fraction-free symmetric elimination.

    Step k keeps the trailing block as prev times the Schur complement, so
    the rational pivot is p / prev and its sign is that of p * prev.
    """
    n = V.size
    a = _symmetrised(V)
    pos = neg = 0
    prev = 1
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
                for l in range(k, n):
                    a[k][l] += a[j][l]
                for l in range(k, n):
                    a[l][k] += a[l][j]
        p = a[k][k]
        if p * prev > 0:
            pos += 1
        else:
            neg += 1
        pivot = a[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(i, n):
                q, r = divmod(p * row[j] - f * pivot[j], prev)
                assert r == 0, "fraction-free elimination must divide exactly"
                row[j] = a[j][i] = q
        prev = p
    return pos - neg


def knot_determinant(V: SeifertMatrix) -> int:
    """The determinant invariant |Delta(-1)| = |det(V + V^T)|; always odd
    for valid input."""
    d = abs(V._delta.evaluate(-1))
    assert d % 2 == 1, "knot determinant must be odd"
    return d


def double_cover_cyclic(V: SeifertMatrix) -> bool:
    """Whether H1 of the double branched cover, coker(V + V^T), is cyclic.

    V + V^T is nonsingular, since its determinant is +-Delta(-1), which is
    odd.  The gcd of its (n-1)-minors, the entries of its adjugate, is the
    product of all but the last invariant factor, so it is 1 exactly when
    the cokernel is cyclic.  The 0x0 matrix gives the trivial group.
    """
    if not V.size:
        return True
    return gcd(*(x for row in _adjugate_int(_symmetrised(V)) for x in row)) == 1


def check_alexander(delta: LaurentPoly) -> LaurentPoly:
    """Return delta if it is a normalised Alexander polynomial: integer
    coefficients, symmetric under t -> 1/t, value 1 at t = 1; raise
    ValueError otherwise."""
    if not delta.is_integral:
        raise ValueError(f"Alexander polynomial must have integer coefficients, got {delta}")
    if not delta.is_bar_symmetric():
        raise ValueError(f"Alexander polynomial must be symmetric under t -> 1/t, got {delta}")
    if delta.evaluate(1) != 1:
        raise ValueError(f"Alexander polynomial must evaluate to 1 at t = 1, got {delta}")
    return delta


class KnotInvariants(namedtuple("KnotInvariants", ("alexander", "signature", "determinant"))):
    """The classical triple used by every criterion in the battery."""

    __slots__ = ()

    def __new__(cls, alexander, signature, determinant):
        check_alexander(alexander)
        if determinant != abs(alexander.evaluate(-1)):
            raise ValueError("determinant must equal |Delta(-1)|")
        if signature % 2:
            raise ValueError("signature must be even")
        return super().__new__(cls, alexander, signature, determinant)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: run the checks of __new__ there too
        return cls(*iterable)

    @classmethod
    def from_matrix(cls, V: SeifertMatrix) -> "KnotInvariants":
        return cls(alexander(V), signature(V), knot_determinant(V))


# -- matrix moves --------------------------------------------------------------


def congruent_transform(V: SeifertMatrix, P) -> SeifertMatrix:
    """P V P^T for a unimodular integer matrix P of the same size."""
    rows = _int_rows(P)
    if len(rows) != V.size or any(len(r) != V.size for r in rows):
        raise ValueError(f"transform must be {V.size}x{V.size}")
    if det_int(rows) not in (1, -1):
        raise ValueError("transform matrix must be unimodular")
    product = mat_mul(mat_mul(rows, [list(r) for r in V.rows]), transpose(rows))
    return SeifertMatrix(product)


def _bordered(first_row, second_prefix, x, M, N, V):
    n = V.size
    if len(M) != n or len(N) != n:
        raise ValueError(f"border vectors must have length {n}")
    # SeifertMatrix converts every entry, x, M and N included
    rows = [list(first_row) + [0] * n, list(second_prefix) + [x, *M]]
    for i in range(n):
        rows.append([0, N[i]] + list(V.rows[i]))
    return SeifertMatrix(rows)


def enlarge(V: SeifertMatrix, kind: str, x: int, M, N) -> SeifertMatrix:
    """One stabilisation step: border V with the row or column block pattern."""
    if kind == "row-border":
        return _bordered([0, 0], [1], x, M, N, V)
    if kind == "column-border":
        return _bordered([0, 1], [0], x, M, N, V)
    raise ValueError(f"kind must be row-border or column-border, got {kind!r}")


def try_reduce(W: SeifertMatrix):
    """Undo a literal enlargement block; None when W matches neither pattern."""
    m = W.size
    if m < 2:
        return None
    rows = W.rows
    inner = [row[2:] for row in rows[2:]]
    col0 = [rows[i][0] for i in range(m)]
    row_pattern = (
        all(c == 0 for c in rows[0])
        and col0[1] == 1
        and all(col0[i] == 0 for i in range(2, m))
    )
    col_pattern = (
        all(c == 0 for c in col0)
        and rows[0][1] == 1
        and all(rows[0][j] == 0 for j in range(2, m))
    )
    if row_pattern or col_pattern:
        return SeifertMatrix(inner)
    return None


BORDER_VARIANTS = ("a+", "a-", "b+", "b-")


def unknotting_border(
    W: SeifertMatrix, eps: int, x: int, M, N, variant: str = "a+"
) -> SeifertMatrix:
    """Border W by one algebraic unknotting step.

    The four variants place the glueing one in either off-diagonal corner of
    the new 2x2 block with either sign; all four give matrices with the same
    Alexander polynomial, signature, and determinant.  Variant ``a+`` is the
    standard form of the operation.
    """
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if variant not in BORDER_VARIANTS:
        raise ValueError(f"variant must be one of {BORDER_VARIANTS}, got {variant!r}")
    s = 1 if variant.endswith("+") else -1
    if variant.startswith("a"):
        return _bordered([eps, 0], [s], x, M, N, W)
    return _bordered([eps, s], [0], x, M, N, W)


# -- h-form polynomials --------------------------------------------------------------


SMALL_H = (1, 2, 3, 5)


def h_form(h: int) -> LaurentPoly:
    """The breadth-two symmetric polynomial h t + h t^-1 + 1 - 2h."""
    return LaurentPoly({1: h, -1: h, 0: 1 - 2 * h})
