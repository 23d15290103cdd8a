"""Seifert matrices, their classical invariants, and the matrix moves.

A Seifert matrix is an even-size integer matrix V with det(V - V^T) = 1.
The 0x0 matrix is allowed and stands for the trivial class.  All arithmetic
is exact and stays in the integers: determinants of integer matrices use
Bareiss fraction-free elimination.

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
way, checks that its coefficients sum to det(V - V^T) = 1, asserts that
they are palindromic (bar symmetry), and keeps the Alexander polynomial
they give.  The Alexander polynomial and the knot determinant |Delta(-1)|
are then read from that polynomial.  When the elimination swapped no row,
the constructor also keeps its pivots, the leading minors of V - XV^T, and
the signature is read off them: reduced mod X + 1 they are the leading
minors of V + V^T, and Jacobi's rule sums the signs of consecutive ones.
A swapped row or a zero minor of V + V^T falls back to fraction-free
symmetric elimination of the upper triangle of V + V^T.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt
from operator import index, mul

from .laurent import LaurentPoly, _from_terms


class InvalidMatrixError(ValueError):
    """The entries do not form a Seifert matrix."""


def _int_rows(rows, error=ValueError):
    """The rows of a square integer matrix as a tuple of tuples of ints.

    Each entry is taken by operator.index: an entry that is not an integer
    (a float, a Fraction, a string) raises error naming it, instead of
    being truncated by int().  Rows that do not form a square raise error.
    """
    try:
        out = tuple([tuple(map(index, row)) for row in rows])
    except TypeError:
        for row in rows:
            for x in row:
                if not hasattr(x, "__index__"):
                    raise error(f"matrix entries must be integers, got {x!r}") from None
        raise
    n = len(out)
    for row in out:
        if len(row) != n:
            raise error("matrix must be square")
    return out


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    return _bareiss(list(map(list, _int_rows(rows))))


def _bareiss(a, minors=None) -> int:
    """det_int of a, a list of fresh int rows that it overwrites.

    Without a row swap, pivot k is the leading (k + 1) x (k + 1) minor of
    a and stays on the diagonal, so the diagonal ends as the leading minors,
    det a last.  When minors is a list and no row was swapped, they are
    appended to it; a swap leaves it as it was.
    """
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
                    minors = None
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
    if minors is not None:
        minors.extend([row[k] for k, row in enumerate(a)])
    return sign * a[n - 1][n - 1]


class SeifertMatrix:
    """An even-size integer matrix V with det(V - V^T) = 1.

    Instances are immutable; constructing one validates both conditions and
    raises InvalidMatrixError naming the violated invariant otherwise.  The
    Alexander polynomial found while validating, checked bar symmetric, is
    kept for alexander().  So are X and the leading minors of V - XV^T
    when that elimination swapped no row (None otherwise): signature()
    reduces them mod X + 1 to the leading minors of V + V^T, and falls back
    to a symmetric elimination when a row was swapped or one of those is 0.
    """

    __slots__ = ("rows", "_delta", "_minors")

    def __init__(self, entries):
        rows = _int_rows(entries, InvalidMatrixError)
        n = len(rows)
        if n % 2:
            raise InvalidMatrixError(f"matrix size must be even, got {n}")
        # the coefficients of det(V - tV^T) = det(tV - V^T) (n is even) sum
        # to det(V - V^T) and, shifted by t^(-n/2), give the Alexander polynomial
        X, values = _pencil(rows)
        minors = []
        coeffs = _digits(_bareiss(values, minors), X, n + 1)
        d = sum(coeffs)
        if d != 1:
            raise InvalidMatrixError(f"det(V - V^T) must be 1, got {d}")
        # det(V - tV^T) = t^n det(V - t^-1 V^T) for even n, so the
        # coefficients read the same both ways: a failure is a bug, not bad input
        assert coeffs == coeffs[::-1], "Alexander polynomial must be bar symmetric"
        self.rows = rows
        self._delta = _as_laurent(coeffs, -(n // 2))
        # a swapped row leaves minors empty
        self._minors = (X, minors) if len(minors) == n else None

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


def _content_lines(text: str):
    """(line number, stripped line) for each line of text that is neither
    blank nor a ``#`` comment: the line rule of every input file."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_matrix_text(text: str) -> SeifertMatrix:
    """Parse the matrix file format: one row per line, integers separated
    by spaces, blank lines and ``#`` comments ignored.  The empty file is
    the 0x0 matrix."""
    rows = []
    for lineno, line in _content_lines(text):
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


def _hadamard(squares) -> int:
    """A bound B on every coefficient of the determinant, and of every
    cofactor, of a polynomial matrix whose row i has entries of coefficient
    1-norms n_ij with squares[i] = sum_j n_ij^2.

    A coefficient is at most the largest |det| on the unit circle, where
    each entry is at most its 1-norm.  So Hadamard's inequality gives
    B = isqrt(prod_i squares[i]) + 1.  A zero row counts as 1, which keeps
    every factor >= 1 and the bound valid for minors.
    """
    product = 1
    for s in squares:
        product *= s or 1
    return isqrt(product) + 1


def _pencil_squares(A, cols):
    """squares[i] of _hadamard for the pencil A - tA^T, given the columns of
    A: entry (i, j) has coefficient 1-norm |a_ij| + |a_ji|.  One pass, with
    no matrix of norms."""
    squares = []
    for row, col in zip(A, cols):
        s = 0
        for a, b in zip(row, col):
            x = abs(a) + abs(b)
            s += x * x
        squares.append(s)
    return squares


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
    X = _radix(_hadamard(_pencil_squares(A, cols)))
    return X, [[a - X * b for a, b in zip(row, col)] for row, col in zip(A, cols)]


def det_laurent(A) -> LaurentPoly:
    """det(A - tA^T) for a square integer matrix A."""
    X, values = _pencil(_int_rows(A))
    return _as_laurent(_digits(_bareiss(values), X, len(values) + 1), 0)


def _norm1(p: LaurentPoly) -> int:
    return sum(map(abs, p.terms.values()))


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
    A = _int_rows(A)
    if len(v) != len(A) or len(u) != len(A):
        raise ValueError(f"border vectors must have length {len(A)}")
    v_exps = [e for p in v for e in p.terms]
    u_exps = [e for p in u for e in p.terms]
    if not v_exps or not u_exps:
        return _from_terms({})
    v_low, u_low = min(v_exps), min(u_exps)
    cols = tuple(zip(*A))
    squares = [s + _norm1(p) ** 2 for s, p in zip(_pencil_squares(A, cols), u)]
    squares.append(sum(_norm1(p) ** 2 for p in v))
    X = _radix(_hadamard(squares))
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
    A = _int_rows(A)
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
    det(V - V^T) = 1 at t = 1, and the constructor asserted that it is
    symmetric under t -> t^-1.
    """
    return V._delta


def signature(V: SeifertMatrix) -> int:
    """Signature of V + V^T, read off the elimination that validated V.

    When that elimination of V - XV^T swapped no row, its pivots are the
    leading minors det(V_j - X V_j^T), j = 1..n.  X = -1 mod X + 1, so each
    is D_j = det(V_j + V_j^T) mod X + 1; Hadamard's bound, which X exceeds
    twice over, keeps |D_j| below X/2, so D_j is the centred residue.  When
    no D_j is 0, Jacobi's rule gives the signature as the sum of
    sign(D_j D_(j-1)) over j, with D_0 = 1.  A swapped row or a zero D_j
    falls back to _symmetric_signature, a second elimination.
    """
    if V._minors is not None:
        X, minors = V._minors
        m, half = X + 1, X >> 1
        sigma = 0
        prev = 1
        for p in minors:
            d = p % m
            if d > half:
                d -= m
            if not d:
                break
            sigma += 1 if d * prev > 0 else -1
            prev = d
        else:
            return sigma
    return _symmetric_signature(V)


def _symmetric_signature(V: SeifertMatrix) -> int:
    """Signature of V + V^T by fraction-free symmetric elimination.

    Step k keeps the trailing block as prev times the Schur complement, so
    the rational pivot is p / prev and its sign is that of p * prev.  The
    block is symmetric, so only its upper triangle is kept up to date: row
    i takes its multiplier f = a_ki from the pivot row.
    """
    n = V.size
    a = _symmetrised(V)
    pos = neg = 0
    prev = 1
    for k in range(n):
        pivot = a[k]
        p = pivot[k]
        if p == 0:
            j = next((j for j in range(k + 1, n) if pivot[j]), None)
            # det(V + V^T) = +-Delta(-1) is odd, so the trailing block is
            # nonsingular and has no zero row
            assert j is not None, "V + V^T must be nonsingular"
            # add s times row and column j to row and column k: the pivot
            # becomes 2 s a_kj + a_jj, nonzero for s = 1 or for s = -1
            c, d = pivot[j], a[j][j]
            s = 1 if 2 * c + d else -1
            p = pivot[k] = 2 * s * c + d
            for l in range(k + 1, n):
                pivot[l] += s * (a[l][j] if l < j else a[j][l])
        if p * prev > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            row = a[i]
            f = pivot[i]
            for j in range(i, n):
                q, r = divmod(p * row[j] - f * pivot[j], prev)
                assert r == 0, "fraction-free elimination must divide exactly"
                row[j] = q
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


class _Checked:
    """Base of a named tuple whose __new__ checks its fields, listed before the
    namedtuple: _replace builds through _make, which here calls the constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class KnotInvariants(_Checked, namedtuple("KnotInvariants", ("alexander", "signature", "determinant"))):
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
    def from_matrix(cls, V: SeifertMatrix) -> "KnotInvariants":
        return cls(alexander(V), signature(V), knot_determinant(V))


# -- matrix moves --------------------------------------------------------------


def congruent_transform(V: SeifertMatrix, P) -> SeifertMatrix:
    """P V P^T for a unimodular integer matrix P of the same size."""
    rows = _int_rows(P)
    if len(rows) != V.size:
        raise ValueError(f"transform must be {V.size}x{V.size}")
    if det_int(rows) not in (1, -1):
        raise ValueError("transform matrix must be unimodular")
    PV = [[sum(map(mul, row, col)) for col in zip(*V.rows)] for row in rows]
    return SeifertMatrix([[sum(map(mul, row, p)) for p in rows] for row in PV])


# Each border puts (corner, right) in its first row and starts its second
# row with below; this table keeps (right, below).  An unknotting step puts
# its eps in the corner, and an enlargement is the corner-0 case of a+ or b+.
_LAYOUTS = {"a+": (0, 1), "a-": (0, -1), "b+": (1, 0), "b-": (-1, 0)}
_ENLARGEMENTS = {"row-border": "a+", "column-border": "b+"}
BORDER_VARIANTS = tuple(_LAYOUTS)


def _bordered(kind, corner, x, M, N, V):
    n = V.size
    if len(M) != n or len(N) != n:
        raise ValueError(f"border vectors must have length {n}")
    right, below = _LAYOUTS[kind]
    # SeifertMatrix converts every entry, x, M and N included
    rows = [[corner, right] + [0] * n, [below, x, *M]]
    for i in range(n):
        rows.append([0, N[i]] + list(V.rows[i]))
    return SeifertMatrix(rows)


def _unbordered(W: SeifertMatrix, kind, corner=0):
    """The inner rows of W when it is _bordered(kind, corner, x, M, N, inner)
    for some x, M, N and inner; None when W does not have that layout."""
    right, below = _LAYOUTS[kind]
    rows = W.rows
    if (
        len(rows) < 2
        or rows[0] != (corner, right, *[0] * (len(rows) - 2))
        or rows[1][0] != below
        or any(row[0] for row in rows[2:])
    ):
        return None
    return tuple(row[2:] for row in rows[2:])


def enlarge(V: SeifertMatrix, kind: str, x: int, M, N) -> SeifertMatrix:
    """One stabilisation step: border V with the row or column block pattern."""
    if kind not in _ENLARGEMENTS:
        raise ValueError(f"kind must be row-border or column-border, got {kind!r}")
    return _bordered(_ENLARGEMENTS[kind], 0, x, M, N, V)


def try_reduce(W: SeifertMatrix):
    """Undo an enlargement; None when W has neither enlargement's layout."""
    for kind in _ENLARGEMENTS.values():
        inner = _unbordered(W, kind)
        if inner is not None:
            return SeifertMatrix(inner)
    return None


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
    return _bordered(variant, eps, x, M, N, W)


# -- h-form polynomials --------------------------------------------------------------


SMALL_H = (1, 2, 3, 5)


def h_form(h: int) -> LaurentPoly:
    """The breadth-two symmetric polynomial h t + h t^-1 + 1 - 2h."""
    return LaurentPoly({1: h, -1: h, 0: 1 - 2 * h})
