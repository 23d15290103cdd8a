"""Seifert matrices, their classical invariants, and the matrix moves.

A Seifert matrix is an even-size integer matrix V with det(V - V^T) = 1.
The 0x0 matrix is allowed and stands for the trivial class.  All arithmetic
is exact and stays in the integers: determinants of integer matrices use
Bareiss fraction-free elimination; a polynomial determinant or adjugate is
taken once, at t = X for a power of two X above twice the Hadamard bound on
its coefficients, and the coefficients are read off as the signed base-X
digits of the result (Kronecker substitution); and the signature comes from
fraction-free symmetric elimination of V + V^T.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .laurent import LaurentPoly, _from_terms


class InvalidMatrixError(ValueError):
    """The entries do not form a Seifert matrix."""


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    return _bareiss([list(map(int, row)) for row in rows])


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
    n, m = len(a), len(b[0]) if b else 0
    inner = len(b)
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(m)]
        for i in range(n)
    ]


def transpose(rows):
    return [list(col) for col in zip(*rows)] if rows else []


class SeifertMatrix:
    """An even-size integer matrix V with det(V - V^T) = 1.

    Instances are immutable; constructing one validates both conditions and
    raises InvalidMatrixError naming the violated invariant otherwise.
    """

    __slots__ = ("rows",)

    def __init__(self, entries):
        rows = tuple(tuple(map(int, row)) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidMatrixError("matrix must be square")
        if n % 2:
            raise InvalidMatrixError(f"matrix size must be even, got {n}")
        d = _bareiss([[a - b for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))])
        if d != 1:
            raise InvalidMatrixError(f"det(V - V^T) must be 1, got {d}")
        self.rows = rows

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
# Every polynomial matrix here is a pencil with integer coefficients, so its
# determinant and adjugate are found from one integer matrix (Kronecker
# substitution): substitute t = X for a power of two X above twice any
# coefficient the answer can have, take a Bareiss determinant (or, for the
# adjugate, one fraction-free Gauss-Jordan elimination), and read the
# coefficients off as the signed base-X digits of the result.


def _radix(norms) -> int:
    """A power of two X > 2B, where B bounds every coefficient of the
    determinant, and of every cofactor, of a polynomial matrix whose entry
    (i, j) has coefficient 1-norm norms[i][j].

    A coefficient is at most the largest |det| on the unit circle, where
    each entry is at most its 1-norm.  So Hadamard's inequality gives
    B = isqrt(prod_i r_i) + 1 with r_i = sum_j norms[i][j]^2.  A zero row
    counts as 1, which keeps every r_i >= 1 and the bound valid for minors.
    """
    product = 1
    for row in norms:
        product *= sum(x * x for x in row) or 1
    return 1 << (2 * (isqrt(product) + 1)).bit_length()


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


def _shifted_rows(rows):
    """Pull t^v out of each row so every entry is an ordinary polynomial.

    Returns the shifts v (0 for a zero row), the entries as dense
    coefficient lists (lowest degree first), and each row's degree bound.
    """
    shifts, dense, degrees = [], [], []
    for row in rows:
        v = min((e for p in row for e in p.terms), default=0)
        entries = [[p.coeff(e) for e in range(v, p.degree + 1)] if p.terms else [] for p in row]
        shifts.append(v)
        dense.append(entries)
        degrees.append(max([0] + [len(c) - 1 for c in entries]))
    return shifts, dense, degrees


def _kronecker(dense):
    """The radix X for dense polynomial entries, and the integer matrix of
    the entries at t = X (Horner)."""
    X = _radix([[sum(map(abs, coeffs)) for coeffs in row] for row in dense])
    out = []
    for row in dense:
        values = []
        for coeffs in row:
            value = 0
            for c in reversed(coeffs):
                value = value * X + c
            values.append(value)
        out.append(values)
    return X, out


def det_laurent(rows) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials."""
    shifts, dense, degrees = _shifted_rows(rows)
    X, values = _kronecker(dense)
    return _as_laurent(_digits(_bareiss(values), X, sum(degrees) + 1), sum(shifts))


def _adjugate_int(a):
    """Integer adjugate adj(a) of a square int matrix, so adj(a) a = det(a) I.

    Fraction-free Gauss-Jordan elimination of [a | I] (Bareiss's exact
    division, applied above the pivot as well as below) ends at
    [p I | R] with p = det(Pa) and R = p (Pa)^-1 for the row swaps P, so
    adj(a) = sign(P) R.  A singular a leaves a zero pivot column; then the
    adjugate is taken cofactor by cofactor.
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
                return _adjugate_by_cofactors(a)
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


def _adjugate_by_cofactors(a):
    """adj[i][j] = (-1)^(i+j) det(a without row j, column i)."""
    n = len(a)
    return [
        [
            (-1) ** (i + j)
            * _bareiss([row[:i] + row[i + 1 :] for k, row in enumerate(a) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def adjugate_laurent(rows):
    """Adjugate of a square Laurent polynomial matrix.

    Convention: adj(M) M = det(M) I, so the adjugate is the transpose of
    the cofactor matrix.  Entry (i, j) omits row j, whose shift is taken
    out of the total.
    """
    if not rows:
        return []
    shifts, dense, degrees = _shifted_rows(rows)
    X, values = _kronecker(dense)
    adj = _adjugate_int(values)
    total, degree = sum(shifts), sum(degrees)
    return [
        [
            _as_laurent(_digits(entry, X, degree - degrees[j] + 1), total - shifts[j])
            for j, entry in enumerate(row)
        ]
        for row in adj
    ]


# -- classical invariants ------------------------------------------------------


def presentation_entries(V: SeifertMatrix):
    """The matrix tV - V^T as Laurent polynomial entries."""
    rows = V.rows
    return [
        [LaurentPoly({1: a, 0: -b}) for a, b in zip(row, col)]
        for row, col in zip(rows, zip(*rows))
    ]


def _symmetrised(V: SeifertMatrix):
    rows = V.rows
    return [[a + b for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))]


def alexander(V: SeifertMatrix) -> LaurentPoly:
    """Alexander polynomial t^-n det(tV - V^T) of a 2n x 2n Seifert matrix.

    The result is symmetric under t -> t^-1 and takes the value 1 at t = 1;
    both are asserted, a failure means a bug rather than bad input.
    """
    rows = V.rows
    n = len(rows)
    cols = list(zip(*rows))
    X = _radix([[abs(a) + abs(b) for a, b in zip(row, col)] for row, col in zip(rows, cols)])
    pencil = [[X * a - b for a, b in zip(row, col)] for row, col in zip(rows, cols)]
    coeffs = _digits(_bareiss(pencil), X, n + 1)
    delta = _as_laurent(coeffs, -(n // 2))
    assert delta.is_bar_symmetric(), "Alexander polynomial must be bar symmetric"
    assert sum(coeffs) == 1, "Alexander polynomial must be 1 at t = 1"
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
        for i in range(k + 1, n):
            for j in range(i, n):
                q, r = divmod(p * a[i][j] - a[i][k] * a[k][j], prev)
                assert r == 0, "fraction-free elimination must divide exactly"
                a[i][j] = a[j][i] = q
        prev = p
    return pos - neg


def knot_determinant(V: SeifertMatrix) -> int:
    """The determinant invariant |Delta(-1)| = |det(V + V^T)|; always odd
    for valid input."""
    d = abs(_bareiss(_symmetrised(V)))
    assert d % 2 == 1, "knot determinant must be odd"
    return d


def check_alexander(delta: LaurentPoly) -> LaurentPoly:
    """Return delta if it is a normalised Alexander polynomial, symmetric under
    t -> 1/t with value 1 at t = 1; raise ValueError otherwise."""
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
    def from_matrix(cls, V: SeifertMatrix) -> "KnotInvariants":
        return cls(alexander(V), signature(V), knot_determinant(V))


# -- matrix moves --------------------------------------------------------------


def congruent_transform(V: SeifertMatrix, P) -> SeifertMatrix:
    """P V P^T for a unimodular integer matrix P of the same size."""
    rows = [[int(x) for x in row] for row in P]
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
    rows = [list(first_row) + [0] * n, list(second_prefix) + [x] + [int(v) for v in M]]
    for i in range(n):
        rows.append([0, int(N[i])] + list(V.rows[i]))
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


# -- algebraic unknotting number certificates -----------------------------------


SMALL_H = (1, 2, 3, 5)


def h_form(h: int) -> LaurentPoly:
    """The breadth-two symmetric polynomial h t + h t^-1 + 1 - 2h."""
    return LaurentPoly({1: h, -1: h, 0: 1 - 2 * h})


class UaVerdict(namedtuple("UaVerdict", ("known_one", "certificate"), defaults=("",))):
    """Outcome of the one-step-from-trivial test: Yes with a certificate,
    or Unknown.  The test is one-sided and never answers No."""

    __slots__ = ()

    def __bool__(self):
        return self.known_one


def ua_is_one(V: SeifertMatrix, delta: LaurentPoly | None = None) -> UaVerdict:
    """Sufficient conditions for algebraic unknotting number one.

    delta, when given, must be alexander(V); it saves recomputing it.
    """
    if delta is None:
        delta = alexander(V)
    for h in SMALL_H:
        if delta == h_form(h):
            return UaVerdict(True, f"Alexander polynomial h(t+t^-1)+1-2h with h = {h}")
    if V.size == 2:
        d = abs(det_int(V.rows))
        if d in SMALL_H:
            return UaVerdict(True, f"2x2 matrix with |det V| = {d}")
    return UaVerdict(False)
