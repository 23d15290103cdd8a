import itertools
import random
from fractions import Fraction

import pytest

from gordian.laurent import LaurentPoly
from gordian.obstruct import _make_side, _ua_one_certificate
from gordian.seifert import (
    BORDER_VARIANTS,
    InvalidMatrixError,
    SMALL_H,
    KnotInvariants,
    SeifertMatrix,
    _unbordered,
    adjugate_laurent,
    alexander,
    congruent_transform,
    det_int,
    det_laurent,
    double_cover_cyclic,
    enlarge,
    h_form,
    knot_determinant,
    mat_mul,
    parse_matrix_text,
    signature,
    transpose,
    try_reduce,
    unknotting_border,
)
from gordian.verify import random_seifert, random_unimodular, random_vector
from oracles import det_by_cofactors, double_cover_cyclic_by_ranks, pencil_entries, signature_over_q

P = LaurentPoly.parse

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
FIG8 = SeifertMatrix([[1, 1], [0, -1]])


class TestValidate:
    def test_valid(self):
        assert TREFOIL.size == 2

    def test_empty_matrix(self):
        assert SeifertMatrix([]).size == 0

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidMatrixError, match="det"):
            SeifertMatrix([[0, 0], [0, 0]])

    def test_odd_size_rejected(self):
        with pytest.raises(InvalidMatrixError, match="even"):
            SeifertMatrix([[1]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidMatrixError, match="square"):
            SeifertMatrix([[1, 2], [3, 4], [5, 6]])

    def test_messages(self):
        cases = [
            ([[1, 2], [3, 4], [5, 6]], "matrix must be square"),
            ([[1, 2], [3]], "matrix must be square"),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "matrix size must be even, got 3"),
            ([[0, 0], [0, 0]], "det(V - V^T) must be 1, got 0"),
            ([[0, 3], [0, 0]], "det(V - V^T) must be 1, got 9"),
            ([[True, 2], [False, 1]], "det(V - V^T) must be 1, got 4"),
        ]
        for rows, message in cases:
            with pytest.raises(InvalidMatrixError) as info:
                SeifertMatrix(rows)
            assert str(info.value) == message
        assert SeifertMatrix([[True, True], [False, True]]).rows == ((1, 1), (0, 1))

    def test_non_integer_entries_rejected(self):
        # int() would truncate the first to the trefoil [[-1, 1], [0, -1]]
        cases = [
            ([[-1.9, 1.5], [0.2, -1]], "-1.9"),
            ([[Fraction(-2, 2), 1], [0, -1]], "Fraction(-1, 1)"),
            ([[-1, 1], [0, "-1"]], "'-1'"),
        ]
        for rows, shown in cases:
            with pytest.raises(InvalidMatrixError) as info:
                SeifertMatrix(rows)
            assert str(info.value) == f"matrix entries must be integers, got {shown}"

    def test_determinant_read_from_digits(self):
        # validation reads det(V - V^T) as the digit sum of det(XV - V^T);
        # the message must name the same value a direct elimination gives
        rng = random.Random(37)
        rejected = 0
        for i in range(120):
            n = (2, 4, 6, 8)[i % 4]
            bound = (1, 3, 1000)[i % 3]
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            d = det_int([[a - b for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))])
            if d == 1:
                assert SeifertMatrix(rows).rows == tuple(map(tuple, rows))
                continue
            rejected += 1
            with pytest.raises(InvalidMatrixError) as info:
                SeifertMatrix(rows)
            assert str(info.value) == f"det(V - V^T) must be 1, got {d}"
        assert rejected > 100


class TestDetInt:
    def test_empty(self):
        assert det_int([]) == 1

    def test_small(self):
        assert det_int([[0, 1], [-1, 0]]) == 1
        assert det_int([[2, 1], [1, -2]]) == -5

    def test_against_cofactor_expansion(self):
        def cof(rows):
            n = len(rows)
            if n == 0:
                return 1
            return sum(
                (-1) ** i * rows[i][0] * cof([r[1:] for k, r in enumerate(rows) if k != i])
                for i in range(n)
            )

        rng = random.Random(3)
        for _ in range(100):
            n = rng.choice((1, 2, 3, 4, 5))
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_int(m) == cof(m)

    def test_argument_unchanged(self):
        rng = random.Random(4)
        for n in range(1, 7):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m[0][0] = 0  # the first pivot needs a row swap
            before = [list(row) for row in m]
            det_int(m)
            assert m == before
        rows = ((0, 1), (1, 0))
        assert det_int(rows) == -1 and rows == ((0, 1), (1, 0))

    def test_integral_non_int_entries(self):
        # bools are ints; an integral Fraction or float is refused, not converted
        assert det_int([[True, False], [False, True]]) == 1
        assert det_int([[True, True], [True, False]]) == -1
        for rows, shown in (
            ([[Fraction(4, 2), 1], [3, 2]], "Fraction(2, 1)"),
            ([[2, 1], [3, 2.0]], "2.0"),
            ([[0.5, 0], [0, 2]], "0.5"),
            ([[1, "0"], [0, 1]], "'0'"),
        ):
            with pytest.raises(ValueError) as info:
                det_int(rows)
            assert str(info.value) == f"matrix entries must be integers, got {shown}"


class TestDetLaurent:
    def test_methods_agree(self):
        # det(A - tA^T) by Kronecker substitution against cofactor expansion
        # of the pencil, with a zero row and column in every third matrix
        rng = random.Random(17)
        zero_rows = 0
        for k in range(84):
            n = k % 7
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n and k % 3 == 0:
                z = rng.randrange(n)
                A[z] = [0] * n
                for row in A:
                    row[z] = 0
            rows = pencil_entries(A)
            zero_rows += any(all(p.is_zero for p in row) for row in rows)
            assert det_laurent(A) == det_by_cofactors(rows)
        assert zero_rows >= 24

    def test_zero_row(self):
        assert det_laurent([[0, 0], [0, 1]]) == LaurentPoly.zero()


class TestAlexander:
    def test_trefoil(self):
        assert alexander(TREFOIL) == P("t+t^-1-1")

    def test_empty(self):
        assert alexander(SeifertMatrix([])) == LaurentPoly.one()

    def test_figure_eight_type(self):
        # det(tV - V^T) = -t^2 + 3t - 1 by hand, normalised by t^-1
        assert alexander(FIG8) == P("-t+3-t^-1")

    def test_det_method_agreement(self):
        # against cofactor expansion of V - tV^T, whose determinant equals
        # det(tV - V^T) for even n, normalised by t^-(n/2)
        rng = random.Random(23)
        for i in range(30):
            V = random_seifert(rng, (2, 4, 6)[i % 3])
            expected = det_by_cofactors(pencil_entries(V.rows)).shift(-(V.size // 2))
            assert alexander(V) == expected

    def test_pencil_identity_up_to_size_24(self):
        # k^(n/2) Delta(k) = det(kV - V^T) for an n x n matrix, at several k
        rng = random.Random(24)
        for n in range(2, 25, 2):
            V = random_seifert(rng, n)
            delta = alexander(V)
            for k in (2, -3, 5):
                lhs = sum(c * k ** (e + n // 2) for e, c in delta.terms.items())
                rhs = det_int([[k * V[i][j] - V[j][i] for j in range(n)] for i in range(n)])
                assert lhs == rhs

    def test_stored_polynomial_large_entries(self):
        # the polynomial kept by the constructor, for matrices built directly
        # and through the moves, against cofactor expansion of V - tV^T
        rng = random.Random(25)
        for i in range(24):
            n = (0, 2, 4, 6, 8)[i % 5]
            V = random_seifert(rng, n, bound=(3, 40, 1000)[i % 3])
            moved = [enlarge(V, "row-border", 7, [1] * n, [-2] * n)]
            if n:
                moved.append(congruent_transform(V, random_unimodular(rng, n)))
            for W in [V] + moved:
                expected = det_by_cofactors(pencil_entries(W.rows)).shift(-(W.size // 2))
                assert alexander(W) == expected

    def test_random_normalisation(self):
        rng = random.Random(101)
        for i in range(500):
            V = random_seifert(rng, (2, 4, 6)[i % 3])
            delta = alexander(V)
            assert delta.is_bar_symmetric()
            assert delta.evaluate(1) == 1


class TestSignature:
    def test_examples(self):
        assert signature(TREFOIL) == -2
        assert signature(SeifertMatrix([])) == 0
        assert signature(FIG8) == 0

    def test_always_even(self):
        rng = random.Random(31)
        for i in range(200):
            V = random_seifert(rng, (2, 4)[i % 2])
            assert signature(V) % 2 == 0

    def test_definite_matrix(self):
        # V + V^T = [[2,1],[1,2]] is positive definite
        assert signature(SeifertMatrix([[1, 1], [0, 1]])) == 2

    def test_zero_pivot_repair_needs_minus_one(self):
        # V + V^T = [[0, 1], [1, -2]]: adding row and column 1 to row and
        # column 0 would make the pivot 2 * 1 - 2 = 0, so the repair
        # subtracts them and the pivot is -4
        assert signature(SeifertMatrix([[0, 1], [0, -1]])) == 0

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # repaired at pivot 0
            ([[0, 1, -2, 1], [1, 0, -2, 0], [0, -1, 0, -1], [2, 1, -2, 0]], -2),
            # at pivot 0, then at pivot 2 with the minus sign
            ([[0, -1, -1, -1], [2, 0, 1, 2], [0, -1, 0, -1], [2, 1, 1, 0]], 0),
            # at pivots 0, 1 and 2
            ([[0, 2, 0, 1], [-2, 0, 1, -1], [-1, -1, 0, -1], [0, 2, 0, 0]], 0),
        ],
    )
    def test_zero_diagonal(self, rows, expected):
        # V + V^T has a zero diagonal, so the first pivot is always repaired
        V = SeifertMatrix(rows)
        assert signature(V) == signature_over_q(V) == expected

    def test_against_rational_oracle(self):
        # entry bound 1 makes many leading principal minors vanish, so the
        # zero-pivot repair runs often; clearing the diagonal (which leaves
        # V - V^T alone) makes the first pivot zero every time
        rng = random.Random(97)
        zero_minor = 0
        for i in range(1200):
            V = random_seifert(rng, (2, 4, 6, 8)[i % 4], bound=1)
            if i % 3 == 0:
                V = SeifertMatrix([[0 if a == b else x for b, x in enumerate(row)] for a, row in enumerate(V.rows)])
            sym = [[V[a][b] + V[b][a] for b in range(V.size)] for a in range(V.size)]
            zero_minor += any(det_int([row[:k] for row in sym[:k]]) == 0 for k in range(1, V.size + 1))
            assert signature(V) == signature_over_q(V)
        for i in range(100):
            V = random_seifert(rng, (10, 12)[i % 2])
            assert signature(V) == signature_over_q(V)
        assert zero_minor > 300

    def test_against_principal_minor_oracle(self):
        # when every leading principal minor is nonzero the signature is
        # n - 2 * (sign changes in the minor sequence 1, D1, ..., Dn)
        def minor_signature(sym):
            n = len(sym)
            seq = [1]
            for k in range(1, n + 1):
                d = det_int([row[:k] for row in sym[:k]])
                if d == 0:
                    return None
                seq.append(d)
            changes = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
            return n - 2 * changes

        rng = random.Random(89)
        checked = 0
        for i in range(400):
            V = random_seifert(rng, (2, 4, 6)[i % 3])
            sym = [
                [V[a][b] + V[b][a] for b in range(V.size)] for a in range(V.size)
            ]
            expected = minor_signature(sym)
            if expected is None:
                continue
            checked += 1
            assert signature(V) == expected
        assert checked > 200


class TestKnotDeterminant:
    def test_examples(self):
        assert knot_determinant(TREFOIL) == 3
        assert knot_determinant(SeifertMatrix([])) == 1
        assert knot_determinant(FIG8) == 5

    def test_from_polynomial(self):
        assert abs(P("-3t^2+12t-17+12t^-1-3t^-2").evaluate(-1)) == 47

    def test_equals_symmetrised_determinant(self):
        # |Delta(-1)| from the stored polynomial against |det(V + V^T)|
        rng = random.Random(43)
        for i in range(60):
            n = (0, 2, 4, 6, 8, 10)[i % 6]
            V = random_seifert(rng, n, bound=(3, 40, 1000)[i % 3])
            rows = V.rows
            symmetrised = [[a + b for a, b in zip(r, c)] for r, c in zip(rows, zip(*rows))]
            assert knot_determinant(V) == abs(det_int(symmetrised))


class TestKnotInvariants:
    def test_from_matrix(self):
        inv = KnotInvariants.from_matrix(TREFOIL)
        assert inv == KnotInvariants(P("t-1+t^-1"), -2, 3)

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError, match="determinant"):
            KnotInvariants(P("t-1+t^-1"), -2, 5)

    def test_rejects_odd_signature(self):
        with pytest.raises(ValueError, match="even"):
            KnotInvariants(P("t-1+t^-1"), -1, 3)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            KnotInvariants(P("t"), 0, 1)


class TestCongruence:
    def test_identity(self):
        assert congruent_transform(TREFOIL, [[1, 0], [0, 1]]) == TREFOIL

    def test_hand_product(self):
        V = SeifertMatrix([[1, 1], [0, 1]])
        W = congruent_transform(V, [[1, 0], [1, 1]])
        assert W.rows == ((1, 2), (1, 3))

    def test_matches_plain_matmul(self):
        rng = random.Random(47)
        for _ in range(50):
            V = random_seifert(rng, 4)
            Q = random_unimodular(rng, 4)
            expected = mat_mul(mat_mul(Q, [list(r) for r in V.rows]), transpose(Q))
            assert congruent_transform(V, Q).rows == tuple(tuple(r) for r in expected)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            congruent_transform(TREFOIL, [[2, 0], [0, 1]])

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="2x2"):
            congruent_transform(TREFOIL, [[1]])

    def test_rejects_non_integer_entries(self):
        # int() would truncate P to the identity
        for P, shown in (
            ([[1, 0.5], [0, 1]], "0.5"),
            ([[1, 0], [Fraction(1, 2), 1]], "Fraction(1, 2)"),
            ([[1, 0], ["0", 1]], "'0'"),
        ):
            with pytest.raises(ValueError) as info:
                congruent_transform(TREFOIL, P)
            assert str(info.value) == f"matrix entries must be integers, got {shown}"

    def test_invariants_preserved(self):
        rng = random.Random(53)
        for i in range(100):
            V = random_seifert(rng, (2, 4)[i % 2])
            W = congruent_transform(V, random_unimodular(rng, V.size))
            assert alexander(W) == alexander(V)
            assert signature(W) == signature(V)
            assert knot_determinant(W) == knot_determinant(V)


class TestEnlargeReduce:
    def test_enlarge_empty_row(self):
        W = enlarge(SeifertMatrix([]), "row-border", 5, [], [])
        assert W.rows == ((0, 0), (1, 5))
        assert alexander(W) == LaurentPoly.one()

    def test_enlarge_empty_column(self):
        W = enlarge(SeifertMatrix([]), "column-border", 0, [], [])
        assert W.rows == ((0, 1), (0, 0))
        assert alexander(W) == LaurentPoly.one()

    def test_enlarge_preserves_invariants(self):
        rng = random.Random(61)
        for i in range(100):
            V = random_seifert(rng, (2, 4)[i % 2])
            kind = ("row-border", "column-border")[i % 2]
            W = enlarge(V, kind, rng.randint(-3, 3), random_vector(rng, V.size), random_vector(rng, V.size))
            assert alexander(W) == alexander(V)
            assert signature(W) == signature(V)
            assert knot_determinant(W) == knot_determinant(V)

    def test_round_trip(self):
        rng = random.Random(67)
        for i in range(100):
            V = random_seifert(rng, (0, 2, 4)[i % 3])
            kind = ("row-border", "column-border")[i % 2]
            W = enlarge(V, kind, rng.randint(-3, 3), random_vector(rng, V.size), random_vector(rng, V.size))
            assert try_reduce(W) == V

    def test_every_layout_is_undone_by_itself_alone(self):
        # each border, with either eps for an unknotting step, is read back
        # by its own layout and by no other: no enlargement is read as the
        # other one, and try_reduce undoes exactly the enlargements
        rng = random.Random(79)
        enlargements = {("a+", 0): "row-border", ("b+", 0): "column-border"}
        borders = [*enlargements, *((variant, eps) for variant in BORDER_VARIANTS for eps in (1, -1))]
        for size in (0, 2, 4):
            V = random_seifert(rng, size)
            for kind, eps in borders:
                x, M, N = rng.randint(-3, 3), random_vector(rng, size), random_vector(rng, size)
                if eps:
                    W = unknotting_border(V, eps, x, M, N, kind)
                else:
                    W = enlarge(V, enlargements[kind, eps], x, M, N)
                for other in borders:
                    assert _unbordered(W, *other) == (V.rows if other == (kind, eps) else None)
                assert try_reduce(W) == (None if eps else V)

    def test_not_reducible(self):
        assert try_reduce(SeifertMatrix([[-1, 1], [0, -1]])) is None
        # a row-border's first two rows, but a 1 below them in column 0
        assert try_reduce(SeifertMatrix([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, -1, 1], [0, 0, 0, -1]])) is None

    def test_reduce_example(self):
        assert try_reduce(SeifertMatrix([[0, 0], [1, 5]])) == SeifertMatrix([])

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="row-border"):
            enlarge(SeifertMatrix([]), "diagonal", 0, [], [])

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            enlarge(TREFOIL, "row-border", 0, [1], [1, 2])

    def test_rejects_non_integer_entries(self):
        for x, M, N, shown in (
            (0, [0.5, 0], [0, 0], "0.5"),
            (Fraction(1, 3), [0, 0], [0, 0], "Fraction(1, 3)"),
            (0, [0, 0], [0, "1"], "'1'"),
        ):
            for border in (
                lambda: enlarge(TREFOIL, "row-border", x, M, N),
                lambda: unknotting_border(TREFOIL, 1, x, M, N),
            ):
                with pytest.raises(ValueError) as info:
                    border()
                assert str(info.value) == f"matrix entries must be integers, got {shown}"


class TestUnknottingBorder:
    def test_trefoil_from_empty(self):
        W = unknotting_border(SeifertMatrix([]), -1, -1, [], [], "a+")
        assert W.rows == ((-1, 0), (1, -1))
        assert alexander(W) == P("t+t^-1-1")

    def test_b_plus_from_empty(self):
        W = unknotting_border(SeifertMatrix([]), 1, 0, [], [], "b+")
        assert W.rows == ((1, 1), (0, 0))
        assert alexander(W) == LaurentPoly.one()

    def test_variants_share_invariants(self):
        rng = random.Random(71)
        for i in range(60):
            V = random_seifert(rng, (0, 2, 4)[i % 3])
            eps = rng.choice((1, -1))
            x = rng.randint(-3, 3)
            M = random_vector(rng, V.size)
            N = random_vector(rng, V.size)
            triples = {
                (
                    alexander(B),
                    signature(B),
                    knot_determinant(B),
                )
                for B in (
                    unknotting_border(V, eps, x, M, N, v) for v in BORDER_VARIANTS
                )
            }
            assert len(triples) == 1

    def test_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            unknotting_border(SeifertMatrix([]), 2, 0, [], [], "a+")

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            unknotting_border(SeifertMatrix([]), 1, 0, [], [], "c+")


class TestBorderDeterminantIdentity:
    def test_symbolic_expansion(self):
        # spot check of the bordered determinant expansion; the seeded
        # suite covers 200 cases
        rng = random.Random(73)
        for i in range(20):
            inner = random_seifert(rng, (0, 2)[i % 2])
            eps = rng.choice((1, -1))
            x = rng.randint(-3, 3)
            M = random_vector(rng, inner.size)
            N = random_vector(rng, inner.size)
            outer = unknotting_border(inner, eps, x, M, N, "a+")
            # the bordered block is the pencil of A = [[x, M], [N^T, W']]
            A = [[x, *M]] + [[n, *row] for n, row in zip(N, inner.rows)]
            lhs = det_laurent(outer.rows)
            block = det_laurent(A)
            assert block == det_by_cofactors(pencil_entries(A))
            rhs = LaurentPoly({0: eps, 1: -eps}) * block + LaurentPoly.monomial(1) * det_laurent(inner.rows)
            assert lhs == rhs


class TestUaIsOne:
    """The u_a = 1 rules for a matrix side, in obstruct._ua_one_certificate."""

    @staticmethod
    def certificate(V):
        return _make_side(V, None, None).ua_one_certificate

    def test_trefoil_by_polynomial(self):
        assert self.certificate(TREFOIL) == "Alexander polynomial h(t+t^-1)+1-2h with h = 1"
        # the same polynomial without a matrix, and a user value, word it otherwise
        assert self.certificate(alexander(TREFOIL)) == (
            "every class with this Alexander polynomial has u_a = 1 (h = 1)"
        )
        assert _ua_one_certificate("trefoil", alexander(TREFOIL), 1, TREFOIL, 1) == "user supplied u_a = 1"

    def test_h_is_read_once_per_side(self):
        assert _make_side(TREFOIL, None, None).h == 1
        assert _make_side(FIG8, None, None).h == -1
        assert _make_side(h_form(-6), None, None).h == -6
        assert _make_side(LaurentPoly.const(1), None, None).h is None
        assert _make_side(LaurentPoly.parse("t^2-t+1-t^-1+t^-2"), None, None).h is None

    def test_h_form_values(self):
        for h in (1, 2, 3, 5):
            assert h_form(h) == LaurentPoly({1: h, -1: h, 0: 1 - 2 * h})

    def test_larger_polynomial_unknown(self):
        # a 4x4 matrix whose polynomial has breadth four
        rng = random.Random(83)
        for _ in range(50):
            V = random_seifert(rng, 4)
            if alexander(V).breadth == 4:
                assert self.certificate(V) is None
                break
        else:
            pytest.fail("no breadth four matrix found")

    def test_2x2_small_det(self):
        assert self.certificate(FIG8) == "2x2 matrix with |det V| = 1"
        cases = [
            # V + V^T = 0 mod 3: H1 of the double cover is Z/3 + Z/3, so u_a >= 2
            ([[3, -1], [-2, 0]], -2, None),
            ([[1, 2], [1, -1]], -3, "2x2 matrix with |det V| = 3"),
            ([[1, 3], [2, -1]], -7, None),
            ([[1, 2], [3, 1]], -5, "2x2 matrix with |det V| = 5"),
            ([[2, 1], [0, 1]], 2, "Alexander polynomial h(t+t^-1)+1-2h with h = 2"),
            ([[1, 1], [0, 0]], 0, None),  # Delta = 1: u_a = 0, no certificate
        ]
        for rows, det, expected in cases:
            V = SeifertMatrix(rows)
            assert det_int(rows) == det
            assert self.certificate(V) == expected

    def test_delta_is_h_form_of_det(self):
        # (b - c)^2 = det(V - V^T) = 1 makes Delta = h_form(det V) for 2x2 V
        rng = random.Random(89)
        for _ in range(300):
            V = random_seifert(rng, 2, bound=9)
            assert alexander(V) == h_form(det_int(V.rows))


def block_sum(V, W):
    n, m = V.size, W.size
    rows = [list(row) + [0] * m for row in V.rows] + [[0] * n + list(row) for row in W.rows]
    return SeifertMatrix(rows)


class TestDoubleCoverCyclic:
    def test_small_cases(self):
        assert double_cover_cyclic(SeifertMatrix([]))
        assert double_cover_cyclic(TREFOIL) and double_cover_cyclic(FIG8)
        # V + V^T = [[6, -3], [-3, 0]]: coker is Z/3 + Z/3
        assert not double_cover_cyclic(SeifertMatrix([[3, -1], [-2, 0]]))

    def test_block_sums(self):
        # Z/3 + Z/3 is not cyclic; Z/3 + Z/5 is Z/15
        assert not double_cover_cyclic(block_sum(TREFOIL, TREFOIL))
        assert double_cover_cyclic(block_sum(TREFOIL, FIG8))
        assert not double_cover_cyclic(block_sum(block_sum(TREFOIL, FIG8), TREFOIL))

    def test_against_ranks_mod_p(self):
        rng = random.Random(97)
        outcomes = set()
        for i in range(120):
            if i % 2:
                V = random_seifert(rng, (2, 4, 6)[i % 3])
            else:
                V = block_sum(random_seifert(rng, 2), random_seifert(rng, (2, 4)[i % 4 // 2]))
            got = double_cover_cyclic(V)
            assert got == double_cover_cyclic_by_ranks(V), V
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_2x2_small_h_census(self):
        # the 2x2 matrices that the |det V| rule admits, entries in [-6, 6]:
        # only det V = -2 has det(V + V^T) = 4 det V - 1 = -9 not squarefree
        admitted = refused = 0
        for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
            if (b - c) ** 2 != 1 or -(a * d - b * c) not in SMALL_H:
                continue
            V = SeifertMatrix([[a, b], [c, d]])
            admitted += 1
            if not double_cover_cyclic(V):
                refused += 1
                assert a * d - b * c == -2
            assert double_cover_cyclic(V) == double_cover_cyclic_by_ranks(V)
        assert (admitted, refused) == (316, 52)


class TestMatrixFile:
    def test_parse(self):
        text = "# trefoil\n-1 1\n\n0 -1\n"
        assert parse_matrix_text(text) == TREFOIL

    def test_empty_file(self):
        assert parse_matrix_text("") == SeifertMatrix([])
        assert parse_matrix_text("# only a comment\n") == SeifertMatrix([])

    def test_bad_entry(self):
        with pytest.raises(InvalidMatrixError, match="integers"):
            parse_matrix_text("1 x\n0 1\n")


class TestPresentationEntries:
    def test_trefoil_entries(self):
        # the presentation V - tV^T = [[t-1, 1], [-t, t-1]] by hand
        entries = pencil_entries(TREFOIL.rows)
        assert entries == [[P("t-1"), P("1")], [P("-t"), P("t-1")]]
        assert det_laurent(TREFOIL.rows) == P("t^2-t+1")
        assert adjugate_laurent(TREFOIL.rows) == [[P("t-1"), P("-1")], [P("t"), P("t-1")]]
