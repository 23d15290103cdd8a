import random
from fractions import Fraction

import pytest

from gordian import blanchfield, seifert

from gordian.laurent import LaurentPoly, is_multiple
from gordian.seifert import SeifertMatrix, alexander, det_laurent, enlarge, unknotting_border
from gordian.blanchfield import (
    TorsionFraction,
    adjugate_laurent,
    border_self_pairing_check,
    fractions_equal,
    gram_matrix,
    pairing,
)
from gordian.verify import random_seifert, random_vector, small_laurent
from oracles import adjugate_by_cofactors, det_by_cofactors, pairing_by_entries, pencil_entries

P = LaurentPoly.parse

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])


class TestPresentation:
    """The matrix V - tV^T presents the module; its determinant is t^n Delta."""

    def test_determinant_is_unit_times_alexander(self):
        assert det_laurent(TREFOIL.rows) == P("t^2-t+1")

    def test_invariant_on_random_matrices(self):
        rng = random.Random(5)
        for i in range(500):
            V = random_seifert(rng, (2, 4)[i % 2])
            assert det_laurent(V.rows) == alexander(V).shift(V.size // 2)


class TestTorsionFraction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            TorsionFraction(P("t"), LaurentPoly.zero())

    def test_str(self):
        assert str(TorsionFraction(P("t-1"), P("t^2-t+1"))) == "t-1 / t^2-t+1"


class TestFractionsEqual:
    def test_trefoil_reduction(self):
        assert fractions_equal(
            TorsionFraction(P("t^2-2t+1"), P("t^2-t+1")),
            TorsionFraction(P("-1"), P("t+t^-1-1")),
        )

    def test_integers_vanish(self):
        d = P("t^2-t+1")
        assert fractions_equal(TorsionFraction(LaurentPoly.zero(), d), TorsionFraction(d, d))

    def test_distinct_residues(self):
        d = P("t+t^-1-1")
        assert not fractions_equal(
            TorsionFraction(LaurentPoly.one(), d), TorsionFraction(P("2"), d)
        )


class TestAdjugate:
    def test_adjugate_times_matrix_is_det(self):
        # pencils A - tA^T of random integer matrices of sizes 1 to 10, and
        # the pairing matrices V - tV^T of even size; a singular pencil
        # has no adjugate taken
        rng = random.Random(13)
        cases = []
        for _ in range(25):
            n = rng.choice((1, 2, 3))
            cases.append([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        for n in range(1, 11):
            cases.append([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if n % 2 == 0:
                cases.append([list(row) for row in random_seifert(rng, n).rows])
        singular = 0
        for A in cases:
            n = len(A)
            det = det_laurent(A)
            if det.is_zero:
                singular += 1
                with pytest.raises(ValueError, match="singular pencil"):
                    adjugate_laurent(A)
                continue
            rows = pencil_entries(A)
            adj = adjugate_laurent(A)
            for i in range(n):
                for j in range(n):
                    entry = sum(
                        (adj[i][k] * rows[k][j] for k in range(n)), LaurentPoly.zero()
                    )
                    assert entry == (det if i == j else LaurentPoly.zero())
        assert 0 < singular < len(cases) // 2

    @staticmethod
    def agrees_with_oracle(A):
        """The Kronecker adjugate equals the cofactor oracle's, or, for a
        singular pencil, raises ValueError; returns whether it was singular."""
        if det_by_cofactors(pencil_entries(A)).is_zero:
            with pytest.raises(ValueError, match="singular pencil"):
                adjugate_laurent(A)
            return True
        assert adjugate_laurent(A) == adjugate_by_cofactors(pencil_entries(A))
        return False

    def test_methods_agree(self):
        # the Kronecker adjugate against the cofactor oracle
        rng = random.Random(19)
        singular = 0
        for _ in range(12):
            for n in (1, 2, 3, 4):
                A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                singular += self.agrees_with_oracle(A)
        assert 0 < singular < 24

    def test_methods_agree_at_crossover_size(self):
        # sizes 5 and 6, the largest the cofactor oracle handles quickly,
        # then one matrix with a zero row and column, which is singular
        rng = random.Random(20)
        for n in (5, 6, 6):
            A = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
            assert not self.agrees_with_oracle(A)
        A[2] = [0] * 6
        for row in A:
            row[2] = 0
        assert self.agrees_with_oracle(A)

    def test_empty(self):
        assert adjugate_laurent([]) == []


class TestPairing:
    def test_trefoil_diagonal(self):
        f = pairing(TREFOIL, [1, 0], [1, 0])
        assert f.num == P("t^2-2t+1")
        assert f.den == P("t^2-t+1")
        assert fractions_equal(f, TorsionFraction(P("-1"), P("t+t^-1-1")))

    def test_zero_element(self):
        f = pairing(TREFOIL, [0, 0], [1, 1])
        assert fractions_equal(f, TorsionFraction(LaurentPoly.zero(), LaurentPoly.one()))

    def test_unit_invariance(self):
        t = LaurentPoly.monomial(1)
        v = [P("1"), P("t-1")]
        w = [P("t^-1"), P("2")]
        lhs = pairing(TREFOIL, [t * c for c in v], [t * c for c in w])
        assert fractions_equal(lhs, pairing(TREFOIL, v, w))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="coordinates"):
            pairing(TREFOIL, [1], [1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="0x0"):
            pairing(SeifertMatrix([]), [], [])

    def test_sesquilinearity_random(self):
        rng = random.Random(29)
        for i in range(60):
            V = random_seifert(rng, (2, 4)[i % 2])
            x = [small_laurent(rng) for _ in range(V.size)]
            y = [small_laurent(rng) for _ in range(V.size)]
            a, b = small_laurent(rng), small_laurent(rng)
            lhs = pairing(V, [a * c for c in x], [b * c for c in y])
            rhs = pairing(V, x, y).scale(a * b.bar())
            assert fractions_equal(lhs, rhs)

    def test_generators_match_gram_matrix_across_matrices(self):
        # pairings of several matrices in turn agree with each matrix's own
        # Gram matrix and with the cofactor oracle
        rng = random.Random(31)
        mats = [random_seifert(rng, n) for n in (2, 4, 4, 6)] + [TREFOIL]
        grams = [gram_matrix(V) for V in mats]
        for _ in range(3):
            for V, gram in zip(mats, grams):
                n = V.size
                i, j = rng.randrange(n), rng.randrange(n)
                e_i = [int(k == i) for k in range(n)]
                e_j = [int(k == j) for k in range(n)]
                assert pairing(V, e_i, e_j) == gram[i][j]
                rows = pencil_entries(V.rows)
                assert gram[i][j].num == P("t-1") * adjugate_by_cofactors(rows)[i][j]
                assert gram[i][j].den == det_by_cofactors(rows)


def random_coords(rng, n, max_coeff):
    """n coordinates with exponents -3..3, about a quarter of them zero."""
    coords = []
    for _ in range(n):
        if rng.random() < 0.25:
            coords.append(LaurentPoly.zero())
        else:
            exps = rng.sample(range(-3, 4), rng.randint(1, 4))
            coords.append(LaurentPoly({e: rng.randint(-max_coeff, max_coeff) or 1 for e in exps}))
    return coords


class TestPairingBySubstitution:
    """pairing takes the bordered determinant -det [[V - tV^T, bar(w)],
    [v^T, 0]] at one power of two and reads the digits; it must give the
    polynomial the entry-by-entry product with the cofactor adjugate gives."""

    def test_against_entry_oracle(self):
        rng = random.Random(47)
        for n in (2, 4, 6):
            for k in range(6):
                V = random_seifert(rng, n, bound=(3, 40)[k % 2])
                rows = pencil_entries(V.rows)
                v = random_coords(rng, n, (10, 10**6)[k % 2])
                w = random_coords(rng, n, (10**6, 3)[k % 2])
                f = pairing(V, v, w)
                assert f.num == pairing_by_entries(adjugate_by_cofactors(rows), v, w)
                assert f.den == det_by_cofactors(rows)

    def test_integer_and_zero_coordinates(self):
        rng = random.Random(53)
        for n in (2, 4, 6):
            V = random_seifert(rng, n)
            gram = gram_matrix(V)
            v = [rng.randint(-10**6, 10**6) for _ in range(n)]
            w = [0] * n
            w[rng.randrange(n)] = rng.randint(1, 10**6)
            as_poly = [LaurentPoly.const(c) for c in v], [LaurentPoly.const(c) for c in w]
            expected = pairing_by_entries(adjugate_by_cofactors(pencil_entries(V.rows)), *as_poly)
            assert pairing(V, v, w).num == expected
            assert pairing(V, [0] * n, w).num.is_zero
            assert pairing(V, v, [0] * n).num.is_zero
            assert gram == gram_matrix(V)

    def test_radix_too_small(self, monkeypatch):
        # V is validated first; only the radix of the bordered determinant
        # is broken
        V = random_seifert(random.Random(59), 4)
        v = [LaurentPoly({-1: 10**6, 2: -3})] * 4
        monkeypatch.setattr(seifert, "_radix", lambda bound: 4)
        with pytest.raises(AssertionError, match="radix"):
            pairing(V, v, v)

    def test_coordinates_must_be_integral(self):
        with pytest.raises(ValueError, match="integers"):
            pairing(TREFOIL, [Fraction(1, 2), 0], [1, 0])
        with pytest.raises(ValueError, match="integers"):
            pairing(TREFOIL, [1, 0], [0, LaurentPoly({1: Fraction(3, 2), 0: 1})])
        # the error names the coordinate, whatever the kind of its coefficient
        with pytest.raises(ValueError, match=r"integers, got 0\.5t-1$"):
            pairing(TREFOIL, [LaurentPoly({1: 0.5, 0: -1}), 0], [1, 0])
        # an integral Fraction is an integer
        assert pairing(TREFOIL, [Fraction(4, 2), 0], [1, 0]) == pairing(TREFOIL, [2, 0], [1, 0])


class TestGramMatrix:
    def test_trefoil_cyclic_value(self):
        gram = gram_matrix(TREFOIL)
        assert fractions_equal(gram[0][0], TorsionFraction(P("-1"), P("t+t^-1-1")))

    def test_hermitian_under_bar(self):
        rng = random.Random(37)
        for i in range(40):
            V = random_seifert(rng, (2, 4)[i % 2])
            gram = gram_matrix(V)
            for a in range(V.size):
                for b in range(V.size):
                    g = gram[a][b]
                    assert fractions_equal(gram[b][a], TorsionFraction(g.num.bar(), g.den.bar()))

    def test_denominator_and_annihilation(self):
        rng = random.Random(41)
        for i in range(40):
            V = random_seifert(rng, (2, 4)[i % 2])
            n = V.size
            expected_den = det_by_cofactors(pencil_entries(V.rows))
            delta = alexander(V)
            assert expected_den == delta.shift(n // 2)
            gram = gram_matrix(V)
            for row in gram:
                for entry in row:
                    assert entry.den == expected_den
                    assert is_multiple(delta * entry.num, entry.den)

    def test_enlarged_matrix_restricts_to_inner_pairings(self):
        big = enlarge(TREFOIL, "row-border", 0, [0, 0], [0, 0])
        gram_big = gram_matrix(big)
        gram_small = gram_matrix(TREFOIL)
        for a in range(2):
            for b in range(2):
                assert fractions_equal(gram_big[a + 2][b + 2], gram_small[a][b])


class TestBorderSelfPairing:
    def test_trefoil_case(self):
        inner = SeifertMatrix([])
        outer = SeifertMatrix([[-1, 0], [1, -1]])
        assert border_self_pairing_check(outer, inner)
        gram = gram_matrix(outer)
        assert fractions_equal(gram[0][0], TorsionFraction(P("-1"), P("t+t^-1-1")))

    def test_random_borders(self):
        rng = random.Random(43)
        for i in range(60):
            inner = random_seifert(rng, (0, 2, 4)[i % 3])
            eps = rng.choice((1, -1))
            outer = unknotting_border(
                inner,
                eps,
                rng.randint(-3, 3),
                random_vector(rng, inner.size),
                random_vector(rng, inner.size),
                "a+",
            )
            assert border_self_pairing_check(outer, inner)

    def test_sign_flip_fails_generically(self):
        rng = random.Random(47)
        flips_rejected = 0
        for i in range(40):
            inner = random_seifert(rng, (0, 2)[i % 2])
            eps = rng.choice((1, -1))
            outer = unknotting_border(
                inner,
                eps,
                rng.randint(-3, 3),
                random_vector(rng, inner.size),
                random_vector(rng, inner.size),
                "a+",
            )
            gram = gram_matrix(outer)
            plus = TorsionFraction(
                LaurentPoly.const(eps) * alexander(inner), alexander(outer)
            )
            minus = TorsionFraction(
                LaurentPoly.const(-eps) * alexander(inner), alexander(outer)
            )
            if fractions_equal(gram[0][0], minus):
                # only allowed when the two targets coincide modulo the ring
                assert fractions_equal(plus, minus)
            else:
                flips_rejected += 1
        assert flips_rejected > 0

    def test_negated_cofactor_rejected(self, monkeypatch):
        # the one-denominator check agrees with the cross-multiplied form, and
        # fails once the cofactor it reads is negated
        rng = random.Random(47)
        borders = []
        for i in range(40):
            inner = random_seifert(rng, (0, 2, 4)[i % 3])
            eps = rng.choice((1, -1))
            outer = unknotting_border(
                inner,
                eps,
                rng.randint(-3, 3),
                random_vector(rng, inner.size),
                random_vector(rng, inner.size),
                "a+",
            )
            borders.append((outer, inner, eps))
        for outer, inner, eps in borders:
            cof = det_laurent([row[1:] for row in outer.rows[1:]])
            entry = TorsionFraction(P("t-1") * cof, det_laurent(outer.rows))
            target = TorsionFraction(LaurentPoly.const(eps) * alexander(inner), alexander(outer))
            assert fractions_equal(entry, target)
            assert border_self_pairing_check(outer, inner)
        monkeypatch.setattr(blanchfield, "det_laurent", lambda rows: -det_laurent(rows))
        assert not any(border_self_pairing_check(outer, inner) for outer, inner, _ in borders)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="two rows larger"):
            border_self_pairing_check(TREFOIL, TREFOIL)

    def test_not_literal_border(self):
        # the a+ layout with eps = +-1 is the only one accepted: not an
        # unbordered matrix, another variant, an enlargement (eps = 0), the a+
        # border of another inner matrix, or a 1 below the border in column 0
        fig8 = SeifertMatrix([[1, 1], [0, -1]])
        for outer, inner in (
            (TREFOIL, SeifertMatrix([])),
            (unknotting_border(TREFOIL, 1, 0, [1, 0], [0, 1], "b+"), TREFOIL),
            (enlarge(TREFOIL, "row-border", 0, [1, 0], [0, 1]), TREFOIL),
            (unknotting_border(TREFOIL, -1, 0, [1, 0], [0, 1], "a+"), fig8),
            (SeifertMatrix([[-1, 0, 0, 0], [1, 0, 0, 0], [1, 0, -1, 1], [0, 0, 0, -1]]), TREFOIL),
        ):
            with pytest.raises(ValueError, match="literal border"):
                border_self_pairing_check(outer, inner)
