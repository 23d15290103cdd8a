import itertools
import random
import time
from fractions import Fraction

import pytest

from gordian import numtheory, obstruct
from gordian.laurent import LaurentPoly, divmod_rational, is_multiple
from gordian.seifert import KnotInvariants, SeifertMatrix, alexander, check_alexander, h_form
from gordian.obstruct import (
    SearchBounds,
    build_report,
    cc_bar_witness_search,
    constant_residue,
    form_value,
    murakami_obstruction,
    parity_criterion,
    quadform_represents,
    signature_bound,
)
from gordian.verify import quadform_oracle_values, random_seifert
from oracles import cc_bar_by_full_window, murakami_by_scan, quadform_by_box
from test_crossing_change import crossing_change_pairs
from test_report_text import SMALL, both_orders, corpus

P = LaurentPoly.parse

DELTA_9_25 = P("-3t^2+12t-17+12t^-1-3t^-2")
TREFOIL_DELTA = h_form(1)


def trefoil_remainder(delta):
    """The canonical remainder of delta modulo t + t^-1 - 1."""
    return divmod_rational(delta, TREFOIL_DELTA)[1]


class TestQuadform:
    def test_refuted_two(self):
        assert quadform_represents(1, 2).outcome == "refuted"

    def test_witness_three(self):
        v = quadform_represents(1, 3)
        assert v.outcome == "witness"
        assert form_value(1, v.x, v.y) == v.sign * 3

    def test_witness_h2(self):
        v = quadform_represents(2, 2)
        assert v.outcome == "witness"
        assert form_value(2, v.x, v.y) == v.sign * 2

    def test_rejects_zero_h(self):
        with pytest.raises(ValueError, match="h"):
            quadform_represents(0, 3)

    def test_rejects_zero_d(self):
        with pytest.raises(ValueError, match="d"):
            quadform_represents(1, 0)

    def test_indefinite_witness(self):
        # h = -1: x^2 - 3xy + y^2 = -1 at (1, 2)
        v = quadform_represents(-1, 1, bound=10)
        assert v.outcome == "witness"
        assert form_value(-1, v.x, v.y) == v.sign * 1

    def test_indefinite_inconclusive(self):
        # x^2 - 3xy + y^2 = +-3 has no solutions mod 5 analysis aside; the
        # procedure must not claim refuted for an indefinite form
        v = quadform_represents(-1, 3, bound=30)
        assert v.outcome in ("witness", "inconclusive")
        if v.outcome == "inconclusive":
            assert v.searched_bound == 30

    def test_oracle_agreement_sample(self):
        for h in (1, 2, 3):
            table = quadform_oracle_values(h)
            for d in range(-20, 21):
                if d == 0:
                    continue
                verdict = quadform_represents(h, d)
                expected = "witness" if abs(d) in table else "refuted"
                assert verdict.outcome == expected, (h, d)

    def test_parity_values_always_refuted(self):
        for m in range(-3, 13):
            d = 2 + 4 * m
            if d == 0:
                continue
            assert quadform_represents(1, d).outcome == "refuted", d


class TestParityCriterion:
    def test_bundled_pair(self):
        res = parity_criterion(trefoil_remainder(DELTA_9_25))
        assert res.obstructs
        assert res.m == -1
        assert res.remainder == LaurentPoly.const(-2)

    def test_self_not_applicable(self):
        res = parity_criterion(trefoil_remainder(TREFOIL_DELTA))
        assert not res.obstructs
        assert res.remainder == LaurentPoly.zero()

    def test_figure_eight_polynomial(self):
        delta = P("-t+3-t^-1")
        _, remainder = divmod_rational(delta, TREFOIL_DELTA)
        assert remainder == LaurentPoly.const(2)
        res = parity_criterion(remainder)
        assert res.obstructs and res.m == 0
        # the parity verdict must agree with the exhaustive search
        assert quadform_represents(1, remainder.constant_value).outcome == "refuted"

    def test_obstructs_implies_quadform_refuted(self):
        rng = random.Random(11)
        seen = 0
        for _ in range(300):
            delta = LaurentPoly(
                {e: rng.randint(-6, 6) for e in range(-3, 4) if rng.random() < 0.5}
            )
            res = parity_criterion(trefoil_remainder(delta))
            if res.obstructs:
                seen += 1
                d = res.remainder.constant_value
                assert d % 4 == 2
                assert quadform_represents(1, d).outcome == "refuted"
        assert seen > 0

    def test_constant_residue(self):
        assert constant_residue(trefoil_remainder(DELTA_9_25)) == -2
        assert constant_residue(trefoil_remainder(TREFOIL_DELTA)) is None


class TestCcBarSearch:
    def test_constant_three(self):
        witness = cc_bar_witness_search(TREFOIL_DELTA, LaurentPoly.const(3))
        assert witness is not None
        assert witness.c == P("t+1")
        assert witness.sign == 1
        assert is_multiple(
            witness.sign * LaurentPoly.const(3) - witness.c * witness.c.bar(),
            TREFOIL_DELTA,
        )

    def test_none_for_refuted_pair(self):
        # consistency with the exhaustive quadratic form refutation
        assert cc_bar_witness_search(TREFOIL_DELTA, DELTA_9_25, 2, 4) is None

    def test_multiple_of_modulus(self):
        witness = cc_bar_witness_search(TREFOIL_DELTA, TREFOIL_DELTA, 3, 4)
        assert witness is not None
        assert is_multiple(
            witness.sign * TREFOIL_DELTA - witness.c * witness.c.bar(), TREFOIL_DELTA
        )

    def test_witnesses_always_verify(self):
        rng = random.Random(21)
        for _ in range(40):
            delta = h_form(rng.choice((1, 2, 3)))
            target = LaurentPoly({0: rng.randint(-9, 9)})
            if target.is_zero:
                continue
            witness = cc_bar_witness_search(delta, target, 2, 3)
            if witness is not None:
                assert is_multiple(
                    witness.sign * target - witness.c * witness.c.bar(), delta
                )

    def test_zero_modulus_rejected(self):
        with pytest.raises(ZeroDivisionError):
            cc_bar_witness_search(LaurentPoly.zero(), TREFOIL_DELTA)

    def test_first_witness_matches_full_window(self):
        # the full window tries both members of each reversal pair
        rng = random.Random(12)
        windows = itertools.cycle(((2, 2), (3, 2), (4, 1), (2, 3)))
        outcomes = []
        for h in (1, 2, 3, 5, -1, -2, 4, -4, 7):
            delta = h_form(h)
            for half in (0, 1, 2):  # symmetric Delta' of breadth 0, 2, 4
                for _ in range(2):
                    terms = {0: rng.choice([v for v in range(-9, 10) if v or half])}
                    for k in range(1, half + 1):
                        terms[k] = terms[-k] = rng.choice([v for v in range(-4, 5) if v or k < half])
                    target, window = LaurentPoly(terms), next(windows)
                    witness = cc_bar_witness_search(delta, target, *window)
                    expected = cc_bar_by_full_window(delta, target, *window)
                    assert (witness and tuple(witness)) == expected, (h, target, window)
                    outcomes.append(witness is None)
        assert 0 < sum(outcomes) < len(outcomes) == 54

    @pytest.mark.parametrize("window, count", [((4, 1), 53), ((4, 2), 674), ((3, 8), 19_872)])
    def test_window_counts(self, window, count):
        assert sum(1 for _ in obstruct._cc_candidates(*window)) == count

    def test_reversal_never_emitted_before(self):
        max_breadth, max_coeff = 4, 2
        seen, twins = set(), set()
        for c in obstruct._cc_candidates(max_breadth, max_coeff):
            twin = c.bar().shift(c.breadth)
            twin = twin if twin.coeff(0) > 0 else -twin
            assert c not in seen and (twin == c or twin not in seen), c
            seen.add(c)
            twins.add(twin)
        # with their reversals the candidates fill the whole window
        m, s = max_coeff, 2 * max_coeff + 1
        full = m + sum(m * s ** (b - 1) * 2 * m for b in range(1, max_breadth + 1))
        assert len(seen | twins) == full == 1250

    def test_exhausted_window_divides_twice_per_candidate(self, monkeypatch):
        # counted through the module global, as a tracer counts it
        calls = []

        def counting(a, b):
            calls.append(a)
            return is_multiple(a, b)

        monkeypatch.setattr(obstruct, "is_multiple", counting)
        delta, other = P("4t-7+4t^-1"), P("t^2-4t+7-4t^-1+t^-2")
        assert cc_bar_witness_search(delta, other, 4, 1) is None
        assert len(calls) == 2 * 53


class TestMurakami:
    def test_bundled_pair(self):
        res = murakami_obstruction(3, 47)
        assert not res.obstructs
        assert res.witness == 1
        assert res.witness % 3 != 0

    def test_equal_determinants(self):
        res = murakami_obstruction(5, 5)
        assert not res.obstructs
        assert res.witness == 0

    def test_determinant_one_base(self):
        # brute force over d in {0, 1} decides the condition mod 2
        for other in (3, 7, 11):
            expected = any(
                (4 * d * d - (1 - other)) % 2 == 0 or (4 * d * d + (1 - other)) % 2 == 0
                for d in range(2)
            )
            res = murakami_obstruction(1, other)
            assert res.obstructs == (not expected)

    def test_agrees_with_fractional_statement(self):
        # the cleared form must match the mod 1 statement at the bundled pair
        from fractions import Fraction

        D, Dp = 3, 47
        witnesses = set()
        for d in range(2 * D):
            lhs = Fraction(2 * d * d, D)
            rhs = Fraction(D - Dp, 2 * D)
            if (lhs - rhs) % 1 == 0 or (lhs + rhs) % 1 == 0:
                witnesses.add(d)
        cleared = {
            d
            for d in range(2 * D)
            if (4 * d * d - (D - Dp)) % (2 * D) == 0
            or (4 * d * d + (D - Dp)) % (2 * D) == 0
        }
        assert witnesses == cleared
        assert murakami_obstruction(D, Dp).witness in witnesses

    def test_obstructing_pair_exists(self):
        # D = 9, D' = 3: 4d^2 = +-6 mod 18 forces 2d^2 = +-3 mod 9, impossible
        res = murakami_obstruction(9, 3)
        assert res.obstructs

    def test_rejects_even(self):
        with pytest.raises(ValueError, match="odd"):
            murakami_obstruction(4, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            murakami_obstruction(-3, 3)


class TestExactDecisions:
    """The number-theoretic decisions against the linear scans they replace,
    and the inputs on which those scans ran for minutes or hours."""

    # 8x8, knot determinant 3,779,141,447,373,389, and 10x10, 304,288,733:
    # there is no d, so a scan over d in [0, 2D) takes 7.6e15 steps
    BIG = random_seifert(random.Random(0), 8, bound=40)
    OTHER = random_seifert(random.Random(2), 10)

    def test_murakami_matches_scan(self):
        for det1 in range(1, 200, 2):
            for det2 in range(1, 200, 2):
                mur = murakami_obstruction(det1, det2)
                assert (mur.obstructs, mur.witness) == murakami_by_scan(det1, det2), (det1, det2)

    def test_indefinite_matches_scan(self):
        # h = -2, -6 and -12 make 1 - 4h a square
        for h in range(-1, -21, -1):
            for d in range(-40, 41):
                if d:
                    verdict = quadform_represents(h, d, bound=600)
                    assert tuple(verdict) == quadform_by_box(h, d, 600), (h, d)

    def test_definite_matches_box(self):
        for h in range(1, 13):
            for d in range(-200, 201):
                if d:
                    assert tuple(quadform_represents(h, d)) == quadform_by_box(h, d), (h, d)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: murakami_obstruction(obstruct.knot_determinant(TestExactDecisions.BIG), 3),
            lambda: murakami_obstruction(10**18 + 9, 3),
            lambda: murakami_obstruction(31127438948794653, 3),
            lambda: quadform_represents(1, 100000007),
            lambda: quadform_represents(2, 300000001),
            lambda: build_report(TestExactDecisions.BIG, TestExactDecisions.OTHER, bounds=SMALL),
        ],
        ids=["murakami-8x8", "murakami-prime", "murakami-31e15", "definite-1", "definite-2", "obstruct-8x8"],
    )
    def test_worst_cases_finish_in_a_second(self, call):
        start = time.perf_counter()
        call()
        assert time.perf_counter() - start < 1.0

    def test_worst_case_verdicts(self):
        det = obstruct.knot_determinant(self.BIG)
        assert det > 10**15
        assert murakami_obstruction(det, 3).obstructs
        report = build_report(self.BIG, self.OTHER, bounds=SMALL)
        assert {c.name: c for c in report.criteria}["murakami"].verdict == "Obstructs"
        assert report.dg_lower == 2
        prime = 10**18 + 9
        mur = murakami_obstruction(prime, 3)
        assert not mur.obstructs
        assert any((4 * mur.witness**2 + s * (prime - 3)) % (2 * prime) == 0 for s in (1, -1))
        assert quadform_represents(1, 100000007).outcome == "refuted"
        v = quadform_represents(2, 300000001)
        assert form_value(2, v.x, v.y) == v.sign * 300000001

    def test_indefinite_stops_at_nagell_bound(self):
        # x^2 - 3xy + y^2 = +-2 has no solution: 2 is inert in Q(sqrt 5)
        assert obstruct._nagell_bound(-1, 2, 10_000) < 10
        assert obstruct._nagell_bound(-2, 5, 10_000) == 11  # 1 - 4h = 9
        v = quadform_represents(-1, 2)
        assert (v.outcome, v.searched_bound) == ("inconclusive", 10_000)

    def test_factoring_budget_gives_inconclusive(self, monkeypatch):
        monkeypatch.setattr(numtheory, "FACTOR_STEP_BUDGET", 10)
        det = 1000003 * 1000033  # a Jacobi symbol of +1, so D must be factored
        mur = murakami_obstruction(det, 3)
        assert (mur.obstructs, mur.witness) == (False, None)
        assert "factoring budget of 10 Pollard-Brent steps" in mur.undecided
        # |Delta(-1)| = 4h - 1 = det for h_form(h), and 3 for the other side;
        # neither side has a u_a certificate, so no bounded search runs
        report = build_report(h_form(250009000025), P("t^2+t-3+t^-1+t^-2"))
        by_name = {c.name: c for c in report.criteria}
        murakami = by_name["murakami"]
        assert (murakami.applicable, murakami.verdict) == (True, "Inconclusive")
        assert "factoring budget" in murakami.certificate
        assert murakami.dg_lower == 0
        assert report.dg_lower == 1

    def test_root_budget_gives_inconclusive(self, monkeypatch):
        monkeypatch.setattr(numtheory, "ROOT_BUDGET", 2)
        mur = murakami_obstruction(3 * 5 * 7, 3 * 5 * 7 - 4)  # d^2 = 1 mod 105
        assert (mur.obstructs, mur.witness) == (False, None)
        assert "root enumeration budget of 2" in mur.undecided

    def test_jacobi_refutes_without_factoring(self, monkeypatch):
        def no_factoring(n):
            raise AssertionError("factorize called")

        monkeypatch.setattr(obstruct, "factorize", no_factoring)
        # 4d^2 = +-(5 - 7) mod 10 needs d^2 = 2 or 3 mod 5: Jacobi symbols -1
        assert murakami_obstruction(5, 7).obstructs
        assert murakami_by_scan(5, 7) == (True, None)

    @pytest.mark.parametrize("n", [1, 2, 3, 97, 10**18 + 9, 2**61 - 1])
    def test_prime_or_one_certified(self, n):
        assert obstruct._is_prime_or_one(n)

    @pytest.mark.parametrize("n", [0, 4, 3215031751, 3825123056546413051, 10**14 + 33, 2**89 - 1])
    def test_prime_or_one_refused(self, n):
        # 2^89 - 1 is prime but above the certified limit
        assert not obstruct._is_prime_or_one(n)

    def test_prime_or_one_is_fast(self):
        start = time.perf_counter()
        assert obstruct._is_prime_or_one(10**14 + 31)
        assert time.perf_counter() - start < 0.1


class TestSignatureBound:
    def test_values(self):
        assert signature_bound(-2, -2) == 0
        assert signature_bound(0, 0) == 0
        assert signature_bound(-2, 4) == 3

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            signature_bound(1, 2)


class TestBuildReport:
    def test_bundled_pair_full_chain(self):
        report = build_report(TREFOIL_DELTA, DELTA_9_25, ua1=1, ua2=1)
        assert report.rho_lower == 2 and report.rho_upper == 2
        assert report.dga_lower == 2 and report.dga_upper == 2
        assert report.dg_lower == 2
        by_name = {c.name: c for c in report.criteria}
        assert by_name["parity"].verdict == "Obstructs"
        assert "remainder = -2 = 2 + 4*(-1)" in by_name["parity"].certificate
        assert by_name["quadratic-form"].verdict == "Obstructs"
        assert by_name["murakami"].verdict == "NoObstruction"

    def test_rho_two_without_ua_supplied(self):
        # h = 1 certifies every class with this polynomial
        report = build_report(TREFOIL_DELTA, DELTA_9_25)
        assert report.rho_lower == 2
        assert report.dga_lower == 2
        assert report.dga_upper is None

    def test_identical_inputs(self):
        report = build_report(TREFOIL_DELTA, TREFOIL_DELTA)
        assert report.rho_lower == 0 and report.rho_upper == 0
        assert report.dga_lower == 0 and report.dg_lower == 0

    def test_identical_matrices(self):
        V = SeifertMatrix([[-1, 1], [0, -1]])
        W = SeifertMatrix([[-1, 1], [0, -1]])
        report = build_report(V, W)
        assert report.dga_upper == 0
        assert report.dg_lower == 0

    def test_refuting_residue_route(self):
        # 3t-5+3t^-1 = 3(t-1+t^-1) - 2, so the residue -2 is refuted
        report = build_report(TREFOIL_DELTA, P("3t-5+3t^-1"))
        by_name = {c.name: c for c in report.criteria}
        assert by_name["quadratic-form"].applicable
        assert by_name["quadratic-form"].verdict == "Obstructs"
        assert report.rho_lower == 2

    def test_witness_residue_route(self):
        # -2t+5-2t^-1 = -2(t-1+t^-1) + 3 and 3 = q(1, 1) is represented
        report = build_report(TREFOIL_DELTA, P("-2t+5-2t^-1"))
        by_name = {c.name: c for c in report.criteria}
        assert by_name["quadratic-form"].verdict == "NoObstruction"
        assert by_name["cc-bar-witness"].verdict == "NoObstruction"
        assert report.rho_lower == 1

    def test_matrix_inputs_use_signature(self):
        V = SeifertMatrix([[-1, 1], [0, -1]])
        W = SeifertMatrix([[1, 1], [0, -1]])
        report = build_report(V, W)
        by_name = {c.name: c for c in report.criteria}
        assert by_name["signature"].applicable
        assert by_name["signature"].verdict == "Obstructs"
        assert report.dg_lower >= 1

    def test_chain_invariant(self):
        rng = random.Random(31)
        from gordian.verify import random_seifert

        small = SearchBounds(cc_max_breadth=2, cc_max_coeff=3)
        for i in range(30):
            V = random_seifert(rng, 2)
            W = random_seifert(rng, (2, 4)[i % 2])
            report = build_report(V, W, bounds=small)
            assert report.dg_lower >= report.dga_lower >= report.rho_lower
            assert 0 <= report.rho_lower <= report.rho_upper <= 2

    def test_contradictory_ua_rejected(self):
        with pytest.raises(ValueError, match="contradict"):
            build_report(TREFOIL_DELTA, DELTA_9_25, ua1=1, ua2=0)

    def test_ua_one_rejected_when_the_double_cover_is_not_cyclic(self):
        # V + V^T = 0 mod 3: H1 of the double cover is Z/3 + Z/3, so u_a >= 2
        V = SeifertMatrix([[3, -1], [-2, 0]])
        for x, y, u1, u2 in ((V, TREFOIL_DELTA, 1, None), (TREFOIL_DELTA, V, None, 1)):
            with pytest.raises(ValueError, match="u_a = 1 is impossible .* not cyclic"):
                build_report(x, y, ua1=u1, ua2=u2)
        # the same claim on its polynomial, or on a matrix with cyclic H1, stands
        build_report(alexander(V), TREFOIL_DELTA, ua1=1, bounds=SMALL)
        build_report(SeifertMatrix([[1, 1], [0, -1]]), TREFOIL_DELTA, ua1=1, bounds=SMALL)

    def test_constant_three_matches_quadform_oracle(self):
        # -2t+5-2t^-1 = 3 modulo t-1+t^-1
        report = build_report(TREFOIL_DELTA, P("-2t+5-2t^-1"))
        by_name = {c.name: c for c in report.criteria}
        assert by_name["quadratic-form"].verdict == "NoObstruction"
        assert "x = 1, y = 1" in by_name["quadratic-form"].certificate
        assert by_name["cc-bar-witness"].verdict == "NoObstruction"
        assert report.rho_lower == 1

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError, match="evaluate to 1 at t = 1"):
            build_report(LaurentPoly.zero(), TREFOIL_DELTA)

    def test_rejects_non_alexander_polynomials(self):
        # Delta(1) = -1 once certified a Murakami obstruction; rational
        # coefficients once passed as an Alexander polynomial
        with pytest.raises(ValueError, match="evaluate to 1 at t = 1"):
            build_report(P("2t-5+2t^-1"), P("t-1+t^-1"))
        half = LaurentPoly({1: Fraction(1, 2), -1: Fraction(1, 2)})
        with pytest.raises(ValueError, match="integer coefficients"):
            check_alexander(half)
        with pytest.raises(ValueError, match="integer coefficients"):
            KnotInvariants(half, 0, 1)
        with pytest.raises(ValueError, match="integer coefficients"):
            build_report(TREFOIL_DELTA, half)

    def test_format_keys(self):
        report = build_report(TREFOIL_DELTA, DELTA_9_25, ua1=1, ua2=1)
        text = report.format()
        for key in (
            "criterion:",
            "applicable:",
            "verdict:",
            "certificate:",
            "rho_lower: 2",
            "rho_upper: 2",
            "dga_lower: 2",
            "dga_upper: 2",
            "dg_lower: 2",
        ):
            assert key in text

    def test_bounds_override(self):
        report = build_report(
            TREFOIL_DELTA,
            P("5t-9+5t^-1"),
            bounds=SearchBounds(cc_max_breadth=1, cc_max_coeff=2),
        )
        assert report.rho_lower >= 1


def _corpus_reports():
    """Every report of the pinned-text corpus, both argument orders, less
    the pairs whose supplied u_a values contradict the certified bounds."""
    reports = []
    for _, _, (x, y, u1, u2, _, _) in both_orders(corpus()):
        try:
            reports.append(build_report(x, y, ua1=u1, ua2=u2, bounds=SMALL))
        except ValueError:
            pass
    return reports


class TestCriteria:
    NAMES = ("alexander-distance", "parity", "quadratic-form", "cc-bar-witness", "murakami", "signature")
    HELPERS = (
        "parity_criterion",
        "constant_residue",
        "quadform_represents",
        "cc_bar_witness_search",
        "murakami_obstruction",
    )

    def test_bounds_are_the_max_of_the_criteria_under_the_chain(self):
        reports = _corpus_reports()
        assert len(reports) > 100
        for report in reports:
            assert tuple(c.name for c in report.criteria) == self.NAMES
            rho = max(c.rho_lower for c in report.criteria)
            dga = max([rho] + [c.dga_lower for c in report.criteria])
            dg = max([dga] + [c.dg_lower for c in report.criteria])
            assert (report.rho_lower, report.dga_lower, report.dg_lower) == (rho, dga, dg)

    def test_a_criterion_that_certifies_a_bound_obstructs(self):
        raised = 0
        for report in _corpus_reports():
            for c in report.criteria:
                if c.rho_lower or c.dga_lower or c.dg_lower:
                    raised += 1
                    assert c.applicable and c.verdict == "Obstructs", c
        assert raised

    def test_helpers_are_called_through_module_globals(self, monkeypatch):
        # a tracer measures each helper by rebinding its name in gordian.obstruct
        counts = dict.fromkeys(self.HELPERS, 0)
        for name in self.HELPERS:
            original = getattr(obstruct, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(obstruct, name, counting)
        _corpus_reports()
        assert all(counts.values()), counts


GENERATOR_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def swapped_reports():
    """(report, report of the swapped pair) for the report generator's pairs
    at seeds 1-5, 120 pairs each, less the pairs that raise in either order
    because a supplied u_a contradicts a certified bound."""
    out = []
    for seed in GENERATOR_SEEDS:
        for a, b, u1, u2, _, _ in corpus(seed, 120):
            try:
                out.append(
                    (
                        build_report(a, b, ua1=u1, ua2=u2, bounds=SMALL),
                        build_report(b, a, ua1=u2, ua2=u1, bounds=SMALL),
                    )
                )
            except ValueError:
                pass
    return out


def _criterion(report, name):
    return next(c for c in report.criteria if c.name == name)


class TestOrderFree:
    def test_cc_bar_verdict_is_the_same_in_both_orders(self, swapped_reports):
        # the window is searched modulo every side with a certified u_a = 1
        assert len(swapped_reports) > 500
        witnessed = 0
        for r12, r21 in swapped_reports:
            v12, v21 = (_criterion(r, "cc-bar-witness").verdict for r in (r12, r21))
            assert v12 == v21, (r12.label1, r12.label2)
            witnessed += v12 == "NoObstruction"
        assert witnessed

    def test_search_covers_the_second_side(self):
        # only the second side's polynomial is a modulus with a witness
        delta1, delta2 = P("-2t+5-2t^-1"), P("t-1+t^-1")
        for args in ((delta1, delta2, 1, None), (delta2, delta1, None, 1)):
            report = build_report(*args[:2], ua1=args[2], ua2=args[3], bounds=SearchBounds(2, 2, 60))
            cc = _criterion(report, "cc-bar-witness")
            assert (cc.verdict, cc.certificate) == ("NoObstruction", "mod t-1+t^-1: c = t+1, sign = +1")


class TestParityAddsNoBound:
    """When parity obstructs, the modulus is t-1+t^-1 = h_form(1) and the
    remainder is the constant residue d = 2 + 4m.  x^2 + xy + y^2 is only
    ever 0, 1 or 3 mod 4, so the form never takes +-d: quadratic-form
    refutes too, and certifies the same rho_lower 2."""

    def test_form_misses_two_mod_four(self):
        residues = {form_value(1, x, y) % 4 for x in range(4) for y in range(4)}
        assert residues == {0, 1, 3}

    def test_quadratic_form_certifies_every_parity_bound(self, swapped_reports):
        reports = _corpus_reports() + [r for pair in swapped_reports for r in pair]
        fired = 0
        for report in reports:
            if _criterion(report, "parity").verdict == "Obstructs":
                fired += 1
                quad = _criterion(report, "quadratic-form")
                assert quad.verdict == "Obstructs" and quad.rho_lower == 2, report.format()
        assert fired > 40


class TestOneDivisionPerModulus:
    """Parity and quadratic-form read one residue per modulus: a report
    divides once by the polynomial of each side whose |h| is prime or 1,
    and only when the two polynomials differ."""

    @staticmethod
    def expected_divisions(x, y):
        deltas = [alexander(v) if isinstance(v, SeifertMatrix) else v for v in (x, y)]
        if deltas[0] == deltas[1]:
            return []
        out = []
        for mod, other in (deltas, deltas[::-1]):
            h = mod.coeff(1)
            if h and mod == h_form(h) and (abs(h) == 1 or numtheory.is_prime(abs(h))):
                out.append((other, mod))
        return out

    def test_corpus_and_crossing_changes(self, monkeypatch):
        calls = []
        divide = obstruct.divmod_rational

        def counted(a, b):
            calls.append((a, b))
            return divide(a, b)

        monkeypatch.setattr(obstruct, "divmod_rational", counted)
        pairs = [(x, y, u1, u2) for _, _, (x, y, u1, u2, _, _) in both_orders(corpus())]
        for V, W in crossing_change_pairs(1):
            for a, b in ((V, W), (W, V)):
                pairs += [(a, b, None, None), (alexander(a), alexander(b), None, None)]
        by_trefoil = 0
        for x, y, u1, u2 in pairs:
            calls.clear()
            try:
                build_report(x, y, ua1=u1, ua2=u2, bounds=SMALL)
            except ValueError as exc:
                if "not cyclic" in str(exc):  # rejected before any criterion
                    assert calls == []
                    continue
            assert calls == self.expected_divisions(x, y)
            by_trefoil += sum(mod == TREFOIL_DELTA for _, mod in calls)
        assert by_trefoil > 20
