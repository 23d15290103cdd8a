import pytest

from gordian.cli import main
from gordian.verify import (
    SUITES,
    SuiteResult,
    minimize_case,
    random_seifert,
    random_seifert_rows,
    random_unimodular,
    run_suite,
)
from gordian.seifert import SeifertMatrix, det_int
import random


class TestRandomGenerators:
    def test_random_seifert_is_valid_and_bounded(self):
        rng = random.Random(1)
        for size in (0, 2, 4, 6):
            for _ in range(20):
                V = random_seifert(rng, size)
                assert isinstance(V, SeifertMatrix)
                assert V.size == size
                assert all(abs(x) <= 3 for row in V.rows for x in row)

    def test_rows_draw_pinned(self):
        # the suites' cases, and so their results and counterexamples, rest
        # on these numbers being drawn in this order
        rng = random.Random(3)
        assert random_seifert_rows(rng, 4) == [
            [-2, 2, 1, -2],
            [1, -1, 1, 0],
            [1, 1, 2, 2],
            [-2, 0, 1, -3],
        ]
        assert random_seifert(rng, 2, bound=5).rows == ((4, -4), (-5, 2))
        assert rng.random() == 0.25935401432800764

    def test_random_unimodular(self):
        rng = random.Random(2)
        for _ in range(50):
            P = random_unimodular(rng, 4)
            assert det_int(P) in (1, -1)


class TestMinimize:
    def test_zeroes_irrelevant_scalars(self):
        case = [5, 3, 7]

        def fails(c):
            return c[0] != 0

        assert minimize_case(case, fails) == [5, 0, 0]

    def test_keeps_structure(self):
        case = ([2, [3, 4]], 6)

        def fails(c):
            return c[0][1][0] == 3

        small = minimize_case(case, fails)
        assert small == ([0, [3, 0]], 0)


class TestSuiteRunner:
    def test_all_suites_pass_small(self):
        for name in SUITES:
            result = run_suite(name, seed=3, iters=5)
            assert result.passed, (name, result.counterexample)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_all_suites_pass_at_default_iterations(self, seed):
        # each suite as the verify command runs it by default
        for name in SUITES:
            result = run_suite(name, seed=seed)
            assert result.passed, (name, result.counterexample)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("bogus", 0, 1)

    @pytest.mark.parametrize("iters", [0, -1])
    def test_rejects_fewer_than_one_iteration(self, iters):
        # a run of no case would be a vacuous pass
        for name in SUITES:
            with pytest.raises(ValueError, match="at least 1"):
                run_suite(name, 0, iters)

    def test_quadform_oracle_ignores_the_count(self):
        # its grid is fixed; a count is accepted for interface uniformity
        assert run_suite("quadform-oracle", 0, 2) == run_suite("quadform-oracle", 0)

    def test_deterministic_for_fixed_seed(self):
        a = run_suite("sequiv", seed=9, iters=10)
        b = run_suite("sequiv", seed=9, iters=10)
        assert a == b


class TestVerifyCliFailurePath:
    def test_exit_3_with_counterexample(self, capsys, monkeypatch):
        def failing_suite(seed, iters=1):
            return SuiteResult("broken", seed, 1, 1, "x = 1")

        monkeypatch.setitem(SUITES, "broken", failing_suite)
        code = main(["verify", "--suite", "broken", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "failures: 1" in out
        assert "counterexample: x = 1" in out
