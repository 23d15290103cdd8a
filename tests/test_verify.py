import pytest

from gordian import verify
from gordian.cli import main
from gordian.obstruct import QuadFormVerdict
from gordian.verify import (
    QUADFORM_GRID,
    SUITES,
    SuiteResult,
    minimize_case,
    quadform_oracle_values,
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

    def test_quadform_oracle_checks_count_grid_points(self):
        # case i is grid point i; the default count is the whole grid
        assert run_suite("quadform-oracle", 0, 3) == SuiteResult("quadform-oracle", 0, 3, 0)
        assert run_suite("quadform-oracle", 0) == SuiteResult("quadform-oracle", 0, len(QUADFORM_GRID), 0)
        assert len(QUADFORM_GRID) == 500

    def test_quadform_oracle_reports_a_failure(self, monkeypatch):
        # a procedure that always refutes is wrong at the first d the form takes
        monkeypatch.setattr(verify, "quadform_represents", lambda h, d: QuadFormVerdict("refuted"))
        result = run_suite("quadform-oracle", 0)
        h, d = QUADFORM_GRID[result.iterations - 1]
        assert (result.failures, result.counterexample) == (1, f"h = {h}, d = {d}")
        assert abs(d) in quadform_oracle_values(h)
        assert all(abs(e) not in quadform_oracle_values(g) for g, e in QUADFORM_GRID[: result.iterations - 1])

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
